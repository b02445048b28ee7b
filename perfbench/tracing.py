"""Spans and counts for the traced run, recorded from outside the program.

While a traced chunk runs, public functions of `wgcd.core` and
`wgcd.numtheory` are replaced by wrappers that record one span per call:
name, start, end, parent span and op id.  `core` imports `factor`,
`valuation` and `gcd_many` by name, so they are wrapped on both modules.
`WeightedTuple.__post_init__` only counts constructions, and every
`Counters` the program creates is collected so its exact `gcd_calls` can
be read after the op.  A name a later version of the program no longer
has is skipped, and the metrics built on it are reported as absent.

Spans stay in memory for one chunk, then are folded into per-kind
aggregates and appended to a gzipped CSV file outside the timed region.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name).  Reductions are the core rewrites the
# auto pipeline applies before it factors anything.
REDUCTIONS = ("core.abs_values", "core.sort_by_weight", "core.reduce_suffix_gcd")
_INNER = (
    ("core", "wgcd_auto", "core.wgcd_auto"),
    ("core", "abs_values", "core.abs_values"),
    ("core", "sort_by_weight", "core.sort_by_weight"),
    ("core", "reduce_suffix_gcd", "core.reduce_suffix_gcd"),
    ("core", "factor", "numtheory.factor"),
    ("core", "valuation", "numtheory.valuation"),
    ("core", "gcd_many", "numtheory.gcd_many"),
    ("numtheory", "factor", "numtheory.factor"),
    ("numtheory", "valuation", "numtheory.valuation"),
    ("numtheory", "gcd_many", "numtheory.gcd_many"),
    ("numtheory", "is_prime", "numtheory.is_prime"),
)
# Entry points the benchmark calls itself: (attribute of the op api, span name).
ENTRIES = (
    ("weighted_gcd", "core.weighted_gcd"),
    ("normalize", "core.normalize"),
    ("verify_wgcd", "core.verify_wgcd"),
    ("WeightedTuple", "core.WeightedTuple"),
    ("cli_main", "cli.main"),
)
_POST_INIT = "core.WeightedTuple.__post_init__"  # counted, not timed
_COUNTERS = "core.Counters"  # read for exact gcd_calls
_ABSENT = object()


class Tracer:
    """Records spans of the ops run between `install` and `uninstall`."""

    def __init__(self, modules: dict, kinds, span_file):
        self.modules = modules  # "core"/"numtheory"/"cli" -> module object
        self.span_file = span_file
        self.spans: list = []
        self._stack: list[int] = []
        self._op = (-1, "")
        self._tuples = 0
        self._counters: list = []
        self._saved: list = []
        self.wrapped: set[str] = set()
        self.ops = defaultdict(int)
        self.tuples = defaultdict(int)
        self.gcd_calls = defaultdict(int)
        self.count = defaultdict(int)  # (kind, name) -> spans
        self.total = defaultdict(int)  # (kind, name) -> ns inside
        self.self_ns = defaultdict(int)  # (kind, name) -> ns minus child spans
        self.bits = defaultdict(int)  # (kind, name) -> summed argument bits
        self.max_bits = defaultdict(int)
        self.layer_ns = defaultdict(int)  # layer -> self ns, all kinds
        self.kinds = tuple(kinds)
        self._next_span = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        with_bits = name == "numtheory.factor"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                bits = args[0].bit_length() if with_bits and args else 0
                spans[i] = (name, t0, t1, parent, self._op, bits)

        self.wrapped.add(name)
        return traced

    def begin(self, op_id: int, kind: str) -> None:
        self._op = (op_id, kind)
        self._tuples = 0
        self._counters.clear()

    def end(self) -> None:
        kind = self._op[1]
        self.ops[kind] += 1
        self.tuples[kind] += self._tuples
        self.gcd_calls[kind] += sum(c.gcd_calls for c in self._counters)
        self._op = (-1, "")

    def entry_api(self, api):
        """A copy of the op api whose entry points record spans."""
        traced = type(api)(**vars(api))
        for attr, name in ENTRIES:
            fn = getattr(api, attr, None)
            if fn is not None:
                setattr(traced, attr, self.wrap(name, fn))
        return traced

    def install(self) -> None:
        wrappers: dict = {}
        for mod_name, attr, name in _INNER:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr, _ABSENT)
            if fn is _ABSENT:
                continue
            # one wrapper per function object, so a call is never counted twice
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(name, fn)
            self._patch(mod, attr, wrappers[id(fn)])
        wt = getattr(self.modules["core"], "WeightedTuple", None)
        post_init = getattr(wt, "__post_init__", None)
        if post_init is not None:
            def counted(obj, _orig=post_init):
                self._tuples += 1
                return _orig(obj)

            self._patch(wt, "__post_init__", counted)
            self.wrapped.add(_POST_INIT)
        for mod_name in ("core", "cli"):
            counters = getattr(self.modules[mod_name], "Counters", None)
            if counters is not None and hasattr(counters(), "gcd_calls"):
                self._patch(self.modules[mod_name], "Counters", self._collecting(counters))
                self.wrapped.add(_COUNTERS)

    def _collecting(self, counters_cls):
        created = self._counters

        class Collected(counters_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        return Collected

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def flush(self) -> None:
        """Fold the chunk's spans into the aggregates and write them out."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        base = self._next_span
        lines = []
        for i, (name, t0, t1, parent, (op_id, kind), bits) in enumerate(spans):
            if op_id < 0:  # outside any op
                continue
            key = (kind, name)
            dur = t1 - t0
            own = dur - child_ns[i]
            self.count[key] += 1
            self.total[key] += dur
            self.self_ns[key] += own
            if bits:
                self.bits[key] += bits
                self.max_bits[key] = max(self.max_bits[key], bits)
            self.layer_ns[_layer(name, spans[parent][0] if parent >= 0 else "")] += own
            lines.append(
                f"{op_id},{kind},{name},{t0},{t1},{parent + base if parent >= 0 else -1},{bits}\n"
            )
        self.span_file.writelines(lines)
        self._next_span += len(spans)
        spans.clear()

    def absent(self) -> list[str]:
        """Names the program no longer has, so their metrics are left out."""
        probes = {name for _, _, name in _INNER} | {_POST_INIT, _COUNTERS}
        return sorted(probes - self.wrapped)

    def layer_shares(self) -> dict[str, float]:
        """Share of library time (everything but cli self time) per layer."""
        library = {k: v for k, v in self.layer_ns.items() if k != "cli"}
        total = sum(library.values()) or 1
        return {k: v / total for k, v in sorted(library.items())}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; a metric whose names were all absent is left out."""
        out: dict[str, float] = {}
        has = self.wrapped.__contains__

        def us(ns: int) -> float:
            return ns / 1000

        core_names = {name for _, name in ENTRIES + tuple(i[1:] for i in _INNER)
                      if name.startswith("core.")}
        for kind in self.kinds:
            n = self.ops[kind] or 1

            def tot(names, table=self.total):
                return sum(table[(kind, nm)] for nm in names)

            def put(metric, value, *needs):
                if any(has(nm) for nm in needs):
                    out[f"{metric}.{kind}"] = value

            if kind == "cli":
                out["cli.self_us_per_op.cli"] = us(self.self_ns[(kind, "cli.main")]) / n
            put("core.self_us_per_op", us(tot(core_names, self.self_ns)) / n, *core_names)
            put("core.tuples_built_per_op", self.tuples[kind] / n, _POST_INIT)
            put("core.reductions_us_per_op", us(tot(REDUCTIONS)) / n, *REDUCTIONS)
            put("core.gcd_calls_per_compute", self.gcd_calls[kind] / n, _COUNTERS)
            f = (kind, "numtheory.factor")
            put("numtheory.factor.calls_per_op", self.count[f] / n, f[1])
            put("numtheory.factor.bits_per_op", self.bits[f] / n, f[1])
            put("numtheory.factor.max_bits", self.max_bits[f], f[1])
            put("numtheory.factor.self_us_per_op", us(self.self_ns[f]) / n, f[1])
            ip = (kind, "numtheory.is_prime")
            put("numtheory.is_prime.calls_per_factor",
                self.count[ip] / self.count[f] if self.count[f] else 0.0, ip[1])
            put("numtheory.is_prime.us_per_op", us(self.total[ip]) / n, ip[1])
            v = (kind, "numtheory.valuation")
            put("numtheory.valuation.calls_per_op", self.count[v] / n, v[1])
            put("numtheory.valuation.us_per_op", us(self.total[v]) / n, v[1])
            put("numtheory.gcd_many.us_per_op",
                us(self.total[(kind, "numtheory.gcd_many")]) / n, "numtheory.gcd_many")
        return out


def _layer(name: str, parent_name: str) -> str:
    """Layer a span's self time belongs to; is_prime inside factor counts as factor."""
    if name.startswith("numtheory."):
        if name == "numtheory.is_prime" and parent_name == "numtheory.factor":
            return "numtheory.factor"
        return name
    return name.split(".", 1)[0]

"""Known-answer tuple generation and the instrumented benchmark harness.

`generate` builds a spec's tuple by its mode and returns the answer the
construction fixes, so ground truth never comes from a strategy; the
harness times strategies against each other, counts one run of each in
its own `counting` block, and refuses to report anything when they
disagree with each other or with that answer.  A run's record keeps
that block's `core.Counters`; both report formats take its fields in
`Counters.__slots__` order: a CSV row is a JSON result flattened beside
its spec.
"""

import contextvars
import csv
import io
import json
import math
import operator
import random
import statistics
import time
from collections.abc import Sequence

from . import core, numtheory
from .core import (
    Counters,
    WeightedTuple,
    _Frozen,
    _positive_weights,
    _Result,
    _set_field,
    counting,
)

# The oracle is excluded by default: its scan bound is astronomical on
# benchmark-scale inputs; pass it explicitly for small specs.
DEFAULT_STRATEGIES = ("auto", "full-factor", "lcm-power", "fold")

_COFACTOR_PRIME_BITS = (18, 28)  # keeps the slow strategies desk-scale
_NOISE_PRIME_BITS = (16, 24)  # adversarial-deficient's noise primes

# Largest coordinate, in bits, that a spec's mode may build.  It bounds what
# a spec builds, not what the strategies then run: lcm-power bounds its own
# power bitlen(x_i)*lcm(q)/q_i by core.LCM_POWER_BITS = 2**16, so it can
# still refuse a spec GenSpec accepts, and full-factor can run for minutes
# on a spec inside this bound.
SPEC_BITS = 1 << 16


class GenSpec(_Frozen):
    """Parameters of one generated trial, checked at every construction,
    a copy or an unpickling included.  Before anything is drawn, it bounds
    the bits of the largest coordinate its mode can build and raises
    ValueError past SPEC_BITS, read at each construction."""

    __slots__ = ("seed", "weights", "d_bits", "cofactor_bits", "mode")

    def __init__(self, seed: int, weights, d_bits: int, cofactor_bits: int, mode: str):
        seed, d_bits, cofactor_bits = map(operator.index, (seed, d_bits, cofactor_bits))
        weights = _positive_weights(weights)
        if d_bits < 1 or cofactor_bits < 1:
            raise ValueError("bit parameters must be >= 1")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        q = max(weights)
        if mode == "known-answer":  # d**q * c
            bits = q * d_bits + cofactor_bits
        elif mode == "random":
            bits = cofactor_bits
        else:
            # p**q times noise: each round multiplies every coordinate by
            # r**e, r a prime of lo to hi bits and 1 <= e <= q, so it adds
            # at least lo - 1 bits to the least noise, which stops the
            # rounds once it passes cofactor_bits; all weights 1 add no noise
            lo, hi = _NOISE_PRIME_BITS
            rounds = -(-cofactor_bits // (lo - 1)) if q > 1 else 0
            bits = q * (max(d_bits, 2) + hi * rounds)
        if bits > SPEC_BITS:
            raise ValueError(
                f"{mode} spec could build a {bits}-bit coordinate, over"
                f" bench.SPEC_BITS = {SPEC_BITS}"
            )
        fields = (seed, weights, d_bits, cofactor_bits, mode)
        for name, value in zip(self.__slots__, fields):
            _set_field(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": len(self.weights),
            "weights": list(self.weights),
            "d_bits": self.d_bits,
            "cofactor_bits": self.cofactor_bits,
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "GenSpec":
        """Inverse of to_json_dict, which ignores its derived "n".  Raises
        ValueError naming the field that is missing or of the wrong JSON
        type."""
        if not isinstance(obj, dict):
            raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")

        def field(name, ok, what):
            if name not in obj:
                raise ValueError(f"spec field {name!r} is missing")
            value = obj[name]
            if not ok(value):
                raise ValueError(f"spec field {name!r} must be {what}, got {value!r:.60}")
            return value

        def is_int(value):
            return type(value) is int  # not float, and not bool (JSON true)

        def is_int_list(value):
            return type(value) is list and all(map(is_int, value))

        return cls(
            seed=field("seed", is_int, "an integer"),
            weights=tuple(field("weights", is_int_list, "a list of integers")),
            d_bits=field("d_bits", is_int, "an integer"),
            cofactor_bits=field("cofactor_bits", is_int, "an integer"),
            mode=field("mode", lambda v: type(v) is str, "a string"),
        )


def _random_bits(rng: random.Random, bits: int) -> int:
    """Uniform integer with exactly `bits` bits; one bit gives 1 and
    draws nothing."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def _random_prime(rng: random.Random, bits: int) -> int:
    # every caller asks for at least 2 bits
    if bits == 2:
        return rng.choice((2, 3))
    while True:
        cand = _random_bits(rng, bits) | 1
        if numtheory.is_prime(cand):
            return cand


def _random_cofactor(rng: random.Random, bits: int, d: int) -> int:
    """Integer with exactly `bits` bits, coprime to d, built as a product
    of moderately sized primes so it stays factorable at desk scale."""
    lo, hi = _COFACTOR_PRIME_BITS
    attempts = 512 if bits <= 16 else 100_000
    for _ in range(attempts):
        c = 1
        while bits - c.bit_length() + 1 > hi:
            c *= _random_prime(rng, rng.randint(lo, hi))
        rest = bits - c.bit_length() + 1
        if rest >= 2:
            c *= _random_prime(rng, rest)
        if c.bit_length() == bits and math.gcd(c, d) == 1:
            return c
    raise ValueError(f"no {bits}-bit cofactor coprime to {d} found")


def known_answer_tuple(d: int, weights, cofactors) -> WeightedTuple:
    """Tuple with weighted gcd exactly d: x_i = d**q_i * c_i.

    A unit cofactor pins the answer: at that coordinate each prime of d
    contributes its exact exponent and every other prime contributes
    nothing, so extra structure in the remaining cofactors cannot raise
    the result above d.
    """
    w = _positive_weights(weights)
    cofactors = tuple(map(operator.index, cofactors))
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(cofactors) != len(w):
        raise ValueError("one cofactor per coordinate required")
    if any(c < 1 for c in cofactors):
        raise ValueError("cofactors must be positive")
    if 1 not in cofactors:
        raise ValueError("one cofactor must be 1 to pin the answer")
    values = tuple(d**q * c for c, q in zip(cofactors, w))
    return WeightedTuple(values, w)


def _gen_known(spec: GenSpec, rng: random.Random) -> tuple[WeightedTuple, int]:
    """A unit cofactor forces the cofactor part of the tuple to carry no
    weighted gcd, and the cofactors share no prime with d, so the answer
    is d by construction."""
    for _ in range(10_000):
        d = _random_bits(rng, spec.d_bits)
        try:
            cofactors = [
                _random_cofactor(rng, spec.cofactor_bits, d)
                for _ in range(len(spec.weights))
            ]
        except ValueError:
            # tiny cofactor spaces can be exhausted by d's primes
            # (e.g. 2 bits against a multiple of 6); redraw d
            continue
        cofactors[rng.randrange(len(spec.weights))] = 1
        return known_answer_tuple(d, spec.weights, cofactors), d
    raise ValueError(f"no cofactors of {spec.cofactor_bits} bits fit any d for {spec}")


def _gen_adversarial(spec: GenSpec, rng: random.Random) -> tuple[WeightedTuple, int]:
    """Prime-power-heavy tuple plus deficient-exponent noise.

    The base is p**q_i for a fresh prime p, so the weighted gcd is p.
    Noise primes enter every coordinate with exponent >= 1 but stay below
    the weight in one coordinate, so they inflate the plain gcd while
    contributing nothing to the weighted gcd.
    """
    weights = spec.weights
    p = _random_prime(rng, max(spec.d_bits, 2))
    values = [p**q for q in weights]
    deficient_at = [i for i, q in enumerate(weights) if q >= 2]
    if deficient_at:
        noise = [1] * len(weights)
        used = {p}
        while min(n.bit_length() for n in noise) - 1 < spec.cofactor_bits:
            r = _random_prime(rng, rng.randint(*_NOISE_PRIME_BITS))
            if r in used:
                continue
            used.add(r)
            k = rng.choice(deficient_at)
            for i, q in enumerate(weights):
                e = rng.randint(1, q - 1) if i == k else q
                noise[i] *= r**e
        values = [v * n for v, n in zip(values, noise)]
    return WeightedTuple(tuple(values), spec.weights), p


def _gen_random(spec: GenSpec, rng: random.Random) -> tuple[WeightedTuple, None]:
    """Unstructured signed tuple; magnitudes bounded by cofactor_bits."""
    while True:
        values = tuple(
            (1 - 2 * rng.randint(0, 1)) * rng.getrandbits(spec.cofactor_bits)
            for _ in range(len(spec.weights))
        )
        if any(values):
            return WeightedTuple(values, spec.weights), None


_GENERATORS = {
    "known-answer": _gen_known,
    "random": _gen_random,
    "adversarial-deficient": _gen_adversarial,
}
MODES = tuple(_GENERATORS)


def generate(spec: GenSpec) -> tuple[WeightedTuple, int | None]:
    """The spec's tuple and the weighted gcd its mode constructs: d for
    known-answer, the base prime p for adversarial-deficient, and None
    for random, whose answer nothing fixes.  Every mode draws from one
    `random.Random(spec.seed)`, so the tuple depends on the spec alone."""
    return _GENERATORS[spec.mode](spec, random.Random(spec.seed))


# ---------------------------------------------------------------------------
# harness

class StrategyRun(_Result):
    """One strategy's median time over the repetitions, the Counters of its
    counted run, and its answer."""

    __slots__ = ()
    _fields = ("strategy", "ns_median", "counters", "d")


class BenchRecord(_Result):
    """A spec's StrategyRuns, and whether their answers agree."""

    __slots__ = ()
    _fields = ("spec", "results", "agreement")


class StrategyDisagreement(RuntimeError):
    """Strategies returned different answers, or one differs from the
    answer the generator constructed (`expected`, None when the mode fixes
    none): a correctness bug, so the whole run aborts rather than report
    meaningless timings."""

    def __init__(self, record: BenchRecord, expected: int | None):
        self.record = record
        self.expected = expected
        answers = ", ".join(f"{r.strategy}={r.d}" for r in record.results)
        if expected is not None:
            answers += f"; constructed answer {expected}"
        super().__init__(f"strategy disagreement on {record.spec}: {answers}")


def _counted_run(fn, *args):
    with counting() as counters:
        return counters, fn(*args)


def bench_run(
    specs: Sequence[GenSpec],
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    repetitions: int = 3,
) -> list[BenchRecord]:
    """One record per spec: median wall time over `repetitions` and the
    counters of a single canonical run, per strategy.  That run counts in
    an empty `contextvars.Context`, so a caller's `counting` block counts
    only the timed repetitions and changes no record.

    Every strategy is also checked against the answer the spec's mode
    constructs, when it fixes one.  Aborts on any disagreement.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not strategies:
        raise ValueError("no strategy given")
    unknown = [s for s in strategies if s not in core.STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}")
    records = []
    for spec in specs:
        t, expected = generate(spec)
        args = t.values, t.weights
        runs = []
        answers = set() if expected is None else {expected}
        for name in strategies:
            fn = core._STRATEGIES[name]
            counters, d = contextvars.Context().run(_counted_run, fn, *args)
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter_ns()
                fn(*args)
                times.append(time.perf_counter_ns() - t0)
            runs.append(StrategyRun(name, int(statistics.median(times)), counters, d))
            answers.add(d)
        record = BenchRecord(spec, tuple(runs), len(answers) == 1)
        if not record.agreement:
            raise StrategyDisagreement(record, expected)
        records.append(record)
    return records


_CSV_FIELDS = (
    "seed",
    "n",
    "weights",
    "d_bits",
    "cofactor_bits",
    "mode",
    "strategy",
    "ns_median",
    *Counters.__slots__,
    "d",
    "agreement",
)


def _record_to_json(record: BenchRecord) -> dict:
    return {
        "spec": record.spec.to_json_dict(),
        "results": [
            {
                "strategy": r.strategy,
                "ns_median": r.ns_median,
                **r.counters._asdict(),
                "d": str(r.d),
            }
            for r in record.results
        ],
        "agreement": record.agreement,
    }


def bench_report(records: Sequence[BenchRecord], format: str = "json") -> bytes:
    """Serialize records with stable field order; json or csv."""
    if format == "json":
        payload = json.dumps([_record_to_json(r) for r in records], indent=2)
        return payload.encode()
    if format == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, _CSV_FIELDS)
        writer.writeheader()
        for entry in map(_record_to_json, records):
            spec = entry["spec"]
            spec["weights"] = "|".join(map(str, spec["weights"]))
            agreement = str(entry["agreement"]).lower()
            for result in entry["results"]:
                writer.writerow({**spec, **result, "agreement": agreement})
        return out.getvalue().encode()
    raise ValueError(f"unknown report format {format!r}")

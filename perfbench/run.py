"""Benchmark of the wgcd library, end to end and by layer.

    python3 perfbench/run.py --workload small-tuples --seed 1 --seconds 20 --trace 0

One client in one thread drives the public API in a closed loop, since a
library caller waits for each answer.  Ops cycle through four kinds, each
on its own input: `compute` (weighted_gcd), `normalize`
(normalize(WeightedTuple(...))), `verify` (verify_wgcd with a claim) and
`cli` (wgcd.cli.main(["compute", ..., "--json"]) with stdout captured).
Every timed call starts from raw integers.  Inputs come from the seed
(see workloads.py) and are generated in chunks with the clock stopped;
none is used twice in a run.  Outputs are checked against answers fixed
before timing, and a wrong answer or an exception counts as a failed op.

An op's time is the CPU time of the calling thread over the call.  No op
waits on anything, so this is its wall time less the stretches the host
gave the core to other work.  Times are scaled to a reference host speed:
the timed phase runs in blocks of about 20 ms of op time, and between
blocks a fixed piece of pure-Python work (probe_ns) measures how fast
the host runs interpreted code just then.  Each latency is multiplied
by REFERENCE_PROBE_NS over the mean of the probes around its block;
ops_per_s divides by the op time scaled so, and each set-up sample is
scaled by the probes around it.  A shared host slows by up to 1.8 times
while other tenants are busy; unscaled, that swamps the program's own
changes.  The probe shares no code with the program, so a slower
program still reads slower.  The unscaled throughput is printed as a
comment line.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
traced and untraced chunks and reports the per-layer metrics (see
tracing.py) plus the throughput ratio of the two.  `--workload all` runs
every workload, each in its own process.

The program is imported from src/ of the checkout holding this directory;
without it the benchmark exits with an error and prints no result.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import thread_time_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    *((f"{k}_{p}_us", "us") for k in KINDS for p in ("p50", "p99")),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# error_rate is 0 at a correct commit; the JSON carries it as failed/attempted.
REPORTED_ONLY = (("error_rate", "ratio"),)
PER_LAYER_UNITS = {
    "self_us_per_op": "us",
    "reductions_us_per_op": "us",
    "us_per_op": "us",
    "tuples_built_per_op": "count",
    "gcd_calls_per_compute": "count",
    "calls_per_op": "count",
    "calls_per_factor": "count",
    "bits_per_op": "bits",
    "max_bits": "bits",
    "overhead_ratio": "ratio",
}
SETUP_RUNS = 20  # set-up samples per untraced run, spread over its timed phase
# Op cycles generated ahead of each timed chunk.  A fixed count keeps the
# memory a run holds independent of how fast the machine happens to be.
CHUNK_CYCLES = 64
# The timed phase is cut into blocks of about this much op time, each
# bracketed by host-speed probes.  The host changes speed within tens of
# milliseconds, so blocks are short.
BLOCK_NS = 20_000_000
# probe_ns() at the reference host speed: about the fastest it reads on a
# shared 2-vCPU x86_64 host running CPython 3.11.  Timings are scaled to
# it (see host_scale()).
REFERENCE_PROBE_NS = 70_000
SPAN_DIR = ROOT / ".perfbench"

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wgcd
d = wgcd.weighted_gcd((70352, 5760, 13824), (2, 2, 3))
t1 = time.perf_counter()
print(repr(t1 - t0) if d == 4 else "wrong answer")
"""


def probe_ns() -> int:
    """Host speed now: the faster of two runs of a fixed piece of
    pure-Python work.

    The work mixes what the program's ops do: tuples, strings, a dict, a
    sort and big-integer gcds.  A shared host runs interpreted code up to
    1.8 times slower while its other tenants are busy, in stretches from
    tens of milliseconds to minutes.  The probe depends on nothing in the
    program, so scaling by it cancels the host's speed and cannot hide a
    slower program.
    """
    best = None
    for _ in range(2):
        t0 = thread_time_ns()
        rows = []
        index = {}
        for i in range(100):
            k = i * 2654435761 % 1000003
            row = (i, str(k), k)
            rows.append(row)
            index[row[1]] = row
        rows.sort(key=lambda row: row[1])
        g = 0
        for row in rows:
            g = math.gcd(g * 1000003 + row[2], 2**89 - 1)
        t = thread_time_ns() - t0
        best = t if best is None else min(best, t)
    return best


def host_scale(before: int, after: int) -> float:
    """Factor taking a time measured between two probes to the reference
    host speed."""
    return 2 * REFERENCE_PROBE_NS / (before + after)


def setup_sample() -> float:
    """Seconds for a fresh interpreter to import wgcd and answer one call."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the metric part of its dotted name."""
    for part in name.split("."):
        if part in PER_LAYER_UNITS:
            return PER_LAYER_UNITS[part]
    raise KeyError(name)


def load_program() -> SimpleNamespace:
    """Import wgcd from src/ of this checkout, never from elsewhere."""
    if not (SRC / "wgcd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wgcd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wgcd
    import wgcd.bench
    import wgcd.cli
    import wgcd.core
    import wgcd.numtheory

    if not Path(wgcd.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: wgcd was imported from {wgcd.__file__}, not {SRC}")
    return SimpleNamespace(
        modules={"core": wgcd.core, "numtheory": wgcd.numtheory, "cli": wgcd.cli},
        api=SimpleNamespace(
            weighted_gcd=wgcd.weighted_gcd,
            normalize=wgcd.normalize,
            verify_wgcd=wgcd.verify_wgcd,
            WeightedTuple=wgcd.WeightedTuple,
            cli_main=wgcd.cli.main,
        ),
        inputs=workloads.Program(
            known_answer_tuple=wgcd.bench.known_answer_tuple,
            full_factor=lambda v, w: wgcd.weighted_gcd(v, w, strategy="full-factor"),
        ),
    )


# ---------------------------------------------------------------------------
# ops


def make_op(kind: str, case: workloads.Case, api):
    """A zero-argument callable running one op, built before timing."""
    values, weights = case.values, case.weights
    if kind == "compute":
        return lambda: api.weighted_gcd(values, weights)
    if kind == "normalize":
        return lambda: api.normalize(api.WeightedTuple(values, weights))
    if kind == "verify":
        claim = case.claim
        return lambda: api.verify_wgcd(api.WeightedTuple(values, weights), claim)
    argv = [
        "compute",
        "--weights", ",".join(map(str, weights)),
        "--values", ",".join(map(str, values)),
        "--json",
    ]

    def cli():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = api.cli_main(argv)
        return rc, buf.getvalue()

    return cli


def check(kind: str, case: workloads.Case, out) -> bool:
    """Whether an op's output matches the answer fixed before timing; an
    output too malformed to compare raises, which the caller counts as wrong."""
    if isinstance(out, Exception):
        return False
    d = case.d
    if kind == "compute":
        return out == d
    if kind == "normalize":
        normalized, got = out
        ys = tuple(normalized.values)
        return (
            got == d
            and len(ys) == len(case.values)
            and all(x == y * d**q for x, y, q in zip(case.values, ys, case.weights))
        )
    if kind == "verify":
        return (out.ok, out.reason) == case.verdict
    rc, text = out
    return rc == 0 and json.loads(text)["d"] == str(d)


class Run:
    """One closed-loop client consuming one workload's input stream."""

    def __init__(self, workload: str, seed: int, program: SimpleNamespace):
        self.program = program
        self.cases = workloads.stream(workload, seed, program.inputs)
        self.latency_ns = {k: array("q") for k in KINDS}
        self.latency_block = {k: array("q") for k in KINDS}  # block of each latency
        self.timed_ns = {False: 0, True: 0}  # keyed by traced
        self.correct = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        # per block: host_scale() of the probes around it, and its untraced
        # op time and correct ops
        self.block_scale = array("d")
        self.block_ns = array("q")
        self.block_correct = array("q")
        # set-up samples, (seconds, host_scale), spread over the timed phase
        self.setup: list[tuple[float, float]] = []
        self.setup_every_ns = None
        self.op_ns = 0  # op time of every op timed so far

    def close_block(self, before: int) -> int:
        """End the open block; maybe take a set-up sample; return the probe
        that opens the next block."""
        after = probe_ns()
        self.block_scale.append(host_scale(before, after))
        self.block_ns.append(0)
        self.block_correct.append(0)
        due = self.setup_every_ns is not None and (
            self.op_ns >= len(self.setup) * self.setup_every_ns
        )
        if not due or len(self.setup) >= SETUP_RUNS:
            return after
        seconds = setup_sample()
        after_setup = probe_ns()
        self.setup.append((seconds, host_scale(after, after_setup)))
        return after_setup

    def plan(self, cycles: int, api) -> list:
        """The next `cycles` op cycles of the stream, ready to time."""
        plan = []
        for _ in range(cycles):
            for kind in KINDS:
                case = next(self.cases)
                plan.append((kind, case, make_op(kind, case, api)))
        return plan

    def timed(self, plan: list, tracer=None, budget_ns=None) -> list:
        """Run the ops in order, stopping after the cycle that spends the
        budget; returns (output, ns, block) per op run."""
        outs = []
        spent = block_start = 0
        gc.collect()
        gc.freeze()  # the pregenerated inputs stay out of the collector's scans
        try:
            before = probe_ns()
            for i, (kind, _, op) in enumerate(plan):
                if tracer:
                    tracer.begin(self.attempted + i, kind)
                t0 = thread_time_ns()
                try:
                    out = op()
                except Exception as exc:  # a failed op, counted by check()
                    out = exc
                t1 = thread_time_ns()
                if tracer:
                    tracer.end()
                outs.append((out, t1 - t0, len(self.block_scale)))
                spent += t1 - t0
                self.op_ns += t1 - t0
                if kind == KINDS[-1] and budget_ns is not None and spent >= budget_ns:
                    break
                if spent - block_start >= BLOCK_NS and i + 1 < len(plan):
                    before = self.close_block(before)
                    block_start = spent
            if outs:
                self.close_block(before)
        finally:
            gc.unfreeze()
        return outs

    def record(self, plan: list, outs: list, traced: bool) -> None:
        for (kind, case, _), (out, dt, block) in zip(plan, outs):
            try:
                ok = check(kind, case, out)
            except Exception:  # an output of the wrong shape is a failed op
                ok = False
            self.attempted += 1
            self.failed += not ok
            self.correct[traced] += ok
            self.timed_ns[traced] += dt
            if not traced:
                self.latency_ns[kind].append(dt)
                self.latency_block[kind].append(block)
                self.block_ns[block] += dt
                self.block_correct[block] += ok

    def drive(self, seconds: float, tracer=None) -> None:
        """Time chunks of fresh inputs until `seconds` of op time are spent;
        with a tracer, every other chunk is traced."""
        api = self.program.api
        traced_api = tracer.entry_api(api) if tracer else None
        warmup = self.plan(2, api)  # the first inputs of the stream, not counted
        self.timed(warmup)
        target = int(seconds * 1e9)
        if not tracer:  # set-up is an end-to-end metric
            setup_sample()  # fills the bytecode cache, not counted
            self.op_ns = 0
            self.setup_every_ns = target // SETUP_RUNS
        n = 0
        # a traced run goes on until it has timed at least one traced chunk
        while (spent := sum(self.timed_ns.values())) < target or (tracer and n < 2):
            trace_now = tracer is not None and n % 2 == 1
            plan = self.plan(CHUNK_CYCLES, traced_api if trace_now else api)
            if trace_now:
                tracer.install()
                try:
                    outs = self.timed(plan, tracer, target - spent)
                finally:
                    tracer.uninstall()
                tracer.flush()
            else:
                outs = self.timed(plan, None, target - spent)
            self.record(plan, outs, trace_now)
            n += 1
        while not tracer and len(self.setup) < SETUP_RUNS:  # the last blocks ran long
            before = probe_ns()
            seconds = setup_sample()
            self.setup.append((seconds, host_scale(before, probe_ns())))


def percentile(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1000


def end_to_end(run: Run) -> dict[str, float]:
    """Timings scaled to the reference host speed, each by the probes
    around the block or set-up sample it was measured in."""
    scale = run.block_scale
    scaled_ns = sum(ns * scale[b] for b, ns in enumerate(run.block_ns))
    values = {"ops_per_s": sum(run.block_correct) / (scaled_ns / 1e9)}
    for kind in KINDS:
        lat = sorted(
            ns * scale[b] for ns, b in zip(run.latency_ns[kind], run.latency_block[kind])
        )
        values[f"{kind}_p50_us"] = statistics.median(lat) / 1000
        values[f"{kind}_p99_us"] = percentile(lat, 0.99)
    values["setup_s"] = statistics.median(s * f for s, f in run.setup)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["error_rate"] = run.failed / run.attempted
    return values


def run_one(args) -> int:
    program = load_program()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    print("# perfbench " + json.dumps(meta), flush=True)
    run = Run(args.workload, args.seed, program)
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{args.workload}.csv.gz"
        with gzip.open(span_path, "wt", compresslevel=1) as span_file:
            span_file.write("op_id,kind,name,start_ns,end_ns,parent,bits\n")
            tracer = tracing.Tracer(program.modules, KINDS, span_file)
            run.drive(args.seconds, tracer)
        traced = run.correct[True] / (run.timed_ns[True] / 1e9)
        untraced = run.correct[False] / (run.timed_ns[False] / 1e9)
        values = tracer.metrics()
        values["trace.overhead_ratio"] = traced / untraced
        units = {name: per_layer_unit(name) for name in values}
        shares = tracer.layer_shares()
        print("# layer shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        print(f"# spans written to {span_path.relative_to(ROOT)}")
        if tracer.absent():
            print("# absent from the program: " + ", ".join(tracer.absent()))
    else:
        run.drive(args.seconds)
        values = end_to_end(run)
        print(f"# host speed: median scale {statistics.median(run.block_scale):.3f} "
              f"over {len(run.block_scale)} blocks and {len(run.setup)} set-up samples; "
              f"unscaled ops_per_s {run.correct[False] / (run.timed_ns[False] / 1e9):.6g}")
        units = dict(END_TO_END + REPORTED_ONLY)
    counts = {k: len(v) for k, v in run.latency_ns.items()}
    print(
        f"# ops attempted={run.attempted} failed={run.failed} "
        f"untraced samples per kind={json.dumps(counts)}"
    )
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    reported = {n for n, _ in REPORTED_ONLY}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
            if name not in reported
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced and traced, and checks that:
- every metric BENCHMARK.json names is printed with its unit, both as a
  text line and in the JSON result, and no op failed;
- no input repeats within the first 20000 of a seed;
- each workload's dominant layer in the traced run is the one it was
  chosen for;
- a deliberately corrupted expected answer, and an op that raises, are
  counted as failures without stopping the run;
- in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.
Exits non-zero on the first broken check.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DOMINANT = {
    "small-tuples": "core",
    "prime-powers": "numtheory.factor",
    "long-tuples": "numtheory.valuation",
}
SECONDS = "3"


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "11", "--seconds", SECONDS,
                 "--trace", str(trace))
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace={trace} reports exactly the declared metrics and units")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    expect(all(printed.get(n) == u for n, u in want.items()),
           f"{workload} trace={trace} prints every metric by name with its unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} trace={trace}: {result['attempted']} ops, none failed")
    if trace:
        shares = json.loads(next(
            line for line in lines if line.startswith("# layer shares ")
        )[len("# layer shares "):])
        top = max(shares, key=shares.get)
        expect(top == DOMINANT[workload],
               f"{workload} dominant layer is {top} ({shares[top]:.0%} of library time)")


def check_inputs_distinct(program) -> None:
    for workload in run.WORKLOADS:
        cases = itertools.islice(workloads.stream(workload, 3, program.inputs), 20_000)
        keys = {(c.values, c.weights) for c in cases}
        expect(len(keys) == 20_000, f"{workload}: 20000 inputs from one seed, none repeated")


def check_failures_counted(program) -> None:
    r = run.Run("small-tuples", 5, program)
    plan = r.plan(2, program.api)
    corrupted = []
    for i, (kind, case, op) in enumerate(plan):
        if i < len(run.KINDS):  # the first cycle gets a wrong expected answer
            ok, reason = case.verdict
            case = case._replace(d=case.d + 1, verdict=(not ok, reason))
        corrupted.append((kind, case, op))
    corrupted.append(("compute", plan[0][1], lambda: program.api.weighted_gcd((0, 0), (1, 2))))
    r.record(corrupted, r.timed(corrupted), traced=False)
    expect(r.attempted == len(corrupted) and r.failed == len(run.KINDS) + 1,
           f"corrupted answers and a raising op count as {r.failed} failures of {r.attempted}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "small-tuples", "--seed", "1", "--seconds", "1", cwd=bare)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               f"without the program it exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")
    program = run.load_program()
    check_inputs_distinct(program)
    check_failures_counted(program)
    check_bare_directory()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

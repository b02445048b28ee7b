"""Command-line surface: compute, normalize, verify, explain, bench, selftest.

Exit codes: 0 success, 1 verification or selftest failure, 2 invalid input,
3 a factorization gave up after numtheory.RHO_BUDGET Pollard rho iterations.
"""

import argparse
import sys

from .core import (
    STRATEGIES,
    WeightedTuple,
    counting,
    normalize,
    verify_wgcd,
    weighted_gcd,
    wgcd_auto,
)
from .numtheory import FactorBudgetExceeded

ECHO_LIMIT = 60  # characters of a rejected list quoted back in an error


def _parse_int_list(text: str, what: str, single: bool = False) -> list[int]:
    """Comma-separated decimals; `single` names the input as one integer
    rather than a list when it is rejected."""
    parts = [p.strip() for p in text.split(",")]
    if all(parts):
        try:
            return [int(p) for p in parts]
        except ValueError:
            pass
    # Python 3.11+ refuses to parse decimals longer than this many digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for i, p in enumerate(parts):
        # int() takes one sign, one `_` between two digits, and decimal
        # digits of any script (not `²`, which isdigit() accepts); it
        # counts only the digits
        digits = p[1:] if p[:1] in "+-" else p
        if not (digits.startswith("_") or digits.endswith("_") or "__" in digits):
            digits = digits.replace("_", "")
        if limit and digits.isdecimal() and len(digits) > limit:
            raise ValueError(
                f"{what} entry {i} has {len(digits)} digits, over the {limit}-digit"
                " limit of sys.get_int_max_str_digits()"
            )
    echo = text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."
    noun = "" if single else " list"
    raise ValueError(f"malformed {what}{noun} {echo!r}")


def _parse_tuple(args) -> tuple[list[int], list[int]]:
    # (values, weights) of --values and --weights, the weights parsed first
    weights = _parse_int_list(args.weights, "weights")
    values = _parse_int_list(args.values, "values")
    return values, weights


def _print(args, obj, text: str) -> None:
    # `obj` as one JSON line under --json, else `text`; json loads only here
    if args.json:
        import json

        text = json.dumps(obj)
    print(text)


def _run_compute(args) -> int:
    values, weights = _parse_tuple(args)
    with counting() as counters:
        d = weighted_gcd(values, weights, args.strategy)
    obj = {"d": str(d), "strategy": args.strategy, "counters": counters._asdict()}
    _print(args, obj, str(d))
    return 0


def _run_normalize(args) -> int:
    t = WeightedTuple(*_parse_tuple(args))
    normalized, d = normalize(t)
    values = [str(v) for v in normalized.values]
    _print(args, {"values": values, "d": str(d)}, f"{','.join(values)} d={d}")
    return 0


def _run_verify(args) -> int:
    t = WeightedTuple(*_parse_tuple(args))
    claim, *rest = _parse_int_list(args.claim, "claim", single=True)
    if rest:
        raise ValueError("claim must be a single integer")
    result = verify_wgcd(t, claim)
    obj = {"ok": result.ok, "reason": result.reason}
    _print(args, obj, "ok" if result.ok else result.reason)
    return 0 if result.ok else 1


def _run_explain(args) -> int:
    t = WeightedTuple(*_parse_tuple(args))
    result = wgcd_auto(t)
    steps = [
        {"rule": s.rule, "values": [str(v) for v in s.values], "weights": list(s.weights)}
        for s in result.trace
    ]
    obj = {
        "d": str(result.d),
        "strategy": "auto",
        "steps": steps,
        "counters": result.counters._asdict(),
    }
    # the plain lines render the JSON steps, so the two modes agree
    lines = [f"d={obj['d']} strategy=auto"]
    for s in steps:
        values, weights = ",".join(s["values"]), ",".join(map(str, s["weights"]))
        lines.append(f"  {s['rule']}: values={values} weights={weights}")
    _print(args, obj, "\n".join(lines))
    return 0


def _run_selftest(args) -> int:
    from .selftest import run_selftest  # imported here, as `bench` below

    results = run_selftest()
    obj = [{"case": r.label, "passed": r.passed, "detail": r.detail} for r in results]
    lines = [
        f"PASS {r.label}" if r.passed else f"FAIL {r.label}: {r.detail}"
        for r in results
    ]
    _print(args, obj, "\n".join(lines))
    return 0 if all(r.passed for r in results) else 1


def _run_bench(args) -> int:
    # imported here, so the other commands do not load the harness
    import json
    import os

    from . import bench as bench_mod

    if args.out and os.path.exists(args.out) and os.path.samefile(args.spec, args.out):
        raise ValueError(f"--out {args.out} is the spec file; the report would overwrite it")
    with open(args.spec, "rb") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("spec file must hold a JSON array of generator specs")
    specs = []
    for i, obj in enumerate(raw):
        try:
            specs.append(bench_mod.GenSpec.from_json_dict(obj))
        except ValueError as exc:
            raise ValueError(f"entry {i} of {args.spec}: {exc}") from None
    try:
        records = bench_mod.bench_run(specs, repetitions=args.reps)
    except bench_mod.StrategyDisagreement as exc:
        print(exc, file=sys.stderr)
        return 1
    blob = bench_mod.bench_report(records, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        print(blob.decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgcd",
        description="Weighted greatest common divisors of integer tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def tuple_flags(p, with_strategy=False):
        p.add_argument(
            "--weights", required=True, metavar="Q0,Q1,...",
            help="comma-separated positive integer weights",
        )
        p.add_argument(
            "--values", required=True, metavar="X0,X1,...",
            help="comma-separated integers of up to sys.get_int_max_str_digits() "
                 "digits (4300 by default); Linux caps one argument at 131072 "
                 "bytes, about 30 values at that limit",
        )
        if with_strategy:
            p.add_argument(
                "--strategy", choices=sorted(STRATEGIES), default="auto",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("compute", help="weighted gcd of a tuple")
    tuple_flags(p, with_strategy=True)
    p.set_defaults(handler=_run_compute)

    p = sub.add_parser("normalize", help="divide out the weighted gcd")
    tuple_flags(p)
    p.set_defaults(handler=_run_normalize)

    p = sub.add_parser("verify", help="check a claimed weighted gcd")
    tuple_flags(p)
    p.add_argument("--claim", required=True, metavar="N")
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("explain", help="trace the paper's reduction behind auto")
    tuple_flags(p)
    p.set_defaults(handler=_run_explain)

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="JSON array of generator specs")
    p.add_argument("--out", metavar="FILE", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(handler=_run_bench)

    p = sub.add_parser("selftest", help="run the embedded example corpus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_run_selftest)

    return parser


def _merge_list_flags(argv: list[str]) -> list[str]:
    # argparse mistakes "-5760,13824" for an option; fold the payload of
    # list-taking flags into --flag=value form so negatives parse.
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--values", "--weights") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_list_flags(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, FactorBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, FactorBudgetExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())

"""Quantifying the speed-up: take the gcd first, factor later.

Known-answer tuples hide a 16-bit answer behind 96-bit cofactors.  The
naive route factors every raw coordinate; `auto` factors at most gcd(x),
and nothing when its root candidate answers.
The harness times both and cross-checks answers against the constructed
ground truth.
"""

import json

from wgcd.bench import GenSpec, bench_report, bench_run

specs = [
    GenSpec(
        seed=seed,
        weights=(2, 2, 3),
        d_bits=16,
        cofactor_bits=96,
        mode="known-answer",
    )
    for seed in range(8)
]

records = bench_run(specs, strategies=("auto", "fold", "full-factor"),
                    repetitions=3)

print(f"{'seed':>4}  {'strategy':<12} {'median us':>10}  {'max factored bits':>18}")
for record in records:
    for run in record.results:
        print(
            f"{record.spec.seed:>4}  {run.strategy:<12} "
            f"{run.ns_median / 1000:>10.1f}  {run.counters.max_factored_bits:>18}"
        )
    print()

slowdowns = []
for record in records:
    by_name = {r.strategy: r for r in record.results}
    slowdowns.append(by_name["full-factor"].ns_median / by_name["auto"].ns_median)
print(f"full-factorization vs auto, median slowdown across specs: "
      f"{sorted(slowdowns)[len(slowdowns) // 2]:.0f}x")

report = bench_report(records, "json")
payload = json.loads(report)
print(f"\nreport: {len(payload)} records, "
      f"agreement everywhere: {all(r['agreement'] for r in payload)}")

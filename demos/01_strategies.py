"""Every wgcd characterization as a strategy, cross-checked on one tuple.

The weighted gcd of (x_0, ..., x_n) under weights (q_0, ..., q_n) is the
largest d with d**q_i | x_i for every i.  Four independent routes compute
it, plus the default `auto`, which factors at most gcd(x); they must
always agree.  `weighted_gcd` runs each one by its name in `STRATEGIES`.
"""

from wgcd import STRATEGIES, WeightedTuple, counting, weighted_gcd, wgcd_auto

t = WeightedTuple((70352, 5760, 13824), (2, 2, 3))
print(f"values  {t.values}")
print(f"weights {t.weights}")
print()

print(f"{'strategy':<12} {'d':>4}  factor_calls  max_factored_bits")
for name in sorted(STRATEGIES):
    with counting() as counters:
        d = weighted_gcd(t.values, t.weights, name)
    print(
        f"{name:<12} {d:>4}  {counters.factor_calls:>12}  "
        f"{counters.max_factored_bits:>17}"
    )

print()
print("auto factors at most gcd(x), here nothing: iroot(gcd(x), 2) = 4 already")
print("divides with every weight.  The paper's reduction, traced, ends in gcd(x):")
result = wgcd_auto(t)
for step in result.trace:
    print(f"  {step.rule}: {step.values}")
print(f"  d = {result.d}")

print()
print("A sign flip or a zero coordinate changes nothing:")
for values in ((-70352, 5760, 13824), (0, 5760, 13824)):
    print(f"  wgcd{values} = {wgcd_auto(WeightedTuple(values, (2, 2, 3))).d}")

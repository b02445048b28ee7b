"""The paper's tuple rewrites, which `wgcd explain` traces.

Each reduction preserves the weighted gcd; together they build a divisor
chain ending in gcd(x), the most the default route ever factors.  This
walks the five-coordinate example end to end, then shows normalization
and verification.
"""

from wgcd import (
    WeightedTuple,
    normalize,
    reduce_suffix_gcd,
    sort_by_weight,
    verify_wgcd,
    weighted_gcd,
    wgcd_auto,
)

t = WeightedTuple((123456, 243226, 5789534, 234566, 4322166), (7, 5, 3, 2, 9))
print(f"start   values={t.values} weights={t.weights}")

sorted_t, perm = sort_by_weight(t)
print(f"sorted  values={sorted_t.values} weights={sorted_t.weights} perm={perm}")

chained = reduce_suffix_gcd(sorted_t)
print(f"suffix  values={chained.values}   (a divisor chain: y0 | y1 | ... | yn)")

print(f"wgcd = {wgcd_auto(t).d}")
print()

pair = WeightedTuple((5760, 13824), (2, 3))
normalized, d = normalize(pair)
print(f"normalize{pair.values} under {pair.weights}: "
      f"values={normalized.values}, d={d}")
print(f"  5760 = {d}**2 * {normalized.values[0]},  13824 = {d}**3 * {normalized.values[1]}")
print(f"  the normalized tuple has wgcd {weighted_gcd(normalized.values, (2, 3))}")
print()

print("verify distinguishes the two failure modes:")
for claim in (24, 12, 48):
    ok, reason = verify_wgcd(pair, claim)
    print(f"  claim {claim:>2}: {'ok' if ok else reason}")

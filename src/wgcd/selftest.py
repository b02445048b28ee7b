"""Embedded corpus of worked weighted-gcd examples.

Every case is run through every strategy; the corpus doubles as the CLI
selftest and as the exactness gate of the test suite.  It also pins two
reduction intermediates and one weight-sort permutation.
"""

from collections import namedtuple

from .core import (
    STRATEGIES,
    WeightedTuple,
    reduce_suffix_gcd,
    sort_by_weight,
    weighted_gcd,
)


CorpusCase = namedtuple("CorpusCase", ("weights", "values", "expected"))


CORPUS: tuple[CorpusCase, ...] = (
    CorpusCase((2, 2, 3), (70352, 5760, 13824), 4),
    CorpusCase((2, 3), (5760, 13824), 24),
    CorpusCase((2, 3), (13824, 5760), 4),
    CorpusCase((2, 3), (8064, 5760), 4),
    CorpusCase((2, 3), (2304, 5760), 4),
    CorpusCase((2, 3), (2304, 13824), 24),
    CorpusCase((2, 3), (70352, 13824), 4),
    CorpusCase((2, 3), (1232, 13824), 4),
    CorpusCase((2, 3), (1152, 13824), 24),
    CorpusCase((2, 2, 3), (1232, 2304, 13824), 4),
    CorpusCase((2, 3, 5, 7, 9), (234566, 5789534, 243226, 123456, 4322166), 1),
    CorpusCase((7, 5, 3, 2, 9), (123456, 243226, 5789534, 234566, 4322166), 1),
    # prime squares against cubes: the reduction-resistant shape
    CorpusCase((2, 3), (4, 8), 2),
    CorpusCase((2, 3), (9, 27), 3),
    CorpusCase((2, 3), (25, 125), 5),
    # the pair whose lcm-power equation d**m = G has no integer solution
    CorpusCase((2, 3), (8, 4), 1),
    # all weights one: plain gcd
    CorpusCase((1, 1), (12, 18), 6),
    # equal weights whose root candidate iroot(48, 2) = 6 misses
    CorpusCase((2, 2), (48, 144), 4),
)

# Reduction intermediates pinned verbatim: (weights, values, suffix-gcd output).
SUFFIX_REDUCTIONS: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...] = (
    ((2, 2, 3), (70352, 5760, 13824), (16, 1152, 13824)),
    (
        (2, 3, 5, 7, 9),
        (234566, 5789534, 243226, 123456, 4322166),
        (2, 2, 2, 6, 4322166),
    ),
)

# Weight sort pinned: input weights/values and the sorted form.
SORT_CASE = (
    (7, 5, 3, 2, 9),
    (123456, 243226, 5789534, 234566, 4322166),
    (2, 3, 5, 7, 9),
    (234566, 5789534, 243226, 123456, 4322166),
)


# detail: None when passed, else what went wrong
SelftestResult = namedtuple("SelftestResult", ("label", "passed", "detail"))


def _case_label(case: CorpusCase) -> str:
    w = ",".join(str(q) for q in case.weights)
    x = ",".join(str(v) for v in case.values)
    return f"wgcd[{w}]({x}) = {case.expected}"


def run_selftest() -> list[SelftestResult]:
    """Run the corpus through every strategy plus the pinned reductions."""
    results = []
    for case in CORPUS:
        mismatches = []
        for name in sorted(STRATEGIES):
            d = weighted_gcd(case.values, case.weights, name)
            if d != case.expected:
                mismatches.append(f"{name} -> {d}")
        results.append(
            SelftestResult(
                _case_label(case),
                not mismatches,
                "; ".join(mismatches) or None,
            )
        )

    for weights, values, expected in SUFFIX_REDUCTIONS:
        got = reduce_suffix_gcd(WeightedTuple(values, weights)).values
        label = f"suffix-gcd[{','.join(map(str, weights))}]({','.join(map(str, values))})"
        results.append(
            SelftestResult(
                f"{label} = ({','.join(map(str, expected))})",
                got == expected,
                None if got == expected else f"got {got}",
            )
        )

    in_w, in_x, out_w, out_x = SORT_CASE
    sorted_t, _ = sort_by_weight(WeightedTuple(in_x, in_w))
    ok = sorted_t.weights == out_w and sorted_t.values == out_x
    results.append(
        SelftestResult(
            f"sort-by-weight[{','.join(map(str, in_w))}]",
            ok,
            None if ok else f"got {sorted_t.weights} / {sorted_t.values}",
        )
    )
    return results

"""Embedded corpus of worked weighted-gcd examples.

Every case is run through every strategy; the corpus doubles as the CLI
selftest and as the exactness gate of the test suite.  It also pins two
reduction intermediates and one weight-sort permutation.
"""

from .core import (
    STRATEGIES,
    WeightedTuple,
    _Result,
    reduce_suffix_gcd,
    sort_by_weight,
    weighted_gcd,
)


class CorpusCase(_Result):
    """A worked example: its weights, its values and their weighted gcd."""

    __slots__ = ()
    _fields = ("weights", "values", "expected")


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


class SelftestResult(_Result):
    """One selftest check: its label, whether it passed, and detail, None
    when it passed, else what went wrong."""

    __slots__ = ()
    _fields = ("label", "passed", "detail")


def _joined(xs) -> str:
    return ",".join(map(str, xs))


def _pinned(label: str, got, expected) -> SelftestResult:
    ok = got == expected
    return SelftestResult(label, ok, None if ok else f"got {got}")


def run_selftest() -> list[SelftestResult]:
    """Run the corpus through every strategy plus the pinned reductions."""
    results = []
    for case in CORPUS:
        mismatches = []
        for name in sorted(STRATEGIES):
            d = weighted_gcd(case.values, case.weights, name)
            if d != case.expected:
                mismatches.append(f"{name} -> {d}")
        label = f"wgcd[{_joined(case.weights)}]({_joined(case.values)}) = {case.expected}"
        results.append(SelftestResult(label, not mismatches, "; ".join(mismatches) or None))

    for weights, values, expected in SUFFIX_REDUCTIONS:
        got = reduce_suffix_gcd(WeightedTuple(values, weights)).values
        label = f"suffix-gcd[{_joined(weights)}]({_joined(values)}) = ({_joined(expected)})"
        results.append(_pinned(label, got, expected))

    in_w, in_x, out_w, out_x = SORT_CASE
    sorted_t, _ = sort_by_weight(WeightedTuple(in_x, in_w))
    got = sorted_t.weights, sorted_t.values
    results.append(_pinned(f"sort-by-weight[{_joined(in_w)}]", got, (out_w, out_x)))
    return results

"""Cross-strategy and reduction-law property tests on randomized tuples."""

import dataclasses
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import SPLIT_VALUES, SPLIT_WEIGHTS, naive_root, naive_wgcd, time_limit
from wgcd import core, gcd_many
from wgcd.bench import known_answer_tuple
from wgcd.core import (
    STRATEGIES,
    WeightedTuple,
    normalize,
    reduce_suffix_gcd,
    sort_by_weight,
    verify_wgcd,
    weighted_gcd,
    wgcd_auto,
)


@st.composite
def tuples(draw, max_len=4, max_abs=400, max_weight=4):
    n = draw(st.integers(1, max_len))
    values = draw(
        st.lists(
            st.integers(-max_abs, max_abs), min_size=n, max_size=n
        ).filter(lambda vs: any(vs))
    )
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    return WeightedTuple(tuple(values), tuple(weights))


@st.composite
def wide_known_answer_tuples(draw):
    """A signed tuple of 64-128 coordinates with weights up to 10**9, and
    its weighted gcd.  The coordinates weighted 1-64 form a known-answer
    tuple for a drawn d.  Each coordinate weighted 2**12 or more is 0,
    which constrains nothing, or d**k * c with k <= 64 and c < 2**32.
    Such a value has under 2**12 bits, so no power d'**q with d' > 1
    divides it, and any of them being nonzero makes the answer 1."""
    n = draw(st.integers(64, 128))
    heavy = 2**12
    weights = draw(
        st.lists(
            st.one_of(st.integers(1, 64), st.integers(heavy, 10**9)),
            min_size=n,
            max_size=n,
        )
    )
    light = [i for i, q in enumerate(weights) if q < heavy]
    assume(light)
    d = draw(st.integers(1, 2**32))
    cofactors = draw(
        st.lists(st.integers(1, 2**32), min_size=len(light), max_size=len(light))
    )
    cofactors[draw(st.integers(0, len(light) - 1))] = 1
    part = known_answer_tuple(d, [weights[i] for i in light], cofactors)
    values = [0] * n
    for i, x in zip(light, part.values):
        values[i] = x
    for i, q in enumerate(weights):
        if q >= heavy and draw(st.booleans()):
            values[i] = d ** draw(st.integers(0, 64)) * draw(st.integers(1, 2**32))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    values = [sign * x for sign, x in zip(signs, values)]
    answer = d if all(values[i] == 0 for i in range(n) if weights[i] >= heavy) else 1
    return WeightedTuple(tuple(values), tuple(weights)), answer


@st.composite
def divide_out_cases(draw):
    """(values, weights, b) on both sides of core._WEIGHT_ORDER_FROM: tied
    weights, weight gaps up to 10**9, zeros, signs and b = 1.  An exact
    case makes each coordinate 0 or a multiple of b**q; a multiple of a
    power that large is 0 unless b = 1."""
    n = draw(st.integers(1, 80))
    b = draw(st.one_of(st.just(1), st.integers(2, 2**16)))
    weights = draw(
        st.lists(
            st.one_of(st.integers(1, 40), st.integers(1, 10**9)),
            min_size=n,
            max_size=n,
        )
    )
    kinds = ("zero", "multiple") if draw(st.booleans()) else ("zero", "multiple", "any")
    values = []
    for q in weights:
        kind = draw(st.sampled_from(kinds))
        u = draw(st.integers(-(2**64), 2**64))
        if kind == "zero" or (kind == "multiple" and q > 40 and b > 1):
            values.append(0)
        else:
            values.append(u * b**q if kind == "multiple" and b > 1 else u)
    return tuple(values), tuple(weights), b


def divide_by_definition(values, weights, b):
    # x // b**q for every coordinate when b**q divides every nonzero x
    out = []
    for x, q in zip(values, weights):
        if x:
            if b > 1 and q > x.bit_length():
                return None  # b**q >= 2**q > |x|
            if x % b**q:
                return None
            x //= b**q
        out.append(x)
    return out


@settings(max_examples=300, deadline=None)
@given(divide_out_cases())
def test_divide_out_matches_the_definition(case):
    # the order that every entry point passes, on either side of the threshold
    order = core._visit_order(case[1])
    assert core._divide_out(*case, order) == divide_by_definition(*case)


@st.composite
def head_candidate_cases(draw):
    """A signed tuple of 32-80 coordinates, at least core._WEIGHT_ORDER_FROM,
    whose least-weight coordinates, zeros and tied weights among them,
    carry e**j, j <= q_min, for an extra e that the others may lack.  So the
    candidate from the head of the weight order can exceed the weighted
    gcd, the gcd of the head can be above 1 where gcd(x) is 1, and a head
    gcd below 2**q_min gives the candidate 1.  Every root
    |x_i| ** (1 / q_i) stays below about 2000, so naive_wgcd is quick."""
    n = draw(st.integers(32, 80))
    q_low = draw(st.integers(1, 3))
    light = draw(st.integers(1, 2 * core._HEAD))
    d = draw(st.one_of(st.just(1), st.integers(2, 10)))
    e = draw(st.sampled_from((1, 2, 3, 5, 6, 7)))
    j = draw(st.integers(1, q_low))
    values, weights = [], []
    for i in range(n):
        if i < light:
            q = q_low + draw(st.integers(0, 1))
            x = 0 if draw(st.integers(0, 3)) == 0 else d**q * e**j
        else:
            q = q_low + draw(st.integers(1, 4))
            x = d**q if draw(st.booleans()) else 0
        weights.append(q)
        values.append(x * draw(st.integers(1, 30)) * draw(st.sampled_from((1, -1))))
    assume(any(values))
    order = draw(st.permutations(range(n)))
    return WeightedTuple(
        tuple(values[i] for i in order), tuple(weights[i] for i in order)
    )


def verdict_by_definition(t, claim, d):
    # a claim whose powers divide every coordinate divides d
    if any(x % claim**q for x, q in zip(t.values, t.weights)):
        return (False, "divisibility")
    return (True, None) if claim == d else (False, "maximality")


def fast_path_by_definition(t):
    # the fast path that root-testing the candidate of the full gcd takes
    g = gcd_many(t.values)
    if g == 1:
        return "fastpath-one"
    q_min = min(q for x, q in zip(t.values, t.weights) if x)
    r = naive_root(g, q_min)
    return "fastpath-root" if all(x % r**q == 0 for x, q in zip(t.values, t.weights)) else None


def signed_head_case(head, head_weight, rest, rest_weight, n=32):
    # head's values at the least weight, then rest's at a larger one,
    # cycled to n coordinates with alternating signs
    values = head + [rest[i % len(rest)] for i in range(n - len(head))]
    weights = [head_weight] * len(head) + [rest_weight] * (n - len(head))
    return WeightedTuple(
        tuple(x * (-1) ** i for i, x in enumerate(values)), tuple(weights)
    )


@settings(max_examples=100, deadline=None)
@given(head_candidate_cases())
# the head's candidate 6 misses and gcd(x) = 3 gives d = 3
@example(signed_head_case([6, 0] + [6] * core._HEAD, 1, [9, 45], 2))
# the head's gcd is 2, gcd(x) is 1
@example(signed_head_case([2, 2, 0, 4] + [2] * core._HEAD, 1, [1, 3], 2))
# iroot(2, 2) = 1 answers d = 1 from the head
@example(signed_head_case([2, 0, 2, 6] + [2] * core._HEAD, 2, [3], 3))
def test_head_candidate_matches_the_definition(t):
    d = naive_wgcd(t.values, t.weights)
    assert weighted_gcd(t.values, t.weights) == d
    assert normalize(t)[1] == d
    assert_normalized_like_validated(t)
    q_min = min(q for x, q in zip(t.values, t.weights) if x)
    head = [x for q, x in sorted(zip(t.weights, t.values), key=lambda qx: qx[0]) if x]
    claims = {d, d + 1, d * 2, naive_root(gcd_many(head[: core._HEAD]), q_min)}
    claims.update(d // p for p in range(2, d + 1) if d % p == 0)
    for claim in claims:
        assert tuple(verify_wgcd(t, claim)) == verdict_by_definition(t, claim, d)
    steps = wgcd_auto(t).trace
    fast = steps[-1].rule if steps and steps[-1].rule.startswith("fastpath") else None
    assert fast == fast_path_by_definition(t)


@settings(max_examples=250, deadline=None)
@given(tuples())
def test_strategies_agree_with_definition(t):
    expected = naive_wgcd(t.values, t.weights)
    for name in STRATEGIES:
        assert weighted_gcd(t.values, t.weights, name) == expected, name


@settings(max_examples=150, deadline=None)
@given(tuples(max_abs=60), st.integers(1, 6))
def test_scalar_action(t, lam):
    scaled = WeightedTuple(
        tuple(lam**q * x for x, q in zip(t.values, t.weights)), t.weights
    )
    assert wgcd_auto(scaled).d == lam * wgcd_auto(t).d


@settings(max_examples=150, deadline=None)
@given(tuples(), st.randoms(use_true_random=False))
def test_permutation_invariance(t, rnd):
    idx = list(range(len(t.values)))
    rnd.shuffle(idx)
    shuffled = WeightedTuple(
        tuple(t.values[i] for i in idx),
        tuple(t.weights[i] for i in idx),
    )
    assert wgcd_auto(shuffled).d == wgcd_auto(t).d


@settings(max_examples=150, deadline=None)
@given(tuples())
def test_normalize_idempotent_and_verified(t):
    normalized, d = normalize(t)
    # verify_wgcd runs the auto route too, so full-factor is the oracle here
    assert d == weighted_gcd(t.values, t.weights, "full-factor")
    assert wgcd_auto(normalized).d == 1
    assert normalize(normalized) == (normalized, 1)
    assert verify_wgcd(t, d).ok


def assert_normalized_like_validated(t):
    # normalize builds its output unchecked; it must equal the checked build
    normalized, d = normalize(t)
    expected = tuple(x // d**q if x else 0 for x, q in zip(t.values, t.weights))
    validated = WeightedTuple(expected, t.weights)
    assert normalized == validated
    assert hash(normalized) == hash(validated)
    assert all(type(y) is int for y in normalized.values)
    for x, y, q in zip(t.values, normalized.values, t.weights):
        assert (x == y * d**q) if x else y == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        normalized.values = expected


@settings(max_examples=200, deadline=None)
@given(tuples())
def test_normalize_output_equals_a_validated_tuple(t):
    assert_normalized_like_validated(t)


@settings(max_examples=20, deadline=None)
@given(wide_known_answer_tuples())
def test_wide_tuples_with_extreme_weights_stay_bounded(case):
    # the gcd divides the unit coordinate d**q, so only primes of a d
    # below 2**32 are factored, within rho's reach: no budget is hit and
    # each call is exact
    t, d = case
    with time_limit(5):
        normalized, got = normalize(t)
        assert got == d
        for x, y, q in zip(t.values, normalized.values, t.weights):
            assert (x == y * d**q) if x else y == 0
        assert verify_wgcd(t, d).ok
        assert not verify_wgcd(t, d + 1).ok
        assert verify_wgcd(normalized, 1).ok


def test_normalize_output_equals_a_validated_tuple_on_a_root_miss():
    # d is factored here, so the output comes from a second division
    assert_normalized_like_validated(WeightedTuple(SPLIT_VALUES, SPLIT_WEIGHTS))


@settings(max_examples=200, deadline=None)
@given(tuples(max_len=5))
def test_divisor_chain(t):
    sorted_t, _ = sort_by_weight(t)
    ys = reduce_suffix_gcd(sorted_t).values
    for a, b in zip(ys, ys[1:]):
        if a == 0:
            assert b == 0  # a zero suffix gcd forces a zero suffix
        else:
            assert b % a == 0


@settings(max_examples=100, deadline=None)
@given(tuples())
def test_all_ones_weights_reduce_to_gcd(t):
    ones = WeightedTuple(t.values, (1,) * len(t.weights))
    assert wgcd_auto(ones).d == gcd_many(t.values)


@settings(max_examples=200, deadline=None)
@given(tuples())
def test_auto_never_factors_beyond_the_tuple_gcd(t):
    result = wgcd_auto(t)
    assert result.counters.max_factored_bits <= gcd_many(t.values).bit_length()


def test_agreement_on_larger_seeded_sample():
    rng = random.Random(1234)
    for _ in range(400):
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 5) for _ in range(n))
        values = tuple(rng.randint(-3000, 3000) for _ in range(n))
        if not any(values):
            continue
        expected = weighted_gcd(values, weights, "oracle")
        for name in STRATEGIES:
            assert weighted_gcd(values, weights, name) == expected, (name, values, weights)

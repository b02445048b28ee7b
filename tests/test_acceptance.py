"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single "criterion N: PASS" line (visible with -s);
a failing criterion shows up as an ordinary pytest failure instead.
"""

import math
import random
import time

from wgcd import gcd_many
from wgcd.bench import GenSpec, bench_run, generate
from wgcd.core import (
    STRATEGIES,
    WeightedTuple,
    abs_values,
    normalize,
    reduce_suffix_gcd,
    sort_by_weight,
    weighted_gcd,
    wgcd_auto,
)
from wgcd.numtheory import iroot
from wgcd.selftest import run_selftest

def oracle(t: WeightedTuple) -> int:
    # the definition-level scan, the ground truth of every criterion
    return weighted_gcd(t.values, t.weights, "oracle")


# ---------------------------------------------------------------------------
# randomized tuple builders (bounds fixed by the criteria; the mix keeps the
# definition-level scan affordable)

def _random_tuple(rng, max_len=4, max_abs=2000, max_weight=5, signed=True):
    n = rng.randint(1, max_len)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    while True:
        values = tuple(
            (rng.choice((-1, 1)) if signed else 1) * rng.randint(0, max_abs)
            for _ in range(n)
        )
        if any(values):
            return WeightedTuple(values, weights)


def _oracle_domain_cases(rng, count):
    """Tuples with n <= 4 (length up to 5), |x_i| <= 10**6, q_i <= 5.

    Three sub-distributions: small uniform, structured d**q * c products,
    and wide log-ranged values with the scan bound kept affordable.
    """
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 5)
        weights = tuple(rng.randint(1, 5) for _ in range(n))
        style = rng.random()
        if style < 0.45:
            values = tuple(rng.randint(-600, 600) for _ in range(n))
        elif style < 0.80:
            d = rng.randint(1, 14)
            values = []
            for q in weights:
                cmax = max(1, 10**6 // d**q)
                if q == 1:
                    cmax = min(cmax, 400)
                values.append(rng.choice((-1, 1)) * d**q * rng.randint(1, cmax))
            values = tuple(values)
        else:
            values = tuple(
                rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(n)
            )
            bound = min(iroot(abs(x), q) for x, q in zip(values, weights) if x)
            if bound > 4000:
                continue
        if not any(values):
            continue
        assert all(abs(x) <= 10**6 for x in values)
        cases.append(WeightedTuple(values, weights))
    return cases


def test_criterion_1_worked_example_exactness():
    start = time.perf_counter()
    worked = (
        ((2, 2, 3), (70352, 5760, 13824), 4),
        ((2, 3), (5760, 13824), 24),
        ((2, 3), (13824, 5760), 4),
        ((2, 3), (8064, 5760), 4),
        ((2, 3), (2304, 5760), 4),
        ((2, 3), (2304, 13824), 24),
        ((2, 3), (70352, 13824), 4),
        ((2, 3), (1232, 13824), 4),
        ((2, 2, 3), (1232, 2304, 13824), 4),
        ((2, 3, 5, 7, 9), (234566, 5789534, 243226, 123456, 4322166), 1),
        ((2, 3), (2**2, 2**3), 2),
        ((2, 3), (3**2, 3**3), 3),
        ((2, 3), (5**2, 5**3), 5),
    )
    for weights, values, expected in worked:
        t = WeightedTuple(values, weights)
        for name in STRATEGIES:
            assert weighted_gcd(values, weights, name) == expected, (name, values, weights)

    assert reduce_suffix_gcd(
        WeightedTuple((70352, 5760, 13824), (2, 2, 3))
    ).values == (16, 1152, 13824)
    sorted_t, _ = sort_by_weight(
        WeightedTuple((123456, 243226, 5789534, 234566, 4322166), (7, 5, 3, 2, 9))
    )
    assert sorted_t.values == (234566, 5789534, 243226, 123456, 4322166)
    assert reduce_suffix_gcd(sorted_t).values == (2, 2, 2, 6, 4322166)

    results = run_selftest()
    assert all(r.passed for r in results), [r.label for r in results if not r.passed]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    print(f"criterion 1 (worked-example exactness): PASS in {elapsed * 1e3:.0f} ms")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260811)
    cases = _oracle_domain_cases(rng, 10_000)
    for t in cases:
        expected = oracle(t)
        for name in STRATEGIES:
            got = weighted_gcd(t.values, t.weights, name)
            assert got == expected, (name, t.values, t.weights, got, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    print(
        f"criterion 2 (oracle equivalence): PASS on {len(cases)} tuples "
        f"in {elapsed:.1f} s"
    )


def test_criterion_3_reduction_invariance():
    rng = random.Random(3)
    rounds = 1000

    for _ in range(rounds):
        t = _random_tuple(rng)
        assert oracle(abs_values(t)) == oracle(t)

        t = _random_tuple(rng)
        assert oracle(sort_by_weight(t)[0]) == oracle(t)

        t, _ = sort_by_weight(_random_tuple(rng))
        assert oracle(reduce_suffix_gcd(t)) == oracle(t)

        # the paper's pair lemmas, written out: gcd prefix, then on a pair
        # with q0 < q1 the remainder x0 mod x1 (x0 >= x1) and gcd(x0, x1)
        t, _ = sort_by_weight(_random_tuple(rng))
        prefixed = WeightedTuple(
            (math.gcd(*t.values),) + tuple(abs(x) for x in t.values[1:]), t.weights
        )
        assert oracle(prefixed) == oracle(t)

        q0 = rng.randint(1, 4)
        q1 = rng.randint(q0 + 1, 5)
        x0, x1 = rng.randint(1, 5000), rng.randint(1, 5000)
        before = oracle(WeightedTuple((x0, x1), (q0, q1)))
        y0 = x0 % x1 if x0 >= x1 else x0  # 0 is unconstrained
        assert oracle(WeightedTuple((y0, x1), (q0, q1))) == before
        g0 = math.gcd(x0, x1)
        assert oracle(WeightedTuple((g0, x1), (q0, q1))) == before

    print(f"criterion 3 (reduction invariance): PASS on {rounds} inputs per op")


def test_criterion_4_divisor_chain():
    rng = random.Random(4)
    checked = 0
    for _ in range(1000):
        t = _random_tuple(rng, max_len=5)
        ys = reduce_suffix_gcd(sort_by_weight(t)[0]).values
        for a, b in zip(ys, ys[1:]):
            assert b % a == 0 if a else b == 0
            checked += 1
    print(f"criterion 4 (divisor chain): PASS on {checked} adjacent pairs")


def test_criterion_5_lcm_power_equivalence():
    rng = random.Random(5)
    # the pair where the printed d**m = G equation has no solution
    awkward = WeightedTuple((8, 4), (2, 3))
    assert weighted_gcd(awkward.values, awkward.weights, "lcm-power") == oracle(awkward) == 1
    for _ in range(1000):
        t = _random_tuple(rng, max_abs=3000)
        assert weighted_gcd(t.values, t.weights, "lcm-power") == oracle(t), (t.values, t.weights)
    print("criterion 5 (lcm-power equivalence): PASS on 1000 tuples plus (8,4)")


def test_criterion_6_scalar_action_and_normalization():
    rng = random.Random(6)
    for i in range(1000):
        t = _random_tuple(rng, max_abs=500)
        lam = rng.randint(1, 20)
        scaled = WeightedTuple(
            tuple(lam**q * x for x, q in zip(t.values, t.weights)), t.weights
        )
        assert wgcd_auto(scaled).d == lam * wgcd_auto(t).d
        if i % 20 == 0 and lam <= 4 and all(abs(x) <= 50 for x in t.values):
            assert wgcd_auto(scaled).d == oracle(scaled)
        normalized, _ = normalize(t)
        assert wgcd_auto(normalized).d == 1
    print("criterion 6 (scalar action, normalization): PASS on 1000 tuples")


def test_criterion_7_speedup_evidence():
    start = time.perf_counter()
    weight_mix = ((2, 3), (2, 2, 3), (1, 2, 3), (3, 4), (2, 3, 5))
    specs = [
        GenSpec(
            seed=1000 + i,
            weights=weight_mix[i % len(weight_mix)],
            d_bits=16,
            cofactor_bits=128,
            mode="known-answer",
        )
        for i in range(100)
    ]
    records = bench_run(specs, strategies=("auto", "full-factor"), repetitions=1)
    assert all(r.agreement for r in records)
    for spec, record in zip(specs, records):
        t, _ = generate(spec)
        suffix_gcd_bits = gcd_many(t.values).bit_length()
        by_name = {run.strategy: run for run in record.results}
        assert by_name["auto"].counters.max_factored_bits <= suffix_gcd_bits
        assert (
            by_name["auto"].counters.max_factored_bits
            < by_name["full-factor"].counters.max_factored_bits
        ), spec
        assert by_name["full-factor"].counters.max_factored_bits >= 128
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"speed-up evidence took {elapsed:.0f}s"
    print(
        f"criterion 7 (speed-up evidence): PASS on {len(specs)} specs "
        f"in {elapsed:.1f} s"
    )


def test_criterion_8_known_answer_soundness():
    rng = random.Random(8)
    weight_mix = ((1,), (2,), (1, 2), (2, 3), (2, 2, 3), (1, 1), (3, 5), (4, 5))
    for i in range(1000):
        weights = weight_mix[i % len(weight_mix)]
        spec = GenSpec(
            seed=rng.getrandbits(32),
            weights=weights,
            d_bits=rng.randint(1, 8),
            cofactor_bits=rng.randint(1, 6),
            mode="known-answer",
        )
        t, expected = generate(spec)
        assert oracle(t) == expected, spec
    print("criterion 8 (known-answer soundness): PASS on 1000 generated tuples")

import copy
import dataclasses
import functools
import inspect
import math
import pickle
import random
import subprocess
import sys
import threading
import types
from bisect import bisect_left
from pathlib import Path

import pytest
import sympy

from helpers import (
    SPLIT_PRIMES,
    SPLIT_VALUES,
    SPLIT_WEIGHTS,
    counts,
    naive_wgcd,
    second_tier_bound,
    time_limit,
)
import wgcd
from wgcd import bench, core, numtheory, selftest
from wgcd.bench import MODES, GenSpec, generate
from wgcd.core import (
    STRATEGIES,
    Counters,
    TraceStep,
    WeightedTuple,
    WgcdResult,
    abs_values,
    counting,
    gcd_many,
    normalize,
    reduce_suffix_gcd,
    sort_by_weight,
    verify_wgcd,
    weighted_gcd,
    wgcd_auto,
)
from wgcd.numtheory import FactorBudgetExceeded, factor

WORKED_TRIPLE = WeightedTuple((70352, 5760, 13824), (2, 2, 3))

# gcd N, a 128-bit semiprime that rho needs about 2**32 iterations to split.
# The root candidate misses (N**2 does not divide N * 143) and no coordinate
# separates N's two primes, so `auto` must factor N whole.
SEMIPRIME_128 = sympy.nextprime(2**63) * sympy.nextprime(2**64)
UNSPLIT_TUPLE = WeightedTuple(
    (SEMIPRIME_128 * 35, SEMIPRIME_128 * 143, SEMIPRIME_128 * 17), (1, 2, 3)
)


def wt(values, weights):
    return WeightedTuple(tuple(values), tuple(weights))


class TestTypes:
    def test_weight_vector_validation(self):
        # the weights of a WeightedTuple: at least one, each >= 1
        with pytest.raises(ValueError, match="empty"):
            wt((), ())
        with pytest.raises(ValueError, match="positive"):
            wt((1, 2, 3), (2, 0, 3))
        with pytest.raises(ValueError, match="positive"):
            wt((1,), (-1,))

    def test_weight_vector_accessors(self):
        t = wt([8, 16, 32], [4, 6, 10])
        assert t.weights == (4, 6, 10) and type(t.weights) is tuple
        assert len(t.weights) == 3 and t.weights[1] == 6
        assert list(zip(t.values, t.weights)) == [(8, 4), (16, 6), (32, 10)]
        assert not hasattr(t, "pairs")

    def test_weighted_tuple_validation(self):
        with pytest.raises(ValueError):
            wt((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            wt((0, 0), (2, 3))

    @pytest.mark.parametrize(
        "values, weights",
        [
            ((2.5, 5), (1, 1)),
            ((12.9, 18), (1, 1)),
            ((8, 8), (1.9, 1)),
            (("12", "18"), (1, 1)),
        ],
    )
    def test_non_integers_rejected(self, values, weights):
        with pytest.raises(TypeError):
            weighted_gcd(values, weights)

    @pytest.mark.parametrize(
        "values, weights",
        [
            ((), ()),
            ((1, 2), ()),
            ((1, 2, 3), (2, 0, 3)),
            ((1,), (-1,)),
            ((1, 2), (1, 2, 3)),
            ((0, 0), (2, 3)),
            ((2.5, 5), (1, 1)),
            ((8, 8), (1.9, 1)),
            ((8, 0.0), (1, 0)),
        ],
    )
    def test_weighted_gcd_rejects_as_weighted_tuple_does(self, values, weights):
        # weighted_gcd checks its arguments without building a
        # WeightedTuple, with the same error, and before it reads the
        # strategy name
        with pytest.raises((TypeError, ValueError)) as built:
            WeightedTuple(values, weights)
        for strategy in [*STRATEGIES, "bogus"]:
            with pytest.raises(built.type) as called:
                weighted_gcd(values, weights, strategy=strategy)
            assert str(called.value) == str(built.value), strategy

    def test_values_from_any_iterable(self):
        # WeightedTuple reads the values once, through operator.index
        assert weighted_gcd([5760, 13824], (2, 3)) == 24
        assert weighted_gcd((x for x in (5760, 13824)), (2, 3)) == 24
        with pytest.raises(TypeError):
            weighted_gcd((x / 1 for x in (5760, 13824)), (2, 3))

    def test_zero_coordinates_allowed(self):
        assert wt((0, 13824), (2, 3)).values == (0, 13824)


class TestBruteforce:
    def test_worked_pair(self):
        assert weighted_gcd((5760, 13824), (2, 3), "oracle") == 24

    def test_all_weights_one_is_gcd(self):
        assert weighted_gcd((12, 18), (1, 1), "oracle") == 6

    def test_zero_coordinate_unconstrained(self):
        assert weighted_gcd((0, 13824), (2, 3), "oracle") == 24

    def test_scan_budget(self, monkeypatch):
        monkeypatch.setattr(core, "ORACLE_SCAN_LIMIT", 10**7)
        with pytest.raises(ValueError):
            weighted_gcd((10**14,), (1,), "oracle")
        assert weighted_gcd((13824,), (3,), "oracle") == 24


class TestFullFactorization:
    def test_reversed_worked_pair(self):
        assert weighted_gcd((13824, 5760), (2, 3), "full-factor") == 4

    def test_prime_square_cube(self):
        for p in (2, 3, 5):
            assert weighted_gcd((p**2, p**3), (2, 3), "full-factor") == p

    def test_worked_triple(self):
        assert weighted_gcd(WORKED_TRIPLE.values, WORKED_TRIPLE.weights, "full-factor") == 4


class TestGcdFactorization:
    def test_reduced_worked_triple(self):
        assert weighted_gcd((16, 1152, 13824), (2, 2, 3), "auto") == 4

    def test_unit_coordinate(self):
        assert weighted_gcd((1, 13824, 5760), (2, 2, 3), "auto") == 1

    def test_remainder_reduced_pair(self):
        assert weighted_gcd((2304, 13824), (2, 3), "auto") == 24

    @staticmethod
    def reference(values, weights):
        # min over nonzero coordinates of floor(valuation / weight), per prime of g
        g = math.gcd(*values)
        d = 1
        for p in sympy.factorint(g):
            d *= p ** min(
                sympy.multiplicity(p, x) // q for x, q in zip(values, weights) if x
            )
        return d

    def test_matches_the_per_coordinate_minimum(self):
        rng = random.Random(7)
        primes = (2, 3, 5, 7, 11, 65537)
        for _ in range(400):
            n = rng.randint(1, 7)
            weights = [rng.randint(1, 6) for _ in range(n)]
            base = math.prod(p ** rng.randint(0, 4) for p in rng.sample(primes, 3))
            values = []
            for q in weights:
                x = base**q * math.prod(p ** rng.randint(0, 3) for p in primes[:4])
                if rng.random() < 0.3:  # break the exponent of one prime
                    x //= math.gcd(x, rng.choice(primes) ** rng.randint(1, 3))
                values.append(-x if rng.getrandbits(1) else x)
            if n > 1 and rng.random() < 0.2:
                values[rng.randrange(n)] = 0
            t = wt(values, weights)
            assert weighted_gcd(t.values, t.weights, "auto") == self.reference(values, weights), t

    def test_late_coordinate_sets_the_cap(self):
        # g = 2**12 * 3**6 starts the bounds at 12 and 6; only the last
        # coordinate, of weight 5, lowers them, to 2 and 1
        values = (2**12 * 3**6, -(2**40) * 3**18 * 5, 0, 2**12 * 3**9)
        weights = (1, 3, 7, 5)
        assert weighted_gcd(values, weights, "auto") == 2**2 * 3
        assert self.reference(values, weights) == 2**2 * 3

    def test_bit_length_guard_edge(self):
        # after the first coordinate m = 1, so the second needs 2**40:
        # q*m*(bitlen(2) - 1) = 40 < bitlen(x) = 41 builds it, and it
        # divides 2**40 but not 3 * 2**39; at bitlen(x) = 40 the guard
        # answers without building it
        assert weighted_gcd((2**20, 2**40), (20, 40), "auto") == 2
        assert weighted_gcd((2**20, 3 * 2**39), (20, 40), "auto") == 1
        assert weighted_gcd((2**20, 2**39), (20, 40), "auto") == 1
        assert weighted_gcd((2**20, -(2**39)), (20, 39), "auto") == 2

    def test_huge_weight_on_a_nonzero_coordinate_builds_no_power(self):
        # 3 ** (10**7) alone takes seconds to build
        with time_limit(1):
            assert weighted_gcd((9, 3), (1, 10**7), "auto") == 1
            assert weighted_gcd((9, 3**50), (2, 10**7), "auto") == 1

    @pytest.mark.parametrize("strategy", ["auto", "fold"])
    def test_huge_coordinates_are_fast(self, strategy):
        with time_limit(1):
            assert weighted_gcd((3**30000, 3**30001), (1, 2), strategy) == 3**15000


@functools.cache
def seeded_corpus() -> list[WeightedTuple]:
    """Known-answer, random and adversarial-deficient tuples with unsorted
    weights, random signs and some zero coordinates.  The random ones
    carry a shared factor of primes above 10**4, so their gcd needs more
    than trial division and the coprime split runs."""
    rng = random.Random(5)
    corpus = []
    for i in range(240):
        mode = MODES[i % 3]
        n = rng.randint(2, 5)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        spec = GenSpec(
            rng.getrandbits(32), weights, rng.randint(6, 30),
            rng.randint(8, 40), mode,
        )
        values = list(generate(spec)[0].values)
        if mode == "random":
            shared = [
                sympy.nextprime(rng.randrange(2**14, 2**20))
                for _ in range(rng.randint(2, 3))
            ]
            for j, q in enumerate(weights):
                values[j] *= math.prod(r ** rng.randint(1, q + 1) for r in shared)
        values = [-x if rng.getrandbits(1) else x for x in values]
        if rng.random() < 0.25:
            values[rng.randrange(n)] = 0
        if any(values):
            corpus.append(wt(values, weights))
    return corpus


def test_seeded_corpus_is_the_same_in_a_fresh_interpreter():
    # every prime of the corpus comes from its own seeded generator, so a
    # new interpreter, with its own hash seed, builds the same tuples
    probe = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_core import seeded_corpus\n"
        "print([(t.values, t.weights) for t in seeded_corpus()])"
    )
    tests, src = Path(__file__).resolve().parent, Path(wgcd.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(tests), str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == str([(t.values, t.weights) for t in seeded_corpus()])


def long_tuple(rng: random.Random) -> tuple[WeightedTuple, int]:
    # 64 signed coordinates d**q_i * c_i under the weights 1-64 shuffled,
    # with a 16-bit d and 64-bit cofactors coprime to it, one of them 1
    weights = list(range(1, 65))
    rng.shuffle(weights)
    d = rng.getrandbits(15) | 1 << 15
    cofactors = []
    while len(cofactors) < 64:
        c = rng.getrandbits(64) | 1 << 63
        if math.gcd(c, d) == 1:
            cofactors.append(c)
    cofactors[rng.randrange(64)] = 1
    values = [rng.choice((1, -1)) * d**q * c for q, c in zip(weights, cofactors)]
    return wt(values, weights), d


def loop_verdict(t: WeightedTuple, d: int) -> tuple:
    # verify_wgcd's verdict as a per-prime loop: divisibility of every
    # d**q_i, then whether some prime of the residues' gcd still divides
    # every residue with its full weight
    residues = []
    for x, q in zip(t.values, t.weights):
        if x % d**q:
            return (False, "divisibility")
        residues.append(x // d**q)
    for p in sympy.primefactors(math.gcd(*residues)):
        if all(r % p**q == 0 for r, q in zip(residues, t.weights)):
            return (False, "maximality")
    return (True, None)


class TestRootAndSplit:
    """The `auto` route answers with the root candidate when it can, and
    on a miss splits the gcd's part with no prime below 10**4 into coprime
    pieces, never factoring the gcd."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """(rest, pieces) of every coprime split the route makes, where
        rest is what trial division leaves of the gcd.  The second tier's
        refinements of a piece against its gcd h, [c, h], are not splits
        of rest and are skipped."""
        seen, refine = [], core._exact_pieces

        def spy(xs, ys):
            pieces = refine(xs, ys)
            if len(xs) == 1:
                seen.append((xs[0], [c for c, _ in pieces]))
            return pieces

        monkeypatch.setattr(core, "_exact_pieces", spy)
        return seen

    def test_route_matches_full_factor_and_sympy(self, splits):
        hits = []  # whether the root answered, for each gcd > 1
        for t in seeded_corpus():
            g = math.gcd(*t.values)
            seen = len(splits)
            with counting() as c:
                d = core._STRATEGIES["auto"](t.values, t.weights)
            if g > 1:
                q = min(q for x, q in zip(t.values, t.weights) if x)
                r = sympy.integer_nthroot(g, q)[0]
                hits.append(all(x % r**q_i == 0 for x, q_i in zip(t.values, t.weights)))
                # a miss splits the part of g whose primes exceed 10**4,
                # passed first, when it is at least 10**8 (below, it is 1 or
                # one prime); a hit factors nothing
                rough = math.prod(
                    p**e for p, e in sympy.factorint(g).items() if p > 10**4
                )
                split = not hits[-1] and rough >= 10**8
                assert [xs0 for xs0, _ in splits[seen:]] == (
                    [rough] if split else []
                ), t
                assert not hits[-1] or c.factor_calls == 0, t
            assert d == weighted_gcd(t.values, t.weights, "full-factor"), t
            assert d == TestGcdFactorization.reference(t.values, t.weights), t
        # every path ran: root hits, root misses, and the split
        assert any(hits) and not all(hits)
        assert len(splits) > 20

    def test_split_pieces_are_coprime_and_cover_the_gcd(self, splits):
        for t in seeded_corpus():
            weighted_gcd(t.values, t.weights, "auto")
        assert len(splits) > 20
        for rest, pieces in splits:
            assert rest >= 10**8  # below it trial division leaves a prime
            for i, a in enumerate(pieces):
                assert rest % a == 0
                assert all(math.gcd(a, b) == 1 for b in pieces[i + 1 :])
            primes = {p for b in pieces for p in sympy.primefactors(b)}
            assert primes == set(sympy.primefactors(rest))
            assert min(primes) > 10**4

    def test_miss_on_a_smooth_gcd_factors_nothing(self):
        # g = 48 misses its root candidate 6, whose square does not divide
        # it; trial division alone gives 2**4 * 3, so d = 4 unfactored
        with counting() as c:
            assert weighted_gcd((48, 144), (2, 2)) == 4
        assert c.factor_calls == 0

    def test_split_bound_starts_at_the_exponent_in_g(self):
        # g = p**4 against x_1 / g = p refines to the one piece p, whose
        # own exponent 1 would cap the answer at p
        p = 10007
        for strategy in ("auto", "full-factor"):
            assert weighted_gcd((p**4, -(p**5)), (1, 2), strategy) == p**2

    def test_verify_matches_the_per_prime_loop(self):
        # the seeded corpus, then long tuples whose root test answers and
        # the same tuples times a prime past trial division, where it misses
        rng = random.Random(9)
        long = []
        for _ in range(4):
            hit, _ = long_tuple(rng)
            long += [hit, wt([x * 1000003 for x in hit.values], hit.weights)]
        for t in seeded_corpus() + long:
            d = weighted_gcd(t.values, t.weights, "full-factor")
            p = rng.choice(sympy.primefactors(math.gcd(*t.values)) or [2])
            claims = {d, d * p, d * 2, d + 1, 1}
            claims.update(d // q for q in sympy.primefactors(d))
            for claim in claims:
                assert tuple(verify_wgcd(t, claim)) == loop_verdict(t, claim), (
                    t, claim,
                )

    def test_split_reaches_no_rho(self, monkeypatch):
        # the root misses the 143-bit g = p**2 * r1 * r2, and the coprime
        # pieces are p, r1 and r2, so rho never runs where factor(g) would
        # need it; each piece is prime and below 10**12 = (10**4)**3, so it
        # is square-free and factors nothing
        p, r1, r2 = SPLIT_PRIMES
        values = SPLIT_VALUES
        t = wt(values, SPLIT_WEIGHTS)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        with time_limit(1):
            with counting() as c:
                assert weighted_gcd(values, t.weights) == p
            assert c.factor_calls == 0 and c.max_factored_bits == 0
            assert c.gcd_calls == 1  # gcd(x) only: the pieces take no counted gcd
            normalized, d = normalize(t)
            assert d == p and normalized.values[1] == r1 * r2
            assert verify_wgcd(t, p) == (True, None)
            assert verify_wgcd(t, 1) == (False, "maximality")
        with pytest.raises(FactorBudgetExceeded):
            factor(math.gcd(*values))  # g whole does need rho

    def test_wide_split_takes_one_gcd(self, monkeypatch):
        # 64 coordinates over 3 and four primes above 10**4: the prime
        # 2**30 + 3 has exponent 1 in g and contributes nothing, so g is
        # no square and the root misses.  The two counted gcds are the
        # head's and the one completing it to gcd(x); refining what trial
        # division leaves against the coordinates takes none, and every
        # piece is a prime below 10**12, decided by size
        rng = random.Random(19)
        primes = [sympy.nextprime(b) for b in (2, 10**4, 2**20, 2**30, 2**39)]
        shares = (1, 2, 1, 0, 1)
        weights = [rng.randint(2, 5) for _ in range(64)]
        values = [
            math.prod(p ** (q * k + rng.randrange(k == 0, q)) for p, k in zip(primes, shares))
            for q in weights
        ]
        t = wt(values, weights)
        expected = weighted_gcd(t.values, t.weights, "full-factor")
        assert expected == 3 * 10007**2 * 1048583 * 549755813911
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        with time_limit(1):
            assert "fastpath-root" not in {s.rule for s in wgcd_auto(t).trace}
            with counting() as c:
                assert core._STRATEGIES["auto"](t.values, t.weights) == expected
        assert c == Counters(factor_calls=0, max_factored_bits=0, gcd_calls=2)

    def test_long_root_hit_takes_the_head_gcd_only(self, monkeypatch):
        # the long-tuples shape: weights 1-64 shuffled, x_i = d**q_i * c_i
        # with 64-bit cofactors coprime to d.  The candidate from the gcd of
        # the core._HEAD least-weight coordinates answers, and that gcd is
        # the only one taken
        sizes, gcd = [], core.gcd_many

        def spy(xs):
            xs = list(xs)
            sizes.append(len(xs))
            return gcd(xs)

        monkeypatch.setattr(core, "gcd_many", spy)
        t, d = long_tuple(random.Random(21))
        with counting() as c:
            assert core._STRATEGIES["auto"](t.values, t.weights) == d
        assert c == Counters(factor_calls=0, max_factored_bits=0, gcd_calls=1)
        assert sizes == [core._HEAD]

    def test_equal_weights_split_reaches_no_rho(self, monkeypatch):
        # the same 143-bit g = p**2 * r1 * r2 under equal weights: the
        # pieces are p**2, r1 and r2.  The 61-bit p**2 is a perfect power,
        # so p takes its exponents times 2 and answers itself; r1 and r2
        # are proved square-free by size, so nothing is factored
        p, r1, r2 = SPLIT_PRIMES
        g = p**2 * r1 * r2
        t = wt((g * r1, g * r2, g), (2, 2, 2))
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        with time_limit(1):
            with counting() as c:
                assert weighted_gcd(t.values, t.weights) == p
            assert c.factor_calls == 0
            normalized, d = normalize(t)
            assert d == p and normalized.values == (r1**2 * r2, r1 * r2**2, r1 * r2)
            assert verify_wgcd(t, p) == (True, None)
            assert verify_wgcd(t, 1) == (False, "maximality")

    @pytest.mark.parametrize("zero_weight", [10**7, 1])
    def test_root_hit_past_a_zero_coordinate(self, zero_weight):
        # the root takes the least weight of a nonzero coordinate, 2, so
        # iroot(81, 2) = 9 hits; a zero never builds 9 ** (10**7)
        t = wt((0, 3**4 * 7, 3**6), (zero_weight, 2, 3))
        with time_limit(1), counting() as c:
            assert weighted_gcd(t.values, t.weights) == 9
            assert normalize(t) == (wt((0, 7, 1), t.weights), 9)
            assert verify_wgcd(t, 9) == (True, None)
            assert verify_wgcd(t, 3) == (False, "maximality")
        assert c.factor_calls == 0


class TestPieceShares:
    """On a miss, each coprime piece of what trial division leaves of g is
    refined until its exponents in the coordinates are exact, and its
    share of d comes from those exponents: by size, after one gcd with the
    second tier's primes in (10**4, B) for the piece c, B = min(r rounded
    up to its three leading bits, 10**5) with r = iroot(c, 3) + 1, or,
    only where a square factor could still matter, by factoring the
    piece."""

    @pytest.fixture
    def second_tier(self, monkeypatch):
        """The bound B of each gcd of a piece c with the second tier's
        product, checked against the B that c's size calls for."""
        calls, checked, product, gcd = [], [], core._second_tier_product, core.gcd_many

        def spy(bound):
            calls.append(bound)
            return product(bound)

        def gcd_spy(xs):
            # _split_share builds the product just before its gcd
            if len(calls) > len(checked):
                c = xs[0]
                assert calls[-1] == second_tier_bound(c), c
                checked.append(c)
            return gcd(xs)

        monkeypatch.setattr(core, "_second_tier_product", spy)
        monkeypatch.setattr(core, "gcd_many", gcd_spy)
        return calls

    def test_matches_full_factor_and_sympy_on_mid_size_primes(self):
        # a seeded fuzz of tuples of primes in (10**4, 10**6) and
        # (2**16, 2**24) with exponents 0-12 and weights 1-5
        rng = random.Random(16)
        mid = list(sympy.primerange(10**4, 10**6))
        wide = [sympy.nextprime(rng.randrange(2**16, 2**24)) for _ in range(60)]
        factored = unfactored = 0
        for _ in range(100):
            primes = rng.sample(mid, rng.randint(1, 3)) + rng.sample(wide, rng.randint(0, 3))
            weights = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
            values = [math.prod(p ** rng.randint(0, 12) for p in primes) for _ in weights]
            t = wt(values, weights)
            with counting() as c:
                d = core._STRATEGIES["auto"](t.values, t.weights)
            assert d == weighted_gcd(t.values, t.weights, "full-factor"), t
            assert d == TestGcdFactorization.reference(values, weights), t
            if math.gcd(*values) >= 10**8:
                factored += c.factor_calls > 0
                unfactored += c.factor_calls == 0
        assert factored and unfactored > 5 * factored

    def shares(self, values, weights):
        with counting() as c:
            d = weighted_gcd(values, weights)
        assert d == TestGcdFactorization.reference(values, weights)
        return d, c.factor_calls

    def test_noise_piece_is_skipped(self, monkeypatch, second_tier):
        # r1 * r2 is one 36-bit piece with exponents (1, 2) under weights
        # (2, 3): below (10**4)**3 it is square-free, and it contributes 1
        p, r1, r2 = 10007, 131071, 262147
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        values = (p**2 * r1 * r2, p**3 * (r1 * r2) ** 2)
        assert self.shares(values, (2, 3)) == (p, 0)
        assert second_tier == []

    def test_composite_piece_contributes_whole(self, monkeypatch, second_tier):
        # p * r1 * r2 is one 70-bit piece with exponents (2, 3, 4) under
        # weights (2, 3, 4): f(k) = k for every multiplicity k, so the
        # piece contributes itself whatever its primes' multiplicities
        p, r1, r2 = SPLIT_PRIMES[0], 131071, 262147
        c = p * r1 * r2
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        values = (c**2 * 5, c**3 * 7**3, c**4 * 11)
        assert self.shares(values, (2, 3, 4)) == (c, 0)
        assert second_tier == []

    def test_perfect_power_piece_takes_its_root(self, monkeypatch, second_tier):
        # the piece r**2 has exponents (1, 1); as r it has (2, 2), and
        # under weights (1, 2) r contributes r**1
        r, s = SPLIT_PRIMES[:2]
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        values = (r**2 * s, r**2 * s**2 * 3)
        assert self.shares(values, (1, 2)) == (r * s, 0)
        assert second_tier == []

    def test_second_tier_splits_a_square(self, monkeypatch, second_tier):
        # c = a**2 * b with a in (10**4, 10**5): wgcd((c, c), (1, 2)) is
        # the square part a of c.  c is 54 bits, so size alone cannot rule
        # out a square; the gcd with the second tier's product is a, which
        # splits c into a and b with no factoring
        a, b = 10007, sympy.nextprime(2**27)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        c = a**2 * b
        assert self.shares((c, c), (1, 2)) == (a, 0)
        assert second_tier == [10**5]

    @pytest.mark.parametrize(
        "a, b, bound",
        [(10007, 10009, 10240), (10007, 50021, 20480), (20011, 90001, 40960)],
    )
    def test_second_tier_bound_follows_the_cube_root(self, monkeypatch, second_tier, a, b, bound):
        # c = a**2 * b in [10**12, 10**15) with a, b in (10**4, 10**5): the
        # primes below r = iroot(c, 3) + 1 rounded up to its three leading
        # bits find a, and the size test with that bound decides b
        c = a**2 * b
        assert 10**12 <= c < 10**15
        t = wt((c, c), (1, 2))
        expected = weighted_gcd(t.values, t.weights, "full-factor")
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        assert self.shares(t.values, t.weights) == (expected, 0)
        assert expected == a
        assert second_tier == [bound]

    def test_square_free_piece_above_its_bound(self, monkeypatch, second_tier):
        # c = a * b, 42 bits, both primes above its bound 14336: the gcd is
        # 1 and the size test with 14336 proves c square-free, where 10**4
        # could not; under weights (2, 3) and exponents (1, 3) c gives 1
        a, b = sympy.nextprime(2**20), sympy.nextprime(2**21)
        c = a * b
        assert c > 10**12
        t = wt((7**2 * c, 7**3 * c**3), (2, 3))
        expected = weighted_gcd(t.values, t.weights, "full-factor")
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        assert self.shares(t.values, t.weights) == (expected, 0)
        assert expected == 7
        assert second_tier == [14336]

    def test_second_tier_fuzz(self, second_tier):
        # pieces c in (10**12, 10**20), the sizes that reach the second
        # tier, of 2-4 primes drawn log-uniformly from (10**4, 4 * 10**5)
        # with exponents 0-6; each coordinate is a power of c times noise,
        # under weights 1-5.  Only a piece of 2**48 or more is factored.
        rng = random.Random(18)
        primes = list(sympy.primerange(10**4, 4 * 10**5))
        for _ in range(300):
            c = 0
            while not 10**12 < c < 10**20:
                logs = (rng.uniform(4, 5.6) for _ in range(rng.randint(2, 4)))
                ps = {primes[bisect_left(primes, 10**e)] for e in logs}
                c = math.prod(p ** rng.randint(0, 6) for p in ps)
            weights = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
            values = [
                c ** rng.randint(1, 6) * rng.choice(primes) ** rng.randint(0, 6) for _ in weights
            ]
            d, factor_calls = self.shares(values, weights)
            assert d == weighted_gcd(values, weights, "full-factor"), (values, weights)
            if c < 2**48:
                assert factor_calls == 0, (values, weights)
        assert sorted(set(second_tier)) == [
            2**14, 20480, 24576, 28672, 2**15, 40960, 49152, 57344, 2**16, 81920, 98304, 10**5,
        ]

    @staticmethod
    def tier_pieces(n: int) -> list[int]:
        # n pieces c = a * b * e in (10**12, 10**20), no perfect power, with
        # primes above 10**4: the first is 10007**2 * 10009, whose bound is
        # the least, 10240, the rest near a cube root drawn log-uniformly
        # from (10**4, 10**(20/3)), one in three a**2 * b.  Under weights
        # (1, 2), (c, c) leaves c undecided by size, so c reaches the tier
        rng = random.Random(35)
        pieces = [10007**2 * 10009]
        while len(pieces) < n:
            t = 10 ** rng.uniform(4, 20 / 3)
            a, b = (sympy.nextprime(max(10**4, int(t * rng.uniform(0.3, 1.5)))) for _ in "ab")
            e = a if rng.random() < 1 / 3 else sympy.nextprime(max(10**4, int(t**3 / (a * b))))
            c = a * b * e
            if 10**12 < c < 10**20 and len({a, b, e}) > 1:
                pieces.append(c)
        return pieces

    def test_second_tier_bound_is_tight(self, second_tier):
        # B**3 > c below the cap, so the size test still decides what it
        # did with a power of two; B overshoots r = iroot(c, 3) + 1 by
        # under a quarter; B >= 10240, above the first prime past 10**4,
        # 10007, so no product is empty; and the pieces call for all 15
        # bounds, the most products the route ever builds
        for c in self.tier_pieces(300):
            d, _ = self.shares((c, c), (1, 2))
            assert d == weighted_gcd((c, c), (1, 2), "full-factor")
            bound = second_tier[-1]
            r = sympy.integer_nthroot(c, 3)[0] + 1
            assert bound >= 10240
            if bound < 10**5:
                assert bound**3 > c and r <= bound < 1.25 * r, c
        assert len(second_tier) == 300
        assert len(set(second_tier)) == 15

    def test_undecided_piece_is_factored(self, second_tier):
        # a, b in (10**5, 10**6) and c = a**2 * b in [10**15, 10**16): no
        # prime of the second tier divides c, but at 10**15 or more it may
        # still hold a square, so c alone is factored
        a, b = sympy.nextprime(10**5), sympy.nextprime(2 * 10**5)
        c = a**2 * b
        assert 10**15 <= c < 10**16
        assert self.shares((c, c), (1, 2)) == (a, 1)
        assert second_tier == [10**5]
        # the second tier splits 10007 off c, but what is left, a**2 * b,
        # has only primes above 10**5 and is factored all the same
        c *= 10007
        assert self.shares((c, c), (1, 2)) == (a, 1)
        assert second_tier == [10**5, 10**5]

    def test_undecided_piece_takes_one_factor_call(self, monkeypatch):
        # the piece c = a**2 * b goes through the same counted `factor` as
        # every strategy, called once on c itself
        a, b = sympy.nextprime(10**5), sympy.nextprime(2 * 10**5)
        c = a**2 * b
        calls = []

        def spy(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(core, "factor", spy)
        with counting() as counters:
            assert self.shares((c, c), (1, 2)) == (a, 1)
        assert calls == [c]
        assert counters.factor_calls == 1
        assert counters.max_factored_bits == c.bit_length()

    def test_prime_powers_deficient_shape_needs_no_rho(self, monkeypatch):
        # the benchmark's adversarial-deficient shape: noise primes enter
        # every coordinate with its full weight but one.  r1 * r2 is one
        # 41-bit piece that rho had to split; now no piece is factored
        p = sympy.nextprime(2**22)
        r1, r2, r3 = (sympy.nextprime(2**k) for k in (20, 21, 19))
        weights = (2, 3, 5)
        values = (
            p**2 * r1 * r2 * r3**2,
            -(p**3) * (r1 * r2) ** 3 * r3**3,
            p**5 * (r1 * r2) ** 5 * r3**2,
        )
        t = wt(values, weights)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        with time_limit(1), counting() as c:
            assert weighted_gcd(values, weights) == p
            normalized, d = normalize(t)
            assert d == p and normalized.values == tuple(
                x // p**q for x, q in zip(values, weights)
            )
            assert verify_wgcd(t, p) == (True, None)
            assert verify_wgcd(t, 1) == (False, "maximality")
        assert c.factor_calls == 0


class TestLcmPower:
    def test_worked_pair(self):
        # G = gcd(5760**3, 13824**2) = 2**18 * 3**6, m = 6
        assert weighted_gcd((5760, 13824), (2, 3), "lcm-power") == 24

    def test_no_exact_power_solution(self):
        # G = 16 and no d > 1 satisfies d**6 | 16
        assert weighted_gcd((8, 4), (2, 3), "lcm-power") == 1

    def test_singleton(self):
        assert weighted_gcd((13824,), (3,), "lcm-power") == weighted_gcd((13824,), (3,), "fold") == 24

    def test_power_over_budget_rejected_before_building(self):
        # lcm(1009, 1013, 1019) / 1009 is about 10**6: 20-bit values would
        # become powers of about 2 * 10**7 bits
        values, weights = (2**19 + 5, 2**19 + 7, 2**19 + 9), (1009, 1013, 1019)
        with time_limit(1), pytest.raises(ValueError) as exc:
            weighted_gcd(values, weights, strategy="lcm-power")
        assert "lcm-power" in str(exc.value)
        assert f"{core.LCM_POWER_BITS}-bit budget" in str(exc.value)
        assert weighted_gcd(values, weights) == 1

    def test_power_at_budget_still_computed(self):
        # weights (1, 2): m = 2, so a coordinate of LCM_POWER_BITS / 2 bits
        # is at the budget and one bit more is over it
        bits = core.LCM_POWER_BITS // 2
        assert weighted_gcd((2 ** (bits - 1), 8), (1, 2), "lcm-power") == 2
        with pytest.raises(ValueError, match="lcm-power"):
            weighted_gcd((2**bits, 8), (1, 2), "lcm-power")


class TestSingleAndFold:
    # Each case's counts show which branch ran: the start coordinate is
    # factored unless its weight is 1, a weight-1 merge is one gcd, a
    # heavier merge factors the running d, and a zero is skipped.

    def test_single_examples(self):
        for values, weights, d, factored in (
            ((13824,), (3,), 24, 1),
            ((5760,), (2,), 24, 1),
            ((-7,), (1,), 7, 0),  # weight 1: |x| itself, nothing factored
        ):
            with counting() as c:
                assert core._STRATEGIES["fold"](values, weights) == d
            assert counts(c)[0::2] == (factored, 0), values

    def test_fold_merge_examples(self):
        # 13824 = 24**3 is the start in each: 14 bits / 3 is the least
        for values, weights, d, expected in (
            ((13824, 70352), (3, 2), 4, (2, 0)),  # 70352 = 2**4 * 4397
            ((13824, 36), (3, 1), 12, (1, 1)),  # one gcd(24, 36)
            ((13824, 0), (3, 5), 24, (1, 0)),  # the zero is skipped
            # 5**20 is prime to 24: d reaches 1, and the last coordinate,
            # which would keep 24, is never read
            ((13824, 5**20, 2**40 * 3**30), (3, 2, 3), 1, (2, 0)),
        ):
            with counting() as c:
                assert core._STRATEGIES["fold"](values, weights) == d
            assert counts(c)[0::2] == expected, values

    def test_fold_strategy(self):
        assert weighted_gcd(WORKED_TRIPLE.values, WORKED_TRIPLE.weights, "fold") == 4
        assert weighted_gcd((5760, 13824), (2, 3), "fold") == 24
        assert weighted_gcd((-13824,), (3,), "fold") == 24
        assert weighted_gcd((0, 5760, 13824), (1, 2, 3), "fold") == 24


class TestReductions:
    def test_sort_by_weight_final_example(self):
        t = wt((123456, 243226, 5789534, 234566, 4322166), (7, 5, 3, 2, 9))
        sorted_t, perm = sort_by_weight(t)
        assert sorted_t.weights == (2, 3, 5, 7, 9)
        assert sorted_t.values == (234566, 5789534, 243226, 123456, 4322166)
        assert perm == (3, 2, 1, 0, 4)

    def test_sort_identity_and_swap(self):
        t = wt((10, 20), (2, 3))
        assert sort_by_weight(t) == (t, (0, 1))
        swapped, perm = sort_by_weight(wt((10, 20), (3, 2)))
        assert swapped.values == (20, 10) and perm == (1, 0)

    def test_sort_stable_on_ties(self):
        t = wt((5, 6, 7), (2, 1, 2))
        sorted_t, perm = sort_by_weight(t)
        assert perm == (1, 0, 2)
        assert sorted_t.values == (6, 5, 7)

    def test_abs_values(self):
        t = wt((-5760, 13824), (2, 3))
        a = abs_values(t)
        assert a.values == (5760, 13824)
        assert naive_wgcd(t.values, (2, 3)) == naive_wgcd(a.values, (2, 3)) == 24

    # The paper's pair lemmas on worked examples, each rewrite written out:
    # on a pair with q0 < q1, the remainder x0 mod x1 when x0 >= x1 and the
    # gcd(x0, x1) in the first coordinate leave the weighted gcd unchanged.
    def test_pair_remainder_first_larger(self):
        assert 70352 % 13824 == 1232
        assert weighted_gcd((70352, 13824), (2, 3)) == 4
        assert weighted_gcd((1232, 13824), (2, 3)) == 4

    def test_pair_remainder_equal(self):
        # 144 mod 144 = 0, and a zero coordinate is unconstrained
        assert weighted_gcd((144, 144), (2, 3)) == weighted_gcd((0, 144), (2, 3)) == 2

    def test_pair_remainder_second_larger_is_identity(self):
        # Reducing the larger second coordinate mod the first can grow the
        # weighted gcd, e.g. (5, 12) under (1, 2) would become (2, 12),
        # so no remainder step applies there.
        assert naive_wgcd((5, 12), (1, 2)) == weighted_gcd((5, 12), (1, 2)) == 1
        assert naive_wgcd((2, 12), (1, 2)) == weighted_gcd((2, 12), (1, 2)) == 2

    def test_pair_gcd(self):
        assert math.gcd(5760, 13824) == 1152
        assert weighted_gcd((5760, 13824), (2, 3)) == 24
        assert weighted_gcd((1152, 13824), (2, 3)) == 24
        for p in (2, 3, 5):  # gcd(p**2, p**3) = p**2 rewrites nothing
            assert weighted_gcd((p**2, p**3), (2, 3)) == p

    def test_gcd_prefix(self):
        # the gcd of all values in the first coordinate (weights sorted)
        assert math.gcd(*WORKED_TRIPLE.values) == 16
        assert weighted_gcd((16, 5760, 13824), (2, 2, 3)) == 4
        assert weighted_gcd(WORKED_TRIPLE.values, WORKED_TRIPLE.weights) == 4

    def test_suffix_gcd_worked_examples(self):
        assert reduce_suffix_gcd(WORKED_TRIPLE).values == (16, 1152, 13824)
        big = wt((234566, 5789534, 243226, 123456, 4322166), (2, 3, 5, 7, 9))
        assert reduce_suffix_gcd(big).values == (2, 2, 2, 6, 4322166)
        assert reduce_suffix_gcd(wt((-7,), (3,))).values == (7,)

    def test_suffix_gcd_rejects_unsorted(self):
        with pytest.raises(ValueError):
            reduce_suffix_gcd(wt((1, 2), (3, 2)))


class TestAuto:
    def test_examples(self):
        t = wt((123456, 243226, 5789534, 234566, 4322166), (7, 5, 3, 2, 9))
        assert wgcd_auto(t).d == 1
        assert wgcd_auto(wt((1232, 2304, 13824), (2, 2, 3))).d == 4
        assert wgcd_auto(wt((-17,), (1,))).d == 17

    def test_trace_replays(self):
        cases = [
            wt((123456, 243226, 5789534, 234566, 4322166), (7, 5, 3, 2, 9)),
            wt((70352, 13824), (2, 3)),
            wt((-5760, 13824), (2, 3)),
            wt((0, 5760, 13824), (3, 2, 1)),
            wt((144, 144), (2, 5)),
            WORKED_TRIPLE,
        ]
        for t in cases:
            result = wgcd_auto(t)
            cur = t
            for step in result.trace:
                if step.rule == "abs":
                    cur = abs_values(cur)
                elif step.rule == "permute":
                    cur, _ = sort_by_weight(cur)
                elif step.rule == "suffix-gcd":
                    cur = reduce_suffix_gcd(cur)
                elif step.rule.startswith("fastpath-"):
                    pass
                else:
                    pytest.fail(f"unexpected rule {step.rule}")
                assert step.rule in {
                    "abs",
                    "permute",
                    "suffix-gcd",
                    "fastpath-one",
                    "fastpath-root",
                }
                assert step.values == cur.values
                assert step.weights == cur.weights

    def test_trace_is_a_tuple_of_steps(self):
        # the result holds its steps itself, and no strategy name: auto is
        # the only strategy wgcd_auto runs
        trace = wgcd_auto(wt((-70352, 5760, 13824), (3, 2, 2))).trace
        assert type(trace) is tuple
        assert all(type(step) is TraceStep for step in trace)
        assert [step.rule for step in trace] == ["abs", "permute", "suffix-gcd"]
        assert WgcdResult._fields == ("d", "trace", "counters")

    def test_trace_on_big_first_is_suffix_gcd_only(self):
        result = wgcd_auto(wt((70352, 13824), (2, 3)))
        rules = [s.rule for s in result.trace]
        assert rules == ["suffix-gcd", "fastpath-root"]
        assert result.trace[0].values == (16, 13824)
        assert result.d == 4

    @pytest.mark.parametrize(
        "values, weights",
        [
            ((70352, 5760, 13824), (2, 2, 3)),
            ((70352, 5760, 13824), (3, 2, 2)),
            ((-5760, 70352, 13824), (2, 1, 3)),
            ((0, -48, 0, 144), (4, 2, 2, 1)),
            ((7, 13), (2, 3)),
            ((48, 144), (2, 2)),
        ],
    )
    def test_auto_builds_no_tuples(self, monkeypatch, values, weights):
        t = wt(values, weights)
        built = []
        post_init = WeightedTuple.__post_init__

        def counted(obj):
            built.append(obj)
            post_init(obj)

        monkeypatch.setattr(WeightedTuple, "__post_init__", counted)
        assert core._STRATEGIES["auto"](t.values, t.weights) == naive_wgcd(values, weights)
        assert built == []
        assert weighted_gcd(values, weights) == naive_wgcd(values, weights)
        assert built == []

    def test_weighted_gcd_runs_the_route_once_and_builds_no_tuple(
        self, monkeypatch
    ):
        # auto answers from the checked plain tuples: one route call, and
        # no WeightedTuple, validated or not
        rng = random.Random(24)
        long, d = long_tuple(rng)
        cases = [
            ([70352, 5760, 13824], [2, 2, 3], 4),
            ((0, -48, 0, 144), (4, 2, 2, 1), 4),
            ((7, 13), (2, 3), 1),
            (SPLIT_VALUES, SPLIT_WEIGHTS, SPLIT_PRIMES[0]),
            (long.values, long.weights, d),
        ]
        built, routes = [], []
        post_init, route = WeightedTuple.__post_init__, core._wgcd_route
        trusted = WeightedTuple._trusted

        def counted(obj):
            built.append(obj)
            post_init(obj)

        def wrapped(cls, values, weights):
            built.append(values)
            return trusted(values, weights)

        def spy(values, weights, order):
            routes.append((values, weights))
            return route(values, weights, order)

        monkeypatch.setattr(WeightedTuple, "__post_init__", counted)
        monkeypatch.setattr(WeightedTuple, "_trusted", classmethod(wrapped))
        monkeypatch.setattr(core, "_wgcd_route", spy)
        for values, weights, answer in cases:
            del built[:], routes[:]
            assert weighted_gcd(values, weights) == answer
            assert built == []
            assert routes == [(tuple(values), tuple(weights))]

    def test_trace_checks_and_sorts_a_valid_tuple_no_more(self, monkeypatch):
        # each reduction maps a valid tuple to a valid one, and an order
        # test compares neighbours: only sort_by_weight sorts, and a long
        # tuple's route visits it in that same permutation
        rng = random.Random(23)
        weights = list(range(1, 65))
        rng.shuffle(weights)
        long = wt([3**q * rng.randrange(1, 50) for q in weights], weights)
        cases = [
            (wt((-5760, 70352, 13824), (2, 1, 3)), 1),
            (wt((70352, -5760, 13824), (2, 2, 3)), 0),
            (long, 1),
        ]
        built, sorts = [], []
        post_init = WeightedTuple.__post_init__

        def counted(obj):
            built.append(obj)
            post_init(obj)

        def spy(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(WeightedTuple, "__post_init__", counted)
        monkeypatch.setattr(core, "sorted", spy, raising=False)
        for t, most_sorts in cases:
            del built[:], sorts[:]
            assert wgcd_auto(t).d == naive_wgcd(t.values, t.weights)
            assert built == []
            assert len(sorts) <= most_sorts, t

    def test_counters_on_worked_triple(self):
        # gcd 16, root candidate iroot(16, 2) = 4: nothing is factored
        result = wgcd_auto(WORKED_TRIPLE)
        assert result.d == 4
        assert result.counters == Counters(
            factor_calls=0, max_factored_bits=0, gcd_calls=1
        )

    def test_fastpath_one(self):
        result = wgcd_auto(wt((7, 13), (2, 3)))
        assert result.d == 1
        assert result.trace[-1].rule == "fastpath-one"
        assert result.counters.factor_calls == 0

    def test_big_pair_remainder_path(self):
        # 160-bit first coordinate against a 50-bit second: the pipeline
        # still only factors the pair's gcd
        d = 99991
        cofactor = 2**130 + 1
        t = wt((d**2 * cofactor, d**3), (2, 3))
        result = wgcd_auto(t)
        assert result.d == d
        assert result.counters.max_factored_bits <= math.gcd(*t.values).bit_length()

    def test_fastpath_equal_weights(self):
        # the root iroot(48, 2) = 6 misses: equal weights take the
        # factoring route like any others, and no fast path is named
        result = wgcd_auto(wt((48, 144), (2, 2)))
        assert result.d == 4
        assert not any(s.rule.startswith("fastpath-") for s in result.trace)

    def test_equal_weights_semiprime_gcd_is_not_factored(self, monkeypatch):
        # a 130-bit semiprime gcd that rho would need about 2**32
        # iterations to split: equal weights make it the answer as it is
        n = sympy.nextprime(2**64) * sympy.nextprime(2**65)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        with time_limit(1), counting() as c:
            assert weighted_gcd((n, 3 * n), (1, 1)) == n
        assert c.factor_calls == 0

    def test_strategy_registry(self):
        assert sorted(STRATEGIES) == [
            "auto",
            "fold",
            "full-factor",
            "lcm-power",
            "oracle",
        ]
        assert STRATEGIES == tuple(core._STRATEGIES)
        # every table entry is fn(values, weights): nothing else can be passed
        for fn in core._STRATEGIES.values():
            assert list(inspect.signature(fn).parameters) == ["values", "weights"], fn

    def test_weighted_gcd_convenience(self):
        assert weighted_gcd((70352, 5760, 13824), (2, 2, 3)) == 4
        assert weighted_gcd([5760, 13824], [2, 3], strategy="fold") == 24
        with pytest.raises(ValueError):
            weighted_gcd((1, 2), (1, 1), strategy="nope")


# (factor_calls, max_factored_bits, gcd_calls) of each strategy on the
# worked triple
WORKED_COUNTS = {
    "auto": (0, 0, 1),
    "oracle": (0, 0, 0),
    "full-factor": (3, 17, 0),
    "lcm-power": (1, 13, 1),
    "fold": (3, 14, 0),
}


class TestCounting:
    @pytest.mark.parametrize("strategy", sorted(WORKED_COUNTS))
    def test_exact_counts_on_worked_triple(self, strategy):
        with counting() as c:
            assert core._STRATEGIES[strategy](WORKED_TRIPLE.values, WORKED_TRIPLE.weights) == 4
        assert counts(c) == WORKED_COUNTS[strategy]

    def test_nested_block_joins_the_outer(self):
        with counting() as outer:
            core._STRATEGIES["auto"](WORKED_TRIPLE.values, WORKED_TRIPLE.weights)
            with counting() as inner:
                assert inner is outer
                result = wgcd_auto(WORKED_TRIPLE)
            core._STRATEGIES["lcm-power"](WORKED_TRIPLE.values, WORKED_TRIPLE.weights)
        assert result.counters is outer
        assert counts(outer) == (1, 13, 3)

    def test_gcd_many_is_the_counted_fold(self):
        # the route's gcds, lcm-power's and the fold's all go through it
        with counting() as c:
            assert gcd_many([12, 18]) == 6
        assert counts(c) == (0, 0, 1)
        with pytest.raises(TypeError):
            gcd_many([2.0])
        with pytest.raises(ValueError, match="at least one integer"):
            gcd_many([])

    def test_strategies_run_outside_any_block(self):
        for name in STRATEGIES:
            assert weighted_gcd(WORKED_TRIPLE.values, WORKED_TRIPLE.weights, name) == 4
        with counting() as c:
            pass
        assert counts(c) == (0, 0, 0)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "t", [WORKED_TRIPLE, wt(SPLIT_VALUES, SPLIT_WEIGHTS)], ids=["worked", "split"]
    )
    def test_counted_run_makes_the_uncounted_calls(self, monkeypatch, strategy, t):
        # a counted run must execute the code an uncounted one does: the
        # same gcd calls, each counted once
        recorded = []

        def gcd(*xs):
            recorded.append(xs)
            return math.gcd(*xs)

        monkeypatch.setattr(core, "math", types.SimpleNamespace(**{**vars(math), "gcd": gcd}))

        def run():
            # the oracle's scan and lcm-power's power overrun their caps on
            # the split tuple: the error is the outcome to compare
            recorded.clear()
            try:
                return core._STRATEGIES[strategy](t.values, t.weights), list(recorded)
            except ValueError as exc:
                return str(exc), list(recorded)

        uncounted = run()
        with counting() as c:
            counted = run()
        assert counted == uncounted
        assert c.gcd_calls == len(counted[1])

    def test_block_left_by_budget_error_is_closed(self, monkeypatch):
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 20000)
        with pytest.raises(FactorBudgetExceeded):
            with counting() as c:
                wgcd_auto(UNSPLIT_TUPLE)
        assert c.factor_calls == 1
        with counting() as fresh:
            wgcd_auto(WORKED_TRIPLE)
        assert fresh is not c
        assert counts(fresh) == WORKED_COUNTS["auto"]

    def test_threads_keep_separate_counts(self):
        # more threads than cores, switching often, every block open at once:
        # a probe shared between threads would mix or lose counts
        names = ("fold", "full-factor", "lcm-power", "auto")
        all_inside = threading.Barrier(len(names), timeout=10)
        seen = {}

        def run(name, reps):
            with counting() as c:
                all_inside.wait()
                for _ in range(reps):
                    core._STRATEGIES[name](WORKED_TRIPLE.values, WORKED_TRIPLE.weights)
                all_inside.wait()
            seen[name] = (c, reps)

        threads = [
            threading.Thread(target=run, args=(name, 50 * (i + 1)))
            for i, name in enumerate(names)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for name in names:
            c, reps = seen[name]
            calls, bits, gcds = WORKED_COUNTS[name]
            assert counts(c) == (calls * reps, bits, gcds * reps), name

    def test_no_function_takes_counters(self):
        functions = [
            fn for _, fn in inspect.getmembers(core, inspect.isfunction)
            if fn.__module__ == core.__name__
        ]
        assert len(functions) > 15
        for fn in functions:
            assert "counters" not in inspect.signature(fn).parameters, fn.__name__


class TestNormalizeVerify:
    @pytest.fixture
    def divisions(self, monkeypatch):
        """The base of every `_divide_out` call made, in order."""
        bases, divide_out = [], core._divide_out

        def spy(values, weights, b, order):
            bases.append(b)
            return divide_out(values, weights, b, order)

        monkeypatch.setattr(core, "_divide_out", spy)
        return bases

    def test_root_hit_divides_once(self, divisions):
        # the root candidate 4 answers, and its test's quotients are the output
        assert normalize(WORKED_TRIPLE) == (wt((4397, 360, 216), (2, 2, 3)), 4)
        assert divisions == [4]

    def test_root_miss_divides_after_factoring(self, divisions):
        # the failed root test, then the one division by d = p
        p = SPLIT_PRIMES[0]
        _, d = normalize(wt(SPLIT_VALUES, SPLIT_WEIGHTS))
        assert d == p and len(divisions) == 2 and divisions[1] == p

    def test_each_call_sorts_a_long_tuple_once(self, monkeypatch):
        # every entry point decides the visit order once and its route and
        # divisions share it: on a long root hit, on a long root miss,
        # where normalize divides by d after the route, and for verify's
        # true claim and d / p, which a miss sends on to the residues.  A
        # 3-coordinate tuple is visited in input order, with no sort
        sorts, order = [], core._weight_order

        def spy(weights):
            sorts.append(len(weights))
            return order(weights)

        def calls(t, d):
            # each entry point on t, with the answer it must give
            p = min(sympy.primefactors(d))
            yield lambda: weighted_gcd(t.values, t.weights), d
            yield lambda: normalize(t)[1], d
            yield lambda: tuple(verify_wgcd(t, d)), (True, None)
            yield lambda: tuple(verify_wgcd(t, d // p)), (False, "maximality")

        def root_hit(t):
            return core._wgcd_route(t.values, t.weights, order(t.weights))[1] is not None

        rng = random.Random(22)
        tuples = []
        for _ in range(10):
            hit, d = long_tuple(rng)
            # every coordinate times a prime above the trial-division bound
            miss = wt([x * 1000003 for x in hit.values], hit.weights)
            assert root_hit(hit) and not root_hit(miss)
            tuples += [(hit, d, [64]), (miss, d, [64])]
        monkeypatch.setattr(core, "_weight_order", spy)
        for t, d, expected in tuples + [(WORKED_TRIPLE, 4, [])]:
            for call, answer in calls(t, d):
                del sorts[:]
                assert call() == answer
                assert sorts == expected, (t, answer)

    def test_long_root_hit_verifies_in_one_division(self, divisions):
        # a long tuple's verdict comes from its root test's answer d, so
        # the true claim and d / p each take that test's one pass and no
        # pass of their own, only the division of the least-weight
        # coordinate that precedes it
        t, d = long_tuple(random.Random(23))
        p = min(sympy.primefactors(d))
        assert verify_wgcd(t, d) == (True, None)
        assert verify_wgcd(t, d // p) == (False, "maximality")
        assert divisions == [d, d, d // p, d]

    def test_long_claim_failing_its_least_weight_coordinate_takes_no_gcd(self):
        # a claim whose power does not divide the least-weight nonzero
        # coordinate is rejected before the root test and its gcd
        t, d = generate(GenSpec(35, tuple(range(64, 0, -1)), 16, 64, "known-answer"))
        p = min(sympy.primefactors(d))
        with counting() as c:
            assert verify_wgcd(t, d + 1) == (False, "divisibility")
        assert c.gcd_calls == 0
        with counting() as c:
            assert verify_wgcd(t, d) == (True, None)
            assert verify_wgcd(t, d // p) == (False, "maximality")
        assert c.gcd_calls > 0

    def test_long_root_miss_rejects_a_non_divisor_unfactored(self, monkeypatch):
        # where the root test misses, a claim that fails divisibility is
        # still rejected by its own pass, before any of g is factored
        def refuse(n, small):
            raise AssertionError("trial division ran")

        monkeypatch.setattr(core, "_trial_division", refuse)
        rng = random.Random(22)
        for _ in range(10):
            hit, d = long_tuple(rng)
            miss = wt([x * 1000003 for x in hit.values], hit.weights)
            for claim in (d + 1, d * 1000003):
                assert verify_wgcd(miss, claim) == (False, "divisibility")

    def test_normalize_worked_pair(self):
        normalized, d = normalize(wt((5760, 13824), (2, 3)))
        assert d == 24
        assert normalized.values == (10, 1)

    def test_normalize_preserves_signs(self):
        normalized, d = normalize(wt((-5760, 13824), (2, 3)))
        assert d == 24
        assert normalized.values == (-10, 1)

    def test_normalize_scalar_built_tuple(self):
        lam, base = 6, (10, 1)
        t = wt(tuple(lam**q * a for a, q in zip(base, (2, 3))), (2, 3))
        normalized, d = normalize(t)
        assert (normalized.values, d) == (base, lam)

    def test_normalized_input_unchanged(self):
        t = wt((10, 1), (2, 3))
        assert normalize(t) == (t, 1)

    def test_verify_examples(self):
        assert verify_wgcd(WORKED_TRIPLE, 4) == (True, None)
        assert verify_wgcd(WORKED_TRIPLE, 2) == (False, "maximality")
        assert verify_wgcd(WORKED_TRIPLE, 8) == (False, "divisibility")
        with pytest.raises(ValueError):
            verify_wgcd(WORKED_TRIPLE, 0)

    def test_verify_rejects_non_integer_claims(self):
        t = wt((8, 16), (1, 2))
        for claim in (2.0, "2", None):
            with pytest.raises(TypeError):
                verify_wgcd(t, claim)

    def test_verify_with_zero_coordinate(self):
        assert verify_wgcd(wt((0, 13824), (2, 3)), 24) == (True, None)
        assert verify_wgcd(wt((0, 13824), (2, 3)), 12) == (False, "maximality")

    # 3 ** (10**7) alone takes seconds to build: none of these may build it.
    def test_zero_coordinate_with_huge_weight(self):
        t = wt((0, 9), (10**7, 2))
        with time_limit(1):
            assert normalize(t) == (wt((0, 1), (10**7, 2)), 3)
            assert verify_wgcd(t, 3) == (True, None)
            assert verify_wgcd(t, 1) == (False, "maximality")

    def test_power_larger_than_coordinate_rejected_by_bit_length(self):
        with time_limit(1):
            assert verify_wgcd(wt((3**5, 5), (10**7, 1)), 3) == (False, "divisibility")
            assert verify_wgcd(wt((3 * 2**20, 5), (10**8, 1)), 2) == (
                False, "divisibility",
            )
            # maximality: 3 ** (10**7) cannot divide the residue 6
            assert verify_wgcd(wt((6, 6), (10**7, 1)), 1) == (True, None)
        # the bound is exact: 2**20 fits a 21-bit coordinate, 2**21 does not
        assert verify_wgcd(wt((2**20,), (20,)), 2) == (True, None)
        assert verify_wgcd(wt((2**20,), (21,)), 2) == (False, "divisibility")
        assert verify_wgcd(wt((2**21 - 1,), (21,)), 2) == (False, "divisibility")


class TestWideKnownAnswer:
    """Known-answer specs whose gcd is d**2 for a d of up to 64 bits.  Rho
    splits such a square in about sqrt(p) iterations for d's largest prime
    p, so without perfect-power detection the 64-bit spec ran for minutes."""

    @pytest.mark.parametrize("d_bits", [32, 48, 64])
    @pytest.mark.parametrize("strategy", ["auto", "full-factor"])
    def test_known_d(self, d_bits, strategy):
        t, d = generate(GenSpec(1, (2, 3, 5), d_bits, 256, "known-answer"))
        with time_limit(10), counting() as counters:
            assert core._STRATEGIES[strategy](t.values, t.weights) == d
        if strategy == "auto":
            # the gcd is d**2, and its root candidate d is the answer
            assert counters.factor_calls == 0

    def test_hard_128_bit_d_hits_the_budget(self, monkeypatch):
        # a 128-bit gcd that neither the root candidate nor the coprime
        # split answers: rho would need about 2**32 iterations, so a budget
        # stops it instead
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 20_000)
        with time_limit(10), pytest.raises(FactorBudgetExceeded):
            wgcd_auto(UNSPLIT_TUPLE)


# Every call that can reach Pollard rho, on a tuple whose gcd needs it.
BOUNDED_CALLS = {
    **{
        name: lambda t, name=name: weighted_gcd(t.values, t.weights, name)
        for name in ("auto", "full-factor", "lcm-power", "fold")
    },
    "normalize": normalize,
    "verify_wgcd": lambda t: verify_wgcd(t, 1),
}


class TestDefaultBudgets:
    """Library calls are bounded by the module constants alone."""

    def test_hard_semiprime_hits_the_default_rho_budget(self):
        # n is 130 bits and rho would need about 2**32 iterations to split
        # it; whether the answer is 1 depends on whether n is square-free,
        # so no shortcut avoids factoring it
        n = sympy.nextprime(2**64) * sympy.nextprime(2**65)
        with time_limit(15), pytest.raises(FactorBudgetExceeded, match="budget of 4194304 "):
            weighted_gcd((n, n), (1, 2))

    @pytest.mark.parametrize("call", sorted(BOUNDED_CALLS))
    def test_every_route_reads_the_default(self, monkeypatch, call):
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 20_000)
        with time_limit(2), pytest.raises(FactorBudgetExceeded, match="budget of 20000 "):
            BOUNDED_CALLS[call](UNSPLIT_TUPLE)

    def test_oracle_scan_is_capped(self):
        with time_limit(1), pytest.raises(ValueError, match="the 1000000 budget"):
            weighted_gcd((10**40 + 1,) * 3, (1, 1, 2), strategy="oracle")

    def test_oracle_refuses_a_ten_second_scan(self):
        # about 10**7 candidates, a scan of over 10 s, past the default cap
        with time_limit(1), pytest.raises(ValueError, match="budget"):
            weighted_gcd((10**14 - 1,) * 2, (2, 2), strategy="oracle")


def test_all_lists_every_public_name():
    # a removed name must leave __all__, and a new one must join it
    public = {
        name for name, obj in vars(wgcd).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(wgcd.__all__) == sorted(public)


def test_no_public_callable_takes_a_seed():
    # factoring always draws from seed 0; GenSpec's seed picks an input
    checked = [getattr(wgcd, name) for name in wgcd.__all__]
    checked += core._STRATEGIES.values()
    for module in (bench, selftest):
        checked += [
            obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        ]
    checked = [obj for obj in checked if callable(obj) and obj is not GenSpec]
    for obj in checked:
        assert "seed" not in inspect.signature(obj).parameters, obj.__qualname__
    assert len(checked) > 30


class TestRecords:
    """Two kinds of record: a class where construction checks the input or
    the fields change, frozen ones keeping the behaviour of the dataclasses
    they were, and a tuple with named fields, a `core._Result`, for every
    plain result."""

    SPEC = GenSpec(7, (2, 3), 8, 12, "known-answer")

    def test_frozen_records_compare_hash_copy_and_pickle_by_fields(self):
        for r in (WORKED_TRIPLE, self.SPEC):
            for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert twin == r and twin is not r and hash(twin) == hash(r)
            name = type(r).__slots__[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, name)
        assert hash(WORKED_TRIPLE) == hash((WORKED_TRIPLE.values, WORKED_TRIPLE.weights))
        assert WORKED_TRIPLE != (WORKED_TRIPLE.values, WORKED_TRIPLE.weights)
        spec = GenSpec(seed=7, weights=[2, 3], d_bits=8, cofactor_bits=12, mode="known-answer")
        assert spec == self.SPEC != GenSpec(8, (2, 3), 8, 12, "known-answer")
        assert hash(spec) == hash((7, (2, 3), 8, 12, "known-answer"))
        assert repr(spec) == (
            "GenSpec(seed=7, weights=(2, 3), d_bits=8, cofactor_bits=12, mode='known-answer')"
        )

    def test_factor_returns_prime_exponent_pairs(self):
        assert factor(360) == ((2, 3), (3, 2), (5, 1))
        assert factor(1) == ()

    def test_results_are_named_tuples(self):
        # every plain result is a tuple with named fields, as namedtuple
        # made them: it equals, hashes, unpacks, copies, pickles, prints
        # and matches as one, and is built by position or by keyword
        from wgcd.bench import bench_run
        from wgcd.selftest import CORPUS, run_selftest

        [record] = bench_run([self.SPEC], strategies=("auto",), repetitions=1)
        for r, fields in (
            (wgcd_auto(WORKED_TRIPLE), ("d", "trace", "counters")),
            (wgcd_auto(WORKED_TRIPLE).trace[0], ("rule", "values", "weights")),
            (verify_wgcd(WORKED_TRIPLE, 2), ("ok", "reason")),
            (record, ("spec", "results", "agreement")),
            (record.results[0], ("strategy", "ns_median", "counters", "d")),
            (CORPUS[0], ("weights", "values", "expected")),
            (run_selftest()[0], ("label", "passed", "detail")),
        ):
            cls, values = type(r), tuple(getattr(r, name) for name in fields)
            assert isinstance(r, tuple) and cls._fields == cls.__match_args__ == fields
            assert r == values and tuple(r) == values
            assert not hasattr(r, "__dict__")
            assert r._asdict() == dict(zip(fields, values))
            shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
            assert repr(r) == f"{cls.__name__}({shown})"
            for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert twin == r and type(twin) is cls
            assert cls(**r._asdict()) == r == cls(*values[:1], **dict(zip(fields[1:], values[1:])))
            for args, kwargs in (
                (values[:-1], {}),  # a field missing
                ((*values, None), {}),  # an extra one
                (values[:-1], {"unknown": values[-1]}),
                (values, {fields[0]: values[0]}),  # one field twice
            ):
                with pytest.raises(TypeError, match=cls.__name__):
                    cls(*args, **kwargs)
        match verify_wgcd(WORKED_TRIPLE, 2):
            case wgcd.VerifyResult(ok, reason):
                assert (ok, reason) == (False, "maximality")
            case _:
                pytest.fail("a VerifyResult matched no VerifyResult pattern")
        # verify_wgcd's three verdicts are built once, not per call, and
        # each still equals and hashes as its plain tuple
        for claim, verdict in (
            (4, (True, None)), (2, (False, "maximality")), (3, (False, "divisibility")),
        ):
            r = verify_wgcd(WORKED_TRIPLE, claim)
            assert verify_wgcd(WORKED_TRIPLE, claim) is r
            assert r == verdict and hash(r) == hash(verdict)
        assert verify_wgcd(wt((12, 18), (1, 1)), 6) is verify_wgcd(WORKED_TRIPLE, 4)
        d, trace, counters = wgcd_auto(WORKED_TRIPLE)
        assert d == 4 and [step.rule for step in trace] == ["suffix-gcd", "fastpath-root"]
        assert CORPUS[0] == ((2, 2, 3), (70352, 5760, 13824), 4)
        assert run_selftest()[0] == ("wgcd[2,2,3](70352,5760,13824) = 4", True, None)

    def test_counters_are_mutable_and_unhashable(self):
        c = Counters(gcd_calls=2)
        c.factor_calls += 1
        assert c == Counters(1, 0, 2) != Counters()
        assert c._asdict() == {"factor_calls": 1, "max_factored_bits": 0, "gcd_calls": 2}
        assert repr(c) == "Counters(factor_calls=1, max_factored_bits=0, gcd_calls=2)"
        with pytest.raises(TypeError):
            hash(c)

    def test_verify_results_and_trace_steps_are_named_tuples(self):
        # plain tuples with named fields: they equal, unpack, pickle and
        # print as such
        ok, bad = verify_wgcd(WORKED_TRIPLE, 4), verify_wgcd(WORKED_TRIPLE, 2)
        assert ok == (True, None) and bad == (False, "maximality")
        assert isinstance(ok, tuple) and hash(ok) == hash((True, None))
        flag, reason = bad
        assert (flag, reason) == (bad.ok, bad.reason) == (False, "maximality")
        assert ok.ok is True and ok.reason is None
        assert wgcd.VerifyResult._fields == ("ok", "reason")
        assert bad._asdict() == {"ok": False, "reason": "maximality"}
        assert repr(ok) == "VerifyResult(ok=True, reason=None)"
        assert wgcd.VerifyResult(ok=True, reason=None) == ok
        step = wgcd_auto(WORKED_TRIPLE).trace[0]
        assert step == ("suffix-gcd", (16, 1152, 13824), (2, 2, 3))
        rule, values, weights = step
        assert (rule, values, weights) == (step.rule, step.values, step.weights)
        assert wgcd.TraceStep._fields == ("rule", "values", "weights")
        assert step._asdict() == {
            "rule": "suffix-gcd", "values": (16, 1152, 13824), "weights": (2, 2, 3),
        }
        assert repr(step) == (
            "TraceStep(rule='suffix-gcd', values=(16, 1152, 13824), weights=(2, 2, 3))"
        )
        for r in (ok, bad, step):
            twin = pickle.loads(pickle.dumps(r))
            assert twin == r and type(twin) is type(r)


# Run in a fresh isolated interpreter; the last line printed lists the
# modules the body loaded beyond those the interpreter started with, so
# whatever `site` loads on a given host is never counted.
_COLD_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
started = set(sys.modules)
{body}
print(" ".join(sorted(set(sys.modules) - started)))
"""

# not needed to answer one weighted gcd
HEAVY_MODULES = {"dataclasses", "inspect", "statistics", "json", "csv"}


def loaded_cold(body: str, site: bool = True) -> set:
    # site=False adds -S: no `site`, so no .pth file loads a module first
    src = str(Path(wgcd.__file__).resolve().parents[1])
    flags = ["-I"] if site else ["-I", "-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _COLD_PROBE.format(body=body), src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


class TestColdImport:
    def test_import_loads_core_and_numtheory_only(self):
        # Under -S: a host whose `site` runs a .pth file that imports typing
        # or random (certifi's does) has them loaded before the probe
        # starts counting, and under -I alone their check would pass
        # whatever wgcd imports.
        loaded = loaded_cold(
            "import wgcd\n"
            "assert wgcd.weighted_gcd((70352, 5760, 13824), (2, 2, 3)) == 4",
            site=False,
        )
        assert {m for m in loaded if m.startswith("wgcd")} == {
            "wgcd", "wgcd.core", "wgcd.numtheory",
        }
        assert not loaded & {"typing", "random", *HEAVY_MODULES}

    def test_trial_division_tables_are_built_on_first_use(self):
        # the primes below 10**4 and their decade products: not at import,
        # nor on a root hit, but once, by the first trial division
        loaded_cold(
            "import wgcd\n"
            "from wgcd import numtheory\n"
            "from wgcd.numtheory import _perfect_power\n"
            "def built():\n"
            "    return [f.cache_info().misses\n"
            "            for f in (numtheory._small_primes, numtheory._trial_ranges)]\n"
            "assert built() == [0, 0]\n"
            "assert wgcd.weighted_gcd((70352, 5760, 13824), (2, 2, 3)) == 4\n"
            "assert built() == [0, 0]\n"
            "c = 10007**2 * 30011\n"
            "assert wgcd.weighted_gcd((c, c), (1, 2)) == 10007\n"
            "assert built() == [1, 1]\n"
            "assert wgcd.weighted_gcd((7 * c, 49 * c), (1, 2)) == 7 * 10007\n"
            "assert wgcd.factor(2**64 + 1) == ((274177, 1), (67280421310721, 1))\n"
            "assert _perfect_power(10007**5) == (10007, 5)\n"
            "assert _perfect_power(10007**6) == (10007**3, 2)\n"
            "assert _perfect_power(c) == (c, 1)\n"
            "assert built() == [1, 1]",
            site=False,
        )

    def test_second_tier_is_built_on_first_use(self):
        # the products cost up to about 14 ms: not at import, nor on a miss
        # that size alone decides, only on a piece that needs one, and only
        # the product of the bound that piece's size calls for.  Taking a
        # product already built is a hit, so misses names what was built.
        loaded_cold(
            "import wgcd\n"
            "from wgcd import numtheory\n"
            "product = numtheory._second_tier_product\n"
            "def built(bound):\n"
            "    misses = product.cache_info().misses\n"
            "    product(bound)\n"
            "    return product.cache_info().misses == misses\n"
            "p, r1, r2 = 10007, 131071, 262147\n"
            "assert wgcd.weighted_gcd((p**2 * r1 * r2, p**3 * (r1 * r2) ** 2), (2, 3)) == p\n"
            "assert product.cache_info().currsize == 0\n"
            "c = 10007**2 * 30011\n"
            "assert c.bit_length() == 42\n"
            "assert wgcd.weighted_gcd((c, c), (1, 2)) == 10007\n"
            "assert product.cache_info().currsize == 1 and built(2**14)\n"
            "c = 10007**2 * 134217757\n"
            "assert c.bit_length() == 54\n"
            "assert wgcd.weighted_gcd((c, c), (1, 2)) == 10007\n"
            "assert product.cache_info().currsize == 2 and built(10**5)"
        )

    def test_second_tier_builds_at_most_15_products(self):
        # pieces across (10**12, 10**20), whose bounds cover every one the
        # route can take, build 15 products between them
        pieces = TestPieceShares.tier_pieces(300)
        answers = [weighted_gcd((c, c), (1, 2), "full-factor") for c in pieces]
        loaded_cold(
            "import wgcd\n"
            "from wgcd import numtheory\n"
            f"for c, d in zip({pieces!r}, {answers!r}):\n"
            "    assert wgcd.weighted_gcd((c, c), (1, 2)) == d\n"
            "assert numtheory._second_tier_product.cache_info().currsize == 15"
        )

    def test_cli_compute_loads_no_harness(self):
        loaded = loaded_cold(
            "from wgcd.cli import main\n"
            "assert main(['compute', '--weights', '2,3', '--values', '5760,13824',"
            " '--json']) == 0"
        )
        assert "wgcd.cli" in loaded
        assert not loaded & {"wgcd.bench", "wgcd.selftest", *HEAVY_MODULES - {"json"}}
        # plain output loads no json either
        loaded = loaded_cold(
            "from wgcd.cli import main\n"
            "assert main(['compute', '--weights', '2,3', '--values', '5760,13824']) == 0"
        )
        assert "wgcd.cli" in loaded
        assert not loaded & {"wgcd.bench", "wgcd.selftest", *HEAVY_MODULES}

    def test_root_exports_the_library_only(self):
        # the harness and the selftest are reached by module path alone
        loaded = loaded_cold(
            "import wgcd\n"
            "assert not hasattr(wgcd, 'GenSpec')\n"
            "names = {}\n"
            "exec('from wgcd import *', names)\n"
            "assert all(names[n] is getattr(wgcd, n) for n in wgcd.__all__)\n"
            "assert not {'wgcd.bench', 'wgcd.selftest'} & set(sys.modules)\n"
            "from wgcd.bench import GenSpec"
        )
        assert "wgcd.bench" in loaded

    def test_import_loads_no_future_nor_contextvars(self):
        # annotations are evaluated at definition on Python 3.10+, and the
        # counting blocks' ContextVar is made by the first block
        loaded = loaded_cold(
            "import wgcd\n"
            "assert wgcd.weighted_gcd((70352, 5760, 13824), (2, 2, 3)) == 4",
            site=False,
        )
        assert not loaded & {"__future__", "contextvars", "_contextvars"}

    def test_import_generates_no_code(self):
        # no package code calls eval or exec, itself or through a library
        # function such as collections.namedtuple, which compiles each
        # __new__ from source.  The import system runs every module through
        # builtins.exec, and stdlib modules the package imports (functools,
        # statistics) build namedtuples of their own, so a call counts when
        # a package frame comes before the first import-system frame on the
        # caller's stack.
        loaded_cold(
            "import builtins\n"
            "seen, generated = [], []\n"
            "def spy(real):\n"
            "    def call(*args, **kwargs):\n"
            "        seen.append(real.__name__)\n"
            "        f = sys._getframe(1)\n"
            "        while f and not f.f_code.co_filename.startswith('<frozen importlib'):\n"
            "            if f.f_globals.get('__name__', '').startswith('wgcd'):\n"
            "                generated.append((real.__name__, f.f_globals['__name__']))\n"
            "                break\n"
            "            f = f.f_back\n"
            "        return real(*args, **kwargs)\n"
            "    return call\n"
            "builtins.eval, builtins.exec = spy(eval), spy(exec)\n"
            "import wgcd, wgcd.bench, wgcd.selftest\n"
            "assert 'exec' in seen and not generated, generated",
            site=False,
        )

    def test_contextvars_loads_with_the_first_block(self):
        loaded = loaded_cold(
            "import sys\n"
            "import wgcd\n"
            "from wgcd.core import STRATEGIES, _STRATEGIES, counting\n"
            "t = wgcd.WeightedTuple((70352, 5760, 13824), (2, 2, 3))\n"
            "for name in STRATEGIES:\n"
            "    assert wgcd.weighted_gcd(t.values, t.weights, name) == 4\n"
            "assert 'contextvars' not in sys.modules\n"
            f"for name, expected in {WORKED_COUNTS!r}.items():\n"
            "    with counting() as c:\n"
            "        assert 'contextvars' in sys.modules\n"
            "        assert _STRATEGIES[name](t.values, t.weights) == 4\n"
            "    assert (c.factor_calls, c.max_factored_bits, c.gcd_calls) == expected, name",
            site=False,
        )
        assert "contextvars" in loaded

    def test_first_blocks_of_two_threads_share_one_var(self):
        # Both threads open their first blocks at once, and the ContextVar
        # constructor holds the first caller until the second arrives, so
        # each finds no var and makes one.  Each block must still count
        # exactly what the same calls count serially.
        loaded_cold(
            "import contextvars, sys, threading\n"
            "from wgcd.core import _STRATEGIES, WeightedTuple, counting\n"
            "t = WeightedTuple((70352, 5760, 13824), (2, 2, 3))\n"
            "make = contextvars.ContextVar\n"
            "both_making = threading.Barrier(2, timeout=2)\n"
            "def make_late(*args, **kwargs):\n"
            "    try:\n"
            "        both_making.wait()\n"
            "    except threading.BrokenBarrierError:\n"
            "        pass\n"
            "    return make(*args, **kwargs)\n"
            "contextvars.ContextVar = make_late\n"
            "start = threading.Barrier(2, timeout=10)\n"
            "jobs = (('full-factor', 40), ('lcm-power', 60))\n"
            "seen = {}\n"
            "def run(name, reps):\n"
            "    start.wait()\n"
            "    with counting() as c:\n"
            "        for _ in range(reps):\n"
            "            _STRATEGIES[name](t.values, t.weights)\n"
            "    seen[name] = (c.factor_calls, c.max_factored_bits, c.gcd_calls)\n"
            "threads = [threading.Thread(target=run, args=job) for job in jobs]\n"
            "sys.setswitchinterval(1e-6)\n"
            "for th in threads:\n"
            "    th.start()\n"
            "for th in threads:\n"
            "    th.join(timeout=30)\n"
            "contextvars.ContextVar = make\n"
            "for name, reps in jobs:\n"
            "    with counting() as c:\n"
            "        for _ in range(reps):\n"
            "            _STRATEGIES[name](t.values, t.weights)\n"
            "    assert seen[name] == (c.factor_calls, c.max_factored_bits, c.gcd_calls), name\n"
            "    assert c.factor_calls == reps * (1 if name == 'lcm-power' else 3)"
        )

    def test_cli_bench_and_selftest_load_no_future(self):
        loaded = loaded_cold(
            "import wgcd.cli, wgcd.bench, wgcd.selftest", site=False
        )
        assert {"wgcd.cli", "wgcd.bench", "wgcd.selftest"} <= loaded
        assert "__future__" not in loaded

    def test_bench_loads_no_dataclasses_inspect_nor_typing(self):
        # GenSpec is a frozen record class, and the harness's results are
        # tuples with named fields
        loaded = loaded_cold("import wgcd.bench", site=False)
        assert "wgcd.bench" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing"}

    def test_selftest_loads_no_typing(self):
        loaded = loaded_cold("import wgcd.selftest", site=False)
        assert "wgcd.selftest" in loaded and "typing" not in loaded

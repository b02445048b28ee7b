import math
import random
import types

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_gcd,
    naive_root,
    sieve_flags,
    smallest_prime_factors,
    time_limit,
    trial_division_scan,
)
from wgcd import gcd_many, numtheory
from wgcd.numtheory import (
    _SINGLE_COPIES,
    FactorBudgetExceeded,
    _exact_pieces,
    _trial_division,
    coprime_base,
    factor,
    iroot,
    is_prime,
    _strip,
    valuation,
)


# what the exported functions refuse with TypeError, as operator.index does
NON_INTEGERS = (2.0, 2.5, "7", None)


def gcd(a: int, b: int) -> int:
    return gcd_many((a, b))


class TestGcd:
    # the pair tests run through gcd_many, the package's own gcd fold

    def test_worked_pair(self):
        assert gcd(5760, 13824) == 1152

    def test_zero_identity(self):
        assert gcd(7, 0) == 7
        assert gcd(0, 7) == 7
        assert gcd(0, 0) == 0

    def test_divisor_scan_agreement(self):
        assert gcd(70352, 16) == 16
        rng = random.Random(1)
        for _ in range(300):
            a, b = rng.randrange(0, 5000), rng.randrange(0, 5000)
            assert gcd(a, b) == brute_force_gcd(a, b)

    def test_gcd_many_worked_examples(self):
        assert gcd_many([70352, 5760, 13824]) == 16
        assert gcd_many([234566, 5789534, 243226, 123456, 4322166]) == 2
        assert gcd_many([42]) == 42

    def test_gcd_many_rejects_empty(self):
        with pytest.raises(ValueError):
            gcd_many([])

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_common_divisor_property(self, a, b):
        g = gcd(a, b)
        if g:
            assert a % g == 0 and b % g == 0
        # every common divisor divides the gcd
        for d in range(1, min(a, b, 300) + 1):
            if a % d == 0 and b % d == 0:
                assert g % d == 0


class TestIroot:
    def test_examples(self):
        assert iroot(16, 6) == 1
        assert iroot(13824, 3) == 24
        assert iroot(0, 5) == 0

    def test_matches_naive_scan(self):
        rng = random.Random(2)
        for _ in range(200):
            x = rng.randrange(0, 10**6)
            n = rng.randrange(1, 8)
            assert iroot(x, n) == naive_root(x, n)

    # n >= 3 takes Newton's iteration, which returns its stopping point
    # with no correction afterwards
    @settings(deadline=None)
    @given(st.integers(0, 2**4096), st.integers(1, 2**200), st.integers(3, 64))
    def test_bracket_invariant(self, x, r, n):
        for y in (x, r**n - 1, r**n, r**n + 1):
            s = iroot(y, n)
            assert s**n <= y < (s + 1) ** n

    def test_bracket_across_the_shifted_start(self):
        # from about 1000 + n bits on, the float start is taken from
        # x >> (n k) >= 2**999; orders up to 3000 leave roots of a few bits
        rng = random.Random(24)
        for _ in range(300):
            bits = rng.choice((rng.randint(990, 1100), rng.randint(2, 20000)))
            n = rng.choice((3, 5, rng.randint(3, 64), rng.randint(3, 3000)))
            x = rng.getrandbits(bits) | 1
            r = iroot(x, n)
            for y in (x, r**n - 1, r**n, r**n + 1, (r + 1) ** n - 1):
                s = iroot(y, n)
                assert s**n <= y < (s + 1) ** n, (y, n)

    def test_exact_powers(self):
        for base in (2, 3, 10, 12345):
            for n in (2, 3, 7):
                assert iroot(base**n, n) == base
                assert iroot(base**n + 1, n) == base
                assert iroot(base**n - 1, n) == base - 1

    def test_wide_inputs(self):
        assert iroot(2**2000, 5) == 2**400
        assert iroot(2**2000 - 1, 5) == 2**400 - 1
        assert iroot(10**100, 100) == 10

    def test_square_root_is_isqrt(self):
        rng = random.Random(8)
        for bits in (2, 63, 126, 127, 4000):
            x = rng.getrandbits(bits)
            assert iroot(x, 2) == math.isqrt(x)
            assert iroot(x * x, 2) == x

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            iroot(10, 0)
        with pytest.raises(ValueError):
            iroot(-1, 2)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            iroot(bad, 3)
        with pytest.raises(TypeError):
            iroot(27, bad)


class TestValuation:
    def test_worked_exponents(self):
        assert valuation(2, 13824) == 9
        assert valuation(3, 5760) == 2
        assert valuation(7, 13824) == 0

    def test_divides_exactly(self):
        rng = random.Random(3)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            x = rng.randrange(1, 10**9)
            e = valuation(p, x)
            assert x % p**e == 0
            assert x % p ** (e + 1) != 0

    def test_rejects_zero_and_small_p(self):
        with pytest.raises(ValueError):
            valuation(2, 0)
        with pytest.raises(ValueError):
            valuation(1, 12)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            valuation(3, bad)
        with pytest.raises(TypeError):
            valuation(bad, 9)

    @pytest.mark.parametrize("p", [3, 65537, 18446744073709551557])
    def test_strip_matches_the_per_copy_loop(self, p):
        # e runs well past the switch from single copies to squaring
        assert 0 < _SINGLE_COPIES < 70
        for e in range(71):
            for c in (1, 2, p - 1, p + 1, 7 * (p + 2)):
                rest, count = p**e * c, 0
                while rest % p == 0:
                    rest //= p
                    count += 1
                assert _strip(p**e * c, p) == (rest, count)
                assert valuation(p, -(p**e) * c) == count

    def test_huge_valuation_is_fast(self):
        x = 3 ** (10**5) * 7
        with time_limit(1):
            assert valuation(3, x) == 10**5
            assert valuation(2, x << 70_000) == 70_000


class TestIsPrime:
    def test_corpus_prime(self):
        assert is_prime(4397)

    def test_trivial_cases(self):
        assert not is_prime(1)
        assert not is_prime(13824)
        assert not is_prime(0)
        assert is_prime(2)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            is_prime(bad)

    def test_sieve_agreement_to_one_million(self):
        flags = sieve_flags(10**6)
        for n in range(2, 10**6 + 1):
            assert is_prime(n) == bool(flags[n]), n

    def test_strong_pseudoprime_regressions(self):
        # composites that fool small fixed witness sets
        assert not is_prime(3_215_031_751)
        assert not is_prime(3_825_123_056_546_413_051)
        assert is_prime(2**61 - 1)
        # squares of the Wieferich primes are strong pseudoprimes to base 2,
        # and a square has no D with Jacobi symbol -1 to stop Selfridge's
        # search; the last three are strong Lucas pseudoprimes
        for n in (1093**2, 3511**2, 5459, 5777, 10877):
            assert not is_prime(n), n

    def test_beyond_64_bits(self):
        assert is_prime(2**127 - 1)
        assert not is_prime(2**128 + 1)
        # no random witnesses: the answer is a function of n alone
        n = 2**89 - 1
        assert is_prime(n) == is_prime(n) is True

    def test_crosscheck_sympy(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.getrandbits(rng.randint(2, 200))
            assert is_prime(n) == sympy.isprime(n), n
            # and a prime of the same size, which a random n seldom is
            p = sympy.nextprime(n)
            assert is_prime(p) and not is_prime(p * sympy.nextprime(p)), p

    def test_lucas_rejects_a_square(self):
        # a square has no D with Jacobi symbol -1, so Selfridge's search
        # would run until |D| reached the root
        p = sympy.nextprime(2**64)
        with time_limit(5):
            assert not numtheory._strong_lucas(p * p)

    def test_lucas_rejects_a_shared_selfridge_d(self):
        # 539191 = 41 * 13151 gives (D / n) = 1 for every D from 5 to -39,
        # so Selfridge's search reaches D = 41, which shares the prime 41
        # with n: the symbol is 0 and the test answers composite there
        n = 539191
        assert n == 41 * 13151
        ds = [(-1) ** k * (5 + 2 * k) for k in range(18)]
        assert ds[-1] == -39 and all(numtheory._jacobi(D, n) == 1 for D in ds)
        assert numtheory._jacobi(41, n) == 0
        assert not numtheory._strong_lucas(n)
        assert not is_prime(n)

    def test_big_mersenne_prime_is_fast(self):
        # one base-2 round and one Lucas test, not 40 Miller-Rabin rounds
        with time_limit(5):
            assert is_prime(2**4423 - 1)


class TestFactorization:
    # factor's pairs are the whole record: the value is their product, and
    # a prime's exponent is its entry or 0
    def test_value_and_exponent(self):
        f = factor(13824)
        assert math.prod(p**e for p, e in f) == 13824
        assert dict(f).get(2, 0) == 9
        assert dict(f).get(5, 0) == 0

    def test_empty_is_one(self):
        assert factor(1) == ()
        assert math.prod(p**e for p, e in factor(1)) == 1


class TestCoprimeBase:
    @staticmethod
    def check(xs, base):
        assert all(b > 1 for b in base)
        for i, a in enumerate(base):
            for b in base[i + 1 :]:
                assert math.gcd(a, b) == 1, (a, b)
        for x in xs:
            if x > 1:  # a product of powers of the pieces
                for b in base:
                    while x % b == 0:
                        x //= b
                assert x == 1
        primes = {p for x in xs if x > 1 for p in sympy.primefactors(x)}
        assert {p for b in base for p in sympy.primefactors(b)} == primes

    def test_examples(self):
        assert coprime_base([]) == []
        assert coprime_base([1, 1]) == []
        assert coprime_base([6, 6]) == [6]
        assert sorted(coprime_base([12, 18])) == [2, 3]
        assert sorted(coprime_base([2**4 * 3**2 * 5, 2 * 3 * 7])) == [2, 3, 5, 7]
        assert sorted(coprime_base([35, 7**5 * 5**5])) == [35]

    def test_random_sets(self):
        rng = random.Random(11)
        primes = (2, 3, 5, 7, 10007, 65537, 2**31 - 1, sympy.nextprime(2**64))
        for _ in range(300):
            xs = [
                math.prod(p ** rng.randint(0, 4) for p in rng.sample(primes, 4))
                for _ in range(rng.randint(1, 6))
            ]
            self.check(xs, coprime_base(xs))

    def test_powers_are_fast(self):
        with time_limit(1):
            assert coprime_base([3 ** (10**5), 3]) == [3]
            # a piece need not be prime: 2**(10**4) stays whole
            assert sorted(coprime_base([6 ** (10**4) * 5, 3 * 5])) == [
                3, 5, 2 ** (10**4),
            ]



class TestExactPieces:
    @staticmethod
    def check(xs, ys, pieces):
        TestCoprimeBase.check(xs, [c for c, _ in pieces])
        for c, es in pieces:
            for y, e in zip(ys, es, strict=True):
                assert y % c**e == 0 and math.gcd(y // c**e, c) == 1, (c, y)

    def test_examples(self):
        # 35 is exact in 35**3 and 70, and splits once a y holds 5 and 7
        # to different powers
        assert _exact_pieces([35], [35**3, 70]) == [(35, [3, 1])]
        assert sorted(_exact_pieces([35], [35, 5 * 7**2])) == [(5, [1, 1]), (7, [1, 2])]
        assert _exact_pieces([1], [5]) == []

    def test_random_sets(self):
        rng = random.Random(13)
        primes = (3, 10007, 65537, 2**31 - 1, sympy.nextprime(2**64))
        for _ in range(300):
            xs = [
                math.prod(p ** rng.randint(0, 3) for p in rng.sample(primes, 3))
                for _ in range(rng.randint(1, 3))
            ]
            ys = [
                math.prod(p ** rng.randint(0, 5) for p in primes)
                for _ in range(rng.randint(1, 4))
            ]
            self.check(xs, ys, _exact_pieces(xs, ys))


# every bound the second tier takes, and the bits of its product
SECOND_TIER_BITS = {
    10240: 333, 12288: 3_226, 14336: 6_130, 2**14: 9_175, 20480: 15_012,
    24576: 20_983, 28672: 26_849, 2**15: 32_633, 40960: 44_400, 49152: 56_193,
    57344: 68_172, 2**16: 79_750, 81920: 103_466, 98304: 127_000, 10**5: 129_539,
}


def test_second_tier_product():
    for bound, bits in SECOND_TIER_BITS.items():
        product = numtheory._second_tier_product(bound)
        assert product == math.prod(sympy.primerange(10**4, bound))
        assert product.bit_length() == bits


class TestFactor:
    def test_worked_factorizations(self):
        assert factor(13824) == ((2, 9), (3, 3))
        assert factor(1232) == ((2, 4), (7, 1), (11, 1))
        assert factor(1) == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            factor(bad)

    def test_deterministic(self):
        n = (2**61 - 1) * (2**31 - 1) * 12345
        assert factor(n) == factor(n)

    def test_pollard_path(self):
        # both primes above the trial-division bound
        assert factor(10007 * 10009) == ((10007, 1), (10009, 1))
        assert factor(10007**2) == ((10007, 2),)

    def test_reconstruction_small(self):
        rng = random.Random(6)
        for _ in range(1000):
            n = rng.randrange(1, 10**6)
            f = factor(n)
            assert math.prod(p**e for p, e in f) == n
            assert all(is_prime(p) for p, _ in f)

    def test_reconstruction_64_bit(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.getrandbits(64) | 1 << 63
            f = factor(n)
            assert math.prod(p**e for p, e in f) == n
            assert all(is_prime(p) for p, _ in f)

    def test_reconstruction_128_bit_products(self):
        # 128-bit integers assembled from mid-size primes, the shape the
        # generators emit; uniform 128-bit factoring is out of desk scale
        rng = random.Random(8)
        for _ in range(25):
            n = 1
            while n.bit_length() < 128:
                n *= sympy.nextprime(rng.getrandbits(30))
            f = factor(n)
            assert math.prod(p**e for p, e in f) == n
            assert all(is_prime(p) for p, _ in f)

    def test_hard_semiprime(self):
        p = sympy.nextprime(2**40)
        q = sympy.nextprime(2**40 + 12345)
        f = factor(p * q)
        assert f == ((p, 1), (q, 1))

    def test_crosscheck_sympy(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.getrandbits(50) + 1
            assert dict(factor(n)) == sympy.factorint(n)


def factor_or_budget(factorize, n: int):
    """What `factorize(n)` gives: its pairs, or the cofactor on which rho
    ran out of iterations."""
    try:
        return factorize(n)
    except FactorBudgetExceeded as exc:
        return ("budget", exc.n)


class TestTrialDivision:
    # the prime on each side of every decade edge, 7|11 up to 9973|10007
    EDGE_PRIMES = (7, 11, 97, 101, 997, 1009, 9973)

    def test_exhaustive_below_10_to_5(self):
        limit = 10**5
        spf = smallest_prime_factors(limit)
        for n in range(1, limit + 1):
            counts: dict[int, int] = {}
            m = n
            while m > 1:
                counts[spf[m]] = counts.get(spf[m], 0) + 1
                m //= spf[m]
            assert factor(n) == tuple(sorted(counts.items())), n

    def test_structured_corpus_against_sympy(self):
        rng = random.Random(10)
        corpus = [p**k for p in self.EDGE_PRIMES for k in (1, 2, 3)]
        corpus += [
            9973**2,  # just under the 10**8 bound past which a cofactor needs a test
            1009 * 1013,
            9973 * 10007,
            10007 * 9973**3,
            math.prod(sympy.primerange(2, 10**4)),
            2**200,
        ]
        for p in self.EDGE_PRIMES:
            for bits in (40, 52, 64):
                q = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
                corpus += [p * q, p**3 * q**2]
        for n in corpus:
            with time_limit(10):
                f = factor(n)
            assert f == tuple(sorted(sympy.factorint(n).items())), n

    def test_rest_is_one_or_rough(self):
        # the rest is 1 or at least 10**8 with no prime below 10**4; a rest
        # below 10**8 is a prime and joins the counts
        cases = {
            2**40 * 13: ({2: 40, 13: 1}, 1),
            2 * 10007: ({2: 1, 10007: 1}, 1),
            10007**2: ({}, 10007**2),
            9973**2 * 10007**2: ({9973: 2}, 10007**2),
        }
        for n, expected in cases.items():
            counts = {}
            assert (counts, _trial_division(n, counts)) == expected
        small = math.prod(sympy.primerange(2, 10**4))
        rng = random.Random(12)
        for _ in range(500):
            n = rng.getrandbits(rng.randint(1, 120)) + 1
            counts = {}
            rest = _trial_division(n, counts)
            assert n == rest * math.prod(p**e for p, e in counts.items())
            assert all(sympy.isprime(p) for p in counts)
            assert rest == 1 or rest >= 10**8 and math.gcd(rest, small) == 1

    def test_one_gcd_from_10_to_8(self, monkeypatch):
        # a cofactor of 10**8 or more first takes one gcd s with the product
        # of all the primes below 10**4; a rough one stops at it, and any
        # other takes each decade's gcd with s, not with the cofactor.  The
        # rest and the counts are the per-prime scan's on either side of
        # the threshold, with a rest below 10**8, a prime, in the counts
        rng = random.Random(35)

        def prime(bits):
            return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

        def smooth(bits):
            n = 1
            while n.bit_length() < bits:
                n *= sympy.prevprime(rng.randrange(3, 10**4))
            return n

        def rough(bits):
            if bits < 30:
                return prime(bits)
            k = rng.randint(15, bits - 15)
            return prime(k) * prime(bits - k)

        pinned = [2 * prime(40), 3**20 * rough(60)]
        corpus = [10**8 - 1, 10**8, 9973 * 10007, 10007 * 10009, *pinned]
        for i in range(300):
            bits = rng.randint(27, 200)
            if i % 3 == 0:
                corpus.append(rough(bits))
            elif i % 3 == 1:
                corpus.append(smooth(bits))
            else:
                k = rng.randint(1, bits - 15)
                corpus.append(smooth(k) * rough(bits - k))

        numtheory._trial_ranges()  # built before math is swapped out
        gcds = []

        def counted_gcd(*xs):
            gcds.append(xs)
            return math.gcd(*xs)

        monkeypatch.setattr(numtheory, "math", types.SimpleNamespace(gcd=counted_gcd))
        rough_seen, shared = 0, []
        for n in corpus:
            expected, rest = trial_division_scan(n)
            if 1 < rest < 10**8:
                expected[rest], rest = 1, 1
            counts, gcds[:] = {}, []
            assert (counts, _trial_division(n, counts)) == (expected, rest), n
            if rest == n >= 10**8:
                assert len(gcds) == 1, n
                rough_seen += 1
            elif n >= 10**8:
                s = math.gcd(*gcds[0])
                assert s > 1 and all(s in xs for xs in gcds[1:]), n
                shared.append(n)
        assert rough_seen > 100
        assert set(pinned) <= set(shared)

    def test_same_result_as_the_per_prime_scan(self, monkeypatch):
        # the scan's exponents below 10**4 plus the factorization of the
        # cofactor it leaves are what factor gave before trial division
        # took one gcd per decade.  A zero rho budget keeps random 200-bit
        # numbers cheap and pins the cofactor handed to rho; the gcd
        # shapes of the prime-powers benchmark run rho to the end
        rng = random.Random(11)
        random_numbers = [
            rng.getrandbits(bits) | 1 << (bits - 1)
            for bits in (rng.randint(1, 200) for _ in range(2400))
        ]
        prime_power_gcds = []
        for _ in range(150):
            p = sympy.nextprime(rng.getrandbits(22) | 1 << 19)
            noise = [sympy.nextprime(rng.getrandbits(24) | 1 << 15) for _ in range(2)]
            prime_power_gcds += [
                p**6,
                p ** rng.randint(7, 24),
                p**6 * rng.randint(2, 2**12),
                p**2 * noise[0] * noise[1] ** 2,  # an adversarial-deficient gcd
            ]

        def reference(n):
            counts, cofactor = trial_division_scan(n)
            for p, e in factor(cofactor):
                counts[p] = counts.get(p, 0) + e
            return tuple(sorted(counts.items()))

        for corpus, budget in ((random_numbers, 0), (prime_power_gcds, 1 << 16)):
            monkeypatch.setattr(numtheory, "RHO_BUDGET", budget)
            for n in corpus:
                assert factor_or_budget(factor, n) == factor_or_budget(reference, n), n


# 40- to 64-bit primes: rho would need about sqrt(p) >= 2**20 iterations
# per split, so these only finish fast through perfect-power detection.
big_primes = st.integers(2**39, 2**64 - 2**32).map(sympy.nextprime)
smooth_cofactors = st.lists(st.sampled_from((2, 3, 5, 7, 97, 9973)), max_size=6).map(math.prod)


def expected_entries(*factorizations) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for f in factorizations:
        for p, e in f.items():
            counts[p] = counts.get(p, 0) + e
    return tuple(sorted(counts.items()))


class TestLargePrimePowers:
    # no shrinking: a slow factor would cost the time limit per attempt
    @settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(big_primes, st.integers(2, 12), smooth_cofactors)
    def test_smooth_times_prime_power(self, p, k, c):
        with time_limit(10):
            f = factor(c * p**k)
        assert f == expected_entries(sympy.factorint(c), {p: k})

    def test_product_of_two_prime_powers(self):
        # rho must split off the 40-bit prime once; every copy of it goes
        # at once and the 64-bit cube is left to perfect-power detection
        p = sympy.nextprime(2**39 + 777)
        q = sympy.nextprime(2**63 + 999)
        with time_limit(10):
            f = factor(12 * p**3 * 5 * q**2)
        assert f == ((2, 2), (3, 1), (5, 1), (p, 3), (q, 2))

    def test_pinned_squares(self):
        with time_limit(10):
            assert factor((3 * 5**2 * 192978014706347711) ** 2) == (
                (3, 2), (5, 4), (192978014706347711, 2),
            )
            assert factor((239 * 63649 * 790212994553) ** 2) == (
                (239, 2), (63649, 2), (790212994553, 2),
            )

    def test_nested_powers(self):
        # composite exponents peel one prime root at a time: 30 = 2*3*5
        p = sympy.nextprime(2**45)
        with time_limit(10):
            assert factor(p**30) == ((p, 30),)
            assert factor((12 * p**3) ** 4) == ((2, 8), (3, 4), (p, 12))


    def test_huge_prime_power_is_fast(self):
        # trial division strips the 10**5 copies of 3 by repeated squaring
        n = 3 ** (10**5)
        with time_limit(1):
            assert factor(n) == ((3, 10**5),)
            assert factor(n * 5**300 * 7) == ((3, 10**5), (5, 300), (7, 1))


class TestRhoBudget:
    SEMIPRIME = sympy.nextprime(2**63 + 12345) * sympy.prevprime(2**64)

    def test_tiny_budget_raises(self, monkeypatch):
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 1000)
        with time_limit(10):
            with pytest.raises(FactorBudgetExceeded, match="budget of 1000 ") as exc:
                factor(self.SEMIPRIME)
        assert exc.value.budget == 1000 and exc.value.n == self.SEMIPRIME

    def test_budget_spans_the_whole_call(self, monkeypatch):
        # with seed 0 the two rho splits of this 76-bit product take about
        # 12.4k and 12.7k iterations: 20k covers either alone, not both
        n = sympy.nextprime(2**24) * sympy.nextprime(2**25) * sympy.nextprime(2**26)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 30_000)
        assert math.prod(p**e for p, e in factor(n)) == n
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 20_000)
        with pytest.raises(FactorBudgetExceeded, match="budget of 20000 iterations on a 52-bit"):
            factor(n)

    def test_budget_is_read_at_call_time(self, monkeypatch):
        # the 76-bit product above: about 25.1k iterations in all; each
        # call reads RHO_BUDGET as it is then, smaller or larger
        n = sympy.nextprime(2**24) * sympy.nextprime(2**25) * sympy.nextprime(2**26)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 20_000)
        with pytest.raises(FactorBudgetExceeded, match="budget of 20000 "):
            factor(n)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 30_000)
        assert math.prod(p**e for p, e in factor(n)) == n
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 1000)
        with pytest.raises(FactorBudgetExceeded, match="budget of 1000 "):
            factor(n)

    def test_within_budget_unchanged(self, monkeypatch):
        n = 10007 * 10009 * 2**70
        f = factor(n)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 10_000)
        assert f == factor(n)
        monkeypatch.setattr(numtheory, "RHO_BUDGET", 0)
        assert factor(13824) == ((2, 9), (3, 3))

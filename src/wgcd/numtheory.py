"""Arbitrary-precision integer primitives.

Everything the weighted-gcd strategies stand on: gcd folds, floor roots,
p-adic valuations, factor refinement into a coprime base and into pieces
with exact exponents, Baillie-PSW primality, and integer factorization.
Factorization runs trial division below 10**4, as one gcd per decade of
primes against the product of that decade; then `_factor_rough`, which
also serves alone a number whose primes all exceed 10**4, runs
perfect-power detection, a primality test and Pollard rho capped at
RHO_BUDGET iterations.
The primes below 10**4, and the products of their decades, are built on
first use, never at import: `import wgcd` and a call that the root test
answers compute no prime table.
A second tier, the product of the primes in (10**4, B) for a bound B of
at most 10**5, is likewise built per bound on first use; the `auto`
route takes one gcd with it, B sized to the piece's cube root, to
prove a piece below 10**20 free of those primes, which bounds the
multiplicity of its primes by its size, or to split off the ones it has.
All functions are deterministic, pure and safe to call concurrently: they
read no context, and the cap is the module constant at the time of the
call.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from collections.abc import Iterator
from itertools import compress

TRIAL_DIVISION_LIMIT = 10_000
# Once trial division is done every remaining prime factor exceeds 10**4,
# so a cofactor below this square is prime and a k-th power has at least
# 13*k bits.
_PRIME_BELOW = TRIAL_DIVISION_LIMIT**2
_MIN_BITS_PER_POWER = 13


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(limit), sieve))


@functools.cache
def _small_primes() -> tuple[int, ...]:
    # the 1,229 primes below 10**4
    return _primes_below(TRIAL_DIVISION_LIMIT)


@functools.cache
def _trial_ranges() -> tuple[tuple[tuple[int, ...], int], ...]:
    # Trial division takes one gcd per decade of primes, against the product
    # of that decade.  A small cofactor stops after the first decade or two,
    # so a 16-bit number never pays for a gcd with the whole 14,277-bit
    # primorial.
    primes = _small_primes()
    bounds = (2, 10, 100, 1000, TRIAL_DIVISION_LIMIT)
    decades = (
        primes[bisect_left(primes, lo) : bisect_left(primes, hi)]
        for lo, hi in zip(bounds, bounds[1:])
    )
    return tuple((decade, math.prod(decade)) for decade in decades)


# The second tier: the primes in (10**4, 10**5).  The `auto` route takes a
# gcd with the product of those below a bound sized to the piece, from the
# 9,175 bits below 2**14 to all 129,539; each product is built on the first
# call that needs it, in up to about 14 ms.
SECOND_TIER_LIMIT = 10**5


@functools.cache
def _second_tier_product(bound: int) -> int:
    # the primes in (10**4, bound) multiplied pairwise (Bernstein 2004), in
    # a third of the time of a sequential product
    xs = _primes_below(bound)[len(_small_primes()) :]
    while len(xs) > 1:
        xs = [*map(operator.mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1 :]]
    return xs[0]


def gcd_many(xs) -> int:
    """Left fold of gcd over a nonempty sequence."""
    xs = list(xs)
    if not xs:
        raise ValueError("gcd_many needs at least one integer")
    g = abs(xs[0])
    for x in xs[1:]:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g


# Covers the float error of iroot's start, at most a relative 2**-43.
_ROOT_WIDENING = 1 + 2.0**-40


def iroot(x: int, n: int) -> int:
    """Floor of the n-th root: the r with r**n <= x < (r+1)**n.

    `math.isqrt` for n = 2; otherwise integer Newton iteration from a float
    root r above the root s.  By AM-GM each step stays >= s, and a step
    from any r > s goes strictly down, so the iteration stops exactly on s
    (Cohen 1993, 1.7).

    The start, with k = (bits - 1000) // n read as 0 when negative:
    y = x >> (n k) is x itself or at least 2**999, so x**(1/n) is below
    (y + 1)**(1/n) 2**k, within a relative 2**-999 of y**(1/n) 2**k.  The
    float z = 2 ** (log2(y) / n) is within a relative 2**-43 of
    y**(1/n): its exponent is below 1000/n + 1 <= 335 and is off by a few
    relative 2**-53.  So z (1 + 2**-40) 2**k > x**(1/n) >= s, and the
    start r = (floor(z (1 + 2**-40) 2**j) + 1) << (k - j), j = min(k, 64),
    exceeds it.  The 2**j keeps 64 bits of z, so r is within a relative
    2**-39 of s, plus 2, and Newton ends in a few steps.  A start at the
    power of two 1 << ceil(bits/n) can be twice s, which costs a big n
    about n ln 2 steps.
    """
    if n < 1:
        raise ValueError("root order must be positive")
    if x < 0:
        raise ValueError("iroot expects a nonnegative integer")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    if n >= x.bit_length():
        return 1
    k = (x.bit_length() - 1000) // n
    if k > 0:
        j = min(k, 64)
        z = 2.0 ** (math.log2(x >> (n * k)) / n)
        r = (int(math.ldexp(z * _ROOT_WIDENING, j)) + 1) << (k - j)
    else:
        r = int(2.0 ** (math.log2(x) / n) * _ROOT_WIDENING) + 1
    while True:
        t = ((n - 1) * r + x // r ** (n - 1)) // n
        if t >= r:
            break
        r = t
    return r


# Copies of p that `_strip` divides out one at a time before it switches
# to dividing by p**2, p**4, ...  Below about 16 copies of a small p the
# single divisions are cheaper; on a big x the squaring wins sooner.
_SINGLE_COPIES = 8


def _strip(x: int, p: int) -> tuple[int, int]:
    """(x // p**e, e) for the largest e with p**e dividing x, for x > 0 and
    p >= 2.

    The first _SINGLE_COPIES copies go one `x % p` at a time.  Past them it
    divides by p**2, p**4, ... while they divide, then steps back down the
    same powers, so e copies cost O(log e) big divisions rather than e.
    """
    if p == 2:
        e = (x & -x).bit_length() - 1
        return x >> e, e
    e = 0
    while x % p == 0:
        x //= p
        e += 1
        if e == _SINGLE_COPIES:
            break
    else:
        return x, e
    powers = [p * p]
    while True:
        y, r = divmod(x, powers[-1])
        if r:
            break
        x = y
        e += 1 << len(powers)
        powers.append(powers[-1] ** 2)
    # p**(2**len(powers)) does not divide x: what is left of e has one
    # binary digit per smaller power, p**(2**k) for k = len - 1 down to 1
    for k in range(len(powers) - 1, 0, -1):
        y, r = divmod(x, powers[k - 1])
        if not r:
            x = y
            e += 1 << k
    if x % p == 0:
        x //= p
        e += 1
    return x, e


def valuation(p: int, x: int) -> int:
    """Largest e with p**e dividing x.  Rejects x = 0 (the valuation would
    be infinite; callers must special-case zeros).

    Strips copies of p with `_strip`: one division each for the first
    few, then repeated squaring, so a valuation of e takes O(log e) big
    divisions and `valuation(3, 3**(10**5) * 7)` stays in milliseconds.
    """
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    if x % p:
        return 0
    return _strip(abs(x), p)[1]


def coprime_base(xs) -> list[int]:
    """Factor refinement: pairwise coprime integers > 1 such that every
    x > 1 in xs is a product of powers of them.

    The naive refinement of Bach, Driscoll & Shallit ("Factor
    refinement", 1993): while two pieces a, b share g = gcd(a, b) > 1,
    replace them by g and by what is left of a and of b once `_strip`
    has divided out every copy of g.  Each replacement divides the
    product of all pieces by at least g, so the loop ends, and a power
    p**e against p takes O(log e) divisions, not e.
    """
    base: list[int] = []
    todo = [x for x in xs if x > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += (v for v in (g, _strip(a, g)[0], _strip(b, g)[0]) if v > 1)
                break
        else:
            base.append(a)
    return base


def _exact_pieces(xs, ys) -> list[tuple[int, list[int]]]:
    """Factor refinement of xs until the pieces are exact in ys: pairwise
    coprime c > 1, each with its exponents e_j, such that every x > 1 in
    xs is a product of powers of them and each y_j = c**e_j * u_j with
    gcd(u_j, c) = 1.  Then a prime with k copies in c has k * e_j copies
    in y_j.  The ys must be positive.

    Starts from `coprime_base(xs)`; a piece c that leaves 1 < gcd(u_j, c)
    is split by `coprime_base([c, gcd(u_j, c)])` into smaller pieces,
    which are refined in turn.
    """
    out = []
    todo = coprime_base(xs)
    while todo:
        c = todo.pop()
        es = []
        for y in ys:
            u, e = _strip(y, c)
            h = math.gcd(u, c)
            if h > 1:
                todo += coprime_base([c, h])
                break
            es.append(e)
        else:
            out.append((c, es))
    return out


def _miller_rabin_round(n: int, d: int, s: int, a: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a / n) for odd n > 0
    a %= n
    j = 1
    while a:
        t = (a & -a).bit_length() - 1
        a >>= t
        if t & 1 and n & 7 in (3, 5):
            j = -j
        if a & n & 3 == 3:  # reciprocity, both odd
            j = -j
        a, n = n % a, a
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # strong Lucas probable-prime test for odd n > 41**2 with no prime
    # factor below 41.  Selfridge's parameters: the first D of 5, -7, 9, ...
    # with (D / n) = -1, which no square has, P = 1 and Q = (1 - D) / 4.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:  # |D| < n shares a prime with n
        return False
    Q, d = (1 - D) // 4, n + 1
    s = (d & -d).bit_length() - 1
    # (V_k, V_k+1, Q**k) mod n up the bits of d / 2**s from k = 0, by
    # V_2k = V_k**2 - 2 Q**k and V_2k+1 = V_k V_k+1 - Q**k; D U_k = 2 V_k+1 - V_k
    v0, v1, qk = 2, 1, 1
    for bit in bin(d >> s)[2:]:
        if bit == "1":
            v0, v1, qk = (v0 * v1 - qk) % n, (v1 * v1 - 2 * Q * qk) % n, qk * qk * Q % n
        else:
            v0, v1, qk = (v0 * v0 - 2 * qk) % n, (v0 * v1 - qk) % n, qk * qk % n
    if v0 == 0 or (2 * v1 - v0) % n == 0:
        return True
    for _ in range(s - 1):
        v0, qk = (v0 * v0 - 2 * qk) % n, qk * qk % n
        if v0 == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW test: trial division by the primes below 41, a strong
    Miller-Rabin round to base 2, then a strong Lucas test (Baillie &
    Wagstaff, "Lucas pseudoprimes", 1980).  Exact for n < 2**64, with no
    known counterexample above, and the answer depends on n alone."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    return _miller_rabin_round(n, d >> s, s, 2) and _strong_lucas(n)


class FactorBudgetExceeded(ArithmeticError):
    """Pollard rho spent its iteration budget without finishing a factorization."""

    def __init__(self, budget: int, n: int):
        super().__init__(
            f"Pollard rho exceeded its budget of {budget} iterations "
            f"on a {n.bit_length()}-bit cofactor"
        )
        self.budget = budget
        self.n = n


# Rho iterations per factorization: a few seconds, enough to split off
# prime factors of up to about 40 bits, where a cofactor with two larger
# primes would otherwise run for hours.
RHO_BUDGET = 1 << 22


class _Record:
    """Base of the package's small record classes.  The `__slots__` of a
    subclass are its fields, in declaration order; two records of the
    same class are equal when their fields are."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._astuple()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


# object.__setattr__ under one global name: it sets a _Frozen field past
# the refusing __setattr__, and saves an attribute lookup per field on
# every WeightedTuple built
_set_field = object.__setattr__


class _Frozen(_Record):
    """A record whose own code sets each field once through `_set_field`;
    assigning or deleting a field afterwards raises
    `dataclasses.FrozenInstanceError`.  It hashes as its field tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # kept off the import path

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default would restore each slot with the refused __setattr__
        return type(self), self._astuple()


class Factorization(_Frozen):
    """Multiset of (prime, exponent) pairs, ascending by prime.

    The empty factorization represents 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()):
        entries = tuple((operator.index(p), operator.index(e)) for p, e in entries)
        for i, (p, e) in enumerate(entries):
            if p < 2 or not is_prime(p):
                raise ValueError(f"factor {p} is not a prime")
            if e < 1:
                raise ValueError(f"exponent {e} of {p} must be positive")
            if i > 0 and entries[i - 1][0] >= p:
                raise ValueError("entries must be strictly ascending by prime")
        _set_field(self, "entries", entries)

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...]) -> "Factorization":
        """Wrap entries `factor` has already proved valid, skipping the checks."""
        f = object.__new__(cls)
        _set_field(f, "entries", entries)
        return f

    def value(self) -> int:
        n = 1
        for p, e in self.entries:
            n *= p**e
        return n

    def exponent(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
        return 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _pollard_rho_brent(n: int, rng, budget: int, spent: int = 0) -> tuple[int, int]:
    """Nontrivial factor of an odd composite n via Brent's cycle variant,
    and the running iteration count: `spent` plus the iterations run here.
    Its one caller, `_factor_rough`, passes only n whose primes exceed 10**4,
    and rng, the `random.Random` the walks are drawn from.

    The budget is checked once per batch of m iterations, before the batch
    runs; FactorBudgetExceeded is raised when the batch would pass it.
    """
    m = 128
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1:
            if spent + r > budget:
                raise FactorBudgetExceeded(budget, n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r
            k = 0
            while k < r and g == 1:
                batch = min(m, r - k)
                if spent + batch > budget:
                    raise FactorBudgetExceeded(budget, n)
                ys = y
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += batch
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # the batch overshot: replay it one step at a time (< m steps)
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
        if g != n:
            return g, spent


def _perfect_power(v: int) -> tuple[int, int]:
    """(r, k) with r**k == v for the smallest prime k that has one, else
    (v, 1).  Only for v whose prime factors all exceed 10**4."""
    bits = v.bit_length()
    for k in _small_primes():
        if k * _MIN_BITS_PER_POWER > bits:
            break
        r = iroot(v, k)
        if r**k == v:
            return r, k
    return v, 1


def _trial_division(m: int, counts: dict[int, int]) -> int:
    """Move the primes below 10**4 of m >= 1 into counts, as prime:
    exponent, and return what is left of m: 1, or a number of at least
    10**8 whose primes all exceed 10**4.  A rest below 10**8 is one prime
    and goes into counts too.

    Takes one gcd per decade of the primes against the decade's product
    and divides out only the primes of that gcd; it stops at the first
    decade whose smallest prime squared exceeds the cofactor.  The primes
    and the products are built by the first call, not at import.
    """
    for primes, product in _trial_ranges():
        if primes[0] * primes[0] > m:
            break
        # g is the product of the primes of this decade that divide m; once
        # those below p are divided out of it, g < p*p makes g itself prime
        g = math.gcd(m, product)
        if g == 1:
            continue
        for p in primes:
            if p * p > g:
                p = g
            elif g % p:
                continue
            g //= p
            m, e = _strip(m // p, p)
            counts[p] = e + 1
            if g == 1:
                break
    if 1 < m < _PRIME_BELOW:
        counts[m] = 1
        m = 1
    return m


def factor(n: int) -> Factorization:
    """Prime factorization of n >= 1.  Pollard rho draws its walks from a
    fixed-seed generator, so the rho iterations a call runs depend on n
    alone.

    First `_trial_division` by the primes below 10**4, then
    `_factor_rough` on the cofactor it leaves.  Every copy of a prime
    found by trial division, and of a divisor rho splits off, is stripped
    at once by `_strip`, which divides by repeated squares past the first
    few copies, so `factor(3**(10**5))` takes milliseconds rather than
    seconds.

    The rho iterations of the whole call are capped at RHO_BUDGET, and
    FactorBudgetExceeded is raised past the cap.
    """
    if n < 1:
        raise ValueError("factor expects n >= 1")
    counts: dict[int, int] = {}
    m = _trial_division(n, counts)
    if m > 1:
        counts.update(_factor_rough(m))
    return Factorization._trusted(tuple(sorted(counts.items())))


def _factor_rough(m: int, power_free: bool = False) -> dict[int, int]:
    """Prime factorization of m > 1 whose primes all exceed 10**4, as
    prime: exponent.  Each piece takes perfect-power detection, a
    primality test, then Pollard rho, capped at RHO_BUDGET iterations in
    all.  power_free: m is already known to be no perfect power, so its
    own test is skipped; the pieces rho splits off still take theirs."""
    counts: dict[int, int] = {}
    rng = None
    spent = 0
    pending = [(m, 1, power_free)]
    while pending:
        v, mult, power_free = pending.pop()
        if v < _PRIME_BELOW:
            counts[v] = counts.get(v, 0) + mult
            continue
        if not power_free:
            root, k = _perfect_power(v)
            if k > 1:
                pending.append((root, k * mult, False))
                continue
        if is_prime(v):
            counts[v] = counts.get(v, 0) + mult
            continue
        if rng is None:
            import random  # kept off the import path, as dataclasses is

            rng = random.Random(0)
        a, spent = _pollard_rho_brent(v, rng, RHO_BUDGET, spent)
        rest, e = _strip(v // a, a)
        pending.append((a, (e + 1) * mult, False))
        if rest > 1:
            pending.append((rest, mult, False))
    return counts

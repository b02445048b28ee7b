"""Weighted-gcd domain model.

A weighted tuple assigns a positive integer weight q_i to each coordinate
x_i; `WeightedTuple` holds both as tuples of ints.  Its weighted gcd is
the largest d with d**q_i dividing x_i for every i.  This module
computes it through five strategies, named in `STRATEGIES` and run by
`weighted_gcd`, plus normalization and verification.  Four are
independent cross-checks.  The default route, `auto`, factors at most
g = gcd(x), the same way for every weight vector: it first tries a
root candidate iroot(h, min q), which often answers with nothing
factored; on a miss, trial division and coprime pieces with exact
exponents decide most of d unfactored.  h is g on a short tuple; on a
long one it is the gcd of only its least-weight nonzero coordinates.
A hit is exact all the same: g | h, so the candidate is at least
iroot(g, min q) >= d; a candidate that passes is a common weighted
divisor, so it is at most d; so it is d.  Only a failed test completes
h to g.
`weighted_gcd` runs every strategy on its checked arguments, with no
`WeightedTuple` built.  `verify_wgcd` uses that every common weighted
divisor divides d: on a long tuple, a claim fails on divisibility at
once when its power does not divide the least-weight nonzero
coordinate; when the root test then answers d, the claim is right when
it is d, fails on maximality when it divides d, and on divisibility
otherwise.  A short tuple, or a long one whose test misses, runs the
route on the residues x_i / claim**q_i instead.  The
paper's wgcd-preserving tuple rewrites only explain the default route:
`wgcd_auto` replays them as a trace.  The route borrows their weight
order on long tuples, which each entry point decides once, to pick the
head and to build each power of the root test from the previous one.
A `with counting() as c:` block counts the gcd and factor calls made
inside it, and how many bits the largest factored number had.
"""

import math
import operator
from collections.abc import Sequence
from itertools import compress, islice

from .numtheory import (
    SECOND_TIER_LIMIT,
    TRIAL_DIVISION_LIMIT,
    _exact_pieces,
    _perfect_power,
    _second_tier_product,
    _trial_division,
    factor,
    iroot,
    valuation,
)


def _positive_weights(weights) -> tuple[int, ...]:
    # the weights as a tuple of ints, at least one, each >= 1: the weight
    # half of _checked, which bench's specs run on their own
    q = tuple(map(operator.index, weights))
    if not q:
        raise ValueError("weight vector must not be empty")
    if min(q) < 1:
        raise ValueError(f"weights must be positive, got {q}")
    return q


def _checked(values, weights) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (values, weights) as tuples of ints that make a valid weighted tuple,
    # else a ValueError or TypeError: the one check of WeightedTuple and
    # weighted_gcd
    values = tuple(map(operator.index, values))
    weights = _positive_weights(weights)
    if len(values) != len(weights):
        raise ValueError(f"{len(values)} values but {len(weights)} weights")
    if not any(values):
        raise ValueError("the all-zero tuple has no weighted gcd")
    return values, weights


class _Record:
    """Base of the package's validated or mutable records: `WeightedTuple`,
    `Counters` and `bench.GenSpec`.  The `__slots__` of a subclass are its
    fields, in declaration order; two records of the same class are equal
    when their fields are."""

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
        # the default would restore each slot with the refused __setattr__;
        # this rebuilds through __init__, so its checks run again
        return type(self), self._astuple()


class WeightedTuple(_Frozen):
    """Integers x_0..x_n paired coordinate-wise with positive integer
    weights q_0..q_n; not all values zero."""

    __slots__ = ("values", "weights")

    def __init__(self, values: tuple[int, ...], weights: tuple[int, ...]):
        values, weights = _checked(values, weights)
        _set_field(self, "values", values)
        _set_field(self, "weights", weights)
        # looked up at each build, so a profiler can count builds by
        # patching WeightedTuple.__post_init__
        self.__post_init__()

    def __post_init__(self):
        # once per checked build, after the checks; does nothing itself
        pass

    @classmethod
    def _trusted(
        cls, values: tuple[int, ...], weights: tuple[int, ...]
    ) -> "WeightedTuple":
        """Wrap ints and weights already proved valid, skipping the checks."""
        t = object.__new__(cls)
        _set_field(t, "values", values)
        _set_field(t, "weights", weights)
        return t


class Counters(_Record):
    """Instrumentation for one `counting` block: the calls of `factor`,
    the bit length of the largest number factored, and the calls of
    `gcd_many`, one per gcd however many values it takes.  `__slots__`
    is the field order every report follows."""

    __slots__ = ("factor_calls", "max_factored_bits", "gcd_calls")

    def __init__(
        self, factor_calls: int = 0, max_factored_bits: int = 0, gcd_calls: int = 0
    ):
        self.factor_calls = factor_calls
        self.max_factored_bits = max_factored_bits
        self.gcd_calls = gcd_calls


class _Result(tuple):
    """Base of the package's plain results, tuples with named fields.  A
    subclass names its fields in `_fields` and declares empty `__slots__`;
    it is built from them by position or by keyword, reads each by name,
    matches them by position, equals, hashes and unpacks as their plain
    tuple, and copies and pickles as itself.  Unlike
    `collections.namedtuple`, a declaration compiles no code, which
    `import wgcd` would pay for."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(operator.itemgetter(i)))
        cls.__match_args__ = cls._fields

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(
                    f"{cls.__name__} takes the fields {', '.join(fields)}; got"
                    f" {len(args)} by position and the keywords {sorted(kwargs)}"
                )
            args += tuple(map(kwargs.__getitem__, rest))
        return tuple.__new__(cls, args)

    def __getnewargs__(self) -> tuple:
        # what copy and pickle pass back to __new__
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    __repr__ = _Record.__repr__


class TraceStep(_Result):
    """One rewrite: its rule ("abs", "permute", "suffix-gcd", "fastpath-one"
    or "fastpath-root"), and the tuple of ints and the weights it leaves."""

    __slots__ = ()
    _fields = ("rule", "values", "weights")


class WgcdResult(_Result):
    """`wgcd_auto`'s answer d, its trace, the ordered TraceSteps whose
    replay from the input reproduces each intermediate tuple, and its
    Counters."""

    __slots__ = ()
    _fields = ("d", "trace", "counters")


class VerifyResult(_Result):
    """`verify_wgcd`'s verdict: ok, a bool, and reason, None when ok, else
    "divisibility" or "maximality"."""

    __slots__ = ()
    _fields = ("ok", "reason")


# verify_wgcd's three verdicts, built once
_VERIFIED = VerifyResult(True, None)
_NOT_DIVISIBLE = VerifyResult(False, "divisibility")
_NOT_MAXIMAL = VerifyResult(False, "maximality")


# ---------------------------------------------------------------------------
# counted kernel access

# The ContextVar of the `counting` blocks, once the first block has opened;
# empty until then, so nothing is counted and `contextvars` is not loaded.
# Two threads that open their first blocks at once may each append one:
# every reader takes [0], so all blocks share the first.  The var holds
# None outside every block.
_COUNTERS = []


class counting:
    """`with counting() as c:` counts the gcd and factor calls made in the
    block, in this thread or task, into the Counters `c`.  A block inside
    another joins the outer one and yields its Counters.  `contextvars` is
    imported by the first block, not by `import wgcd`."""

    def __enter__(self) -> Counters:
        if not _COUNTERS:
            from contextvars import ContextVar

            _COUNTERS.append(ContextVar("counters", default=None))
        var = _COUNTERS[0]
        c = var.get()
        if c is None:
            c = Counters()
            self._token = var.set(c)
        else:
            self._token = None
        return c

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _COUNTERS[0].reset(self._token)


def gcd_many(xs) -> int:
    """The gcd of a nonempty sequence of ints, by one `math.gcd` call;
    the package's one gcd fold, counted once in an open `counting`
    block."""
    if not xs:
        raise ValueError("gcd_many needs at least one integer")
    if _COUNTERS:
        c = _COUNTERS[0].get()
        if c is not None:
            c.gcd_calls += 1
    return math.gcd(*xs)


def _factor(n: int):
    # factor(n), counted in an open `counting` block: every strategy, the
    # `auto` route's undecided pieces included, factors through here
    if _COUNTERS:
        c = _COUNTERS[0].get()
        if c is not None:
            c.factor_calls += 1
            bits = n.bit_length()
            if bits > c.max_factored_bits:
                c.max_factored_bits = bits
    return factor(n)


# ---------------------------------------------------------------------------
# strategies

ORACLE_SCAN_LIMIT = 10**6


def _oracle(values, weights) -> int:
    """Definition-level oracle: scan d downward from the root bound.

    The bound is min over nonzero coordinates of floor(|x_i| ** (1/q_i));
    zero coordinates impose no constraint.  A bound past ORACLE_SCAN_LIMIT
    candidates raises ValueError naming the limit before any is examined.
    """
    constraints = [(abs(x), q) for x, q in zip(values, weights) if x]
    upper = min(iroot(x, q) for x, q in constraints)
    if upper - 1 > ORACLE_SCAN_LIMIT:
        raise ValueError(
            f"oracle scan of {upper - 1} candidates exceeds the"
            f" {ORACLE_SCAN_LIMIT} budget"
        )
    for d in range(upper, 1, -1):
        if all(x % d**q == 0 for x, q in constraints):
            return d
    return 1


def _full_factor(values, weights) -> int:
    """Product formula over the factorization of every nonzero coordinate:
    each prime contributes min over coordinates of floor(valuation/weight)."""
    factored = [(dict(_factor(abs(x))), q) for x, q in zip(values, weights) if x]
    return math.prod(p ** min(f.get(p, 0) // q for f, q in factored) for p in factored[0][0])


def _auto(values, weights) -> int:
    """The default strategy: `_wgcd_route` in the weights' `_visit_order`."""
    return _wgcd_route(values, weights, _visit_order(weights))[0]


def _wgcd_route(values, weights, order) -> tuple[int, list[int] | None]:
    """The `auto` route on plain tuples (values not all zero, weights >= 1):
    (d, ys), ys the quotients x_i // d**q_i when a root candidate
    answered, else None.  `weighted_gcd` runs it on its checked
    arguments, `verify_wgcd` on a short tuple's residues, and `normalize`
    and `wgcd_auto` read its quotients.  order is the caller's
    `_visit_order` of the weights.

    It factors at most g = gcd of the values.  Any valid d divides every
    x_i (the weights are >= 1), hence d | g, so g's primes are the only
    candidates.

    Let q be the least weight of a nonzero x_i; d**q | g bounds d by the
    root candidate r = iroot(g, q).  So g = 1 gives 1, and r is the answer
    when every r**q_i | x_i, with nothing factored.  On a tuple of
    _WEIGHT_ORDER_FROM or more coordinates that test takes them in the
    paper's order, by ascending weight, which the caller sorts once and
    every step follows: each r**q_i is the previous power times
    r**(q_i - q_prev), and the first candidate comes from h, the gcd of
    the _HEAD first nonzero x_i in that order, not from g.  A hit is
    still exact: g | h, so iroot(h, q) >= iroot(g, q) >= d; a candidate
    that passes is a common weighted divisor, so it is <= d; so it is
    d.  h = 1 gives 1, as g | h.  Only on a failed test is h
    completed to g = gcd(h, x), and g != h retested.  Otherwise trial
    division takes g's primes below 10**4, and the rest of g too when it
    is below 10**8, where it is prime.  A bigger rest is refined against
    the nonzero x_i into coprime pieces whose exponents are exact
    (factor refinement): x_i = c**e_i * u_i with gcd(u_i, c) = 1, so a
    prime with k copies in the piece c contributes p**f(k), where
    f(k) = min over i of floor(k e_i / q_i).  A perfect power c = r**k
    stands for r.  Since every prime of c exceeds L = 10**4, a prime of
    c with k >= 2 copies leaves a cofactor above L, so L**(k+1) < c;
    when f(k) = k f(1) for each such k, c contributes c**f(1), and 1
    when f(1) = 0.  An undecided c below 10**20 takes one gcd with the
    product of the primes in (10**4, B), B = min(r rounded up to its three
    leading bits, 10**5) for r = iroot(c, 3) + 1, so r <= B < 1.25 r and
    B is one of 15 bounds from 10240 to 10**5 (Bernstein 2004 sizes a
    smoothness gcd the same way): a gcd h > 1 splits c into square-free
    divisors of h and pieces whose primes exceed B, and a gcd of 1 gives
    the size test L = B.  Below 10**15, B**3 > c, so that test decides c
    and each piece of the split with no factoring.  Only a piece still
    undecided is factored, where a square could matter, by one counted
    `factor` call, the package's one way into factoring.

    The exponent in d of each prime p that trial division takes is min
    over nonzero x_i of floor(valuation(p, x_i) / q_i), found with a
    running bound m that starts at floor(e / q) for p's exponent e in g:
    some x_i has valuation e and q_i >= q.  A prime with m = 0 is
    skipped.  A coordinate costs one `x_i % p**(q_i m)`; only a nonzero
    remainder lowers m, by a valuation unless m = 1, and the scan stops
    at m = 0.  Under equal weights the bound is already the answer, so
    every coordinate passes.  As in `_divide_out`, a power with
    q_i m (bitlen(p) - 1) >= bitlen(x_i) cannot divide and is not built;
    the root candidate's test is `_divide_out` itself, whose quotients
    `normalize` keeps on a hit and whose answer `verify_wgcd` compares a
    long tuple's claim with.
    """
    g, ys, q_min = _root_test(values, weights, order)
    if ys is not None or g == 1:
        return g, ys
    small: dict[int, int] = {}
    rest = _trial_division(g, small)
    d = _split_share(rest, values, weights) if rest > 1 else 1
    for p, e in small.items():
        m = e // q_min
        if not m:
            continue
        lg = p.bit_length() - 1  # p**k >= 2**(k * lg)
        for x, q in zip(values, weights):
            if x and (q * m * lg >= x.bit_length() or x % p ** (q * m)):
                m = valuation(p, x) // q if m > 1 else 0
                if not m:
                    break
        d *= p**m
    return d, None


def _root_test(values, weights, order) -> tuple[int, list[int] | None, int]:
    # The root test of _wgcd_route: the candidate iroot(h, q_min) from the
    # gcd h of the tuple's head, or of all of it on a short tuple, tried by
    # _divide_out, then once more from gcd(x) when h was a head and the
    # candidate missed.  Returns (n, ys, q_min), q_min the least weight of
    # a nonzero x_i (0 when the head's gcd is 1): ys are the quotients
    # x_i // n**q_i when the candidate n passed, so n is d; n = 1 with ys
    # None means gcd(x) = 1, so d = 1; else the test missed and n = gcd(x).
    head = values
    if order is not None:
        head = list(islice(filter(None, map(values.__getitem__, order)), _HEAD))
    # g is a multiple of gcd(x), and gcd(x) itself once head is all of x
    g = gcd_many(head)
    if g == 1:
        return 1, None, 0
    q_min = min(compress(weights, values))
    while True:
        r = iroot(g, q_min)
        ys = _divide_out(values, weights, r, order)
        if ys is not None:
            return r, ys, q_min
        if head is values:
            return g, None, q_min
        head, h = values, g
        g = gcd_many((h, *values))
        if g == 1 or g == h:
            return g, None, q_min


# Undecided pieces below this take one gcd with the second tier's product;
# past it the gcd costs as much and bounds fewer multiplicities.
_SECOND_TIER_BELOW = 10**20


def _split_share(rest: int, values, weights) -> int:
    # _wgcd_route's miss: the share of d of g's rough part rest > 1, whose
    # primes all exceed 10**4, worked out piece by piece from the exact
    # pieces that refining rest against the nonzero |x_i| leaves
    d = 1
    xs = [abs(x) for x in values if x]
    qs = list(compress(weights, values))
    todo = [(c, es, TRIAL_DIVISION_LIMIT) for c, es in _exact_pieces([rest], xs)]
    while todo:
        # every prime of the exact piece c exceeds low
        c, es, low = todo.pop()
        root, k = _perfect_power(c)
        if k > 1:
            todo.append((root, [k * e for e in es], low))
            continue
        share = _size_share(c, es, qs, low)
        if share is None and low == TRIAL_DIVISION_LIMIT and c < _SECOND_TIER_BELOW:
            # primes of c all above bound, with bound**3 > c, leave no room
            # for a square: the gcd needs only the primes below bound.  r
            # rounded up to its three leading bits overshoots it by under
            # a quarter; c > 10**12 here, so r > 10**4 has 14 bits or more
            r = iroot(c, 3) + 1
            step = 1 << (r.bit_length() - 3)
            bound = min(-(-r // step) * step, SECOND_TIER_LIMIT)
            h = gcd_many((c, _second_tier_product(bound)))
            if h > 1:
                for b, bes in _exact_pieces([c, h], xs):
                    if h % b:  # b is coprime to h: its primes exceed bound
                        todo.append((b, bes, bound))
                    else:  # b divides h, which is square-free
                        d *= b ** _share_exponent(1, bes, qs)
                continue
            share = _size_share(c, es, qs, bound)
        if share is None:
            share = 1
            for p, k in _factor(c):
                share *= p ** _share_exponent(k, es, qs)
        d *= share
    return d


def _share_exponent(k: int, es, qs) -> int:
    # f(k): the exponent in d of a prime with k copies in an exact piece
    # whose exponents in the nonzero coordinates are es
    return min(k * e // q for e, q in zip(es, qs))


def _size_share(c: int, es, qs, low: int) -> int | None:
    # c**f(1) when the size of c proves that every prime of c, with its k
    # copies, contributes p**(k * f(1)), else None.  c is an exact piece, no
    # perfect power, whose primes all exceed low: so a prime with k >= 2
    # copies leaves a cofactor above low, and low**(k+1) < c.  The pieces
    # with f(k) = 0 up to the largest such k contribute 1; a prime c, or a
    # c below low**3, is square-free.
    f1 = _share_exponent(1, es, qs)
    k, power = 2, low**3
    while power < c:
        if _share_exponent(k, es, qs) != k * f1:
            return None
        k += 1
        power *= low
    return c**f1


# Largest power |x_i| ** (m / q_i) that lcm-power builds, in bits.  Building
# the powers, their gcd and factoring G took up to 0.25 s at this size on a
# 2-vCPU x86-64 host; no tuple in the tests or the selftest needs 6000 bits.
LCM_POWER_BITS = 1 << 16


def _lcm_power(values, weights) -> int:
    """With m = lcm of the weights, return the largest d with d**m dividing
    G = gcd over nonzero coordinates of |x_i| ** (m / q_i).

    Computed as the product of p ** floor(e_p / m) over G's factorization,
    which provably equals the per-prime min-floor formula; requiring the
    exact equality d**m = G instead would have no solution for tuples such
    as (8, 4) with weights (2, 3).  Raises ValueError, before building any
    power, when bitlen(x_i) * (m / q_i) exceeds LCM_POWER_BITS.
    """
    m = math.lcm(*weights)
    nonzero = [(abs(x), m // q) for x, q in zip(values, weights) if x]
    bits = max(x.bit_length() * k for x, k in nonzero)
    if bits > LCM_POWER_BITS:
        raise ValueError(
            f"lcm-power would build a {bits}-bit power, over its"
            f" {LCM_POWER_BITS}-bit budget"
        )
    g_pow = gcd_many([x**k for x, k in nonzero])
    if g_pow == 1:
        return 1
    d = 1
    for p, e in _factor(g_pow):
        d *= p ** (e // m)
    return d


def _fold(values, weights) -> int:
    """Peel one coordinate at a time: fully factor a single start
    coordinate, then merge the rest pairwise under weights (1, q_i).

    The start coordinate is the nonzero one minimizing bit-length / weight,
    the cheapest full factorization on offer; under weight q its |x|
    gives the product of p ** floor(e/q) over its factorization.  A merge
    of the running d with (x, q) keeps only d's primes, each at
    min(its exponent in d, floor(valuation in x / q)): one gcd when q = 1.
    x = 0 imposes no constraint, and d = 1 ends the fold.
    """
    nonzero = [(i, abs(x)) for i, x in enumerate(values) if x]
    start, d = min(nonzero, key=lambda iv: iv[1].bit_length() / weights[iv[0]])
    q0 = weights[start]
    if q0 > 1:
        d = math.prod(p ** (e // q0) for p, e in _factor(d))
    for i, (x, q) in enumerate(zip(values, weights)):
        if d == 1:
            break
        if i == start or x == 0:
            continue
        if q == 1:
            d = gcd_many((d, abs(x)))
        else:
            d = math.prod(p ** min(e, valuation(p, abs(x)) // q) for p, e in _factor(d))
    return d


# ---------------------------------------------------------------------------
# reductions: each maps a valid tuple to a valid one, so none re-checks it
# (the suffix gcds keep y_0 = gcd(x) != 0)

def abs_values(t: WeightedTuple) -> WeightedTuple:
    """Coordinate-wise absolute value; the weighted gcd is sign-blind."""
    return WeightedTuple._trusted(tuple(abs(x) for x in t.values), t.weights)


def _weight_order(weights) -> list[int]:
    # the paper's order: the coordinate indices by ascending weight, stably
    return sorted(range(len(weights)), key=weights.__getitem__)


def _visit_order(weights, perm=None) -> Sequence[int] | None:
    # how one call visits its tuple: a long one's _weight_order, else None;
    # perm is that order when the caller has already sorted by weight
    if len(weights) < _WEIGHT_ORDER_FROM:
        return None
    return _weight_order(weights) if perm is None else perm


def sort_by_weight(t: WeightedTuple) -> tuple[WeightedTuple, tuple[int, ...]]:
    """Permute coordinates so the weights ascend, stably on ties.

    Returns the permuted tuple and the permutation (new position -> old
    index).  Applying the same permutation to values and weights leaves
    the weighted gcd unchanged.
    """
    perm = tuple(_weight_order(t.weights))
    permuted = WeightedTuple._trusted(
        tuple(t.values[i] for i in perm), tuple(t.weights[i] for i in perm)
    )
    return permuted, perm


def reduce_suffix_gcd(t: WeightedTuple) -> WeightedTuple:
    """Replace each coordinate by the gcd of its suffix: y_n = |x_n| and
    y_i = gcd(|x_i|, y_{i+1}).

    Needs nondecreasing weights.  The output is a divisor chain
    (y_i | y_{i+1}, hence y_0 <= ... <= y_n) with the same weighted gcd.
    """
    if not all(map(operator.le, t.weights, t.weights[1:])):
        raise ValueError(
            f"suffix-gcd reduction needs nondecreasing weights, got {t.weights}"
        )
    ys = [abs(x) for x in t.values]
    for i in range(len(ys) - 2, -1, -1):
        ys[i] = math.gcd(ys[i], ys[i + 1])
    return WeightedTuple._trusted(tuple(ys), t.weights)


# ---------------------------------------------------------------------------
# the auto route, explained

def _step(rule: str, t: WeightedTuple) -> TraceStep:
    return TraceStep(rule, t.values, t.weights)


def wgcd_auto(t: WeightedTuple) -> WgcdResult:
    """`auto` with the paper's reduction traced: absolute values, a stable
    sort by weight, then suffix gcds y_i = gcd(x_i, ..., x_n), a chain
    ending in y_0 = gcd(x), the most `auto` factors.  The trace lists each
    step that changed the tuple, then the fast path taken, if any:
    fastpath-one (y_0 = 1) or fastpath-root (d is the root candidate
    iroot(y_0, q) for the least weight q of a nonzero x_i, so nothing is
    factored).  d and the counters come from `auto` itself, counted in
    this call's own `counting` block or the caller's; building the trace
    counts nothing.
    """
    steps: list[TraceStep] = []
    cur = abs_values(t)
    if cur.values != t.values:
        steps.append(_step("abs", cur))
    perm = None
    if not all(map(operator.le, cur.weights, cur.weights[1:])):
        cur, perm = sort_by_weight(cur)
        steps.append(_step("permute", cur))
    chain = reduce_suffix_gcd(cur)
    if chain.values != cur.values:
        steps.append(_step("suffix-gcd", chain))
    with counting() as c:
        d, ys = _wgcd_route(t.values, t.weights, _visit_order(t.weights, perm))
    if chain.values[0] == 1:
        steps.append(_step("fastpath-one", chain))
    elif ys is not None:
        steps.append(_step("fastpath-root", chain))
    return WgcdResult(d, tuple(steps), c)


# Each strategy by name, as fn(values, weights) on plain tuples that
# `_checked` has passed; `weighted_gcd` is the one public way to run one.
_STRATEGIES = {
    "auto": _auto,
    "oracle": _oracle,
    "full-factor": _full_factor,
    "lcm-power": _lcm_power,
    "fold": _fold,
}
STRATEGIES = tuple(_STRATEGIES)


def weighted_gcd(values, weights, strategy: str = "auto") -> int:
    """The weighted gcd of `values` under `weights` by the named strategy,
    one of `STRATEGIES`.

    The arguments pass the checks a `WeightedTuple` runs, with its errors,
    before the strategy name is looked up; the strategy then runs on the
    checked plain tuples, with no `WeightedTuple` built.
    """
    values, weights = _checked(values, weights)
    try:
        fn = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}, expected one of {sorted(STRATEGIES)}"
        ) from None
    return fn(values, weights)


# ---------------------------------------------------------------------------
# normalization and verification

# Tuples of this many coordinates or more are visited in weight order.
# There each power costs one multiplication of the previous one, which
# pays for the sort on long tuples only.  Per call on shuffled weights
# 1..n, x_i = b**q_i times a 64-bit cofactor, the ordered pass took this
# share of the time of building every b**q_i afresh (best of 15, 2 shared
# vCPUs, Python 3.11.7): 16-bit b 1.52 at n = 3, 0.99 at 16, 0.85 at 32,
# 0.73 at 64; 4-bit b 1.61, 1.15, 1.02, 0.87.  Chaining the powers in
# input order instead took 0.99-1.08 at every n, and on 3 coordinates it
# cost 0.13-0.18 us of the ~6.2 us small-tuples compute p50 in perfbench.
_WEIGHT_ORDER_FROM = 32

# Coordinates of a long tuple whose gcd gives the first root candidate:
# the least-weight nonzero ones, where the candidate is smallest.  Of the
# first 500 perfbench long-tuples inputs (stream seed 1016), the candidate
# was d for 3, 396, 460, 484, 498 and 499 at 1, 2, 3, 4, 6 and 8 of them.
# Per call over 500 such inputs (seeds 4242-4245, best of 15-30 passes, 2
# shared vCPUs, Python 3.11.7), compute took 46-53 us at every value from
# 2 to 8, with no order among 3-8 beyond the noise, against 68-73 us with
# the gcd of all 64 coordinates.  A miss costs compute and normalize the
# full gcd and a second test, and verify also its residue pass, so 8
# keeps misses rare: 0.20% of 3000 inputs (stream seed 7), 3.57% at 4.
# In 4 alternating 30-s perfbench pairs against 4, no long-tuples median
# moved beyond the noise.
_HEAD = 8


def _divide_out(values, weights, b: int, order) -> list[int] | None:
    # x_i // b**q_i for each coordinate, or None when a b**q_i does not
    # divide its x_i, visited in the caller's _visit_order: weight order
    # makes each power the previous one times b**(q_i - q_prev), input
    # order (None) builds b**q_i afresh, and a tied weight reuses it.
    # Builds no power for x_i = 0, nor when b**q_i >= 2**(q_i (bitlen(b)
    # - 1)) > |x_i|, so no power outgrows the one its coordinate needs.
    ordered = order is not None
    lg = b.bit_length() - 1
    out = list(values)
    power, q_prev = 1, 0
    for i in order if ordered else range(len(values)):
        x = values[i]
        if x:
            q = weights[i]
            if q * lg >= x.bit_length():
                return None
            if q != q_prev:
                power = power * b ** (q - q_prev) if ordered else b**q
                q_prev = q
            out[i], rem = divmod(x, power)
            if rem:
                return None
    return out


def normalize(t: WeightedTuple) -> tuple[WeightedTuple, int]:
    """Divide out the weighted gcd: x_i -> x_i / d**q_i, signs preserved.

    Returns the normalized tuple (whose weighted gcd is 1) and d.  The
    `auto` route divides each x_i once: when its root candidate answers,
    the quotients its test computed are the output; on a miss, d is
    worked out and then divided out.
    """
    order = _visit_order(t.weights)
    d, ys = _wgcd_route(t.values, t.weights, order)
    if d == 1:
        return t, 1
    if ys is None:
        ys = _divide_out(t.values, t.weights, d, order)
    return WeightedTuple._trusted(tuple(ys), t.weights), d


def verify_wgcd(t: WeightedTuple, d: int) -> VerifyResult:
    """Check that d is the weighted gcd of t.

    Divisibility: d**q_i | x_i for every i.  Maximality: no larger d
    passes.  Every common weighted divisor e divides the weighted gcd D:
    e**q_i | x_i gives v_p(e) <= min over i of floor(v_p(x_i) / q_i) =
    v_p(D).  So once D is known, d is right exactly when d = D, fails on
    maximality when d | D, and on divisibility otherwise.  A tuple of
    _WEIGHT_ORDER_FROM or more coordinates first divides d**q into its
    least-weight nonzero coordinate alone, the least power to build, and
    fails d on divisibility, with no gcd taken, when that does not go.
    Then it runs the `auto` route's root test on itself, and its verdict
    comes from D when the test answers, with one pass over the tuple
    whatever the claim.  Otherwise,
    and on every shorter tuple, d is divided out; once that holds, wgcd(x)
    = d * wgcd(x_i / d**q_i), so d is the weighted gcd exactly when the
    `auto` route returns 1 on the residues x_i / d**q_i.  Short tuples
    skip the root test because it cost more there: per call on 3000
    perfbench inputs of stream seed 7 (p50 of 15 alternating passes,
    unscaled, 2 shared vCPUs, Python 3.11.7), running it first took
    small-tuples from 3.19 to 3.81 us and prime-powers from 5.09 to 6.96.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("claimed weighted gcd must be >= 1")
    order = _visit_order(t.weights)
    if order is not None:
        i = next(filter(t.values.__getitem__, order))
        if _divide_out((t.values[i],), (t.weights[i],), d, None) is None:
            return _NOT_DIVISIBLE
        answer, ys, _ = _root_test(t.values, t.weights, order)
        if ys is not None or answer == 1:
            if d == answer:
                return _VERIFIED
            return _NOT_DIVISIBLE if answer % d else _NOT_MAXIMAL
    residues = t.values if d == 1 else _divide_out(t.values, t.weights, d, order)
    if residues is None:
        return _NOT_DIVISIBLE
    if _wgcd_route(residues, t.weights, order)[0] > 1:
        return _NOT_MAXIMAL
    return _VERIFIED

"""Weighted-gcd domain model.

A weighted tuple assigns a positive integer weight q_i to each coordinate
x_i; `WeightedTuple` holds both as tuples of ints.  Its weighted gcd is
the largest d with d**q_i dividing x_i for every i.  This module
provides that quantity through several independent, cross-checkable
strategies, plus normalization and verification.  The default route,
`auto`, factors at most g = gcd(x), the same way for every weight
vector: it first tries a root candidate iroot(h, min q), which often
answers with nothing factored; on a miss, trial division and coprime
pieces with exact exponents decide most of d unfactored.  h is g on a
short tuple; on a long one it is the gcd of only its least-weight
nonzero coordinates.  A hit is exact all the same: g | h, so the
candidate is at least iroot(g, min q) >= d; a candidate that passes is
a common weighted divisor, so it is at most d; so it is d.  Only a
failed test completes h to g.
`weighted_gcd` runs that route on its checked arguments, with no
`WeightedTuple` built, and `verify_wgcd` on the residues x_i / d**q_i.  The
paper's wgcd-preserving tuple rewrites only explain the default route:
`wgcd_auto` replays them as a trace.  The route borrows their weight
order on long tuples, which each entry point decides once, to pick the
head and to build each power of the root test from the previous one.
A `with counting() as c:` block counts the gcd and factor calls made
inside it, and how many bits the largest factored number had.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from contextvars import ContextVar
from itertools import compress, islice

from .numtheory import (
    SECOND_TIER_LIMIT,
    TRIAL_DIVISION_LIMIT,
    _exact_pieces,
    _factor_rough,
    _Frozen,
    _perfect_power,
    _Record,
    _second_tier_product,
    _set_field,
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

    def __len__(self) -> int:
        return len(self.values)

    def pairs(self):
        return zip(self.values, self.weights)


class Counters(_Record):
    """Instrumentation for one `counting` block: the calls of `factor`,
    the bit length of the largest number factored, and the calls of
    `math.gcd`, where a gcd of many values counts once.  `__slots__` is
    the field order every report follows."""

    __slots__ = ("factor_calls", "max_factored_bits", "gcd_calls")

    def __init__(
        self, factor_calls: int = 0, max_factored_bits: int = 0, gcd_calls: int = 0
    ):
        self.factor_calls = factor_calls
        self.max_factored_bits = max_factored_bits
        self.gcd_calls = gcd_calls


# one rewrite: its rule, from TRACE_RULES, and the tuple of ints and the
# weights it leaves
TraceStep = namedtuple("TraceStep", ("rule", "values", "weights"))


TRACE_RULES = (
    "abs",
    "permute",
    "suffix-gcd",
    "fastpath-one",
    "fastpath-root",
)


class ReductionTrace(_Frozen):
    """Ordered rewrite steps; replaying them from the input reproduces
    each intermediate tuple."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[TraceStep, ...] = ()):
        _set_field(self, "steps", steps)


class WgcdResult(_Frozen):
    __slots__ = ("d", "strategy", "trace", "counters")

    def __init__(
        self, d: int, strategy: str, trace: ReductionTrace, counters: Counters
    ):
        _set_field(self, "d", d)
        _set_field(self, "strategy", strategy)
        _set_field(self, "trace", trace)
        _set_field(self, "counters", counters)


# ok, a bool, and reason: None when ok, else "divisibility" or "maximality"
VerifyResult = namedtuple("VerifyResult", ("ok", "reason"))


# ---------------------------------------------------------------------------
# counted kernel access

# None: nothing is counted, as outside every `counting` block.
_COUNTERS: ContextVar[Counters | None] = ContextVar("counters", default=None)


class counting:
    """`with counting() as c:` counts the gcd and factor calls made in the
    block, in this thread or task, into the Counters `c`.  A block inside
    another joins the outer one and yields its Counters."""

    def __enter__(self) -> Counters:
        c = _COUNTERS.get()
        if c is None:
            c = Counters()
            self._token = _COUNTERS.set(c)
        else:
            self._token = None
        return c

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _COUNTERS.reset(self._token)


def _gcd(xs) -> int:
    c = _COUNTERS.get()
    if c is not None:
        c.gcd_calls += 1
    return math.gcd(*xs)


def _factor(n: int, rough: bool = False):
    # factor(n) as (prime, exponent) pairs, counted.  rough: every prime of
    # n exceeds 10**4 and n is no perfect power, so trial division and the
    # perfect-power test are skipped
    c = _COUNTERS.get()
    if c is not None:
        c.factor_calls += 1
        bits = n.bit_length()
        if bits > c.max_factored_bits:
            c.max_factored_bits = bits
    return _factor_rough(n, power_free=True).items() if rough else factor(n)


# ---------------------------------------------------------------------------
# strategies

ORACLE_SCAN_LIMIT = 10**6


def wgcd_bruteforce(t: WeightedTuple) -> int:
    """Definition-level oracle: scan d downward from the root bound.

    The bound is min over nonzero coordinates of floor(|x_i| ** (1/q_i));
    zero coordinates impose no constraint.  A bound past ORACLE_SCAN_LIMIT
    candidates raises ValueError naming the limit before any is examined.
    """
    upper = min(iroot(abs(x), q) for x, q in t.pairs() if x)
    if upper - 1 > ORACLE_SCAN_LIMIT:
        raise ValueError(
            f"oracle scan of {upper - 1} candidates exceeds the"
            f" {ORACLE_SCAN_LIMIT} budget"
        )
    constraints = [(abs(x), q) for x, q in t.pairs() if x]
    for d in range(upper, 1, -1):
        if all(x % d**q == 0 for x, q in constraints):
            return d
    return 1


def wgcd_full_factorization(t: WeightedTuple) -> int:
    """Product formula over the factorization of every nonzero coordinate:
    each prime contributes min over coordinates of floor(valuation/weight)."""
    factored = [(_factor(abs(x)), q) for x, q in t.pairs() if x]
    first, first_q = factored[0]
    exps = {p: e // first_q for p, e in first if e >= first_q}
    for f, q in factored[1:]:
        if not exps:
            break
        exps = {
            p: min(e_min, f.exponent(p) // q)
            for p, e_min in exps.items()
            if f.exponent(p) >= q
        }
    d = 1
    for p, e in exps.items():
        d *= p**e
    return d


def wgcd_gcd_factorization(t: WeightedTuple) -> int:
    """Factor at most g = gcd of the values; this is the `auto` strategy.
    Any valid d divides every x_i (the weights are >= 1), hence d | g, so
    g's primes are the only candidates.

    Let q be the least weight of a nonzero x_i; d**q | g bounds d by the
    root candidate r = iroot(g, q).  So g = 1 gives 1, and r is the answer
    when every r**q_i | x_i, with nothing factored.  On a tuple of
    _WEIGHT_ORDER_FROM or more coordinates that test takes them in the
    paper's order, by ascending weight, which this entry point sorts once
    and every step follows: each r**q_i is the previous power times
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
    product of the primes in (10**4, B), B = min(2**ceil(bitlen(c) / 3),
    10**5): a gcd h > 1 splits c into square-free divisors of h and pieces
    whose primes exceed B, and a gcd of 1 gives the size test L = B.
    Below 2**48, B**3 > c, so that test decides c and each piece of the
    split with no factoring.  Only a piece still undecided is factored,
    where a square could matter, by the second half of `factor` alone:
    trial division and the perfect-power test have already run on it.

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
    `normalize` keeps on a hit.
    """
    return _wgcd_route(t.values, t.weights, _visit_order(t.weights))[0]


def _wgcd_route(values, weights, order) -> tuple[int, list[int] | None]:
    # wgcd_gcd_factorization on plain tuples (values not all zero, weights
    # >= 1), which weighted_gcd runs on its checked arguments and
    # verify_wgcd on its residues, each without a WeightedTuple; normalize
    # and wgcd_auto read its quotients.  order: the caller's _visit_order
    # of the weights, which the root test follows.
    # Returns (d, ys): ys are the quotients x_i // d**q_i when a root
    # candidate answered, else None.
    head = values
    if order is not None:
        head = list(islice(filter(None, map(values.__getitem__, order)), _HEAD))
    # g is a multiple of gcd(x), and gcd(x) itself once head is all of x
    g = _gcd(head)
    if g == 1:
        return 1, None
    q_min = min(compress(weights, values))
    while True:
        r = iroot(g, q_min)
        ys = _divide_out(values, weights, r, order)
        if ys is not None:
            return r, ys
        if head is values:
            break
        head, h = values, g
        g = _gcd((h, *values))
        if g == 1:
            return 1, None
        if g == h:
            break
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
            # primes of c all above bound, with bound**3 >= c, leave no
            # room for a square: the gcd needs only the primes below bound
            bound = min(1 << -(-c.bit_length() // 3), SECOND_TIER_LIMIT)
            h = _gcd((c, _second_tier_product(bound)))
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
            for p, k in _factor(c, rough=True):
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


def wgcd_lcm_power(t: WeightedTuple) -> int:
    """With m = lcm of the weights, return the largest d with d**m dividing
    G = gcd over nonzero coordinates of |x_i| ** (m / q_i).

    Computed as the product of p ** floor(e_p / m) over G's factorization,
    which provably equals the per-prime min-floor formula; requiring the
    exact equality d**m = G instead would have no solution for tuples such
    as (8, 4) with weights (2, 3).  Raises ValueError, before building any
    power, when bitlen(x_i) * (m / q_i) exceeds LCM_POWER_BITS.
    """
    m = math.lcm(*t.weights)
    bits = max(abs(x).bit_length() * (m // q) for x, q in t.pairs() if x)
    if bits > LCM_POWER_BITS:
        raise ValueError(
            f"lcm-power would build a {bits}-bit power, over its"
            f" {LCM_POWER_BITS}-bit budget"
        )
    g_pow = _gcd([abs(x) ** (m // q) for x, q in t.pairs() if x])
    if g_pow == 1:
        return 1
    d = 1
    for p, e in _factor(g_pow):
        d *= p ** (e // m)
    return d


def wgcd_single(x: int, q: int) -> int:
    """Weighted gcd of a single coordinate: product of p ** floor(e/q)
    over the factorization of |x|."""
    x, q = operator.index(x), operator.index(q)
    if x == 0:
        raise ValueError("wgcd of a single zero coordinate is undefined")
    if q < 1:
        raise ValueError("weight must be positive")
    a = abs(x)
    if q == 1:
        return a
    d = 1
    for p, e in _factor(a):
        d *= p ** (e // q)
    return d


def fold_merge(d_acc: int, x: int, q: int) -> int:
    """Weighted gcd of the pair (d_acc, x) under weights (1, q).

    Only primes of d_acc survive: each contributes
    min(valuation in d_acc, floor(valuation in x / q)).  x = 0 imposes no
    constraint and returns d_acc unchanged.
    """
    d_acc, x, q = map(operator.index, (d_acc, x, q))
    if d_acc < 1:
        raise ValueError("accumulator must be >= 1")
    if q < 1:
        raise ValueError("weight must be positive")
    if x == 0 or d_acc == 1:
        return d_acc
    a = abs(x)
    if q == 1:
        return _gcd((d_acc, a))
    d = 1
    for p, e in _factor(d_acc):
        d *= p ** min(e, valuation(p, a) // q)
    return d


def wgcd_fold(t: WeightedTuple) -> int:
    """Peel one coordinate at a time: fully factor a single start
    coordinate, then merge the rest pairwise under weights (1, q_i).

    The start coordinate is the nonzero one minimizing bit-length / weight,
    the cheapest full factorization on offer.
    """
    nonzero = [(i, abs(x)) for i, x in enumerate(t.values) if x]
    start, x0 = min(nonzero, key=lambda iv: iv[1].bit_length() / t.weights[iv[0]])
    d = wgcd_single(x0, t.weights[start])
    for i, (x, q) in enumerate(t.pairs()):
        if i == start:
            continue
        if d == 1:
            break
        d = fold_merge(d, x, q)
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
    return WgcdResult(d, "auto", ReductionTrace(tuple(steps)), c)


STRATEGIES = {
    "auto": wgcd_gcd_factorization,
    "oracle": wgcd_bruteforce,
    "full-factor": wgcd_full_factorization,
    "lcm-power": wgcd_lcm_power,
    "fold": wgcd_fold,
}


def weighted_gcd(values, weights, strategy: str = "auto") -> int:
    """The weighted gcd of `values` under `weights` by the named strategy.

    The arguments pass the checks a `WeightedTuple` runs, with its errors,
    before the strategy name is looked up.  `auto` then runs its route on
    the checked plain tuples, with no `WeightedTuple` built; the
    cross-check strategies get one that skips the checks already made.
    """
    values, weights = _checked(values, weights)
    if strategy == "auto":
        return _wgcd_route(values, weights, _visit_order(weights))[0]
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}, expected one of {sorted(STRATEGIES)}"
        ) from None
    return fn(WeightedTuple._trusted(values, weights))


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
# was d for 3, 396, 460, 484 and 498 at 1, 2, 3, 4 and 6 of them.  Per
# call over 500 such inputs (seeds 4242-4245, best of 15-30 passes, 2
# shared vCPUs, Python 3.11.7), compute took 46-53 us at every value from
# 2 to 8, with no order among 3-8 beyond the noise, against 68-73 us with
# the gcd of all 64 coordinates; 4 keeps the head's gcd short and hits 97%.
_HEAD = 4


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

    Divisibility: d**q_i | x_i for every i.  Maximality: once that holds,
    wgcd(x) = d * wgcd(x_i / d**q_i), so d is the weighted gcd exactly when
    the `auto` route returns 1 on the residues x_i / d**q_i.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("claimed weighted gcd must be >= 1")
    order = _visit_order(t.weights)
    residues = t.values if d == 1 else _divide_out(t.values, t.weights, d, order)
    if residues is None:
        return VerifyResult(False, "divisibility")
    if _wgcd_route(residues, t.weights, order)[0] > 1:
        return VerifyResult(False, "maximality")
    return VerifyResult(True, None)

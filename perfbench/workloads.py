"""Seeded input streams for the three benchmark workloads.

Every input is a raw (values, weights) pair of Python ints plus the answer
the program must give.  Each workload is an endless stream drawn from one
`random.Random` seeded by the workload name and the run seed, so a seed
fixes the whole input sequence whatever prefix of it a run consumes.

The generators use their own primality test, so the program under test
only builds known-answer tuples (`wgcd.bench.known_answer_tuple`) and,
untimed, keys the random tuples with its independent `full-factor`
strategy.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, NamedTuple, Optional

KINDS = ("compute", "normalize", "verify", "cli")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (all sizes drawn here)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    """Trial division; only called on answers of at most 26 bits."""
    if n % 2 == 0:
        return 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            return p
    return n


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        c = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
        if is_prime(c):
            return c


def _exact_bits(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) if bits > 1 else 1


def _coprime(rng: random.Random, bits: int, d: int) -> int:
    while True:
        c = _exact_bits(rng, bits)
        if math.gcd(c, d) == 1:
            return c


class Case(NamedTuple):
    """One timed input and what the program must answer for it."""

    values: tuple[int, ...]
    weights: tuple[int, ...]
    d: int
    claim: int  # the claim handed to verify_wgcd
    verdict: tuple[bool, Optional[str]]  # what verify_wgcd must return


class Program(NamedTuple):
    """The parts of the program under test that input generation uses."""

    known_answer_tuple: Callable
    full_factor: Callable  # (values, weights) -> d, run untimed


def _known(program: Program, d: int, weights, cofactors, rng) -> tuple[int, ...]:
    t = program.known_answer_tuple(d, weights, cofactors)
    return tuple(x if rng.getrandbits(1) else -x for x in t.values)


# A draw returns (values, weights, d, period): among the inputs drawn with
# the same period, every period-th takes a sub-maximal verify claim (see
# stream()).


def _small(rng: random.Random, program: Program) -> tuple[tuple, tuple, int, int]:
    """Three signed ~20-bit coordinates, weights 1,2,3 shuffled, some zeros:
    per-call overhead dominates, so core changes show here."""
    weights = [1, 2, 3]
    rng.shuffle(weights)
    if rng.randrange(3):  # two in three known-answer, so no median sits between modes
        d = _exact_bits(rng, rng.randint(2, 8))
        cofactors = [
            _coprime(rng, max(4, 20 - q * d.bit_length()), d) for q in weights
        ]
        pin = rng.randrange(3)
        cofactors[pin] = 1
        values = list(_known(program, d, weights, cofactors, rng))
        if rng.random() < 0.25:  # a zero keeps d as long as the pin survives
            values[rng.choice([i for i in range(3) if i != pin])] = 0
        return tuple(values), tuple(weights), d, 3
    values = [
        (1 - 2 * rng.getrandbits(1)) * _exact_bits(rng, rng.randint(18, 22))
        for _ in range(3)
    ]
    if rng.random() < 0.25:
        values[rng.randrange(3)] = 0
    values, weights = tuple(values), tuple(weights)
    return values, weights, program.full_factor(values, weights), 3


_DEFICIENT_WEIGHTS = ((2, 2, 3), (2, 3, 5))


def _prime_power(rng: random.Random, program: Program) -> tuple[tuple, tuple, int, int]:
    """Three coordinates whose gcd is p**k for a 20-26-bit prime p: Pollard
    rho on prime powers dominates, so factoring changes show here.

    One in four is adversarial-deficient; the rest are known-answer tuples,
    whose true claims a unit cofactor proves maximal in about 25 us,
    against 0.3-17 ms for every other verify here.  Known-answer tuples
    take one sub-maximal claim in five and deficient ones one in three.
    Then that fast cluster holds 60% of verify ops, so the median sits
    inside it rather than on the edge of the gap above it, and about 23%
    land in the slow tail, which keeps the p99 off the tail's sparse end.
    """
    if rng.randrange(4) == 0:
        # adversarial-deficient: noise primes enter every coordinate with its
        # full weight except one, so they inflate gcd(x) but not the answer p
        p = random_prime(rng, rng.randint(20, 26))
        weights = list(rng.choice(_DEFICIENT_WEIGHTS))
        rng.shuffle(weights)
        noise = [1, 1, 1]
        used = {p}
        while min(n.bit_length() for n in noise) < 24:
            r = random_prime(rng, rng.randint(16, 24))
            if r in used:  # a repeat could lift its exponent to the weight
                continue
            used.add(r)
            k = rng.randrange(3)
            for i, q in enumerate(weights):
                noise[i] *= r ** (rng.randint(1, q - 1) if i == k else q)
        values = tuple(
            (1 - 2 * rng.getrandbits(1)) * p**q * n for q, n in zip(weights, noise)
        )
        return values, tuple(weights), p, 3
    # known answer d = p with weights 6-24: gcd(x) = p**6, split by rho five times
    p = random_prime(rng, rng.randint(20, 22))
    weights = [6, rng.randint(7, 24), rng.randint(7, 24)]
    rng.shuffle(weights)
    cofactors = [_coprime(rng, 24, p) for _ in range(3)]
    cofactors[rng.randrange(3)] = 1
    return _known(program, p, weights, cofactors, rng), tuple(weights), p, 5


def _long(rng: random.Random, program: Program) -> tuple[tuple, tuple, int, int]:
    """64 coordinates, weights 1-64 unsorted, a 16-bit d behind 64-bit
    cofactors: valuations, the sort and the suffix-gcd chain dominate."""
    weights = list(range(1, 65))
    rng.shuffle(weights)
    d = _exact_bits(rng, 16)
    cofactors = [_coprime(rng, 64, d) for _ in range(64)]
    cofactors[rng.randrange(64)] = 1
    return _known(program, d, weights, cofactors, rng), tuple(weights), d, 3


_SEEN_BITS = 1 << 24
_DRAW = {"small-tuples": _small, "prime-powers": _prime_power, "long-tuples": _long}
WORKLOADS = tuple(_DRAW)


def stream(workload: str, seed: int, program: Program) -> Iterator[Case]:
    """Endless stream of distinct inputs of one workload.

    Verify claims are the true answer, which must pass, except that every
    period-th input of a period (see the draws) takes d/p for a prime
    p | d, which must fail on maximality.  The two verdicts can cost very
    different amounts, and an even split would put the median between
    them.
    """
    draw = _DRAW[workload]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    # A bit per hash value: no input comes twice, so a cache in the program
    # earns nothing; the few fresh inputs whose bit is taken are skipped too.
    # Its size is fixed, so memory does not grow with the number of ops.
    seen = bytearray(_SEEN_BITS // 8)
    seen_of_period: dict[int, int] = {}
    while True:
        values, weights, d, period = draw(rng, program)
        h = hash((values, weights)) % _SEEN_BITS
        if seen[h >> 3] >> (h & 7) & 1:
            continue
        seen[h >> 3] |= 1 << (h & 7)
        n = seen_of_period[period] = seen_of_period.get(period, 0) + 1
        if n % period == 0 and d > 1:
            claim, verdict = d // smallest_prime_factor(d), (False, "maximality")
        else:
            claim, verdict = d, (True, None)
        yield Case(values, weights, d, claim, verdict)

"""Independent oracles, inputs and helpers shared by the test suite.

Everything here is written from the definitions, without touching the
package internals, so agreement is a real cross-check.
"""

from __future__ import annotations

import faulthandler
import signal
import sys
from contextlib import contextmanager

import sympy

# p, r1, r2 are the next primes after 2**30, 2**40 and 2**41.  The gcd
# p**2 * r1 * r2 of SPLIT_VALUES is 143 bits and not a square, so the root
# candidate iroot(gcd, 2) misses; the coordinates put p, r1 and r2 in
# separate coprime pieces, each prime.  Under SPLIT_WEIGHTS the weighted
# gcd is p.
SPLIT_PRIMES = p, r1, r2 = tuple(sympy.nextprime(2**k) for k in (30, 40, 41))
SPLIT_VALUES = (0, p**2 * r1 * r2, -(p**3) * r1**2 * r2, p**3 * r1 * r2**3)
SPLIT_WEIGHTS = (10**7, 2, 3, 3)
del p, r1, r2


# Where time_limit's backstop writes its traceback: stderr, or the copy of
# it that conftest.py takes before pytest captures file descriptor 2.
backstop_file = sys.__stderr__


@contextmanager
def time_limit(seconds: float, grace: float = 30):
    """Raise TimeoutError in the enclosed block once `seconds` of wall time
    pass, so a hang fails its test instead of stalling the suite.  Uses
    SIGALRM, so it only works in the main thread.

    A Python signal handler runs only between bytecodes, so one long C
    call that does not check for signals, such as `math.gcd` of two
    numbers of millions of bits, holds off the TimeoutError until it
    returns.  As a backstop, faulthandler prints every thread's traceback to
    `backstop_file` and ends the process with exit code 1 once `grace`
    more seconds pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after the {seconds} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(seconds + grace, exit=True, file=backstop_file)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def counts(c) -> tuple[int, int, int]:
    """The (factor_calls, max_factored_bits, gcd_calls) of a Counters."""
    return (c.factor_calls, c.max_factored_bits, c.gcd_calls)


def brute_force_gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    for d in range(min(a, b), 0, -1):
        if a % d == 0 and b % d == 0:
            return d
    return 1


def naive_root(x: int, n: int) -> int:
    r = 0
    while (r + 1) ** n <= x:
        r += 1
    return r


def naive_wgcd(values, weights) -> int:
    """Definition-level scan: the largest d whose q_i-th power divides
    every nonzero coordinate."""
    constraints = [(abs(x), q) for x, q in zip(values, weights) if x]
    assert constraints, "all-zero tuple"
    d = min(naive_root(x, q) for x, q in constraints)
    while d > 1:
        if all(x % d**q == 0 for x, q in constraints):
            break
        d -= 1
    return d


def sieve_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return flags


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] is the smallest prime dividing n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    p = 2
    while p * p <= limit:
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
        p += 1
    return spf


_SCAN_LIMIT = 10_000
_SCAN_PRIMES = [p for p, flag in enumerate(sieve_flags(_SCAN_LIMIT - 1)) if flag]


def trial_division_scan(n: int) -> tuple[dict[int, int], int]:
    """Reference trial division, one `m % p` per prime below 10**4, as
    `factor` once ran it: the exponents of the primes it divides out and
    the cofactor left, which has no prime factor below its stopping prime
    and is 1 or prime when it stopped at p*p > m."""
    counts: dict[int, int] = {}
    m = n
    for p in _SCAN_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    return counts, m


def second_tier_bound(c: int) -> int:
    """The bound B of the second tier's gcd for a piece c above 10**12:
    r = floor(c ** (1/3)) + 1 rounded up to its three leading bits,
    that is to a multiple of 2**(bitlen(r) - 3), and capped at 10**5."""
    r = sympy.integer_nthroot(c, 3)[0] + 1
    step = 2 ** (r.bit_length() - 3)
    return min(-(-r // step) * step, 10**5)

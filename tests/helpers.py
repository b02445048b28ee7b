"""Independent oracles shared by the test suite.

Everything here is written from the definitions, without touching the
package internals, so agreement is a real cross-check.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the enclosed block once `seconds` of wall time
    pass, so a hang fails its test instead of stalling the suite.  Uses
    SIGALRM, so it only works in the main thread."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after the {seconds} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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

"""Weighted greatest common divisors of integer tuples.

The weighted gcd of (x_0, ..., x_n) under positive weights (q_0, ..., q_n)
is the largest integer d with d**q_i dividing x_i for every coordinate.
This package computes it through five strategies, each run by name as
`weighted_gcd(values, weights, strategy)`, exposes the paper's three
wgcd-preserving tuple reductions (absolute values, a sort by weight,
suffix gcds) that `wgcd_auto` traces to explain the default route,
counts the gcd and factor calls of any strategy inside a `counting()`
block, and ships known-answer generators plus an instrumented
benchmark harness.  The package root exports the library, from `core`
and `numtheory`, and `import wgcd` loads only those two; the harness
and the selftest are imported by module path, as `wgcd.bench` and
`wgcd.selftest`.
"""

from .core import (
    STRATEGIES,
    Counters,
    TraceStep,
    VerifyResult,
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
from .numtheory import (
    FactorBudgetExceeded,
    factor,
    iroot,
    is_prime,
    valuation,
)

__version__ = "0.1.0"

__all__ = [
    "Counters",
    "FactorBudgetExceeded",
    "STRATEGIES",
    "TraceStep",
    "VerifyResult",
    "WeightedTuple",
    "WgcdResult",
    "abs_values",
    "counting",
    "factor",
    "gcd_many",
    "iroot",
    "is_prime",
    "normalize",
    "reduce_suffix_gcd",
    "sort_by_weight",
    "valuation",
    "verify_wgcd",
    "weighted_gcd",
    "wgcd_auto",
]

"""Weighted greatest common divisors of integer tuples.

The weighted gcd of (x_0, ..., x_n) under positive weights (q_0, ..., q_n)
is the largest integer d with d**q_i dividing x_i for every coordinate.
This package computes it through several cross-checkable strategies,
exposes the paper's three wgcd-preserving tuple reductions (absolute
values, a sort by weight, suffix gcds) that `wgcd_auto` traces to
explain the default route, counts the gcd and factor calls of
any strategy inside a `counting()` block, and ships known-answer
generators plus an instrumented benchmark harness.  `import wgcd` loads
`core` and `numtheory` only; the harness and selftest names load on
first use.
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
    fold_merge,
    gcd_many,
    normalize,
    reduce_suffix_gcd,
    sort_by_weight,
    verify_wgcd,
    weighted_gcd,
    wgcd_auto,
    wgcd_bruteforce,
    wgcd_fold,
    wgcd_full_factorization,
    wgcd_gcd_factorization,
    wgcd_lcm_power,
    wgcd_single,
)
from .numtheory import (
    FactorBudgetExceeded,
    factor,
    iroot,
    is_prime,
    valuation,
)
# Names served on first use (PEP 562), so `import wgcd` loads only `core`
# and `numtheory`: the bench harness pulls in `statistics`, `json` and
# `csv`, though neither `dataclasses` nor `typing`, and a weighted gcd
# needs neither it nor the selftest corpus.
_LAZY = {
    "BenchRecord": "bench",
    "GenSpec": "bench",
    "StrategyDisagreement": "bench",
    "StrategyRun": "bench",
    "bench_report": "bench",
    "bench_run": "bench",
    "gen_adversarial": "bench",
    "gen_known": "bench",
    "gen_random": "bench",
    "known_answer_tuple": "bench",
    "CORPUS": "selftest",
    "run_selftest": "selftest",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CORPUS",
    "Counters",
    "FactorBudgetExceeded",
    "GenSpec",
    "STRATEGIES",
    "StrategyDisagreement",
    "StrategyRun",
    "TraceStep",
    "VerifyResult",
    "WeightedTuple",
    "WgcdResult",
    "abs_values",
    "bench_report",
    "bench_run",
    "counting",
    "factor",
    "fold_merge",
    "gcd_many",
    "gen_adversarial",
    "gen_known",
    "gen_random",
    "iroot",
    "is_prime",
    "known_answer_tuple",
    "normalize",
    "reduce_suffix_gcd",
    "run_selftest",
    "sort_by_weight",
    "valuation",
    "verify_wgcd",
    "weighted_gcd",
    "wgcd_auto",
    "wgcd_bruteforce",
    "wgcd_fold",
    "wgcd_full_factorization",
    "wgcd_gcd_factorization",
    "wgcd_lcm_power",
    "wgcd_single",
]

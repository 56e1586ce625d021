"""Static analysis for the execution substrate.

The codec's cross-backend story rests on static contracts that are easy
to break silently while refactoring: kernels handed to the process
backend must be picklable module-level functions, worker kernels must
be pure, pools must be closed on every exit path, the byte-producing
modules must be deterministic, and observability must stay zero-cost
when disabled.  :mod:`repro.analysis.lint` machine-checks these at lint
time with a small AST rule engine (``repro lint``).

This is a development/CI tool: nothing in this package is imported by
the codec hot paths.
"""

from .lint import (  # noqa: F401
    DEFAULT_RULES,
    Finding,
    LintResult,
    Rule,
    load_baseline,
    run_lint,
)

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "LintResult",
    "Rule",
    "load_baseline",
    "run_lint",
]

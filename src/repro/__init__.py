"""repro: computing correctly with inductive relations, in Python.

A from-scratch reproduction of "Computing Correctly with Inductive
Relations" (Paraskevopoulou, Eline, Lampropoulos — PLDI 2022): derive
checkers, enumerators, and random generators from inductive relation
declarations, and validate each derived computation (soundness,
completeness, monotonicity) against a reference proof-search semantics.

Quickstart::

    from repro import (standard_context, parse_declarations,
                       derive_checker, from_int)

    ctx = standard_context()
    parse_declarations(ctx, '''
        Inductive le : nat -> nat -> Prop :=
        | le_n : forall n, le n n
        | le_S : forall n m, le n m -> le n (S m).
    ''')
    le = derive_checker(ctx, 'le')
    le(10, from_int(2), from_int(5))   # Some true
"""

import sys as _sys

# Derived computations and the reference proof search recurse
# structurally over terms (Peano naturals, long lists); proving
# `Sorted (repeat 1 2000)` needs tens of thousands of Python frames.
if _sys.getrecursionlimit() < 300_000:
    _sys.setrecursionlimit(300_000)

from .analysis import (
    AnalysisError,
    Report,
    analyze,
    analyze_context,
    disable_analysis,
    enable_analysis,
)
from .core import (
    Context,
    ParseError,
    Relation,
    Value,
    from_bool,
    from_int,
    from_list,
    nat_list,
    parse_declarations,
    to_bool,
    to_int,
    to_list,
)
from .derive import (
    DeriveStats,
    DeriveTrace,
    Mode,
    clear_memo,
    derive,
    derive_checker,
    derive_enumerator,
    derive_generator,
    derive_stats,
    disable_memoization,
    enable_memoization,
    memoization_enabled,
    profile,
    trace_of,
)
from .core.session import Session, use_session
from .observe import Observation, RuleCoverage, coverage_diff, observe
from .quickchick import CheckReport, classify, collect, for_all, quick_check
from .resilience import (
    Budget,
    Exhausted,
    FaultPlan,
    budget_scope,
    parallel_quick_check,
    plan_shards,
)
from .serve import CheckQuery, Engine, EnumQuery, GenQuery
from .semantics import derivable, search_derivation
from .stdlib import standard_context
from .validation import (
    ValidationConfig,
    certify_checker,
    certify_enumerator,
    certify_generator,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "Budget",
    "CheckQuery",
    "CheckReport",
    "Context",
    "Engine",
    "EnumQuery",
    "GenQuery",
    "Session",
    "DeriveStats",
    "DeriveTrace",
    "Exhausted",
    "FaultPlan",
    "Mode",
    "Observation",
    "ParseError",
    "Relation",
    "Report",
    "RuleCoverage",
    "ValidationConfig",
    "Value",
    "__version__",
    "analyze",
    "analyze_context",
    "budget_scope",
    "certify_checker",
    "certify_enumerator",
    "certify_generator",
    "classify",
    "clear_memo",
    "collect",
    "coverage_diff",
    "derivable",
    "derive",
    "derive_checker",
    "derive_enumerator",
    "derive_generator",
    "derive_stats",
    "disable_analysis",
    "disable_memoization",
    "enable_analysis",
    "enable_memoization",
    "for_all",
    "memoization_enabled",
    "observe",
    "parallel_quick_check",
    "plan_shards",
    "use_session",
    "from_bool",
    "from_int",
    "from_list",
    "nat_list",
    "parse_declarations",
    "profile",
    "quick_check",
    "search_derivation",
    "trace_of",
    "standard_context",
    "to_bool",
    "to_int",
    "to_list",
]

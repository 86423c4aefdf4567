"""Ablations over the design choices DESIGN.md calls out.

1. **Backend**: interpreted schedule vs compiled Python — quantifies
   how much of Figure 3's gap is interpretive overhead (the paper's
   artifact always emits code, so ``compiled`` is its analogue).
2. **Scheduler policy** (Section 4's stated preference): constrained
   producers for unknown premises (``prefer_producer=True``) vs the
   naive instantiate-arbitrarily-then-check strategy the paper's
   Section 3.1 dismisses as "too inefficient".
3. **Enumeration order**: ``enumerating`` (concatenation, the paper's
   combinator) vs fair ``interleaving`` (future-work flavor) for the
   products of an enumeration.
"""

from __future__ import annotations

import random

import pytest

try:
    from .benchjson import record
except ImportError:  # standalone: python benchmarks/bench_*.py
    from benchjson import record

from repro.core import parse_declarations
from repro.core.values import V, from_int, from_list
from repro.derive import DerivePolicy, Mode, build_schedule
from repro.derive.instances import CHECKER, resolve, resolve_compiled
from repro.derive.exec_core import make_checker
from repro.stdlib import standard_context

STLC = """
Inductive type : Type := | N : type | Arr : type -> type -> type.
Inductive term : Type :=
| Con : nat -> term | Add : term -> term -> term | Vart : nat -> term
| App : term -> term -> term | Abs : type -> term -> term.
Inductive lookup : list type -> nat -> type -> Prop :=
| lookup_here : forall t G, lookup (t :: G) 0 t
| lookup_there : forall t t2 G n, lookup G n t -> lookup (t2 :: G) (S n) t.
Inductive typing : list type -> term -> type -> Prop :=
| TCon : forall G n, typing G (Con n) N
| TAdd : forall G e1 e2, typing G e1 N -> typing G e2 N -> typing G (Add e1 e2) N
| TAbs : forall G e t1 t2, typing (t1 :: G) e t2 -> typing G (Abs t1 e) (Arr t1 t2)
| TVar : forall G x t, lookup G x t -> typing G (Vart x) t
| TApp : forall G e1 e2 t1 t2,
    typing G e2 t1 -> typing G e1 (Arr t1 t2) -> typing G (App e1 e2) t2.
"""


def _stlc_ctx():
    ctx = standard_context()
    parse_declarations(ctx, STLC)
    return ctx


def _workload():
    """A fixed batch of typing queries (well- and ill-typed)."""
    N = V("N")

    def arr(a, b):
        return V("Arr", a, b)

    con = lambda n: V("Con", from_int(n))
    var = lambda n: V("Vart", from_int(n))
    app = lambda f, x: V("App", f, x)
    abs_ = lambda t, e: V("Abs", t, e)
    add = lambda a, b: V("Add", a, b)
    empty = from_list([])
    cases = [
        (empty, con(3), N, True),
        (empty, add(con(1), con(2)), N, True),
        (empty, abs_(N, var(0)), arr(N, N), True),
        (empty, app(abs_(N, add(var(0), con(1))), con(2)), N, True),
        (empty, app(abs_(arr(N, N), var(0)), abs_(N, var(0))), arr(N, N), True),
        (empty, app(con(1), con(2)), N, False),
        (empty, abs_(N, var(1)), arr(N, N), False),
        (empty, add(abs_(N, var(0)), con(1)), N, False),
    ]
    return cases


def _drive(checker, cases, fuel=12):
    for env, e, t, expected in cases:
        result = checker(fuel, (env, e, t))
        assert result.is_true == expected, (e, t, result)


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_backend_ablation(benchmark, backend):
    ctx = _stlc_ctx()
    if backend == "interp":
        checker = resolve(ctx, CHECKER, "typing", Mode.checker(3)).fn
    else:
        checker = resolve_compiled(ctx, CHECKER, "typing", Mode.checker(3))
    cases = _workload()
    _drive(checker, cases)  # warm the instance closure once
    benchmark.extra_info["backend"] = backend
    benchmark(_drive, checker, cases)
    if benchmark.stats is None:
        return  # --benchmark-disable smoke mode
    mean = benchmark.stats.stats.mean
    record("ablation", f"backend.{backend}.ms_per_batch", mean * 1000)
    print(f"\n[ablation] backend={backend:9s} {mean*1000:.2f} ms / batch")


@pytest.mark.parametrize("policy_name", ["prefer_producer", "generate_and_test"])
def test_scheduler_policy_ablation(benchmark, policy_name):
    ctx = _stlc_ctx()
    policy = DerivePolicy(prefer_producer=(policy_name == "prefer_producer"))
    schedule = build_schedule(ctx, "typing", Mode.checker(3), policy)
    checker = make_checker(ctx, schedule)
    cases = _workload()
    benchmark.extra_info["policy"] = policy_name

    def run():
        # generate-and-test enumerates *arbitrary* types for the
        # existentials, and the depth-d type count grows doubly
        # exponentially (1, 2, 5, 26, 677, …): fuel 3 keeps the naive
        # policy finite while the constrained policy is comfortable.
        # It may still answer None on the hardest cases: we only
        # demand it never *contradicts* the reference policy.
        for env, e, t, expected in cases:
            result = checker(3, (env, e, t))
            if not result.is_none:
                assert result.is_true == expected

    benchmark(run)
    if benchmark.stats is None:
        return  # --benchmark-disable smoke mode
    mean = benchmark.stats.stats.mean
    record("ablation", f"policy.{policy_name}.ms_per_batch", mean * 1000)
    print(f"\n[ablation] policy={policy_name:18s} {mean*1000:.2f} ms / batch")


def test_policy_precision(benchmark):
    """The paper's point, made concrete: at equal fuel the constrained-
    producer schedule decides strictly more queries than naive
    generate-and-test."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ctx = _stlc_ctx()
    smart = make_checker(ctx, build_schedule(ctx, "typing", Mode.checker(3)))
    ctx2 = _stlc_ctx()
    naive = make_checker(
        ctx2,
        build_schedule(
            ctx2, "typing", Mode.checker(3), DerivePolicy(prefer_producer=False)
        ),
    )
    cases = _workload()
    fuel = 3  # the naive policy is doubly exponential in fuel
    smart_decided = sum(
        not smart(fuel, (env, e, t)).is_none for env, e, t, _ in cases
    )
    naive_decided = sum(
        not naive(fuel, (env, e, t)).is_none for env, e, t, _ in cases
    )
    print(f"\n[ablation] decided at fuel {fuel}: "
          f"constrained={smart_decided}/{len(cases)}, "
          f"generate-and-test={naive_decided}/{len(cases)}")
    assert smart_decided >= naive_decided


@pytest.mark.parametrize("combinator", ["enumerating", "interleaving"])
def test_enumeration_order_ablation(benchmark, combinator):
    """Time-to-first-solution for type inference under the two
    enumeration orders."""
    from repro.producers.enumerators import Enumerator, enumerating, interleaving

    combine = enumerating if combinator == "enumerating" else interleaving
    # A skewed search: the witness lives in the last option.
    options = [
        lambda: Enumerator.from_sized(lambda s: range(2000)),
        lambda: Enumerator.from_sized(lambda s: range(2000, 4000)),
        lambda: Enumerator.ret("needle"),
    ]

    def first_needle():
        for x in combine(options).run(0):
            if x == "needle":
                return True
        return False

    benchmark.extra_info["combinator"] = combinator
    assert benchmark(first_needle)
    if benchmark.stats is None:
        return  # --benchmark-disable smoke mode
    mean = benchmark.stats.stats.mean
    record("ablation", f"combinator.{combinator}.us_to_witness", mean * 1e6)
    print(f"\n[ablation] combinator={combinator:13s} {mean*1e6:.1f} µs to witness")

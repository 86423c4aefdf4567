"""The shared plan executor: one op semantics, three monads.

The paper's central claim is one derivation algorithm with three
instantiations; this module is where the repo makes that literal.  All
three interpreters execute the same lowered :class:`~repro.derive.plan.
Plan` ops through the drivers here — only the monad-specific
combinators differ:

* :func:`run_checker` — the ``option bool`` fixpoint: handlers combine
  with backtracking, producer ops run ``bindEC`` (first accepted
  witness wins; an incomplete enumeration taints a failure into
  ``None``);
* :func:`run_enum` — the ``E (option A)`` fixpoint: handlers
  concatenate, producer ops nest enumeration loops, fuel markers
  collapse to one trailing marker per level;
* :func:`run_gen` — the ``G (option A)`` fixpoint: weighted random
  backtracking over handlers (one ``rng.random()`` per draw); a
  producer op draws a single sample, except at a *linear* premise
  (:func:`~repro.derive.plan.linear_premise`), which it enumerates at
  the same fuel and chooses from uniformly (:func:`choose`) — the
  same support at that size, with no blind backtracking.

Environments are flat slot lists (inputs first, then locals — see
:mod:`repro.derive.plan`); slots are single-assignment along any
execution path, so backtracking over enumeration items reuses one
environment in place, with no copying.

Deterministic ops (``eval``/``testctor``/``testconst``/``testeq``) have
identical semantics in every backend; the drivers differ only in how
they sequence the effectful ops (``check``/``reccheck``/``produce``/
``instantiate``) — which is exactly the free-monad structure the
schedule always had, now with the interpretation chosen once per call
instead of once per step.

External instances resolve through the precomputed registry key on the
op (one dict lookup in the common case); a miss falls back to the full
:func:`~repro.derive.instances.resolve` path, which derives, registers
and memo-wraps.  The trace, observation, and budget hooks are fetched
once per ``rec`` level and guarded with ``is not None`` — profiling,
observation, and budgets off cost three dict reads per level.  Handler
attempts and backtracks are counted by the trace
(:class:`~repro.derive.trace.DeriveTrace`), on both backends.

The registry constructors at the end of this module
(:func:`make_checker`, :func:`make_enumerator`, :func:`make_generator`)
build the ``backend="interp"`` instances: what the ``derive_*`` objects
of :mod:`repro.derive.api` run today, and the test oracle the compiled
backend is compared against (``tests/derive/test_backend_diff.py``).

Resource governance (``repro.resilience``) hooks via
``caches.get(BUDGET_KEY)``: one ``charge_entry`` per fixpoint level,
one ``charge(handler.cost)`` per handler attempt, one ``charge(1)``
per producer-loop item — the same sites, in the same order, as the
compiled twins, so a deterministic fault schedule interrupts both
backends identically.  A trip converts the current search to its
indefinite outcome (checker ``None``, enumerator trailing
``OUT_OF_FUEL`` marker, generator ``OUT_OF_FUEL``) and, because trips
latch, unwinds cooperatively without raising.

Observation (``repro.observe``) hooks at the *fixpoint level*: every
``run_checker`` / ``run_enum`` / ``run_gen`` invocation is one span,
opened on entry (for the enumerator: at the first ``next``) and closed
with its outcome on exit.  The compiled backend mirrors the same sites
construct-by-construct (:mod:`repro.derive.codegen`), so interpreted
and compiled runs produce identical span trees.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from ..core.context import Context
from ..core.errors import ArityError
from ..core.values import Value
from ..producers.combinators import _enum_values, datatype_sampler, slice_exhaustive
from ..producers.option_bool import (
    NONE_OB,
    SOME_FALSE,
    SOME_TRUE,
    OptionBool,
    negate,
)
from ..producers.outcome import FAIL, OUT_OF_FUEL
from .plan import (
    OP_CHECK,
    OP_EVAL,
    OP_EVALREL,
    OP_INSTANTIATE,
    OP_PRODUCE,
    OP_RECCHECK,
    OP_TESTCONST,
    OP_TESTCTOR,
    OP_TESTEQ,
    Plan,
    PlanHandler,
    linear_premise,
    lower_schedule,
)
from .runtime import eval_expr, eval_exprs
from .schedule import Schedule
from .stats import STATS_KEY
from .trace import BUDGET_KEY, OBSERVE_KEY, TRACE_KEY

#: Tries a generator level gives each handler before discarding it
#: (the interpreter's :func:`run_gen` and the compiled ``_emit_gen_top``).
TRIES_PER_HANDLER = 2


def _checker_instance(ctx: Context, op: tuple):
    """The external checker instance for an ``OP_CHECK``."""
    instance = ctx.instances.get(op[1])
    if instance is None:
        from .instances import resolve_checker

        instance = resolve_checker(ctx, op[4])
    return instance


def _enum_instance(ctx: Context, op: tuple):
    """The external enumerator instance for an ``OP_PRODUCE``."""
    instance = ctx.instances.get(op[1])
    if instance is None:
        from .instances import ENUM, resolve

        instance = resolve(ctx, ENUM, op[6], op[7])
    return instance


def _gen_instance(ctx: Context, op: tuple):
    """The external generator instance for an ``OP_PRODUCE``."""
    instance = ctx.instances.get(op[2])
    if instance is None:
        from .instances import GEN, resolve

        instance = resolve(ctx, GEN, op[6], op[7])
    return instance


# ---------------------------------------------------------------------------
# Checker driver (option bool).
# ---------------------------------------------------------------------------


def run_checker(
    ctx: Context,
    plans: dict,
    plan: Plan,
    size: int,
    top: int,
    args: tuple[Value, ...],
) -> OptionBool:
    """One level of the derived checker fixpoint.

    *plans* maps relation names to the plans sharing this fixpoint
    (mutual-recursion groups; always contains *plan* itself).  At size
    0 only base handlers run, and skipped recursive handlers surface as
    a ``None`` option — the paper's Figure 1 structure.
    """
    caches = ctx.caches
    trace = caches.get(TRACE_KEY)
    obs = caches.get(OBSERVE_KEY)
    bud = caches.get(BUDGET_KEY)
    if obs is not None:
        span = obs.spans.begin("checker", plan.rel, plan.mode_str, size, top)
    if bud is not None and bud.charge_entry(top - size):
        bud.record_site("checker", plan.rel, plan.mode_str)
        if obs is not None:
            obs.end_checker(span, NONE_OB)
        return NONE_OB
    if size == 0:
        candidates = plan.base_candidates(args)
        saw_none = plan.has_recursive
        rec_size = None
    else:
        candidates = plan.candidates(args)
        saw_none = False
        rec_size = size - 1
    for h in candidates:
        if bud is not None and bud.charge(h.cost):
            bud.record_site("checker", plan.rel, plan.mode_str)
            saw_none = True
            break
        env = list(args)
        if h.tail:
            env += h.tail
        result = _checker_ops(
            ctx, plans, plan, h.ops, 0, env, rec_size, top, bud
        )
        if result is SOME_TRUE:
            if trace is not None:
                trace.record4(h.key_checker, True, False)
            if obs is not None:
                obs.end_checker(span, SOME_TRUE)
            return SOME_TRUE
        if result is NONE_OB:
            saw_none = True
            if trace is not None:
                trace.record4(h.key_checker, False, True)
        elif trace is not None:
            trace.record4(h.key_checker, False, False)
    result = NONE_OB if saw_none else SOME_FALSE
    if obs is not None:
        obs.end_checker(span, result)
    return result


def _checker_ops(
    ctx: Context,
    plans: dict,
    plan: Plan,
    ops: tuple,
    i: int,
    env: list,
    rec_size: "int | None",
    top: int,
    bud,
) -> OptionBool:
    """Run the handler suffix ``ops[i:]`` in the checker monad.

    Returns the ``option bool`` of the whole suffix: ``.&&`` chains are
    early returns, a producer op is ``bindEC`` (re-entering this
    function per item — the enclosing call's loop supplies the
    accounting that makes an incomplete search answer ``None``).
    """
    n = len(ops)
    while i < n:
        op = ops[i]
        tag = op[0]
        if tag == OP_EVAL:
            env[op[1]] = eval_expr(op[2], env)
        elif tag == OP_TESTCTOR:
            value = env[op[1]]
            if value.ctor != op[2]:
                return SOME_FALSE
            vargs = value.args
            for k, dst in enumerate(op[3]):
                env[dst] = vargs[k]
        elif tag == OP_TESTEQ:
            if (eval_expr(op[1], env) == eval_expr(op[2], env)) == op[3]:
                return SOME_FALSE
        elif tag == OP_TESTCONST:
            if env[op[1]] != op[2]:
                return SOME_FALSE
        elif tag == OP_CHECK:
            result = _checker_instance(ctx, op).fn(
                top, eval_exprs(op[2], env)
            )
            if op[3]:
                result = negate(result)
            if result is not SOME_TRUE:
                # `.&&`: false and out-of-fuel both end the chain.
                return result
        elif tag == OP_RECCHECK:
            target = plans[op[2]] if op[2] is not None else plan
            result = run_checker(
                ctx, plans, target, rec_size, top, eval_exprs(op[1], env)
            )
            if result is not SOME_TRUE:
                return result
        elif tag == OP_EVALREL:
            # Functionalized premise: at most one output tuple exists
            # (repro.analysis.determinacy), so commit to the first
            # definite item and continue straightline — a later test
            # failing is a definite handler failure, not a backtrack
            # point, and markers seen before the answer are moot once
            # it is found.
            items = _enum_instance(ctx, op).fn(top, eval_exprs(op[3], env))
            found = None
            incomplete = False
            for item in items:
                if bud is not None and bud.charge(1):
                    incomplete = True
                    break
                if item is OUT_OF_FUEL or item is FAIL:
                    incomplete = True
                    continue
                found = item
                break
            if found is None:
                return NONE_OB if incomplete else SOME_FALSE
            st = ctx.caches.get(STATS_KEY)
            if st is not None:
                st.functionalized_calls += 1
            for k, dst in enumerate(op[4]):
                env[dst] = found[k]
        elif tag == OP_PRODUCE:
            # bindEC over the (external) enumeration: first witness
            # accepted by the continuation wins; an incomplete search
            # (fuel marker or a None continuation) taints the failure.
            items = _enum_instance(ctx, op).fn(top, eval_exprs(op[3], env))
            dsts = op[4]
            incomplete = False
            for item in items:
                if bud is not None and bud.charge(1):
                    incomplete = True
                    break
                if item is OUT_OF_FUEL or item is FAIL:
                    incomplete = True
                    continue
                for k, dst in enumerate(dsts):
                    env[dst] = item[k]
                result = _checker_ops(
                    ctx, plans, plan, ops, i + 1, env, rec_size, top, bud
                )
                if result is SOME_TRUE:
                    return SOME_TRUE
                if result is NONE_OB:
                    incomplete = True
            return NONE_OB if incomplete else SOME_FALSE
        else:  # OP_INSTANTIATE
            dst, ty = op[1], op[2]
            incomplete = False
            for value in _enum_values(ctx, ty, top):
                if bud is not None and bud.charge(1):
                    incomplete = True
                    break
                env[dst] = value
                result = _checker_ops(
                    ctx, plans, plan, ops, i + 1, env, rec_size, top, bud
                )
                if result is SOME_TRUE:
                    return SOME_TRUE
                if result is NONE_OB:
                    incomplete = True
            if not slice_exhaustive(ctx, ty, top):
                incomplete = True
            return NONE_OB if incomplete else SOME_FALSE
        i += 1
    return SOME_TRUE


# ---------------------------------------------------------------------------
# Enumerator driver (E (option A)).
# ---------------------------------------------------------------------------


def run_enum(
    ctx: Context,
    plan: Plan,
    size: int,
    top: int,
    ins: tuple[Value, ...],
) -> Iterator[Any]:
    """One level of the derived enumerator fixpoint.

    Yields output tuples and at most one trailing ``OUT_OF_FUEL``
    marker: values stream through unchanged while any number of inner
    markers collapse (they carry no information beyond existence).

    The observation span opens at the first ``next`` (generator body
    start) and closes on exhaustion; a consumer that abandons the
    enumeration mid-way leaves the span open, to be force-closed as
    ``abandoned`` when its parent span ends.
    """
    obs = ctx.caches.get(OBSERVE_KEY)
    saw_fuel = False
    if obs is None:
        for item in _enum_level(ctx, plan, size, top, ins):
            if item is OUT_OF_FUEL:
                saw_fuel = True
            else:
                yield item
        if saw_fuel:
            yield OUT_OF_FUEL
        return
    span = obs.spans.begin("enum", plan.rel, plan.mode_str, size, top)
    values = 0
    for item in _enum_level(ctx, plan, size, top, ins):
        if item is OUT_OF_FUEL:
            saw_fuel = True
        else:
            values += 1
            yield item
    if saw_fuel:
        yield OUT_OF_FUEL
    obs.end_enum(span, values, saw_fuel)


def _enum_level(
    ctx: Context,
    plan: Plan,
    size: int,
    top: int,
    ins: tuple[Value, ...],
) -> Iterator[Any]:
    caches = ctx.caches
    trace = caches.get(TRACE_KEY)
    bud = caches.get(BUDGET_KEY)
    if bud is not None and bud.charge_entry(top - size):
        bud.record_site("enum", plan.rel, plan.mode_str)
        yield OUT_OF_FUEL
        return
    if size == 0:
        candidates = plan.base_candidates(ins)
        rec_size = None
    else:
        candidates = plan.candidates(ins)
        rec_size = size - 1
    for h in candidates:
        if bud is not None and bud.charge(h.cost):
            bud.record_site("enum", plan.rel, plan.mode_str)
            yield OUT_OF_FUEL
            return
        env = list(ins)
        if h.tail:
            env += h.tail
        if trace is None:
            yield from _enum_ops(
                ctx, plan, h, h.ops, 0, env, rec_size, top, bud
            )
        else:
            saw_value = saw_marker = False
            for item in _enum_ops(
                ctx, plan, h, h.ops, 0, env, rec_size, top, bud
            ):
                if item is OUT_OF_FUEL:
                    saw_marker = True
                else:
                    saw_value = True
                yield item
            trace.record4(h.key_enum, saw_value, saw_marker)
    if size == 0 and plan.has_recursive:
        yield OUT_OF_FUEL


def _enum_ops(
    ctx: Context,
    plan: Plan,
    h: PlanHandler,
    ops: tuple,
    i: int,
    env: list,
    rec_size: "int | None",
    top: int,
    bud,
) -> Iterator[Any]:
    """Run the handler suffix ``ops[i:]`` in the enumerator monad:
    failed tests kill the branch, fuel surfaces as markers, producer
    ops become nested loops, and reaching the end yields the outputs."""
    n = len(ops)
    while i < n:
        op = ops[i]
        tag = op[0]
        if tag == OP_EVAL:
            env[op[1]] = eval_expr(op[2], env)
        elif tag == OP_TESTCTOR:
            value = env[op[1]]
            if value.ctor != op[2]:
                return
            vargs = value.args
            for k, dst in enumerate(op[3]):
                env[dst] = vargs[k]
        elif tag == OP_TESTEQ:
            if (eval_expr(op[1], env) == eval_expr(op[2], env)) == op[3]:
                return
        elif tag == OP_TESTCONST:
            if env[op[1]] != op[2]:
                return
        elif tag == OP_CHECK:
            result = _checker_instance(ctx, op).fn(
                top, eval_exprs(op[2], env)
            )
            if op[3]:
                result = negate(result)
            if result is not SOME_TRUE:
                if result is NONE_OB:
                    yield OUT_OF_FUEL  # fuelE
                return  # failE: branch dies
        elif tag == OP_RECCHECK:
            raise AssertionError(
                "producer schedules never contain recursive checker calls"
            )
        elif tag == OP_EVALREL:
            # Functionalized premise (at most one answer): commit to
            # the first definite item and continue straightline — no
            # nested loop, and no markers re-yielded past the answer
            # (nothing else exists to be found behind them).
            items = _enum_instance(ctx, op).fn(top, eval_exprs(op[3], env))
            found = None
            for item in items:
                if bud is not None and bud.charge(1):
                    yield OUT_OF_FUEL
                    return
                if item is OUT_OF_FUEL:
                    yield OUT_OF_FUEL
                    continue
                found = item
                break
            if found is None:
                return
            st = ctx.caches.get(STATS_KEY)
            if st is not None:
                st.functionalized_calls += 1
            for k, dst in enumerate(op[4]):
                env[dst] = found[k]
        elif tag == OP_PRODUCE:
            ins = eval_exprs(op[3], env)
            if op[5]:  # recursive self-call, one level down
                items = run_enum(ctx, plan, rec_size, top, ins)
            else:
                items = _enum_instance(ctx, op).fn(top, ins)
            dsts = op[4]
            for item in items:
                if bud is not None and bud.charge(1):
                    yield OUT_OF_FUEL
                    return
                if item is OUT_OF_FUEL:
                    yield OUT_OF_FUEL
                    continue
                for k, dst in enumerate(dsts):
                    env[dst] = item[k]
                yield from _enum_ops(
                    ctx, plan, h, ops, i + 1, env, rec_size, top, bud
                )
            return
        else:  # OP_INSTANTIATE
            dst, ty = op[1], op[2]
            for value in _enum_values(ctx, ty, top):
                if bud is not None and bud.charge(1):
                    yield OUT_OF_FUEL
                    return
                env[dst] = value
                yield from _enum_ops(
                    ctx, plan, h, ops, i + 1, env, rec_size, top, bud
                )
            if not slice_exhaustive(ctx, ty, top):
                yield OUT_OF_FUEL
            return
        i += 1
    yield eval_exprs(h.out_exprs, env)


# ---------------------------------------------------------------------------
# Generator driver (G (option A)).
# ---------------------------------------------------------------------------


def run_gen(
    ctx: Context,
    plan: Plan,
    size: int,
    top: int,
    ins: tuple[Value, ...],
    rng: random.Random,
) -> Any:
    """One level of the derived generator fixpoint: QuickChick-style
    weighted backtracking.  Recursive handlers get weight proportional
    to the remaining size (deep structures stay likely at large sizes,
    recursion tapers off near 0); each candidate is tried at most
    :data:`TRIES_PER_HANDLER` times before being discarded."""
    caches = ctx.caches
    trace = caches.get(TRACE_KEY)
    obs = caches.get(OBSERVE_KEY)
    bud = caches.get(BUDGET_KEY)
    if obs is not None:
        span = obs.spans.begin("gen", plan.rel, plan.mode_str, size, top)
    if bud is not None and bud.charge_entry(top - size):
        bud.record_site("gen", plan.rel, plan.mode_str)
        if obs is not None:
            obs.end_gen(span, OUT_OF_FUEL, 0)
        return OUT_OF_FUEL
    attempts = 0
    if size == 0:
        candidates = plan.base_candidates(ins)
        rec_size = None
        # Skipped recursive handlers mean a FAIL here is not
        # definitive — report fuel exhaustion instead.
        saw_fuel = plan.has_recursive
    else:
        candidates = plan.candidates(ins)
        rec_size = size - 1
        saw_fuel = False
    remaining = [
        [h, TRIES_PER_HANDLER, (size if h.recursive else 1) or 1]
        for h in candidates
    ]
    while remaining:
        total = 0
        for entry in remaining:
            total += entry[2]
        pick = rng.random() * total
        acc = 0
        for entry in remaining:
            acc += entry[2]
            if pick < acc:
                break
        h = entry[0]
        if bud is not None and bud.charge(h.cost):
            bud.record_site("gen", plan.rel, plan.mode_str)
            saw_fuel = True
            break
        attempts += 1
        result = _gen_handler(ctx, plan, h, rec_size, top, ins, rng)
        if result is not FAIL and result is not OUT_OF_FUEL:
            if trace is not None:
                trace.record4(h.key_gen, True, False)
            if obs is not None:
                obs.end_gen(span, result, attempts)
            return result
        if result is OUT_OF_FUEL:
            saw_fuel = True
            if trace is not None:
                trace.record4(h.key_gen, False, True)
        elif trace is not None:
            trace.record4(h.key_gen, False, False)
        entry[1] -= 1
        if entry[1] <= 0:
            remaining.remove(entry)
    result = OUT_OF_FUEL if saw_fuel else FAIL
    if obs is not None:
        obs.end_gen(span, result, attempts)
    return result


def _gen_handler(
    ctx: Context,
    plan: Plan,
    h: PlanHandler,
    rec_size: "int | None",
    top: int,
    ins: tuple[Value, ...],
    rng: random.Random,
) -> Any:
    """One sampled path through a handler: every op is straightline in
    the generator monad (a producer draws a single sample, or chooses
    one answer of a linear premise)."""
    env = list(ins)
    if h.tail:
        env += h.tail
    for op in h.ops:
        tag = op[0]
        if tag == OP_EVAL:
            env[op[1]] = eval_expr(op[2], env)
        elif tag == OP_TESTCTOR:
            value = env[op[1]]
            if value.ctor != op[2]:
                return FAIL
            vargs = value.args
            for k, dst in enumerate(op[3]):
                env[dst] = vargs[k]
        elif tag == OP_TESTEQ:
            if (eval_expr(op[1], env) == eval_expr(op[2], env)) == op[3]:
                return FAIL
        elif tag == OP_TESTCONST:
            if env[op[1]] != op[2]:
                return FAIL
        elif tag == OP_CHECK:
            result = _checker_instance(ctx, op).fn(
                top, eval_exprs(op[2], env)
            )
            if op[3]:
                result = negate(result)
            if result is not SOME_TRUE:
                return OUT_OF_FUEL if result is NONE_OB else FAIL
        elif tag == OP_RECCHECK:
            raise AssertionError(
                "producer schedules never contain recursive checker calls"
            )
        elif tag == OP_PRODUCE or tag == OP_EVALREL:
            # The generator monad draws a single sample per producer op
            # already, so a functionalized premise behaves identically
            # (same RNG stream with the pass on or off).
            ins2 = eval_exprs(op[3], env)
            if op[5]:  # recursive self-call, one level down
                produced = run_gen(ctx, plan, rec_size, top, ins2, rng)
            elif linear_premise(ctx, op[6], op[7]):
                items = _enum_instance(ctx, op).fn(top, ins2)
                produced = choose(collect_answers(items), rng)
            else:
                produced = _gen_instance(ctx, op).fn(top, ins2, rng)
            if produced is FAIL or produced is OUT_OF_FUEL:
                return produced
            for k, dst in enumerate(op[4]):
                env[dst] = produced[k]
        else:  # OP_INSTANTIATE
            value = datatype_sampler(ctx, op[2])(top, rng)
            if value is FAIL or value is OUT_OF_FUEL:
                return value
            env[op[1]] = value
    return eval_exprs(h.out_exprs, env)


# ---------------------------------------------------------------------------
# Enumerate-then-choose (the generators' linear premises).
# ---------------------------------------------------------------------------


def collect_answers(items) -> tuple:
    """Drain a premise enumeration into ``(answers, saw_marker)``."""
    answers = []
    marker = False
    for item in items:
        if item is OUT_OF_FUEL:
            marker = True
        else:
            answers.append(item)
    return tuple(answers), marker


def choose(collected: tuple, rng: random.Random) -> Any:
    """One answer of a :func:`collect_answers` result, uniformly, with a
    single ``rng.random()``; with no answers, ``OUT_OF_FUEL`` when the
    enumeration carried the marker and ``FAIL`` (no draw) otherwise."""
    answers, marker = collected
    if not answers:
        return OUT_OF_FUEL if marker else FAIL
    return answers[int(rng.random() * len(answers))]


# ---------------------------------------------------------------------------
# Registry constructors (the interpreter backend).
# ---------------------------------------------------------------------------


def make_checker(
    ctx: Context,
    schedule: Schedule,
    group: "dict[str, Schedule] | None" = None,
):
    """The internal-convention checker ``fn(fuel, args)`` running
    *schedule* through :func:`run_checker` at ``size == top == fuel``.

    *group* maps relation names to the schedules sharing one fixpoint
    (a mutual group, :mod:`repro.derive.mutual`); group-recursive
    ``reccheck`` ops run the sibling's plan.  A vector of the wrong
    length raises :class:`~repro.core.errors.ArityError`.
    """
    schedules = {schedule.rel: schedule, **(group or {})}
    plans = {rel: lower_schedule(ctx, s) for rel, s in schedules.items()}
    plan = plans[schedule.rel]
    rel, arity = schedule.rel, schedule.mode.arity

    def check(fuel: int, args: tuple[Value, ...]) -> OptionBool:
        if len(args) != arity:
            raise ArityError(rel, arity, len(args))
        return run_checker(ctx, plans, plan, fuel, fuel, args)

    return check


def make_enumerator(ctx: Context, schedule: Schedule):
    """The internal-convention enumerator ``fn(fuel, ins)`` running
    *schedule* through :func:`run_enum`."""
    plan = lower_schedule(ctx, schedule)

    def enum_st(fuel: int, ins: tuple[Value, ...]) -> Iterator[Any]:
        return run_enum(ctx, plan, fuel, fuel, ins)

    return enum_st


def make_generator(ctx: Context, schedule: Schedule):
    """The internal-convention generator ``fn(fuel, ins, rng)`` running
    *schedule* through :func:`run_gen`."""
    plan = lower_schedule(ctx, schedule)

    def gen_st(fuel: int, ins: tuple[Value, ...], rng: random.Random) -> Any:
        return run_gen(ctx, plan, fuel, fuel, ins, rng)

    return gen_st

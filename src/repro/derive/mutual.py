"""Mutually inductive relations: group derivation (the §8 extension).

The paper's implementation cannot handle mutual induction: derived
computations resolve each other through Coq typeclasses, which cannot
be mutually recursive, so e.g.::

    Inductive even : nat -> Prop :=
    | even_0 : even 0
    | even_S : forall n, odd n -> even (S n)
    with odd : nat -> Prop :=
    | odd_S : forall n, even n -> odd (S n).

is rejected (and our registry rejects it too, with a cycle error).
The *algorithm* has no such limitation: derive the whole strongly
connected component as one fixpoint whose ``size`` is shared, with
in-group premises compiled to group-recursive calls instead of
external instance calls.  That is what :func:`derive_mutual_checkers`
does; the resulting checkers are registered as ordinary instances, so
downstream derivations (including other relations' producers) can use
them.

Each group member's schedule lowers to its own Plan; the shared
fixpoint is realized by the *group* map (relation name -> schedule) of
:func:`~repro.derive.exec_core.make_checker`, which the executor uses
to route group-recursive ``reccheck`` ops to the sibling's plan at the
decremented size.  Mutual groups stay on the interpreter backend:
compiled resolution would reject the instance cycle before codegen
runs, so once a group is registered it serves the group's checkers
as registered (``resolve_compiled_instance``).
"""

from __future__ import annotations

from ..core.context import Context
from ..core.errors import DerivationError
from .api import DerivedChecker, public_object
from .exec_core import make_checker
from .instances import CHECKER, Instance, register
from .modes import Mode
from .scheduler import DEFAULT_POLICY, DerivePolicy, build_schedule


def mutual_components(ctx: Context, rel_names: list[str]) -> list[list[str]]:
    """Strongly connected components of the premise-reference graph,
    restricted to *rel_names*, in a topological order (dependencies
    first), each component's members sorted.

    Tarjan's algorithm: a component is completed only after every
    component it reaches, and edges point from a relation to the
    relations its premises mention, so dependencies come out first."""
    names = set(rel_names)
    edges = {
        name: sorted(
            t for t in ctx.relations.get(name).mentioned_relations()
            if t in names and t != name
        )
        for name in rel_names
    }
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    components: list[list[str]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in edges[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            i = stack.index(v)
            components.append(sorted(stack[i:]))
            del stack[i:]

    for name in rel_names:
        if name not in index:
            visit(name)
    return components


def derive_mutual_checkers(
    ctx: Context,
    rel_names: list[str],
    policy: DerivePolicy = DEFAULT_POLICY,
    replace: bool = False,
) -> dict[str, DerivedChecker]:
    """Derive checkers for a set of mutually inductive relations.

    All relations in *rel_names* must belong to one recursion group
    (use :func:`mutual_components` to split a larger set first).  Every
    member's checker shares the decreasing ``size``; in-group premises
    become group-recursive calls, so no cyclic instance resolution
    occurs.  Each checker is registered in the instance table, and the
    returned objects are the ones ``derive_checker`` hands back for the
    members.
    """
    if not rel_names:
        raise DerivationError("derive_mutual_checkers needs at least one relation")
    group = frozenset(rel_names)
    schedules = {}
    for name in rel_names:
        arity = ctx.relations.get(name).arity
        schedules[name] = build_schedule(
            ctx, name, Mode.checker(arity), policy, group=group
        )
    checkers: dict[str, DerivedChecker] = {}
    for name in rel_names:
        mode = Mode.checker(ctx.relations.get(name).arity)
        register(
            ctx,
            Instance(
                CHECKER,
                name,
                mode,
                make_checker(ctx, schedules[name], group=schedules),
                "derived-mutual",
                schedules[name],
            ),
            replace=replace,
        )
        checkers[name] = public_object(ctx, CHECKER, name, mode)
    # Resolve out-of-group dependencies the ordinary way.
    from .instances import _resolve_dependencies

    for name in rel_names:
        instance = ctx.instances[(CHECKER, name, "i" * ctx.relations.get(name).arity)]
        pruned = Instance(
            instance.kind, instance.rel, instance.mode, instance.fn,
            instance.source, _PrunedSchedule(schedules[name], group),
        )
        _resolve_dependencies(ctx, pruned)
    return checkers


class _PrunedSchedule:
    """A schedule view that hides in-group external references (they
    are satisfied by the shared fixpoint, not by instances)."""

    def __init__(self, schedule, group: frozenset[str]) -> None:
        self._schedule = schedule
        self._group = group
        self.handlers = tuple(
            _PrunedHandler(h, group) for h in schedule.handlers
        )
        self.mode = schedule.mode
        self.rel = schedule.rel
        self.out_types = schedule.out_types


class _PrunedHandler:
    def __init__(self, handler, group: frozenset[str]) -> None:
        from .schedule import SCheckCall, SProduce

        self.rule = handler.rule
        self.in_patterns = handler.in_patterns
        self.out_terms = handler.out_terms
        self.recursive = handler.recursive
        self.steps = tuple(
            s
            for s in handler.steps
            if not (
                isinstance(s, (SCheckCall, SProduce))
                and getattr(s, "rel", None) in group
            )
        )

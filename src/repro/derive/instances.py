"""Typeclass-style instance registry.

QuickChick resolves checkers (``DecOpt``) and constrained producers
(``EnumSizedSuchThat`` / ``GenSizedSuchThat``) through Coq's typeclass
mechanism; derived code calls the class methods (``check``, ``enumST``,
``genST``) and instance resolution supplies either a handwritten or a
derived implementation.  This module reproduces that: a per-context
table keyed by ``(kind, relation, mode)``, with lazy auto-derivation on
lookup misses.

Internal calling conventions (fuel is always explicit):

* checker:   ``fn(fuel, args: tuple[Value, ...]) -> OptionBool``
* enum:      ``fn(fuel, ins: tuple[Value, ...]) -> iterator`` over
  output tuples and ``OUT_OF_FUEL`` markers
* gen:       ``fn(fuel, ins: tuple[Value, ...], rng) -> tuple | FAIL |
  OUT_OF_FUEL``

Cyclic instance dependencies are rejected at resolution time —
mirroring the paper's Section 8 limitation ("Coq's typeclasses cannot
be mutually recursive, neither can our derived checkers/producers").
Mutual relations are supported through the separate group-derivation
extension (``repro.derive.mutual``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..core.context import Context
from ..core.errors import DerivationError, InstanceNotFoundError
from .memo import invalidate_memo, wrap_instance
from .modes import Mode

CHECKER = "checker"
ENUM = "enum"
GEN = "gen"


@dataclass
class Instance:
    """A registered computation plus its provenance."""

    kind: str
    rel: str
    mode: Mode
    fn: Callable[..., Any]
    source: str  # 'handwritten' | 'derived' | 'derived-mutual' | 'compiled'
    schedule: Any = None  # Schedule for derived instances


def _key(kind: str, rel: str, mode: Mode, backend: str = "interp") -> tuple:
    if backend == "interp":
        return (kind, rel, str(mode))
    return (kind, rel, str(mode), backend)


#: ``ctx.artifacts`` key of a counter :func:`register` bumps, so
#: long-lived resolution caches (the serving engine's) can tell that a
#: user registration may have changed what a shape resolves to.
REGISTRY_EPOCH = "registry_epoch"


def register(ctx: Context, instance: Instance, replace: bool = False) -> Instance:
    key = _key(instance.kind, instance.rel, instance.mode)
    with ctx._derive_lock:
        if key in ctx.instances and not replace:
            raise DerivationError(f"instance already registered for {key}")
        if replace:
            # Purge this key's entries and *every* compiled instance:
            # compiled code binds its premise callees (and splices their
            # plans) at compile time, so any compiled dependent would
            # keep serving the replaced implementation.  Like the memo
            # tables dropped below, the purge is wholesale rather than
            # dependency-tracked; dropped instances recompile on demand.
            stale = [k for k in ctx.instances if k[:3] == key or len(k) == 4]
            for k in stale:
                del ctx.instances[k]
            invalidate_memo(ctx, instance.rel)
        ctx.instances[key] = instance
        epoch = ctx.artifacts.get(REGISTRY_EPOCH, 0)
        ctx.artifacts[REGISTRY_EPOCH] = epoch + 1
        return wrap_instance(ctx, instance)


def register_checker(
    ctx: Context,
    rel: str,
    fn: Callable[..., Any],
    source: str = "handwritten",
    replace: bool = False,
) -> Instance:
    arity = ctx.relations.get(rel).arity
    return register(
        ctx, Instance(CHECKER, rel, Mode.checker(arity), fn, source), replace
    )


def register_producer(
    ctx: Context,
    kind: str,
    rel: str,
    mode: Mode,
    fn: Callable[..., Any],
    source: str = "handwritten",
    replace: bool = False,
) -> Instance:
    if kind not in (ENUM, GEN):
        raise DerivationError(f"bad producer kind {kind!r}")
    return register(ctx, Instance(kind, rel, mode, fn, source), replace)


def lookup(ctx: Context, kind: str, rel: str, mode: Mode) -> Instance | None:
    return ctx.instances.get(_key(kind, rel, mode))


def resolve(
    ctx: Context,
    kind: str,
    rel: str,
    mode: Mode,
    auto_derive: bool = True,
    backend: str = "interp",
) -> Instance:
    """Look up an instance; derive (and register) it on a miss.

    Resolution is *eager in its dependencies*: after deriving an
    artifact, every instance its schedule calls is resolved too, with a
    stack to detect cyclic dependencies.  ``backend`` selects the
    schedule interpreter (``interp``) or the Python code generator
    (``compiled``); the two backends are registered independently.

    Concurrency: the cycle-detection stack lives in the current
    *session*'s state (``ctx.caches``), so two sessions resolving on
    one shared context never corrupt each other's cycle detection.
    First-use derivation itself is serialized by ``ctx._derive_lock``
    (re-entrant, so the recursive dependency resolutions nest); the
    already-registered fast path above the lock stays lock-free.
    """
    stats = ctx.caches.get("derive_stats")
    if stats is not None:
        stats.external_resolutions += 1
    bud = ctx.caches.get("derive_budget")
    if bud is not None:
        # Diagnostic only — resolution is never *charged*: the two
        # backends resolve dependencies in different orders, and a
        # charge here would desynchronize their op streams.
        bud.note_resolution()
    stack: list[tuple] = ctx.caches.setdefault("resolve_stack", [])
    key = _key(kind, rel, mode, backend)
    if key in stack:
        # The artifact may already be registered (registration happens
        # before its dependencies are resolved), but a self-reference
        # through the dependency chain is still a cycle: at runtime the
        # instances would call each other with a constant top_size and
        # never terminate.
        chain = " -> ".join(str(k) for k in stack + [key])
        raise DerivationError(
            f"cyclic instance dependency ({chain}); mutually recursive "
            "relations need repro.derive.mutual.derive_mutual"
        )
    found = ctx.instances.get(key)
    if found is not None:
        return wrap_instance(ctx, found)
    if not auto_derive:
        raise InstanceNotFoundError(key)

    with ctx._derive_lock:
        # Double-checked: another thread may have derived this instance
        # while we waited on the lock.
        found = ctx.instances.get(key)
        if found is not None:
            return wrap_instance(ctx, found)
        stack.append(key)
        try:
            instance = _derive_instance(ctx, kind, rel, mode, backend)
            ctx.instances[key] = instance
            if backend == "interp":
                _resolve_dependencies(ctx, instance)
            # The compiled backend resolves its dependencies during code
            # generation (it needs the callables), under the same stack.
        finally:
            stack.pop()
    return wrap_instance(ctx, instance)


def _derive_instance(
    ctx: Context, kind: str, rel: str, mode: Mode, backend: str = "interp"
) -> Instance:
    from .scheduler import build_schedule

    schedule = build_schedule(ctx, rel, mode)
    if backend == "compiled":
        from . import codegen

        if kind == CHECKER:
            fn = codegen.compile_checker(ctx, schedule)
        elif kind == ENUM:
            fn = codegen.compile_enumerator(ctx, schedule)
        elif kind == GEN:
            fn = codegen.compile_generator(ctx, schedule)
        else:  # pragma: no cover - guarded by register_producer
            raise DerivationError(f"bad instance kind {kind!r}")
        return Instance(kind, rel, mode, fn, "compiled", schedule)
    if kind == CHECKER:
        from .interp_checker import make_checker

        fn = make_checker(ctx, schedule)
    elif kind == ENUM:
        from .interp_enum import make_enumerator

        fn = make_enumerator(ctx, schedule)
    elif kind == GEN:
        from .interp_gen import make_generator

        fn = make_generator(ctx, schedule)
    else:  # pragma: no cover - guarded by register_producer
        raise DerivationError(f"bad instance kind {kind!r}")
    return Instance(kind, rel, mode, fn, "derived", schedule)


#: Registered sources the compiled backend serves as registered: user
#: code is already native Python, and a ``derive_mutual`` group's
#: shared fixpoint cannot be rebuilt by (acyclic) compiled resolution.
AS_REGISTERED = frozenset({"handwritten", "derived-mutual"})


def resolve_compiled_instance(
    ctx: Context, kind: str, rel: str, mode: Mode
) -> Instance:
    """The :class:`Instance` serving ``(kind, rel, mode)`` under the
    compiled backend — except that a registered handwritten or
    mutual-group instance always wins (see :data:`AS_REGISTERED`)."""
    existing = lookup(ctx, kind, rel, mode)
    if existing is not None and existing.source in AS_REGISTERED:
        return wrap_instance(ctx, existing)
    return resolve(ctx, kind, rel, mode, backend="compiled")


def resolve_compiled(ctx: Context, kind: str, rel: str, mode: Mode):
    """The callable of :func:`resolve_compiled_instance`."""
    return resolve_compiled_instance(ctx, kind, rel, mode).fn


def resolve_compiled_checker(ctx: Context, rel: str):
    arity = ctx.relations.get(rel).arity
    return resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity))


def _resolve_dependencies(ctx: Context, instance: Instance) -> None:
    if instance.schedule is None:
        return
    from .scheduler import required_instances

    # A checker's producer calls use enumerators (deterministic,
    # complete); enum/gen schedules use their own kind.
    producer_kind = instance.kind if instance.kind != CHECKER else ENUM
    for need_kind, need_rel, need_mode in required_instances(instance.schedule):
        if need_kind == "checker":
            arity = ctx.relations.get(need_rel).arity
            resolve(ctx, CHECKER, need_rel, Mode.checker(arity))
        else:
            assert need_mode is not None
            resolve(ctx, producer_kind, need_rel, need_mode)


def resolve_checker(ctx: Context, rel: str, auto_derive: bool = True) -> Instance:
    arity = ctx.relations.get(rel).arity
    return resolve(ctx, CHECKER, rel, Mode.checker(arity), auto_derive)

"""User-facing derivation entry points (the QuickChick commands).

Mirrors the paper's vernacular::

    Derive DecOpt for (Sorted l).                    -- checker
    Derive EnumSizedSuchThat for (fun t => typing G e t).
    Derive GenSizedSuchThat for (fun e => typing G e t).

Here::

    checker = derive_checker(ctx, 'Sorted')
    enum    = derive_enumerator(ctx, 'typing', 'iio')
    gen     = derive_generator(ctx, 'typing', 'ioi')

Modes are given as strings over {'i', 'o'} (or iterables of output
positions).  Derived artifacts are registered in the context's
instance table so other derivations can call them, and the whole
dependency closure is derived eagerly (cycles are rejected).

Whatever the registry resolves a query to — an interpreter-derived,
handwritten or ``derive_mutual`` instance — ``derive_*`` hands back one
class per kind (:class:`DerivedChecker`, :class:`DerivedEnumerator`,
:class:`DerivedGenerator`), the same object for a given context and
``(kind, rel, mode)``.  It calls the registry instance's ``fn`` on
every call and resolves the instance again when the registry epoch
moves, so a held object follows ``register(..., replace=True)`` and the
memo wrapping of :mod:`repro.derive.memo`.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

from ..core.context import Context
from ..core.errors import DerivationError
from ..core.values import Value
from ..producers.option_bool import OptionBool
from ..producers.outcome import OUT_OF_FUEL, is_value
from .instances import (
    CHECKER,
    ENUM,
    GEN,
    REGISTRY_EPOCH,
    Instance,
    resolve,
    resolve_compiled_instance,
)
from .memo import decide_fuel_doubling
from .modes import Mode
from .plan import Plan, lower_schedule

#: ``ctx.artifacts`` key of the public objects, by ``(kind, rel, mode)``
PUBLIC_KEY = "public_objects"


class _Public:
    """What the three public classes share: the ``(kind, rel, mode)``
    they answer for and the registry instance that runs it."""

    def __init__(self, ctx: Context, kind: str, rel: str, mode: Mode) -> None:
        self.ctx = ctx
        self.kind = kind
        self.rel = rel
        self.mode = mode
        # (registry epoch, instance); resolved on first use.
        self._resolved: tuple = (None, None)

    @property
    def instance(self) -> Instance:
        """The registry instance this object runs, resolved again
        whenever :data:`~repro.derive.instances.REGISTRY_EPOCH` moves
        (the rule the serving engine's shape cache follows)."""
        epoch = self.ctx.artifacts.get(REGISTRY_EPOCH, 0)
        seen, instance = self._resolved
        if seen != epoch:
            instance = resolve(self.ctx, self.kind, self.rel, self.mode)
            self._resolved = (epoch, instance)
        return instance

    @property
    def plan(self) -> "Plan | None":
        """The lowered plan of the instance's schedule, or ``None`` for
        a handwritten instance."""
        schedule = self.instance.schedule
        return None if schedule is None else lower_schedule(self.ctx, schedule)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.rel!r}, {self.mode}, "
            f"source={self.instance.source!r})"
        )


class DerivedChecker(_Public):
    """A semi-decision procedure for ``P e1 .. en`` (``DecOpt``).

    Calling convention: ``checker(fuel, *args) -> OptionBool`` — the
    paper's ``fun size in1 .. => rec size size in1 ..`` wrapper.  A
    vector of the wrong length raises
    :class:`~repro.core.errors.ArityError`.
    """

    def __call__(self, fuel: int, *args: Value) -> OptionBool:
        return self.instance.fn(fuel, args)

    def check(self, fuel: int, args: tuple[Value, ...]) -> OptionBool:
        """The registry's calling convention: one argument vector."""
        return self.instance.fn(fuel, tuple(args))

    def check_batch(self, fuel: int, argses) -> list:
        """Check a vector of argument tuples at one fuel: through the
        instance's ``__batch__`` entry when it has one (compiled code),
        else one :meth:`check` per element.  Either way each element is
        a top-level call, so memoization and instrumentation see the
        same events as a caller-side loop."""
        fn = self.instance.fn
        batch = getattr(fn, "__batch__", None)
        if batch is not None:
            return batch(fuel, argses)
        return [fn(fuel, tuple(args)) for args in argses]

    def decide(
        self, args: tuple[Value, ...], max_fuel: int = 64, start_fuel: int = 2
    ) -> OptionBool:
        """Run with doubling fuel until a definite answer (or give up
        with ``None`` at *max_fuel*).

        With memoization enabled the loop is incremental: a cached
        definite answer (at any fuel) returns immediately, and probes
        at or below the recorded ``None`` frontier short-circuit.
        """
        return decide_fuel_doubling(
            self.ctx, self.rel, self.check, args, max_fuel, start_fuel
        )


class DerivedEnumerator(_Public):
    """A constrained enumerator for ``(rel, mode)``
    (``EnumSizedSuchThat``).

    Calling convention: ``enum(fuel, *in_args)`` yields output tuples
    (and ``OUT_OF_FUEL`` markers).
    """

    def __call__(self, fuel: int, *ins: Value) -> Iterator[Any]:
        return self.instance.fn(fuel, ins)

    def enum_st(self, fuel: int, ins: tuple[Value, ...]) -> Iterator[Any]:
        """The registry's calling convention: one input vector."""
        return self.instance.fn(fuel, tuple(ins))

    def values(self, fuel: int, *ins: Value) -> list[tuple[Value, ...]]:
        """All output tuples at *fuel* (markers dropped)."""
        return [x for x in self.instance.fn(fuel, ins) if x is not OUT_OF_FUEL]

    def exhaustive_at(self, fuel: int, *ins: Value) -> bool:
        """True when the enumeration at *fuel* carries no fuel marker —
        i.e. it provably contains *every* solution."""
        return all(x is not OUT_OF_FUEL for x in self.instance.fn(fuel, ins))


class DerivedGenerator(_Public):
    """A constrained random generator for ``(rel, mode)``
    (``GenSizedSuchThat``).

    Calling convention: ``gen(fuel, *in_args, rng=...)`` returns one
    output tuple, or ``FAIL`` / ``OUT_OF_FUEL``.
    """

    def __call__(
        self, fuel: int, *ins: Value, rng: random.Random | None = None
    ) -> Any:
        return self.instance.fn(fuel, ins, rng or random.Random())

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        """The registry's calling convention: one input vector."""
        return self.instance.fn(fuel, tuple(ins), rng)

    def samples(
        self,
        fuel: int,
        *ins: Value,
        count: int = 100,
        seed: int | None = None,
    ) -> list[tuple[Value, ...]]:
        """Draw until *count* proper outputs were produced (markers
        dropped); gives up after ``20 * count`` attempts."""
        rng = random.Random(seed)
        fn = self.instance.fn
        out: list[tuple[Value, ...]] = []
        attempts = 0
        while len(out) < count and attempts < 20 * count:
            attempts += 1
            x = fn(fuel, ins, rng)
            if is_value(x):
                out.append(x)
        return out


_CLASSES = {CHECKER: DerivedChecker, ENUM: DerivedEnumerator, GEN: DerivedGenerator}


def public_object(ctx: Context, kind: str, rel: str, mode: Mode) -> _Public:
    """The public object for ``(kind, rel, mode)`` on *ctx*, made on
    first request and the same object afterwards."""
    objects = ctx.artifacts.setdefault(PUBLIC_KEY, {})
    key = (kind, rel, str(mode))
    obj = objects.get(key)
    if obj is None:
        obj = objects.setdefault(key, _CLASSES[kind](ctx, kind, rel, mode))
    return obj


def _as_mode(ctx: Context, rel: str, mode: "str | Mode | Iterable[int]") -> Mode:
    # Arity cross-check happens here, at declaration time, with an
    # ArityError naming the relation — not later inside scheduling.
    return Mode.for_relation(ctx.relations.get(rel), mode)


def _gate(ctx: Context, rel: str, mode: Mode, kind: str, analysis: bool) -> None:
    # The static-analysis gate (repro.analysis.gate).  The disabled
    # check lives here so opting out costs one dict lookup — the
    # analyzer module is not even imported.
    if not analysis or ctx.artifacts.get("analysis_disabled"):
        return
    from ..analysis.gate import check_before_derive

    check_before_derive(ctx, rel, mode, kind)


def _checked_mode(
    ctx: Context,
    kind: str,
    rel: str,
    mode: "str | Mode | Iterable[int] | None",
    analysis: bool,
) -> Mode:
    """The built mode for a *kind* query on *rel*, after the
    static-analysis gate has cleared it."""
    if kind == CHECKER:
        built = Mode.checker(ctx.relations.get(rel).arity)
    else:
        built = _as_mode(ctx, rel, mode)
        if built.is_checker:
            noun = "an enumerator" if kind == ENUM else "a generator"
            raise DerivationError(f"{noun} mode needs at least one output")
    _gate(ctx, rel, built, kind, analysis)
    return built


def derive_checker(ctx: Context, rel: str, *, analysis: bool = True) -> DerivedChecker:
    """Derive (or fetch) the semi-decision procedure for *rel*.

    ``Derive DecOpt for (P x1 .. xn)``.  Runs the static linter first
    (pass ``analysis=False`` or call
    :func:`repro.analysis.disable_analysis` to skip it); error
    diagnostics raise :class:`~repro.core.errors.AnalysisError` naming
    the blocking premise/variable instead of a generic scheduling
    failure.
    """
    built = _checked_mode(ctx, CHECKER, rel, None, analysis)
    resolve(ctx, CHECKER, rel, built)
    return public_object(ctx, CHECKER, rel, built)


def derive_enumerator(
    ctx: Context,
    rel: str,
    mode: "str | Mode | Iterable[int]",
    *,
    analysis: bool = True,
) -> DerivedEnumerator:
    """Derive (or fetch) the constrained enumerator for ``(rel, mode)``.

    ``Derive EnumSizedSuchThat for (fun out.. => P ..)``.
    """
    built = _checked_mode(ctx, ENUM, rel, mode, analysis)
    resolve(ctx, ENUM, rel, built)
    return public_object(ctx, ENUM, rel, built)


def derive_generator(
    ctx: Context,
    rel: str,
    mode: "str | Mode | Iterable[int]",
    *,
    analysis: bool = True,
) -> DerivedGenerator:
    """Derive (or fetch) the constrained random generator for
    ``(rel, mode)``.

    ``Derive GenSizedSuchThat for (fun out.. => P ..)``.
    """
    built = _checked_mode(ctx, GEN, rel, mode, analysis)
    resolve(ctx, GEN, rel, built)
    return public_object(ctx, GEN, rel, built)


def compiled_instance(
    ctx: Context,
    kind: str,
    rel: str,
    mode: "str | Mode | Iterable[int] | None" = None,
) -> Instance:
    """The registry instance that runs ``(kind, rel, mode)`` as emitted
    code: the compiled backend's, or a registered handwritten or
    mutual-group instance as registered.  Gated and mode-checked like
    the ``derive_*`` entry points (*mode* is ignored for checkers).
    Its ``fn`` follows the internal calling conventions of
    :mod:`repro.derive.instances`."""
    built = _checked_mode(ctx, kind, rel, mode, True)
    return resolve_compiled_instance(ctx, kind, rel, built)


_KINDS = {
    "DecOpt": ("checker", None),
    "EnumSizedSuchThat": ("enum", True),
    "GenSizedSuchThat": ("gen", True),
}


def derive(
    ctx: Context,
    kind: str,
    rel: str,
    mode: "str | None" = None,
    *,
    analysis: bool = True,
):
    """Vernacular-flavored entry point:

        derive(ctx, 'DecOpt', 'Sorted')
        derive(ctx, 'EnumSizedSuchThat', 'typing', 'iio')

    ``analysis=False`` skips the static linter gate, exactly as on the
    kind-specific entry points it forwards to.
    """
    if kind not in _KINDS:
        raise DerivationError(
            f"unknown derivation kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    if kind == "DecOpt":
        return derive_checker(ctx, rel, analysis=analysis)
    if mode is None:
        raise DerivationError(f"{kind} needs a mode string (e.g. 'iio')")
    if kind == "EnumSizedSuchThat":
        return derive_enumerator(ctx, rel, mode, analysis=analysis)
    return derive_generator(ctx, rel, mode, analysis=analysis)

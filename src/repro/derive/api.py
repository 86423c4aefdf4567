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
"""

from __future__ import annotations

from typing import Iterable

from ..core.context import Context
from ..core.errors import DerivationError
from .instances import (
    CHECKER,
    ENUM,
    GEN,
    Instance,
    resolve,
    resolve_compiled_instance,
)
from .interp_checker import DerivedChecker, HandwrittenChecker
from .interp_enum import DerivedEnumerator, HandwrittenEnumerator
from .interp_gen import DerivedGenerator, HandwrittenGenerator
from .modes import Mode


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
    instance = resolve(ctx, CHECKER, rel, built)
    owner = getattr(instance.fn, "__self__", None)
    if isinstance(owner, DerivedChecker):
        return owner
    # Handwritten instance: wrap it in the public interface.  The
    # wrapper *delegates to the registered fn* — re-deriving a checker
    # here would silently discard the handwritten implementation.
    return HandwrittenChecker(ctx, instance)


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
    instance = resolve(ctx, ENUM, rel, built)
    owner = getattr(instance.fn, "__self__", None)
    if isinstance(owner, DerivedEnumerator):
        return owner
    return HandwrittenEnumerator(ctx, instance)


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
    instance = resolve(ctx, GEN, rel, built)
    owner = getattr(instance.fn, "__self__", None)
    if isinstance(owner, DerivedGenerator):
        return owner
    return HandwrittenGenerator(ctx, instance)


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

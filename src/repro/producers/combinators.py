"""Cross-monad combinators and unconstrained datatype producers.

Two ingredients of Section 4 live here:

1. **Mixed binds** — sequencing computations in different monads:
   ``bind_EC`` runs a checker continuation over an enumeration (used
   when a checker needs an existential witness), ``bind_CE`` /
   ``bind_CG`` guard a producer with a checker result (used when a
   producer premise is fully instantiated).

2. **Unconstrained producers** — for any declared first-order datatype,
   a generic sized enumerator and random generator of *arbitrary*
   inhabitants (QuickChick's ``Enum``/``Gen`` typeclass instances,
   derived from the datatype declaration).  These instantiate
   existential variables whose values no premise constrains.  The
   random side is one compiled sampler per type instantiation and
   context (:func:`datatype_sampler`), shared by :func:`gen_datatype`,
   the plan interpreter, the compiled generators and the validation
   domains.

Size discipline: a value produced at size ``s`` has constructor depth
at most ``s + 1``; both producers emit :data:`OUT_OF_FUEL` when the
size-``s`` slice of the type is not exhaustive, which is what keeps
derived checkers from turning an incomplete search into a definitive
``Some false``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Iterator

from ..core.context import Context
from ..core.datatypes import DataType
from ..core.errors import DeclarationError
from ..core.types import Ty, TypeExpr, TyVar, mangle
from ..core.values import Value
from .enumerators import Enumerator
from .generators import Generator
from .option_bool import NONE_OB, SOME_FALSE, SOME_TRUE, OptionBool
from .outcome import FAIL, OUT_OF_FUEL, is_value

# ---------------------------------------------------------------------------
# Mixed binds.
# ---------------------------------------------------------------------------

def bind_EC(
    items: "Iterable[Any]",
    k: Callable[[Any], OptionBool],
) -> OptionBool:
    """``bindEC : E (option A) -> (A -> option bool) -> option bool``.

    Iterate an enumeration (an iterable of values and ``OUT_OF_FUEL``
    markers — e.g. ``enum.run(size)``); return ``Some true`` on the
    first witness accepted by *k*.  If the enumeration finished with no
    witness, return ``Some false`` only when the search was complete
    (no fuel marker seen and no continuation answered ``None``);
    otherwise ``None``.
    """
    incomplete = False
    for x in items:
        if not is_value(x):
            incomplete = True
            continue
        result = k(x)
        if result.is_true:
            return SOME_TRUE
        if result.is_none:
            incomplete = True
    return NONE_OB if incomplete else SOME_FALSE


def bind_CE(ob: OptionBool, k: Callable[[], Enumerator]) -> Enumerator:
    """``bindCE``: guard an enumerator with a checker result."""
    if ob.is_true:
        return k()
    if ob.is_false:
        return Enumerator.fail()
    return Enumerator.fuel()


def bind_CG(ob: OptionBool, k: Callable[[], Generator]) -> Generator:
    """``bindCG``: guard a generator with a checker result."""
    if ob.is_true:
        return k()
    if ob.is_false:
        return Generator.fail()
    return Generator.fuel()


# ---------------------------------------------------------------------------
# Unconstrained datatype producers.
# ---------------------------------------------------------------------------

def _require_datatype(ctx: Context, ty: TypeExpr) -> tuple[DataType, tuple[TypeExpr, ...]]:
    if isinstance(ty, TyVar):
        raise DeclarationError(f"cannot produce values of open type {ty}")
    dt = ctx.datatypes.get(ty.name)
    if len(ty.args) != len(dt.params):
        raise DeclarationError(f"type {ty} applies {dt.name!r} at wrong arity")
    return dt, ty.args


def slice_exhaustive(ctx: Context, ty: TypeExpr, size: int) -> bool:
    """True when the depth-bounded slice of *ty* at *size* contains
    every inhabitant of *ty*."""
    return _slice_exhaustive(ctx, ty, size, frozenset())


def _slice_exhaustive(
    ctx: Context, ty: TypeExpr, size: int, visiting: frozenset
) -> bool:
    dt, ty_args = _require_datatype(ctx, ty)
    key = (ty, size)
    cache = ctx.artifacts.setdefault("slice_exhaustive", {})
    if key in cache:
        return cache[key]
    if ty in visiting:
        # Recursive type: no finite depth exhausts it.
        cache[key] = False
        return False
    visiting = visiting | {ty}
    result = True
    for ctor in dt.constructors:
        arg_tys = dt.constructor_arg_types(ctor.name, ty_args)
        if size == 0 and arg_tys:
            result = False
            break
        if any(
            not _slice_exhaustive(ctx, at, size - 1, visiting) for at in arg_tys
        ):
            result = False
            break
    cache[key] = result
    return result


def enum_datatype(ctx: Context, ty: TypeExpr) -> Enumerator:
    """Sized exhaustive enumerator of the inhabitants of *ty*.

    At size ``s`` it yields every value of depth at most ``s + 1``
    (nullary constructors at every size, other constructors only when
    ``s > 0``, arguments at size ``s - 1``), followed by a single
    ``OUT_OF_FUEL`` marker when the slice is not exhaustive.
    """
    dt, ty_args = _require_datatype(ctx, ty)

    def run(size: int) -> Iterator[Any]:
        yield from _enum_values(ctx, ty, size)
        if not slice_exhaustive(ctx, ty, size):
            yield OUT_OF_FUEL

    return Enumerator(run)


def _enum_values(ctx: Context, ty: TypeExpr, size: int) -> Iterator[Value]:
    dt, ty_args = _require_datatype(ctx, ty)
    for ctor in dt.constructors:
        arg_tys = dt.constructor_arg_types(ctor.name, ty_args)
        if not arg_tys:
            yield Value(ctor.name)
            continue
        if size == 0:
            continue
        yield from (
            Value(ctor.name, args)
            for args in _enum_products(ctx, arg_tys, size - 1)
        )


def _enum_products(
    ctx: Context, arg_tys: tuple[TypeExpr, ...], size: int
) -> Iterator[tuple[Value, ...]]:
    if not arg_tys:
        yield ()
        return
    head_ty, rest = arg_tys[0], arg_tys[1:]
    for head in _enum_values(ctx, head_ty, size):
        for tail in _enum_products(ctx, rest, size):
            yield (head, *tail)


def gen_datatype(ctx: Context, ty: TypeExpr) -> Generator:
    """Sized random generator of inhabitants of *ty*.

    Mirrors QuickChick's derived ``GenSized``: at size 0 only nullary
    constructors are candidates; otherwise all constructors, with
    arguments generated at size − 1.  Returns ``OUT_OF_FUEL`` when no
    constructor is available at this size (but the type is inhabited
    at larger sizes), and ``FAIL`` for genuinely empty types.
    """
    return Generator(datatype_sampler(ctx, ty))


def datatype_sampler(
    ctx: Context, ty: TypeExpr
) -> Callable[[int, random.Random], Any]:
    """The compiled sampler ``draw(size, rng)`` of *ty*, one per
    instantiation per context (``list nat`` and ``list bool`` get
    separate ones).

    Each constructor's argument samplers are resolved when the sampler
    is built, and nullary constructors are returned as shared
    constants.  A draw picks a candidate with ``rng.randrange`` and
    draws its arguments at size − 1; an argument that fails discards
    that constructor and the draw picks again among the rest (the
    candidate list is copied only then).  Recursive types refer to
    their own sampler, so every sampler reachable from *ty* is built
    under ``ctx._derive_lock`` and published only once all of them are
    complete: a racing thread never sees a half-filled table.
    """
    samplers = ctx.artifacts.get("gen_samplers")
    if samplers is not None:
        draw = samplers.get(ty)
        if draw is not None:
            return draw
    with ctx._derive_lock:
        samplers = ctx.artifacts.setdefault("gen_samplers", {})
        draw = samplers.get(ty)
        if draw is None:
            built: dict = {}
            draw = _build_sampler(ctx, ty, samplers, built)
            samplers.update(built)
    return draw


def _build_sampler(ctx: Context, ty: TypeExpr, published: dict, built: dict):
    dt, ty_args = _require_datatype(ctx, ty)
    # Candidates are (constant, ()) for a nullary constructor and
    # (name, argument samplers) otherwise; filled in below, once the
    # sampler itself is in *built* for recursive occurrences to find.
    base = full = ()

    def draw(size: int, rng: random.Random) -> Any:
        cands = base if size == 0 else full
        if not cands:
            return OUT_OF_FUEL if full else FAIL
        entry = cands[rng.randrange(len(cands))]
        subs = entry[1]
        if not subs:
            return entry[0]
        args = []
        for sub in subs:
            v = sub(size - 1, rng)
            if v is FAIL or v is OUT_OF_FUEL:
                return _redraw(cands, entry, v is OUT_OF_FUEL, size, rng)
            args.append(v)
        return Value(entry[0], tuple(args))

    draw.__name__ = draw.__qualname__ = f"sample_{mangle(ty)}"
    built[ty] = draw
    entries = []
    for c in dt.constructors:
        subs = tuple(
            built.get(at)
            or published.get(at)
            or _build_sampler(ctx, at, published, built)
            for at in dt.constructor_arg_types(c.name, ty_args)
        )
        entries.append((c.name, subs) if subs else (Value(c.name), ()))
    full = tuple(entries)
    base = tuple(e for e in full if not e[1])
    return draw


def _redraw(
    cands: tuple, failed: tuple, saw_fuel: bool, size: int, rng: random.Random
) -> Any:
    """The rest of a draw whose first candidate, *failed*, drew an
    argument that was not a value: pick again among the others, each
    discarded in turn, until one succeeds."""
    options = list(cands)
    options.remove(failed)
    while options:
        entry = options[rng.randrange(len(options))]
        name, subs = entry
        if not subs:
            return name
        args = []
        for sub in subs:
            v = sub(size - 1, rng)
            if v is FAIL or v is OUT_OF_FUEL:
                saw_fuel = saw_fuel or v is OUT_OF_FUEL
                break
            args.append(v)
        else:
            return Value(name, tuple(args))
        options.remove(entry)
    return OUT_OF_FUEL if saw_fuel else FAIL

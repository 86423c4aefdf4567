"""Monotonicity-aware memoization for derived checkers and enumerators.

Why this cache is sound (Section 5 of the paper): derived checkers are
*fuel-monotone*:

* a definite answer (``Some true`` / ``Some false``) computed at fuel
  ``f`` is the answer at every fuel ``f' >= f``;
* a ``None`` (out of fuel) at fuel ``f`` implies ``None`` at every
  fuel ``f' <= f``.

So per ground query ``(rel, args)`` the memo table records

* the cheapest definite answer seen and the fuel it was computed at —
  served to any query at fuel **at or above** that bound (by upward
  persistence of definite answers this is *extensionally identical* to
  re-running the checker); and
* the highest fuel at which ``None`` was observed — any query at fuel
  **at or below** that bound short-circuits to ``None`` (by downward
  persistence of ``None``).

With both bounds, the fuel-doubling loop of
:meth:`~repro.derive.api.DerivedChecker.decide` becomes incremental:
repeated ``decide`` calls collapse to a table lookup (a definite answer
is fuel-independent *semantic* information, which is exactly what
``decide`` asks for), and interleaved plain ``check(fuel, ...)`` calls
reuse each other's ``None`` frontier.

Keys carry **no** size/top_size split: only top-level calls (where
``size == top_size == fuel``) go through the table.  Inner ``rec``
invocations depend on ``top_size`` independently of ``size``, so
memoizing them on ``size`` alone would be unsound — they stay direct.

Enumerator calls are deterministic given ``(rel, mode, ins, fuel)``,
so their *slices* are memoized as shared :class:`LazyList`s: the
stream is computed at most once and only as far as any consumer has
demanded.  Random generators are never memoized (their whole point is
fresh randomness); they are only counted.

The layer is wired in at :func:`repro.derive.instances.resolve`, which
wraps ``Instance.fn`` in place, the same way whatever the instance's
source — so the interpreter, the compiled backend's external calls,
the public objects of :mod:`repro.derive.api` (which call
``instance.fn``) and user code that goes through the registry all
share one table per context.  ``register(...,
replace=True)`` invalidates the tables wholesale (cached results may
depend on the replaced instance transitively).

Resource budgets (:mod:`repro.resilience`) interact in three ways: a
checker result computed while the budget's taint stamp moved (a trip
or injected fault) is returned but **never cached** — both fuel bounds
above assume the answer reflects fuel alone; enumerator slices bypass
the cache entirely under an active budget (a truncated slice must not
be served as complete, and lazy sharing would desynchronize fault
replay); and the budget's ``max_cache_entries`` cap is enforced here
at insertion, oldest entry first.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator

from ..core.context import Context
from ..core.values import Value
from ..producers.lazylist import LazyList
from ..producers.option_bool import NONE_OB, OptionBool
from .specialize import canonicalize_args
from .stats import DeriveStats, install_stats, remove_stats, stats_of
from .trace import BUDGET_KEY

MEMO_FLAG = "memo_enabled"
CHECKER_MEMO = "memo_checker"
ENUM_MEMO = "memo_enum"

# Checker memo entries are 3-slot lists:
#   [definite_answer | None, definite_fuel, highest_none_fuel]
_DEF, _DEF_FUEL, _NONE_FUEL = 0, 1, 2


# ---------------------------------------------------------------------------
# Enable / disable / inspect.
# ---------------------------------------------------------------------------

def memoization_enabled(ctx: Context) -> bool:
    return bool(ctx.caches.get(MEMO_FLAG))


def enable_memoization(ctx: Context) -> DeriveStats:
    """Turn on memoization + call statistics for *ctx*.

    All currently registered instances are wrapped; instances resolved
    later are wrapped on the way out of the registry.  Returns the
    (fresh or existing) :class:`DeriveStats` object.
    """
    ctx.caches[MEMO_FLAG] = True
    ctx.caches.setdefault(CHECKER_MEMO, {})
    ctx.caches.setdefault(ENUM_MEMO, {})
    stats = install_stats(ctx)
    for instance in ctx.instances.values():
        wrap_instance(ctx, instance)
    return stats


def disable_memoization(ctx: Context) -> None:
    """Turn memoization off and drop the tables and stats object.

    Wrapped instance functions are restored to their raw callables, so
    the disabled mode has zero per-call overhead.
    """
    ctx.caches[MEMO_FLAG] = False
    ctx.caches.pop(CHECKER_MEMO, None)
    ctx.caches.pop(ENUM_MEMO, None)
    remove_stats(ctx)
    for instance in ctx.instances.values():
        raw = getattr(instance.fn, "__memo_raw__", None)
        if raw is not None:
            instance.fn = raw


def derive_stats(ctx: Context) -> "DeriveStats | None":
    """The context's :class:`DeriveStats`, or ``None`` when disabled."""
    return stats_of(ctx)


def clear_memo(ctx: Context) -> None:
    """Drop all cached answers (keeps memoization enabled)."""
    if CHECKER_MEMO in ctx.caches:
        ctx.caches[CHECKER_MEMO].clear()
    if ENUM_MEMO in ctx.caches:
        ctx.caches[ENUM_MEMO].clear()


def invalidate_memo(ctx: Context, rel: "str | None" = None) -> None:
    """Invalidate cached answers after an instance swap.

    Cached answers for *other* relations may depend on the swapped
    instance through premise calls, so the tables are cleared
    wholesale; *rel* is accepted for future fine-grained policies.
    """
    had_entries = bool(
        ctx.caches.get(CHECKER_MEMO) or ctx.caches.get(ENUM_MEMO)
    )
    clear_memo(ctx)
    stats = stats_of(ctx)
    if stats is not None and had_entries:
        stats.invalidations += 1


# ---------------------------------------------------------------------------
# The checker memo policy.
# ---------------------------------------------------------------------------

def checker_memo_call(
    ctx: Context,
    rel: str,
    args: tuple[Value, ...],
    fuel: int,
    compute: Callable[[], OptionBool],
) -> OptionBool:
    """Run a top-level ground checker call through the memo table.

    Falls through to *compute* (uncounted) when memoization is off.
    """
    caches = ctx.caches
    if not caches.get(MEMO_FLAG):
        return compute()
    stats = caches.get("derive_stats")
    if stats is not None:
        stats.checker_calls += 1
    table = caches.setdefault(CHECKER_MEMO, {})
    # Keys are always the canonical boxed form: a specialized caller
    # holding native ints / nested-pair lists and a boxed caller with
    # the equal Peano / cons terms must share one cache line, never
    # warm two (satellite of ISSUE 6).
    key = (rel, canonicalize_args(args))
    entry = table.get(key)
    if entry is not None:
        definite = entry[_DEF]
        if definite is not None and fuel >= entry[_DEF_FUEL]:
            if stats is not None:
                stats.checker_cache_hits += 1
            return definite
        if fuel <= entry[_NONE_FUEL]:
            if stats is not None:
                stats.checker_cache_hits += 1
            return NONE_OB
    if stats is not None:
        stats.checker_cache_misses += 1
    bud = caches.get(BUDGET_KEY)
    taint0 = bud.taint_stamp() if bud is not None else 0
    result = compute()
    if bud is not None and bud.taint_stamp() != taint0:
        # The computation was interrupted (budget trip or injected
        # fault): its answer reflects the budget, not the fuel, so
        # neither fuel bound may enter the table — a tainted ``None``
        # cached into the none-frontier would mask genuine definite
        # answers at lower fuels on later, un-budgeted calls.
        if stats is not None:
            stats.tainted_memo_skips += 1
        return result
    if entry is None:
        entry = table[key] = [None, 0, -1]
        if (
            bud is not None
            and bud.max_cache_entries is not None
            and len(table) > bud.max_cache_entries
        ):
            _evict_oldest(table, key, bud, stats)
    if result.is_none:
        if stats is not None:
            stats.fuel_exhaustions += 1
        if fuel > entry[_NONE_FUEL]:
            entry[_NONE_FUEL] = fuel
    elif entry[_DEF] is None or fuel < entry[_DEF_FUEL]:
        entry[_DEF] = result
        entry[_DEF_FUEL] = fuel
    return result


def _evict_oldest(table: dict, keep: Any, bud: Any, stats: Any) -> None:
    """Enforce the budget's cache-size cap at insertion: drop
    oldest-inserted entries (dicts preserve insertion order) until the
    cap holds, never evicting the entry just added."""
    for old in list(table):
        if len(table) <= bud.max_cache_entries:
            break
        if old == keep:
            continue
        del table[old]
        bud.evictions += 1
        if stats is not None:
            stats.cache_evictions += 1


def definite_answer(
    ctx: Context, rel: str, args: tuple[Value, ...]
) -> "OptionBool | None":
    """A cached definite answer for ``rel args`` at *any* fuel, if one
    is known.  Fuel-independent: the right query for ``decide``."""
    table = ctx.caches.get(CHECKER_MEMO)
    if not table:
        return None
    entry = table.get((rel, canonicalize_args(args)))
    return entry[_DEF] if entry is not None else None


def decide_fuel_doubling(
    ctx: Context,
    rel: str,
    check: Callable[[int, tuple[Value, ...]], OptionBool],
    args: tuple[Value, ...],
    max_fuel: int,
    start_fuel: int,
) -> OptionBool:
    """The shared ``decide`` loop: doubling fuel until a definite
    answer, short-circuited by the fuel-independent memo lookup."""
    args = tuple(args)
    if ctx.caches.get(MEMO_FLAG):
        cached = definite_answer(ctx, rel, args)
        if cached is not None:
            stats = ctx.caches.get("derive_stats")
            if stats is not None:
                stats.checker_calls += 1
                stats.checker_cache_hits += 1
            return cached
    fuel = start_fuel
    while True:
        result = check(fuel, args)
        if not result.is_none or fuel >= max_fuel:
            return result
        fuel = min(2 * fuel, max_fuel)


# ---------------------------------------------------------------------------
# Instance wrapping (the resolve() integration point).
# ---------------------------------------------------------------------------

def wrap_instance(ctx: Context, instance: Any) -> Any:
    """Wrap ``instance.fn`` in place with the memo layer (idempotent).

    * checkers: ground-call memo table (and a memoized ``__batch__``
      when the raw checker has one);
    * enumerators: shared lazy slice per ``(rel, mode, ins, fuel)``;
    * generators: call counting only (never cached).

    No-op when memoization is disabled for *ctx*.
    """
    if not memoization_enabled(ctx):
        return instance
    fn = instance.fn
    if getattr(fn, "__memo_wrapped__", False):
        return instance
    if instance.kind == "checker":
        instance.fn = _wrap_checker_fn(ctx, instance.rel, fn)
    elif instance.kind == "enum":
        instance.fn = _wrap_enum_fn(ctx, instance.rel, str(instance.mode), fn)
    else:
        instance.fn = _wrap_gen_fn(ctx, fn)
    return instance


def _mark(wrapper: Callable[..., Any], raw: Callable[..., Any]) -> Callable[..., Any]:
    wrapper.__memo_wrapped__ = True
    wrapper.__memo_raw__ = raw
    source = getattr(raw, "__derived_source__", None)
    if source is not None:
        wrapper.__derived_source__ = source
    # Compiled-backend metadata rides along so introspection (source
    # dumps, repr reports) sees through the wrapper.  The raw
    # fixpoints (__spec_rec__/__spec_fast__) and the raw batch entry
    # are deliberately NOT copied: callers that bind them would bypass
    # this memo layer, defeating the table they should share.
    for attr in (
        "__spec_source__",
        "__spec_fast_source__",
        "__spec_reprs__",
    ):
        meta = getattr(raw, attr, None)
        if meta is not None:
            setattr(wrapper, attr, meta)
    return wrapper


def _wrap_checker_fn(ctx: Context, rel: str, raw: Callable[..., Any]):
    def memo_check(fuel: int, args: tuple[Value, ...]) -> OptionBool:
        return checker_memo_call(
            ctx, rel, args, fuel, lambda: raw(fuel, args)
        )

    wrapper = _mark(memo_check, raw)
    raw_batch = getattr(raw, "__batch__", None)
    if raw_batch is not None:

        def memo_batch(fuel: int, argses) -> list:
            # The memo flag is per session: read it once per vector.
            # Off, the raw batch keeps its amortized dispatch; on,
            # every element is a memoized top-level call.
            if not ctx.caches.get(MEMO_FLAG):
                return raw_batch(fuel, argses)
            return [
                checker_memo_call(
                    ctx, rel, args, fuel, partial(raw, fuel, args)
                )
                for args in argses
            ]

        wrapper.__batch__ = memo_batch
    return wrapper


def _wrap_enum_fn(ctx: Context, rel: str, mode: str, raw: Callable[..., Any]):
    def memo_enum(fuel: int, ins: tuple[Value, ...]) -> Iterator[Any]:
        caches = ctx.caches
        if not caches.get(MEMO_FLAG):
            return raw(fuel, ins)
        bud = caches.get(BUDGET_KEY)
        if bud is not None and bud.active:
            # Under a live budget the slice cache is bypassed both
            # ways: a slice truncated by a trip must not be served
            # later as the full enumeration, and lazy sharing would
            # shift charge indices between runs (the first consumer
            # pays, later ones don't), desynchronizing fault replay.
            return raw(fuel, ins)
        stats = caches.get("derive_stats")
        if stats is not None:
            stats.enum_calls += 1
        table = caches.setdefault(ENUM_MEMO, {})
        key = (rel, mode, canonicalize_args(ins), fuel)
        slice_ = table.get(key)
        if slice_ is None:
            if stats is not None:
                stats.enum_cache_misses += 1
            slice_ = table[key] = LazyList.from_iterable(raw(fuel, ins))
        elif stats is not None:
            stats.enum_cache_hits += 1
        return iter(slice_)

    return _mark(memo_enum, raw)


def _wrap_gen_fn(ctx: Context, raw: Callable[..., Any]):
    def counted_gen(fuel: int, ins: tuple[Value, ...], rng: Any) -> Any:
        stats = ctx.caches.get("derive_stats")
        if stats is not None:
            stats.gen_calls += 1
        return raw(fuel, ins, rng)

    return _mark(counted_gen, raw)

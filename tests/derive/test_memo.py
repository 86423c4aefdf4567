"""Tests for the memoization layer and its instrumentation.

Covers the cache policy (definite answers served at or above their
computing fuel; ``None`` served at or below its recorded frontier),
the stats counters, invalidation on instance replacement, and the
regression for ``derive_checker`` discarding handwritten instances.
"""

from __future__ import annotations

import random

import pytest

from repro.core import parse_declarations
from repro.core.values import from_int, from_list, nat_list
from repro.derive import (
    CHECKER,
    ENUM,
    GEN,
    DerivedChecker,
    DerivedEnumerator,
    DerivedGenerator,
    Mode,
    clear_memo,
    derive_checker,
    derive_enumerator,
    derive_generator,
    derive_stats,
    disable_memoization,
    enable_memoization,
    memoization_enabled,
    register_checker,
    register_producer,
)
from repro.derive.instances import lookup, resolve, resolve_compiled_checker
from repro.derive.memo import CHECKER_MEMO, ENUM_MEMO
from repro.producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE
from repro.producers.outcome import FAIL
from repro.stdlib import standard_context

from ..conftest import LIST_RELATIONS, NAT_RELATIONS, STLC_DECLS


def _list_ctx():
    c = standard_context()
    parse_declarations(c, NAT_RELATIONS)
    parse_declarations(c, LIST_RELATIONS)
    return c


def _random_nat_lists(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(0, 6)
        out.append(nat_list([rng.randrange(0, 6) for _ in range(n)]))
    return out


class TestEnableDisable:
    def test_flag_and_stats_lifecycle(self, list_ctx):
        assert not memoization_enabled(list_ctx)
        assert derive_stats(list_ctx) is None
        stats = enable_memoization(list_ctx)
        assert memoization_enabled(list_ctx)
        assert derive_stats(list_ctx) is stats
        disable_memoization(list_ctx)
        assert not memoization_enabled(list_ctx)
        assert derive_stats(list_ctx) is None

    def test_disable_unwraps_instances(self, list_ctx):
        register_checker(list_ctx, "le", lambda fuel, args: SOME_TRUE)
        enable_memoization(list_ctx)
        wrapped = lookup(list_ctx, CHECKER, "le", Mode.checker(2)).fn
        assert getattr(wrapped, "__memo_wrapped__", False)
        disable_memoization(list_ctx)
        raw = lookup(list_ctx, CHECKER, "le", Mode.checker(2)).fn
        assert not getattr(raw, "__memo_wrapped__", False)

    def test_as_dict_and_report(self, list_ctx):
        stats = enable_memoization(list_ctx)
        chk = derive_checker(list_ctx, "Sorted")
        chk(10, nat_list([1, 2]))
        d = stats.as_dict()
        assert d["checker_calls"] >= 1
        assert "cache_hits" in d and "cache_misses" in d
        assert "DeriveStats" in stats.report()
        assert "memo" in stats.report()


class TestCachePolicy:
    def test_repeat_query_hits(self, list_ctx):
        stats = enable_memoization(list_ctx)
        chk = derive_checker(list_ctx, "Sorted")
        v = nat_list([1, 2, 3])
        first = chk(12, v)
        misses = stats.checker_cache_misses
        second = chk(12, v)
        assert first is second
        assert stats.checker_cache_hits >= 1
        assert stats.checker_cache_misses == misses  # no recompute

    def test_definite_served_only_at_or_above_fuel(self, nat_ctx):
        """A definite answer cached at fuel f must not answer a query
        at fuel < f — smaller fuel might legitimately return None, and
        the cache must stay extensionally invisible."""
        stats = enable_memoization(nat_ctx)
        chk = derive_checker(nat_ctx, "le")
        a, b = from_int(3), from_int(5)
        assert chk(10, a, b).is_true  # cached definite at fuel 10
        misses = stats.checker_cache_misses
        low = chk(1, a, b)  # below the computing fuel: recomputed
        assert stats.checker_cache_misses == misses + 1
        # And the recomputed low-fuel answer matches a fresh context.
        fresh = standard_context()
        parse_declarations(fresh, NAT_RELATIONS)
        assert derive_checker(fresh, "le")(1, a, b) is low

    def test_none_frontier_short_circuits_below(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        chk = derive_checker(nat_ctx, "le")
        a, b = from_int(40), from_int(50)
        assert chk(4, a, b).is_none  # records None frontier at 4
        misses = stats.checker_cache_misses
        assert chk(2, a, b).is_none  # below frontier: pure lookup
        assert chk(4, a, b).is_none
        assert stats.checker_cache_misses == misses
        assert stats.checker_cache_hits >= 2

    def test_decide_collapses_to_lookup(self, list_ctx):
        stats = enable_memoization(list_ctx)
        chk = derive_checker(list_ctx, "Sorted")
        v = nat_list([3, 1])
        first = chk.decide((v,))
        assert first.is_false
        misses = stats.checker_cache_misses
        again = chk.decide((v,))
        assert again is first
        assert stats.checker_cache_misses == misses  # pure lookup

    def test_enum_slice_memoized(self, stlc_ctx):
        stats = enable_memoization(stlc_ctx)
        chk = derive_checker(stlc_ctx, "typing")
        # App forces the existential-type enumerator; repeating the
        # same ground query must reuse the enumerator slice.
        term = parse_term_app()
        env = from_list([])
        ty = _ty_n()
        chk(8, env, term, ty)
        chk(8, env, term, ty)
        assert stats.enum_calls >= 1
        assert stats.enum_cache_hits + stats.checker_cache_hits >= 1

    def test_clear_memo_drops_entries(self, list_ctx):
        enable_memoization(list_ctx)
        chk = derive_checker(list_ctx, "Sorted")
        chk(10, nat_list([1, 2]))
        assert list_ctx.caches[CHECKER_MEMO]
        clear_memo(list_ctx)
        assert not list_ctx.caches[CHECKER_MEMO]
        assert not list_ctx.caches[ENUM_MEMO]


def parse_term_app():
    """(App (Abs N (Vart 0)) (Con 1)) — has type N under []."""
    from repro.core.values import V

    return V(
        "App",
        V("Abs", V("N"), V("Vart", V("O"))),
        V("Con", V("S", V("O"))),
    )


def _ty_n():
    from repro.core.values import V

    return V("N")


class TestEquivalence:
    """Memoized and unmemoized checkers agree on every query."""

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_sorted_memo_equivalence(self, backend):
        plain, memo = _list_ctx(), _list_ctx()
        enable_memoization(memo)
        mode = Mode.checker(1)
        plain_fn = resolve(plain, CHECKER, "Sorted", mode, backend=backend).fn
        memo_fn = resolve(memo, CHECKER, "Sorted", mode, backend=backend).fn
        for v in _random_nat_lists(seed=7, count=40):
            for fuel in (1, 2, 4, 8, 16):
                assert plain_fn(fuel, (v,)) is memo_fn(fuel, (v,)), (
                    f"divergence at fuel={fuel} on {v}"
                )

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_le_memo_equivalence(self, backend):
        plain, memo = _list_ctx(), _list_ctx()
        enable_memoization(memo)
        mode = Mode.checker(2)
        plain_fn = resolve(plain, CHECKER, "le", mode, backend=backend).fn
        memo_fn = resolve(memo, CHECKER, "le", mode, backend=backend).fn
        rng = random.Random(13)
        for _ in range(60):
            a, b = from_int(rng.randrange(0, 12)), from_int(rng.randrange(0, 12))
            for fuel in (1, 3, 6, 12, 24):
                assert plain_fn(fuel, (a, b)) is memo_fn(fuel, (a, b))


class TestHandwrittenDelegation:
    """Regression: derive_* must delegate to registered handwritten
    instances instead of silently re-deriving."""

    def test_derive_checker_invokes_handwritten(self, nat_ctx):
        calls = []

        def sentinel(fuel, args):
            calls.append(args)
            return SOME_TRUE

        register_checker(nat_ctx, "le", sentinel)
        chk = derive_checker(nat_ctx, "le")
        assert type(chk) is DerivedChecker
        assert chk.instance.source == "handwritten"
        # `le 9 1` is false; only the sentinel answers Some true, so a
        # true verdict proves the handwritten fn actually ran.
        assert chk(5, from_int(9), from_int(1)).is_true
        assert calls == [(from_int(9), from_int(1))]
        assert chk.decide((from_int(9), from_int(1))).is_true
        assert len(calls) == 2

    def test_handwritten_checker_decide_doubles_fuel(self, nat_ctx):
        fuels = []

        def needs_fuel(fuel, args):
            fuels.append(fuel)
            return SOME_TRUE if fuel >= 8 else NONE_OB

        register_checker(nat_ctx, "le", needs_fuel)
        chk = derive_checker(nat_ctx, "le")
        assert chk.decide((from_int(0), from_int(0))).is_true
        assert fuels == [2, 4, 8]

    def test_derive_enumerator_invokes_handwritten(self, nat_ctx):
        def sentinel_enum(fuel, ins):
            yield (from_int(41),)
            yield (from_int(42),)

        register_producer(
            nat_ctx, ENUM, "le", Mode.from_string("io"), sentinel_enum
        )
        enum = derive_enumerator(nat_ctx, "le", "io")
        assert type(enum) is DerivedEnumerator
        assert enum.instance.source == "handwritten"
        assert enum.values(5, from_int(0)) == [
            (from_int(41),),
            (from_int(42),),
        ]
        assert enum.exhaustive_at(5, from_int(0))

    def test_derive_generator_invokes_handwritten(self, nat_ctx):
        def sentinel_gen(fuel, ins, rng):
            return (from_int(99),)

        register_producer(
            nat_ctx, GEN, "le", Mode.from_string("io"), sentinel_gen
        )
        gen = derive_generator(nat_ctx, "le", "io")
        assert type(gen) is DerivedGenerator
        assert gen.instance.source == "handwritten"
        assert gen(5, from_int(0)) == (from_int(99),)
        assert gen.samples(5, from_int(0), count=3) == [(from_int(99),)] * 3

    def test_handwritten_wrapper_sees_replacement(self, nat_ctx):
        register_checker(nat_ctx, "le", lambda fuel, args: SOME_TRUE)
        chk = derive_checker(nat_ctx, "le")
        assert chk(5, from_int(0), from_int(0)).is_true
        register_checker(
            nat_ctx, "le", lambda fuel, args: SOME_FALSE, replace=True
        )
        # The wrapper delegates to the live instance, not a snapshot.
        assert chk(5, from_int(0), from_int(0)).is_false


class TestReplaceInvalidation:
    def test_replace_purges_compiled_backend_key(self, nat_ctx):
        mode = Mode.checker(2)
        # Compile first: both interp and compiled keys get registered.
        compiled = resolve_compiled_checker(nat_ctx, "le")
        assert compiled(6, (from_int(1), from_int(2))).is_true
        compiled_key = (CHECKER, "le", str(mode), "compiled")
        assert compiled_key in nat_ctx.instances
        register_checker(
            nat_ctx, "le", lambda fuel, args: SOME_FALSE, replace=True
        )
        # Every backend key for (checker, le, ii) is gone...
        assert compiled_key not in nat_ctx.instances
        # ...and re-resolution prefers the new handwritten instance.
        fresh = resolve_compiled_checker(nat_ctx, "le")
        assert fresh(6, (from_int(1), from_int(2))).is_false

    def test_replace_invalidates_memo_tables(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        chk = derive_checker(nat_ctx, "le")
        a, b = from_int(1), from_int(2)
        assert chk(8, a, b).is_true
        assert nat_ctx.caches[CHECKER_MEMO]
        register_checker(
            nat_ctx, "le", lambda fuel, args: SOME_FALSE, replace=True
        )
        assert not nat_ctx.caches[CHECKER_MEMO]
        assert stats.invalidations == 1
        # The replacement is live (and memoized) through derive_checker.
        assert derive_checker(nat_ctx, "le")(8, a, b).is_false

    def test_replace_nonexistent_still_registers(self, nat_ctx):
        inst = register_checker(
            nat_ctx, "le", lambda fuel, args: SOME_TRUE, replace=True
        )
        assert lookup(nat_ctx, CHECKER, "le", Mode.checker(2)) is inst


class TestStatsCounters:
    def test_fuel_exhaustion_counting(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        chk = derive_checker(nat_ctx, "le")
        assert chk(2, from_int(30), from_int(40)).is_none
        assert stats.fuel_exhaustions >= 1

    def test_resolution_counting(self, stlc_ctx):
        stats = enable_memoization(stlc_ctx)
        derive_checker(stlc_ctx, "typing")
        assert stats.external_resolutions > 0

    def test_gen_calls_counted(self, stlc_ctx):
        from repro.core.values import V

        stats = enable_memoization(stlc_ctx)
        derive_generator(stlc_ctx, "typing", "iio")
        rng = random.Random(3)
        # The registered instance fn is wrapped with call counting.
        resolved = resolve(stlc_ctx, GEN, "typing", Mode.from_string("iio"))
        out = resolved.fn(6, (from_list([]), V("Con", V("O"))), rng)
        assert out is not None
        assert stats.gen_calls >= 1


class TestBatchEntry:
    """The compiled checker's amortized ``__batch__`` entry, seen
    through the memo wrapper: it must share the memo table with
    single calls, not bypass it."""

    ARGSES = [(from_int(a), from_int(a + 2)) for a in range(5)]

    def test_batch_hits_the_memo_table(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        fn = resolve_compiled_checker(nat_ctx, "le")
        assert getattr(fn, "__memo_wrapped__", False)
        first = fn.__batch__(16, self.ARGSES)
        assert stats.checker_cache_misses == len(self.ARGSES)
        for _ in range(4):
            assert fn.__batch__(16, self.ARGSES) == first
        assert stats.checker_cache_hits == 4 * len(self.ARGSES)
        assert stats.checker_cache_misses == len(self.ARGSES)
        # Single calls read the entries the batch wrote.
        assert fn(16, self.ARGSES[0]) is first[0]
        assert stats.checker_cache_hits == 4 * len(self.ARGSES) + 1

    def test_batch_answers_match_single_calls(self, nat_ctx):
        enable_memoization(nat_ctx)
        fn = resolve_compiled_checker(nat_ctx, "le")
        argses = self.ARGSES + [(from_int(9), from_int(2))]
        for fuel in (1, 4, 16):
            assert fn.__batch__(fuel, argses) == [
                fn(fuel, args) for args in argses
            ]

    def test_memo_flag_off_takes_the_raw_batch(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        fn = resolve_compiled_checker(nat_ctx, "le")
        nat_ctx.caches["memo_enabled"] = False  # another session's view
        assert fn.__batch__(16, self.ARGSES) == [SOME_TRUE] * len(self.ARGSES)
        assert stats.checker_calls == 0
        assert not nat_ctx.caches[CHECKER_MEMO]

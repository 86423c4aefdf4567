"""The public surface: one class per kind, whatever the instance source.

``derive_checker`` / ``derive_enumerator`` / ``derive_generator`` hand
back :class:`DerivedChecker` / :class:`DerivedEnumerator` /
:class:`DerivedGenerator` for an interpreter-derived, a handwritten and
a ``derive_mutual_checkers`` instance alike.  Each object calls its
registry instance's ``fn`` and follows ``register(..., replace=True)``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import parse_declarations
from repro.core.values import from_int, nat_list
from repro.derive import (
    ENUM,
    GEN,
    DerivedChecker,
    DerivedEnumerator,
    DerivedGenerator,
    Mode,
    derive_checker,
    derive_enumerator,
    derive_generator,
    derive_mutual_checkers,
    enable_memoization,
    profile,
    register_checker,
    register_producer,
)
from repro.derive.instances import resolve_compiled_checker
from repro.producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE
from repro.producers.outcome import OUT_OF_FUEL
from repro.stdlib import standard_context

EVEN_ODD = """
Inductive even : nat -> Prop :=
| even_0 : even 0
| even_S : forall n, odd n -> even (S n)
with odd : nat -> Prop :=
| odd_S : forall n, even n -> odd (S n).
"""


def _unnat(v) -> int:
    n = 0
    while v.ctor == "S":
        v, n = v.args[0], n + 1
    return n


# -- handwritten instances ----------------------------------------------------


def _hand_le(fuel, args):
    if fuel == 0:
        return NONE_OB
    return SOME_TRUE if _unnat(args[0]) <= _unnat(args[1]) else SOME_FALSE


def _hand_le_enum(fuel, ins):
    # le ? n  (mode "oi"): every m <= n.
    for m in range(_unnat(ins[0]) + 1):
        yield (from_int(m),)


def _hand_le_gen(fuel, ins, rng):
    return (from_int(rng.randrange(_unnat(ins[0]) + 1)),)


# -- one context per source ---------------------------------------------------


def _checker_ctx(source: str):
    """A context whose ``le`` (or ``even``) checker comes from *source*;
    returns ``(ctx, rel, argument vectors)``."""
    ctx = standard_context()
    if source == "mutual":
        parse_declarations(ctx, EVEN_ODD)
        derive_mutual_checkers(ctx, ["even", "odd"])
        return ctx, "even", [(from_int(n),) for n in range(7)]
    parse_declarations(ctx, """
    Inductive le : nat -> nat -> Prop :=
    | le_n : forall n, le n n
    | le_S : forall n m, le n m -> le n (S m).
    """)
    if source == "handwritten":
        register_checker(ctx, "le", _hand_le)
    cases = [(from_int(a), from_int(b)) for a in range(4) for b in range(4)]
    return ctx, "le", cases


def _producer_ctx(source: str, kind: str):
    ctx, _, _ = _checker_ctx("derived")
    if source == "handwritten":
        fn = _hand_le_enum if kind == ENUM else _hand_le_gen
        register_producer(ctx, kind, "le", Mode.from_string("oi"), fn)
    return ctx


CHECKER_SOURCES = ["derived", "handwritten", "mutual"]
PRODUCER_SOURCES = ["derived", "handwritten"]
REGISTERED = {"derived": "derived", "handwritten": "handwritten",
              "mutual": "derived-mutual"}


class TestOneSurface:
    @pytest.mark.parametrize("source", CHECKER_SOURCES)
    def test_checker_methods_answer_as_instance_fn(self, source):
        ctx, rel, cases = _checker_ctx(source)
        chk = derive_checker(ctx, rel)
        assert type(chk) is DerivedChecker
        assert chk.instance.source == REGISTERED[source]
        fn = chk.instance.fn
        for fuel in (0, 1, 3, 12):
            want = [fn(fuel, args) for args in cases]
            assert [chk(fuel, *args) for args in cases] == want
            assert [chk.check(fuel, args) for args in cases] == want
            assert chk.check_batch(fuel, cases) == want
        for args in cases:
            assert chk.decide(args) is fn(64, args)
        if source == "handwritten":
            assert chk.plan is None
        else:
            assert chk.plan.rel == rel

    @pytest.mark.parametrize("source", PRODUCER_SOURCES)
    def test_enumerator_methods_answer_as_instance_fn(self, source):
        ctx = _producer_ctx(source, ENUM)
        enum = derive_enumerator(ctx, "le", "oi")
        assert type(enum) is DerivedEnumerator
        assert enum.instance.source == source
        fn = enum.instance.fn
        for fuel in (0, 2, 8):
            n = (from_int(3),)
            items = list(fn(fuel, n))
            assert list(enum(fuel, *n)) == items
            assert list(enum.enum_st(fuel, n)) == items
            assert enum.values(fuel, *n) == [x for x in items if x is not OUT_OF_FUEL]
            assert enum.exhaustive_at(fuel, *n) == (OUT_OF_FUEL not in items)
        assert (enum.plan is None) == (source == "handwritten")

    @pytest.mark.parametrize("source", PRODUCER_SOURCES)
    def test_generator_methods_answer_as_instance_fn(self, source):
        ctx = _producer_ctx(source, GEN)
        gen = derive_generator(ctx, "le", "oi")
        assert type(gen) is DerivedGenerator
        assert gen.instance.source == source
        fn = gen.instance.fn
        n = (from_int(5),)
        rng_a, rng_b = random.Random(4), random.Random(4)
        draws = [fn(8, n, rng_a) for _ in range(20)]
        assert [gen(8, *n, rng=rng_b) for _ in range(10)] == draws[:10]
        assert [gen.gen_st(8, n, rng_b) for _ in range(10)] == draws[10:]
        rng = random.Random(9)
        want = []
        while len(want) < 5:
            x = fn(8, n, rng)
            if isinstance(x, tuple):
                want.append(x)
        assert gen.samples(8, *n, count=5, seed=9) == want
        assert (gen.plan is None) == (source == "handwritten")

    def test_plain_methods_on_classes_without_slots(self):
        # Callers may shadow a method per object (the benchmark suite's
        # traced mode does) and pop it again.
        for cls, names in (
            (DerivedChecker, ("check", "check_batch", "decide")),
            (DerivedEnumerator, ("enum_st", "values", "exhaustive_at")),
            (DerivedGenerator, ("gen_st", "samples")),
        ):
            assert not hasattr(cls, "__slots__")
            for name in names:
                assert callable(cls.__dict__[name])


class TestReplacement:
    @pytest.mark.parametrize("source", CHECKER_SOURCES)
    def test_held_checker_follows_replace(self, source):
        ctx, rel, cases = _checker_ctx(source)
        chk = derive_checker(ctx, rel)
        args = cases[0]
        assert chk(8, *args).is_true
        register_checker(ctx, rel, lambda fuel, a: SOME_FALSE, replace=True)
        assert chk(8, *args).is_false
        assert chk.check_batch(8, [args]) == [SOME_FALSE]
        assert chk.instance.source == "handwritten"
        assert chk.plan is None

    @pytest.mark.parametrize("source", PRODUCER_SOURCES)
    def test_held_enumerator_follows_replace(self, source):
        ctx = _producer_ctx(source, ENUM)
        enum = derive_enumerator(ctx, "le", "oi")
        assert sorted(_unnat(t[0]) for t in enum.values(8, from_int(1))) == [0, 1]

        def sentinel(fuel, ins):
            yield (from_int(41),)

        register_producer(
            ctx, ENUM, "le", Mode.from_string("oi"), sentinel, replace=True
        )
        assert enum.values(8, from_int(1)) == [(from_int(41),)]

    @pytest.mark.parametrize("source", PRODUCER_SOURCES)
    def test_held_generator_follows_replace(self, source):
        ctx = _producer_ctx(source, GEN)
        gen = derive_generator(ctx, "le", "oi")
        assert _unnat(gen(8, from_int(3), rng=random.Random(1))[0]) <= 3
        register_producer(
            ctx, GEN, "le", Mode.from_string("oi"),
            lambda fuel, ins, rng: (from_int(99),), replace=True,
        )
        assert gen(8, from_int(3)) == (from_int(99),)
        assert gen.samples(8, from_int(3), count=2) == [(from_int(99),)] * 2

    def test_replacement_elsewhere_keeps_the_instance(self):
        ctx, rel, cases = _checker_ctx("derived")
        chk = derive_checker(ctx, rel)
        before = chk.instance
        parse_declarations(ctx, "Inductive z : nat -> Prop := | z0 : z 0.")
        register_checker(ctx, "z", lambda fuel, a: SOME_TRUE)
        assert chk.instance is before


class TestBatch:
    def test_handwritten_check_batch(self, nat_ctx):
        register_checker(nat_ctx, "le", _hand_le)
        chk = derive_checker(nat_ctx, "le")
        cases = [(from_int(a), from_int(b)) for a, b in ((0, 1), (3, 2), (2, 2))]
        assert chk.check_batch(5, cases) == [SOME_TRUE, SOME_FALSE, SOME_TRUE]

    def test_check_batch_uses_the_batch_entry(self, nat_ctx):
        calls = []

        def fn(fuel, args):
            return SOME_TRUE

        def batch(fuel, argses):
            calls.append(len(argses))
            return [SOME_FALSE] * len(argses)

        fn.__batch__ = batch
        register_checker(nat_ctx, "le", fn)
        chk = derive_checker(nat_ctx, "le")
        pair = (from_int(0), from_int(0))
        assert chk.check_batch(5, [pair, pair]) == [SOME_FALSE, SOME_FALSE]
        assert calls == [2]

    def test_memoized_check_batch_fills_the_table(self, nat_ctx):
        stats = enable_memoization(nat_ctx)
        chk = derive_checker(nat_ctx, "le")
        pair = (from_int(1), from_int(2))
        assert chk.check_batch(6, [pair, pair]) == [SOME_TRUE, SOME_TRUE]
        assert stats.checker_cache_misses == 1
        assert stats.checker_cache_hits == 1


class TestIdempotent:
    def test_same_object_per_kind_rel_mode(self, nat_ctx):
        assert derive_checker(nat_ctx, "le") is derive_checker(nat_ctx, "le")
        assert derive_enumerator(nat_ctx, "le", "oi") is derive_enumerator(
            nat_ctx, "le", [0]
        )
        assert derive_generator(nat_ctx, "le", "oi") is derive_generator(
            nat_ctx, "le", "oi"
        )
        assert derive_enumerator(nat_ctx, "le", "oi") is not derive_enumerator(
            nat_ctx, "le", "io"
        )

    def test_same_object_across_registration(self, nat_ctx):
        chk = derive_checker(nat_ctx, "le")
        register_checker(nat_ctx, "le", _hand_le, replace=True)
        assert derive_checker(nat_ctx, "le") is chk

    def test_mutual_group_objects_are_derive_checkers(self):
        ctx = standard_context()
        parse_declarations(ctx, EVEN_ODD)
        checkers = derive_mutual_checkers(ctx, ["even", "odd"])
        for rel, chk in checkers.items():
            assert type(chk) is DerivedChecker
            assert derive_checker(ctx, rel) is chk

    def test_forked_context_has_its_own_objects(self, nat_ctx):
        chk = derive_checker(nat_ctx, "le")
        other = derive_checker(nat_ctx.fork(), "le")
        assert other is not chk
        assert other(5, from_int(1), from_int(2)).is_true


class TestHandlerCounts:
    def test_handler_and_backtrack_counting(self, list_ctx):
        # The trace counts handler attempts and backtracks on both
        # backends; the two agree on the same query.
        xs = nat_list([2, 1])  # unsorted: handlers fail
        chk = derive_checker(list_ctx, "Sorted")
        compiled = resolve_compiled_checker(list_ctx, "Sorted")
        rows = []
        for run in (lambda: chk(10, xs), lambda: compiled(10, (xs,))):
            with profile(list_ctx) as tr:
                assert run().is_false
            entries = {k: e for k, e in tr.entries.items() if k[1] == "Sorted"}
            attempts = sum(e[0] for e in entries.values())
            backtracks = sum(e[2] for e in entries.values())
            assert attempts > 0 and backtracks > 0
            rows.append(entries)
        assert rows[0] == rows[1]

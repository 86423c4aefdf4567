"""Tests for mixed binds and unconstrained datatype producers."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.types import BOOL, NAT, Ty
from repro.core.values import Value, to_int
from repro.producers.combinators import (
    bind_CE,
    bind_CG,
    bind_EC,
    datatype_sampler,
    enum_datatype,
    gen_datatype,
    slice_exhaustive,
)
from repro.producers.enumerators import Enumerator
from repro.producers.generators import Generator
from repro.producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE
from repro.producers.outcome import FAIL, OUT_OF_FUEL, is_value
from repro.stdlib import standard_context


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


class TestBindEC:
    def test_finds_witness(self):
        result = bind_EC(
            iter([1, 2, 3]), lambda x: SOME_TRUE if x == 2 else SOME_FALSE
        )
        assert result is SOME_TRUE

    def test_complete_search_gives_false(self):
        assert bind_EC(iter([1, 2]), lambda x: SOME_FALSE) is SOME_FALSE

    def test_fuel_marker_prevents_false(self):
        result = bind_EC(iter([1, OUT_OF_FUEL]), lambda x: SOME_FALSE)
        assert result is NONE_OB

    def test_none_continuation_prevents_false(self):
        result = bind_EC(iter([1, 2]), lambda x: NONE_OB)
        assert result is NONE_OB

    def test_short_circuits_on_witness(self):
        seen = []

        def k(x):
            seen.append(x)
            return SOME_TRUE

        bind_EC(iter([1, 2, 3]), k)
        assert seen == [1]

    def test_empty_enumeration_is_false(self):
        assert bind_EC(iter(()), lambda x: SOME_TRUE) is SOME_FALSE


class TestBindCE_CG:
    def test_true_continues(self):
        e = bind_CE(SOME_TRUE, lambda: Enumerator.from_values([1]))
        assert list(e.run(0)) == [1]

    def test_false_is_fail(self):
        assert list(bind_CE(SOME_FALSE, lambda: Enumerator.ret(1)).run(0)) == []

    def test_none_is_fuel(self):
        assert list(bind_CE(NONE_OB, lambda: Enumerator.ret(1)).run(0)) == [
            OUT_OF_FUEL
        ]

    def test_generator_variants(self):
        rng = random.Random(0)
        assert bind_CG(SOME_TRUE, lambda: Generator.ret(5)).run(0, rng) == 5
        assert not is_value(bind_CG(SOME_FALSE, lambda: Generator.ret(5)).run(0, rng))
        assert bind_CG(NONE_OB, lambda: Generator.ret(5)).run(0, rng) is OUT_OF_FUEL


class TestSliceExhaustive:
    def test_finite_types(self, ctx):
        assert slice_exhaustive(ctx, BOOL, 0)
        assert slice_exhaustive(ctx, Ty("unit"), 0)

    def test_nested_finite_needs_depth(self, ctx):
        opt_bool = Ty("option", (BOOL,))
        assert not slice_exhaustive(ctx, opt_bool, 0)
        assert slice_exhaustive(ctx, opt_bool, 1)

    def test_recursive_types_never_exhaust(self, ctx):
        assert not slice_exhaustive(ctx, NAT, 50)
        assert not slice_exhaustive(ctx, Ty("list", (BOOL,)), 50)


class TestEnumDatatype:
    def test_nat_sizes(self, ctx):
        e = enum_datatype(ctx, NAT)
        assert sorted(to_int(v) for v in e.outcomes(4)) == [0, 1, 2, 3, 4]

    def test_fuel_marker_for_infinite(self, ctx):
        e = enum_datatype(ctx, NAT)
        assert not e.complete_at(4)

    def test_no_marker_when_exhaustive(self, ctx):
        e = enum_datatype(ctx, BOOL)
        assert e.complete_at(0)
        assert e.outcomes(0) == {Value("true"), Value("false")}

    def test_monotone_in_size(self, ctx):
        e = enum_datatype(ctx, Ty("list", (BOOL,)))
        assert e.outcomes(1) <= e.outcomes(2) <= e.outcomes(3)

    def test_depth_bound(self, ctx):
        e = enum_datatype(ctx, Ty("list", (NAT,)))
        assert all(v.depth() <= 4 for v in e.outcomes(3))

    def test_no_duplicates(self, ctx):
        e = enum_datatype(ctx, Ty("option", (NAT,)))
        items = [v for v in e.run(3) if is_value(v)]
        assert len(items) == len(set(items))


class TestGenDatatype:
    def test_values_well_typed(self, ctx):
        g = gen_datatype(ctx, Ty("list", (NAT,)))
        for v in g.sample_values(4, 50, seed=0):
            assert ctx.datatypes.check_value(v, Ty("list", (NAT,)))

    def test_depth_bound(self, ctx):
        g = gen_datatype(ctx, NAT)
        for v in g.sample_values(3, 50, seed=1):
            assert v.depth() <= 4

    def test_size_zero_only_nullary(self, ctx):
        g = gen_datatype(ctx, NAT)
        assert set(g.sample_values(0, 20, seed=2)) == {Value("O")}

    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=0, max_value=2**31))
    def test_gen_within_enum_outcomes(self, ctx, seed):
        """Generated values always lie in the enumerator's outcome set
        at the same size (shared possibilistic semantics)."""
        size = 3
        ty = Ty("option", (BOOL,))
        allowed = enum_datatype(ctx, ty).outcomes(size)
        v = gen_datatype(ctx, ty).run(size, random.Random(seed))
        assert v in allowed


# ---------------------------------------------------------------------------
# Compiled samplers.
# ---------------------------------------------------------------------------


def reference_gen_value(ctx, ty, size, rng):
    """The table-walking sampler the compiled ones replaced, kept as
    the reference for their draws: constructor tables resolved per
    call, a fresh candidate list per draw, ``rng.randrange`` to pick."""
    dt = ctx.datatypes.get(ty.name)
    full = [(c.name, dt.constructor_arg_types(c.name, ty.args)) for c in dt.constructors]
    base = [e for e, c in zip(full, dt.constructors) if not c.arg_types]
    candidates = base if size == 0 else full
    if not candidates:
        return OUT_OF_FUEL if full else FAIL
    options = list(candidates)
    saw_fuel = False
    while options:
        ctor = options[rng.randrange(len(options))]
        name, arg_tys = ctor
        args = []
        failed = False
        for at in arg_tys:
            sub = reference_gen_value(ctx, at, size - 1, rng)
            if not is_value(sub):
                saw_fuel = saw_fuel or sub is OUT_OF_FUEL
                failed = True
                break
            args.append(sub)
        if not failed:
            return Value(name, tuple(args))
        options.remove(ctor)
    return OUT_OF_FUEL if saw_fuel else FAIL


def sampled_types(ctx):
    """Every datatype of *ctx*, a parametric one once per monomorphic
    type of *ctx* in every parameter, plus a nested and a mixed
    instantiation."""
    monos = [Ty(d.name) for d in ctx.datatypes if not d.params]
    return monos + [
        Ty(d.name, (m,) * len(d.params))
        for d in ctx.datatypes if d.params for m in monos
    ] + [Ty("list", (Ty("list", (NAT,)),)), Ty("prod", (NAT, BOOL))]


def parity_contexts():
    """The standard library's types, then each case study's own."""
    from repro.casestudies import bst, ifc, stlc

    std = standard_context()
    std_types = sampled_types(std)
    yield "stdlib", std, std_types
    for mod in (bst, stlc, ifc):
        ctx = mod.make_context()
        yield mod.__name__, ctx, [
            t for t in sampled_types(ctx) if t not in std_types
        ]


class TestDatatypeSampler:
    def test_parity_with_reference_draws(self):
        """Same values, same RNG state after every draw: every datatype
        of the standard library and the case studies, sizes 0-6, 200
        seeds each."""
        for label, ctx, types in parity_contexts():
            assert types, label
            for ty in types:
                draw = datatype_sampler(ctx, ty)
                for size in range(7):
                    for seed in range(200):
                        ra, rb = random.Random(seed), random.Random(seed)
                        want = reference_gen_value(ctx, ty, size, ra)
                        got = draw(size, rb)
                        assert got == want, (label, ty, size, seed)
                        assert ra.getstate() == rb.getstate(), (label, ty, size, seed)

    def test_empty_and_nullary_free_types(self):
        from repro.core import parse_declarations

        ctx = standard_context()
        parse_declarations(ctx, """
        Inductive void : Type := .
        Inductive stream : Type :=
        | SCons : nat -> stream -> stream.
        Inductive wrap : Type :=
        | W : void -> wrap.
        """)
        rng = random.Random(0)
        for size in range(5):
            assert datatype_sampler(ctx, Ty("void"))(size, rng) is FAIL
            assert datatype_sampler(ctx, Ty("stream"))(size, rng) is OUT_OF_FUEL
        wrap = datatype_sampler(ctx, Ty("wrap"))
        assert wrap(0, rng) is OUT_OF_FUEL  # no nullary constructor
        assert wrap(3, rng) is FAIL  # its only constructor needs a void

    def test_one_sampler_per_instantiation(self):
        ctx = standard_context()
        nats = datatype_sampler(ctx, Ty("list", (NAT,)))
        bools = datatype_sampler(ctx, Ty("list", (BOOL,)))
        assert nats is not bools
        assert datatype_sampler(ctx, Ty("list", (NAT,))) is nats
        rng = random.Random(3)
        for _ in range(50):
            assert ctx.datatypes.check_value(nats(4, rng), Ty("list", (NAT,)))
            assert ctx.datatypes.check_value(bools(4, rng), Ty("list", (BOOL,)))

    def test_nullary_constructors_are_shared_constants(self):
        ctx = standard_context()
        draw = datatype_sampler(ctx, NAT)
        zeros = [draw(0, random.Random(s)) for s in range(5)]
        assert all(z is zeros[0] for z in zeros)

    def test_racing_first_use_sees_complete_samplers(self, monkeypatch):
        """8 threads ask for a recursive type's sampler at once, with
        the build slowed down: each gets the one complete sampler, and
        draws what a sampler built alone draws."""
        import sys
        import threading
        import time

        from repro.core.datatypes import DataType

        ty = Ty("list", (Ty("option", (NAT,)),))
        alone = datatype_sampler(standard_context(), ty)
        want = [alone(5, random.Random(s)) for s in range(40)]
        real = DataType.constructor_arg_types

        def slow(self, name, type_args=()):
            time.sleep(0.002)
            return real(self, name, type_args)

        monkeypatch.setattr(DataType, "constructor_arg_types", slow)
        ctx = standard_context()
        barrier = threading.Barrier(8)
        got, errors = [], []

        def worker():
            barrier.wait()
            try:
                draw = datatype_sampler(ctx, ty)
                got.append((draw, [draw(5, random.Random(s)) for s in range(40)]))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(got) == 8
        assert len({id(draw) for draw, _ in got}) == 1
        assert all(values == want for _, values in got)

"""Behavioral tests for derived enumerators and generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import V, from_int, from_list, nat_list, to_int, to_list
from repro.derive import derive_checker, derive_enumerator, derive_generator
from repro.producers.outcome import FAIL, OUT_OF_FUEL, is_value
from repro.semantics import derivable


class TestLeEnumerators:
    def test_mode_oi_enumerates_smaller(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        outs = {to_int(t[0]) for t in en.values(10, from_int(3))}
        assert outs == {0, 1, 2, 3}

    def test_mode_oi_exhaustive_no_marker(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        assert en.exhaustive_at(10, from_int(3))

    def test_mode_io_enumerates_larger_with_marker(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "io")
        items = list(en(6, from_int(2)))
        values = {to_int(t[0]) for t in items if is_value(t)}
        assert values == set(range(2, 2 + 7))
        assert OUT_OF_FUEL in items  # infinitely many more exist

    def test_fuel_zero(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        items = list(en(0, from_int(2)))
        # Only the base rule (le_n) applies; recursion is cut.
        assert OUT_OF_FUEL in items

    def test_monotone_outcomes(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "io")
        small = {t for t in en(3, from_int(1)) if is_value(t)}
        large = {t for t in en(6, from_int(1)) if is_value(t)}
        assert small <= large


class TestSquareRoots:
    def test_forward_mode_deterministic(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "square_of", "io")
        assert [to_int(t[0]) for t in en.values(5, from_int(3))] == [9]
        assert en.exhaustive_at(5, from_int(3))

    def test_inverse_mode_enumerates_roots(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "square_of", "oi")
        assert [to_int(t[0]) for t in en.values(10, from_int(9))] == [3]
        assert [to_int(t[0]) for t in en.values(10, from_int(10))] == []


class TestSortedProducers:
    def test_enumerated_lists_are_sorted(self, list_ctx):
        en = derive_enumerator(list_ctx, "Sorted", "o")
        for (lst,) in en.values(3):
            xs = [to_int(x) for x in to_list(lst)]
            assert xs == sorted(xs)

    def test_enumeration_contains_all_small_sorted_lists(self, list_ctx):
        en = derive_enumerator(list_ctx, "Sorted", "o")
        produced = {tuple(to_int(x) for x in to_list(t[0])) for t in en.values(3)}
        import itertools

        for xs in itertools.product(range(2), repeat=2):
            if list(xs) == sorted(xs):
                assert tuple(xs) in produced

    def test_generated_lists_are_sorted(self, list_ctx):
        gen = derive_generator(list_ctx, "Sorted", "o")
        for (lst,) in gen.samples(6, count=100, seed=5):
            xs = [to_int(x) for x in to_list(lst)]
            assert xs == sorted(xs)

    def test_generator_reproducible(self, list_ctx):
        gen = derive_generator(list_ctx, "Sorted", "o")
        a = gen.samples(5, count=10, seed=42)
        b = gen.samples(5, count=10, seed=42)
        assert a == b


class TestSTLCProducers:
    @pytest.fixture(autouse=True)
    def _setup(self, stlc_ctx):
        self.ctx = stlc_ctx
        self.chk = derive_checker(stlc_ctx, "typing")
        self.empty = from_list([])
        self.N = V("N")

    def test_type_inference_enumerator(self):
        en = derive_enumerator(self.ctx, "typing", "iio")
        identity = V("Abs", self.N, V("Vart", from_int(0)))
        types = [t for (t,) in en.values(6, self.empty, identity)]
        assert types == [V("Arr", self.N, self.N)]

    def test_inference_of_untypeable_term(self):
        en = derive_enumerator(self.ctx, "typing", "iio")
        bad = V("App", V("Con", from_int(1)), V("Con", from_int(2)))
        assert en.values(6, self.empty, bad) == []

    def test_generated_terms_typecheck(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        count = 0
        for (e,) in gen.samples(6, self.empty, self.N, count=60, seed=3):
            assert self.chk(30, self.empty, e, self.N).is_true
            count += 1
        assert count == 60

    def test_generated_function_terms_typecheck(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        ty = V("Arr", self.N, self.N)
        for (e,) in gen.samples(6, self.empty, ty, count=30, seed=4):
            assert self.chk(40, self.empty, e, ty).is_true

    def test_enumerated_terms_typecheck_and_cover(self):
        en = derive_enumerator(self.ctx, "typing", "ioi")
        terms = [e for (e,) in en.values(2, self.empty, self.N)]
        assert V("Con", from_int(0)) in terms
        for e in terms[:50]:
            assert self.chk(20, self.empty, e, self.N).is_true

    def test_generation_in_nonempty_context_uses_variables(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        env = from_list([self.N])
        seen_var = False
        for (e,) in gen.samples(4, env, self.N, count=150, seed=9):
            if "Vart" in str(e):
                seen_var = True
        assert seen_var


class TestLookupProducers:
    def test_lookup_enumerates_bindings(self, stlc_ctx):
        en = derive_enumerator(stlc_ctx, "lookup", "ioo")
        env = from_list([V("N"), V("Arr", V("N"), V("N"))])
        pairs = {(to_int(i), str(t)) for (i, t) in en.values(5, env)}
        assert pairs == {(0, "N"), (1, "Arr N N")}
        assert en.exhaustive_at(5, env)


class TestMultipleOutputs:
    """The §8 extension: producer modes with several outputs."""

    def test_le_both_outputs(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oo")
        pairs = {(to_int(a), to_int(b)) for (a, b) in en.values(3)}
        assert all(a <= b for a, b in pairs)
        assert (0, 0) in pairs and (0, 1) in pairs

    def test_typing_term_and_type(self, stlc_ctx):
        en = derive_enumerator(stlc_ctx, "typing", "ioo")
        chk = derive_checker(stlc_ctx, "typing")
        empty = from_list([])
        found = 0
        for item in en(2, empty):
            if not is_value(item):
                continue
            e, t = item
            assert chk(20, empty, e, t).is_true
            found += 1
            if found >= 25:
                break
        assert found >= 10


def chooser_site(ctx, op):
    from repro.derive.plan import linear_premise

    return linear_premise(ctx, op[6], op[7])


class TestChooserSites:
    """The interpreter's enumerate-then-choose at linear premises (the
    compiled twin is tested in ``test_codegen.py``)."""

    @pytest.fixture(autouse=True)
    def _setup(self, stlc_ctx):
        from repro.core import parse_declarations

        from .test_codegen import CHOOSER_DECLS

        parse_declarations(stlc_ctx, CHOOSER_DECLS)
        self.ctx = stlc_ctx

    @staticmethod
    def _premise_ops(ctx, rel, mode):
        from repro.derive.modes import Mode
        from repro.derive.plan import OP_EVALREL, OP_PRODUCE, lower_schedule
        from repro.derive.scheduler import build_schedule

        plan = lower_schedule(ctx, build_schedule(ctx, rel, Mode.from_string(mode)))
        return [
            op for h in plan.handlers for op in h.ops
            if op[0] in (OP_PRODUCE, OP_EVALREL) and not op[5]
        ]

    def test_chosen_answers_are_enumerated(self):
        from .test_codegen import CHOOSER_INPUTS

        gen = derive_generator(self.ctx, "pick_var", "iio")
        enum = derive_enumerator(self.ctx, "lookup", "ioi")
        for ins in CHOOSER_INPUTS:
            for fuel in range(5):
                items = list(enum(fuel, *ins))
                answers = [x for x in items if x is not OUT_OF_FUEL]
                chosen = {gen(fuel, *ins, rng=random.Random(s)) for s in range(60)}
                if answers:
                    assert chosen == set(answers)
                else:
                    marker = OUT_OF_FUEL if OUT_OF_FUEL in items else FAIL
                    assert chosen == {marker}

    def test_nonlinear_premises_keep_generator_path(self):
        from repro.casestudies import ifc

        (lookup_op,) = self._premise_ops(self.ctx, "typing", "ioi")
        assert chooser_site(self.ctx, lookup_op)
        (two_way_op,) = self._premise_ops(self.ctx, "pick_two", "io")
        assert not chooser_site(self.ctx, two_way_op)
        (both_op,) = self._premise_ops(self.ctx, "pick_both", "iioo")
        assert not chooser_site(self.ctx, both_op)
        ictx = ifc.make_context()
        (atom_op,) = self._premise_ops(ictx, "indist_list", "io")
        assert not chooser_site(ictx, atom_op)

    def test_registered_generator_still_called(self):
        from repro.derive import register_producer
        from repro.derive.instances import GEN
        from repro.derive.modes import Mode

        calls = []

        def hand_lookup(fuel, ins, rng):
            env, ty = ins
            hits = [i for i, t in enumerate(to_list(env)) if t == ty]
            calls.append(ins)
            return (from_int(rng.choice(hits)),) if hits else FAIL

        ioi = Mode.from_string("ioi")
        register_producer(self.ctx, GEN, "lookup", ioi, hand_lookup, replace=True)
        gen = derive_generator(self.ctx, "typing", "ioi")
        (lookup_op,) = self._premise_ops(self.ctx, "typing", "ioi")
        assert not chooser_site(self.ctx, lookup_op)
        env = from_list([V("N"), V("Arr", V("N"), V("N"))])
        for seed in range(40):
            gen(4, env, V("N"), rng=random.Random(seed))
        assert calls

"""Tests for the compiled backend: semantics must match the interpreter."""

import random

import pytest

from repro.core import parse_declarations
from repro.core.values import V, from_int, from_list, nat_list
from repro.derive import Mode
from repro.derive.instances import CHECKER, ENUM, GEN, resolve, resolve_compiled
from repro.producers.outcome import FAIL, OUT_OF_FUEL, is_value


def checker_pair(ctx, rel):
    arity = ctx.relations.get(rel).arity
    interp = resolve(ctx, CHECKER, rel, Mode.checker(arity)).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity))
    return interp, compiled


class TestCompiledCheckers:
    def test_le_agreement(self, nat_ctx):
        interp, compiled = checker_pair(nat_ctx, "le")
        for a in range(7):
            for b in range(7):
                for fuel in (0, 1, 3, 10):
                    args = (from_int(a), from_int(b))
                    assert interp(fuel, args) is compiled(fuel, args)

    def test_square_of_agreement(self, nat_ctx):
        interp, compiled = checker_pair(nat_ctx, "square_of")
        for a in range(5):
            for b in range(20):
                args = (from_int(a), from_int(b))
                assert interp(8, args) is compiled(8, args)

    def test_sorted_agreement(self, list_ctx):
        interp, compiled = checker_pair(list_ctx, "Sorted")
        cases = [[], [1], [1, 2, 3], [3, 1], [0, 0], [2, 2, 1]]
        for xs in cases:
            for fuel in (0, 2, 12):
                args = (nat_list(xs),)
                assert interp(fuel, args) is compiled(fuel, args)

    def test_replace_after_compile_reaches_spliced_premise(self, stlc_ctx):
        """``typing`` splices its ``lookup`` premise at compile time;
        replacing the ``lookup`` checker afterwards must reach the
        compiled caller as it reaches the interpreter."""
        from repro.derive import register_checker
        from repro.producers.option_bool import SOME_FALSE

        args = (from_list([V("N")]), V("Vart", from_int(0)), V("N"))
        _, compiled = checker_pair(stlc_ctx, "typing")
        assert compiled(5, args).is_true
        register_checker(
            stlc_ctx, "lookup", lambda fuel, args: SOME_FALSE, replace=True
        )
        interp, compiled = checker_pair(stlc_ctx, "typing")
        assert interp(5, args) is compiled(5, args) is SOME_FALSE

    def test_stlc_agreement_including_existentials(self, stlc_ctx):
        interp, compiled = checker_pair(stlc_ctx, "typing")
        N = V("N")
        empty = from_list([])
        terms = [
            (V("Con", from_int(1)), N),
            (V("App", V("Abs", N, V("Vart", from_int(0))), V("Con", from_int(2))), N),
            (V("App", V("Con", from_int(1)), V("Con", from_int(2))), N),
            (V("Abs", N, V("Vart", from_int(0))), V("Arr", N, N)),
        ]
        for e, t in terms:
            for fuel in (1, 4, 10):
                args = (empty, e, t)
                assert interp(fuel, args) is compiled(fuel, args)

    def test_zero_relation_fuel_semantics(self, zero_ctx):
        interp, compiled = checker_pair(zero_ctx, "zero")
        for fuel in (1, 4, 16):
            assert compiled(fuel, (from_int(5),)).is_none
            assert compiled(fuel, (from_int(0),)).is_true

    def test_compiled_source_attached(self, nat_ctx):
        _, compiled = checker_pair(nat_ctx, "le")
        assert "def rec(" in compiled.__derived_source__

    def test_faster_than_interpreter(self, list_ctx):
        import timeit

        interp, compiled = checker_pair(list_ctx, "Sorted")
        args = (nat_list(list(range(8))),)
        t_interp = timeit.timeit(lambda: interp(20, args), number=60)
        t_comp = timeit.timeit(lambda: compiled(20, args), number=60)
        assert t_comp < t_interp


def _short_and_long(args):
    return [args[:-1], args + (args[0],)]


class TestEntryArity:
    """Every checker entry refuses an argument vector of the wrong
    length with an ``ArityError`` naming the relation, rather than
    answering a truncated vector or leaking a bare ``TypeError``."""

    def _assert_refused(self, fn, rel, args):
        from repro.core.errors import ArityError

        arity = len(args)
        for bad in _short_and_long(args):
            with pytest.raises(ArityError) as single:
                fn(8, bad)
            assert single.value.name == rel
            assert (single.value.expected, single.value.got) == (arity, len(bad))
            with pytest.raises(ArityError):
                fn.__batch__(8, [args, bad, args])
        assert fn.__batch__(8, [args, args]) == [fn(8, args)] * 2

    def test_all_nat_entry(self, nat_ctx):
        interp, compiled = checker_pair(nat_ctx, "le")
        assert compiled.__spec_reprs__ == ("nat", "nat")
        self._assert_refused(compiled, "le", (from_int(1), from_int(2)))

    def test_mixed_repr_entry(self, list_ctx):
        _, compiled = checker_pair(list_ctx, "InNat")
        assert compiled.__spec_reprs__ == ("nat", ("list", "nat"))
        self._assert_refused(compiled, "InNat", (from_int(1), nat_list([0, 1])))

    def test_boxed_entry(self, stlc_ctx):
        _, compiled = checker_pair(stlc_ctx, "typing")
        assert set(compiled.__spec_reprs__) == {"box"}
        args = (from_list([]), V("Con", from_int(1)), V("N"))
        self._assert_refused(compiled, "typing", args)

    def test_unspecialized_entry(self, nat_ctx):
        from repro.derive import specialize

        specialize.disable_specialization(nat_ctx)
        _, compiled = checker_pair(nat_ctx, "le")
        assert not hasattr(compiled, "__spec_reprs__")
        self._assert_refused(compiled, "le", (from_int(1), from_int(2)))

    def test_interpreter_entry(self, nat_ctx):
        from repro.core.errors import ArityError
        from repro.derive.api import derive_checker

        interp, _ = checker_pair(nat_ctx, "le")
        for bad in _short_and_long((from_int(1), from_int(2))):
            with pytest.raises(ArityError):
                interp(8, bad)
        checker = derive_checker(nat_ctx, "le")
        with pytest.raises(ArityError):
            checker(8, from_int(1), from_int(2), from_int(0))
        with pytest.raises(ArityError):
            checker.check_batch(8, [(from_int(1),)])

    def test_nat_batch_falls_back_per_vector(self, nat_ctx):
        """An ill-typed vector in an all-nat batch goes to the boxed
        rec alone; its neighbours stay on the specialized twin."""
        interp, compiled = checker_pair(nat_ctx, "le")
        odd = (V("N"), from_int(2))  # not a natural: coercion fails
        argses = [(from_int(1), from_int(2)), odd, (from_int(3), from_int(2))]
        assert compiled.__batch__(8, argses) == [
            interp(8, args) for args in argses
        ]


class TestCompiledEnumerators:
    def _pair(self, ctx, rel, mode):
        interp = resolve(ctx, ENUM, rel, Mode.from_string(mode)).fn
        compiled = resolve_compiled(ctx, ENUM, rel, Mode.from_string(mode))
        return interp, compiled

    def _outcomes(self, fn, fuel, ins):
        values = set()
        fuel_marker = False
        for x in fn(fuel, ins):
            if x is OUT_OF_FUEL:
                fuel_marker = True
            else:
                values.add(x)
        return values, fuel_marker

    @pytest.mark.parametrize("mode", ["io", "oi", "oo"])
    def test_le_same_outcomes(self, nat_ctx, mode):
        interp, compiled = self._pair(nat_ctx, "le", mode)
        ins = (from_int(3),) if mode != "oo" else ()
        for fuel in (0, 2, 6):
            a = self._outcomes(interp, fuel, ins)
            b = self._outcomes(compiled, fuel, ins)
            assert a == b

    def test_typing_inference_same(self, stlc_ctx):
        interp, compiled = self._pair(stlc_ctx, "typing", "iio")
        empty = from_list([])
        e = V("Abs", V("N"), V("Vart", from_int(0)))
        assert self._outcomes(interp, 6, (empty, e)) == self._outcomes(
            compiled, 6, (empty, e)
        )

    def test_sorted_same(self, list_ctx):
        interp, compiled = self._pair(list_ctx, "Sorted", "o")
        for fuel in (0, 2, 4):
            assert self._outcomes(interp, fuel, ()) == self._outcomes(
                compiled, fuel, ()
            )


class TestCompiledGenerators:
    def test_outputs_satisfy_relation(self, stlc_ctx):
        compiled_gen = resolve_compiled(
            stlc_ctx, GEN, "typing", Mode.from_string("ioi")
        )
        checker = resolve_compiled(stlc_ctx, CHECKER, "typing", Mode.checker(3))
        empty = from_list([])
        N = V("N")
        rng = random.Random(9)
        produced = 0
        for _ in range(150):
            out = compiled_gen(6, (empty, N), rng)
            if is_value(out):
                produced += 1
                assert checker(30, (empty, out[0], N)).is_true
        assert produced > 100

    def test_sorted_outputs(self, list_ctx):
        from repro.core.values import to_int, to_list

        compiled_gen = resolve_compiled(list_ctx, GEN, "Sorted", Mode.from_string("o"))
        rng = random.Random(4)
        for _ in range(80):
            out = compiled_gen(6, (), rng)
            if is_value(out):
                xs = [to_int(x) for x in to_list(out[0])]
                assert xs == sorted(xs)

    def test_deterministic_under_seed(self, list_ctx):
        compiled_gen = resolve_compiled(list_ctx, GEN, "Sorted", Mode.from_string("o"))
        a = [compiled_gen(5, (), random.Random(7)) for _ in range(10)]
        b = [compiled_gen(5, (), random.Random(7)) for _ in range(10)]
        assert a == b


class TestEvalTwin:
    """The direct-eval twin attached to enum instances of functional
    (rel, mode) pairs — the no-producer-loop artifact fast twins call
    at OP_EVALREL sites."""

    def test_attached_iff_functional(self, stlc_ctx):
        from repro.analysis import relation_verdict

        for mode in ("iio", "ioi", "oii"):
            enum_st = resolve_compiled(
                stlc_ctx, ENUM, "typing", Mode.from_string(mode)
            )
            expect = relation_verdict(stlc_ctx, "typing", mode).at_most_one
            assert hasattr(enum_st, "__spec_eval__") == expect
            assert hasattr(enum_st, "__spec_eval_rec__") == expect

    def test_not_attached_with_pass_off(self, stlc_ctx):
        from repro.casestudies import stlc
        from repro.derive import disable_functionalization

        ctx = stlc.make_context()
        disable_functionalization(ctx)
        enum_st = resolve_compiled(
            ctx, ENUM, "typing", Mode.from_string("iio")
        )
        assert not hasattr(enum_st, "__spec_eval__")

    def test_agrees_with_enumeration(self, stlc_ctx):
        from repro.casestudies import stlc
        from repro.producers.outcome import FAIL

        enum_st = resolve_compiled(
            stlc_ctx, ENUM, "typing", Mode.from_string("iio")
        )
        ev = enum_st.__spec_eval__
        rng = random.Random(23)
        env = stlc.StlcWorkload(None).environment()
        cases = []
        while len(cases) < 40:
            ty = stlc._gen_type(2, rng)
            out = stlc.handwritten_typing_gen(6, (env, ty), rng)
            if is_value(out):
                cases.append((env, out[0]))
        # Ill-typed / unsynthesizable terms exercise the miss paths.
        cases += [(env, V("Unit"))] * 2
        for fuel in (2, 6, 24):
            for args in cases:
                items = list(enum_st(fuel, args))
                definite = [x for x in items if x is not OUT_OF_FUEL]
                r = ev(fuel, args)
                if definite:
                    # Functional: the unique answer, and the twin
                    # commits to exactly it.
                    assert r == definite[0]
                elif items:
                    # Incomplete empty stream: the twin may only be
                    # more definite, never invent an answer.
                    assert r is OUT_OF_FUEL or r is FAIL
                else:
                    assert r is FAIL


CHOOSER_DECLS = """
Inductive pick_var : list type -> type -> nat -> Prop :=
| pv : forall G t x, lookup G x t -> pick_var G t x.

Inductive two_way : nat -> nat -> Prop :=
| tw_0 : two_way 0 0
| tw_1 : forall n m, two_way n m -> two_way n (S m)
| tw_2 : forall n m, two_way n m -> two_way n (S (S m)).

Inductive pick_two : nat -> nat -> Prop :=
| pt : forall n m, two_way n m -> pick_two n m.

Inductive both_vars : list type -> type -> nat -> nat -> Prop :=
| bv : forall G t x y, lookup G x t -> lookup G y t -> both_vars G t x y.

Inductive pick_both : list type -> type -> nat -> nat -> Prop :=
| pb : forall G t x y, both_vars G t x y -> pick_both G t x y.
"""

N_TY = V("N")
ARR_NN = V("Arr", N_TY, N_TY)
#: (G, t) inputs of ``pick_var``: several matches, one, none with and
#: without a fuel cut-off.
CHOOSER_INPUTS = [
    (from_list([N_TY, ARR_NN, N_TY, N_TY]), N_TY),
    (from_list([N_TY, ARR_NN, N_TY, N_TY]), ARR_NN),
    (from_list([ARR_NN]), N_TY),
    (from_list([]), N_TY),
]


def chooser_ctx(stlc_ctx):
    parse_declarations(stlc_ctx, CHOOSER_DECLS)
    return stlc_ctx


def gen_source(gen_st) -> str:
    return gen_st.__derived_source__ + gen_st.__fast_rec__.__derived_source__


#: Chooser sites followed by checks, which fast twins fold into the
#: site's memo: a negated check, a check that runs out of fuel at
#: ``_top`` (``le k 9``), and a run of two checks, the second reading
#: ``lo``, bound before the site by the input pattern.
FOLD_DECLS = """
Inductive fold_neg : nat -> nat -> nat -> Prop :=
| fneg : forall lo hi k, le lo k -> ~ (le hi k) -> fold_neg lo hi k.

Inductive fold_fuel : nat -> nat -> Prop :=
| ffuel : forall lo k, le lo k -> le k 9 -> fold_fuel lo k.

Inductive fold_two : nat -> nat -> nat -> Prop :=
| ftwo : forall lo hi k,
    le hi k -> ev k -> le k (S (S lo)) -> fold_two (S lo) hi k.
"""

#: relation -> (mode, its inputs drawn from an rng)
FOLD_CASES = {
    "fold_neg": ("iio", lambda r: (from_int(r.randrange(4)), from_int(r.randrange(7)))),
    "fold_fuel": ("io", lambda r: (from_int(r.randrange(5)),)),
    "fold_two": ("iio", lambda r: (from_int(r.randrange(5)), from_int(r.randrange(6)))),
}


def fold_ctx(nat_ctx):
    parse_declarations(nat_ctx, FOLD_DECLS)
    return nat_ctx


def site_tables(gen_st) -> tuple:
    """The memo and canonical-answer table of a fast twin's one folded
    chooser site."""
    names = gen_st.__fast_rec__.__globals__
    (memo,) = [v for k, v in names.items() if k.startswith("_memo")]
    (canon,) = [v for k, v in names.items() if k.startswith("_canon")]
    return memo, canon


def seeded_draws(gen, draw_ins, seeds=range(300)) -> list:
    """One draw per seed at fuel ``seed % 6``, inputs from *draw_ins*:
    each value with the random state it leaves."""
    runs = []
    for seed in seeds:
        ins = draw_ins(random.Random(10_000 + seed))
        rng = random.Random(seed)
        runs.append((gen(seed % 6, ins, rng), rng.getstate()))
    return runs


def race(worker, offsets) -> None:
    """Run *worker* on one thread per offset with a short switch
    interval, and wait for all of them."""
    import sys
    import threading

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in offsets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


class TestChooserSites:
    """Enumerate-then-choose at linear premises: ``pick_var``@iio calls
    ``lookup``@ioi, which its generator enumerates and chooses from."""

    def test_chosen_answers_are_enumerated(self, stlc_ctx):
        ctx = chooser_ctx(stlc_ctx)
        gen = resolve_compiled(ctx, GEN, "pick_var", Mode.from_string("iio"))
        enum = resolve_compiled(ctx, ENUM, "lookup", Mode.from_string("ioi"))
        assert "_choose(" in gen_source(gen)
        for ins in CHOOSER_INPUTS:
            for fuel in range(5):
                items = list(enum(fuel, ins))
                answers = [x for x in items if x is not OUT_OF_FUEL]
                chosen = {gen(fuel, ins, random.Random(s)) for s in range(60)}
                if answers:
                    # Same support as the enumeration at this size.
                    assert chosen == set(answers)
                else:
                    marker = OUT_OF_FUEL if OUT_OF_FUEL in items else FAIL
                    assert chosen == {marker}

    def test_empty_enumeration_outcomes(self, stlc_ctx):
        from repro.derive.exec_core import choose

        ctx = chooser_ctx(stlc_ctx)
        gen = resolve_compiled(ctx, GEN, "pick_var", Mode.from_string("iio"))
        only_arrow = from_list([ARR_NN])
        # Fuel 0 cuts lookup_there off (the marker); fuel 3 reaches the
        # end of the list (a definite miss).
        assert gen(0, (only_arrow, N_TY), random.Random(1)) is OUT_OF_FUEL
        assert gen(3, (only_arrow, N_TY), random.Random(1)) is FAIL
        rng = random.Random(5)
        state = rng.getstate()
        assert choose(((), True), rng) is OUT_OF_FUEL
        assert choose(((), False), rng) is FAIL
        assert rng.getstate() == state  # no draw without answers

    def test_nonlinear_premises_keep_generator_path(self, stlc_ctx):
        from repro.casestudies import bst, ifc
        from repro.derive.plan import linear_premise

        ctx = chooser_ctx(stlc_ctx)
        assert linear_premise(ctx, "lookup", Mode.from_string("ioi"))
        assert not linear_premise(ctx, "two_way", Mode.from_string("io"))
        gen = resolve_compiled(ctx, GEN, "pick_two", Mode.from_string("io"))
        assert "_choose(" not in gen_source(gen)
        assert "_gen_two_way" in gen_source(gen)
        # Two linear premises in sequence enumerate a product, not a
        # chain: both_vars keeps its generator (which chooses at each
        # of its own lookup premises).
        iioo = Mode.from_string("iioo")
        assert not linear_premise(ctx, "both_vars", iioo)
        gen = resolve_compiled(ctx, GEN, "pick_both", iioo)
        assert "_choose(" not in gen_source(gen)
        assert "_gen_both_vars" in gen_source(gen)
        both = resolve_compiled(ctx, GEN, "both_vars", iioo)
        assert gen_source(both).count("_choose(") >= 2

        bctx = bst.make_context()
        assert linear_premise(bctx, "lt", Mode.from_string("io"))
        ictx = ifc.make_context()
        io = Mode.from_string("io")
        assert not linear_premise(ictx, "indist_atom", io)  # OP_INSTANTIATE
        gen = resolve_compiled(ictx, GEN, "indist_list", io)
        assert "_choose(" not in gen_source(gen)
        assert "_gen_indist_atom" in gen_source(gen)

    def test_verdict_is_published_only_when_final(self, stlc_ctx, monkeypatch):
        """A second thread asking while the first computes the same
        verdict waits for it instead of reading a provisional one."""
        import threading

        from repro.derive import plan as plan_mod

        ctx = chooser_ctx(stlc_ctx)
        iio = Mode.from_string("iio")
        other, real = [], plan_mod.lower_schedule

        def lower_while_asked(ctx_, schedule):
            if not other:
                t = threading.Thread(
                    target=lambda: other.append(
                        plan_mod.linear_premise(ctx, "pick_var", iio)
                    )
                )
                other.append(t)
                t.start()
                t.join(timeout=0.2)
                assert t.is_alive()  # blocked on the derivation lock
            return real(ctx_, schedule)

        monkeypatch.setattr(plan_mod, "lower_schedule", lower_while_asked)
        assert plan_mod.linear_premise(ctx, "pick_var", iio)
        other[0].join(timeout=10)
        assert other[1:] == [True]

    def test_registration_refreshes_verdicts(self, stlc_ctx):
        from repro.derive import register_producer
        from repro.derive.plan import linear_premise

        ctx = chooser_ctx(stlc_ctx)
        ioi, iio = Mode.from_string("ioi"), Mode.from_string("iio")
        assert linear_premise(ctx, "pick_var", iio)
        # A handwritten enumerator for the nested premise is what the
        # derived enumerator would call: its cost is unknown.
        register_producer(ctx, ENUM, "lookup", ioi, lambda fuel, ins: iter(()))
        assert not linear_premise(ctx, "lookup", ioi)
        assert not linear_premise(ctx, "pick_var", iio)

    def test_registered_generator_still_called(self, stlc_ctx):
        from repro.core.values import to_list
        from repro.derive import register_producer

        calls = []

        def hand_lookup(fuel, ins, rng):
            env, ty = ins
            hits = [i for i, t in enumerate(to_list(env)) if t == ty]
            calls.append(ins)
            return (from_int(rng.choice(hits)),) if hits else FAIL

        ioi = Mode.from_string("ioi")
        register_producer(stlc_ctx, GEN, "lookup", ioi, hand_lookup, replace=True)
        gen = resolve_compiled(stlc_ctx, GEN, "typing", ioi)
        assert "_choose(" not in gen_source(gen)
        env = from_list([N_TY, ARR_NN])
        for seed in range(40):
            gen(4, (env, N_TY), random.Random(seed))
        assert calls

    def test_replace_after_compile_reaches_compiled_caller(self, stlc_ctx):
        """A generator replaced *after* ``typing`` compiled is the one
        the recompiled caller draws from, call for call as the
        interpreter does."""
        from repro.core.values import to_list
        from repro.derive import register_producer

        ioi = Mode.from_string("ioi")
        before = resolve_compiled(stlc_ctx, GEN, "typing", ioi)
        calls = []

        def hand_lookup(fuel, ins, rng):
            env, ty = ins
            hits = [i for i, t in enumerate(to_list(env)) if t == ty]
            calls.append(ins)
            return (from_int(rng.choice(hits)),) if hits else FAIL

        register_producer(stlc_ctx, GEN, "lookup", ioi, hand_lookup, replace=True)
        compiled = resolve_compiled(stlc_ctx, GEN, "typing", ioi)
        interp = resolve(stlc_ctx, GEN, "typing", ioi).fn
        assert compiled is not before
        env = from_list([N_TY, ARR_NN])
        runs = {}
        for name, gen in (("compiled", compiled), ("interp", interp)):
            calls.clear()
            outs = [gen(4, (env, N_TY), random.Random(s)) for s in range(50)]
            runs[name] = (outs, len(calls))
        assert runs["compiled"] == runs["interp"]
        assert runs["compiled"][1] > 0

    def test_fast_memo_is_bounded(self, stlc_ctx):
        from repro.derive.codegen import CHOICE_MEMO_CAP

        ctx = chooser_ctx(stlc_ctx)
        gen = resolve_compiled(ctx, GEN, "pick_var", Mode.from_string("iio"))
        fast = gen.__fast_rec__
        (memo,) = [v for k, v in fast.__globals__.items() if k.startswith("_memo")]
        ins = (from_list([N_TY]), N_TY)
        rng = random.Random(0)
        for fuel in range(10 * CHOICE_MEMO_CAP):
            assert fast(fuel, fuel, ins, rng) == (from_int(0),)
            assert len(memo) <= CHOICE_MEMO_CAP
        assert memo

    def test_fast_memo_is_bounded_at_folded_site(self, nat_ctx):
        """A folded site's memo and canonical answers stay within the
        cap and are cleared together; equal answers are one object."""
        from repro.derive.codegen import CHOICE_MEMO_CAP

        ctx = fold_ctx(nat_ctx)
        iio = Mode.from_string("iio")
        gen = resolve_compiled(ctx, GEN, "fold_neg", iio)
        interp = resolve(ctx, GEN, "fold_neg", iio).fn
        fast = gen.__fast_rec__
        memo, canon = site_tables(gen)
        clears = 0
        for i in range(10 * CHOICE_MEMO_CAP):
            # lo takes 300 values, so the answers alone outgrow the cap.
            ins = (from_int(i % 300), from_int(i % 7))
            before = len(memo)
            got = fast(2, 2, ins, random.Random(i))
            assert got == interp(2, ins, random.Random(i))
            assert len(memo) <= CHOICE_MEMO_CAP
            assert len(canon) <= CHOICE_MEMO_CAP
            if len(memo) < before:
                clears += 1
                ((answers, _, _),) = memo.values()
                assert len(canon) == len(answers)
        assert clears
        memo.clear()
        canon.clear()
        for hi in (5, 6):
            fast(2, 2, (from_int(1), from_int(hi)), random.Random(hi))
        first, second = memo.values()
        assert first[0] == second[0]
        assert all(a is b for a, b in zip(first[0], second[0]))

    def test_fast_memo_under_concurrent_callers(self, stlc_ctx):
        """Engine workers share one compiled generator: its memo may
        overshoot the cap by one entry per racing thread, never answer
        wrongly."""
        from repro.derive.codegen import CHOICE_MEMO_CAP

        ctx = chooser_ctx(stlc_ctx)
        gen = resolve_compiled(ctx, GEN, "pick_var", Mode.from_string("iio"))
        fast = gen.__fast_rec__
        (memo,) = [v for k, v in fast.__globals__.items() if k.startswith("_memo")]
        ins = (from_list([ARR_NN, N_TY]), N_TY)
        n_threads, sizes, bad = 4, [], []

        def worker(offset):
            rng = random.Random(offset)
            for fuel in range(offset, offset + 2 * CHOICE_MEMO_CAP):
                if fast(fuel, fuel, ins, rng) != (from_int(1),):
                    bad.append(fuel)
                sizes.append(len(memo))

        race(worker, [1 + k * 97 for k in range(n_threads)])
        assert not bad
        assert len(sizes) == n_threads * 2 * CHOICE_MEMO_CAP
        assert max(sizes) <= CHOICE_MEMO_CAP + n_threads

    def test_fast_memo_under_concurrent_callers_at_folded_site(self, nat_ctx):
        """Racing callers of a folded site share keys, so they race on
        its verdict slots too: a write may repeat a verdict, never
        change an answer or a verdict."""
        from repro.derive.codegen import CHOICE_MEMO_CAP
        from repro.derive.exec_core import collect_answers
        from repro.producers.option_bool import negate

        ctx = fold_ctx(nat_ctx)
        iio = Mode.from_string("iio")
        gen = resolve_compiled(ctx, GEN, "fold_neg", iio)
        interp = resolve(ctx, GEN, "fold_neg", iio).fn
        fast = gen.__fast_rec__
        memo, canon = site_tables(gen)
        n_threads, span, sizes, bad = 4, 2 * CHOICE_MEMO_CAP, [], []
        offsets = [1 + k * 7 for k in range(n_threads)]
        zero = from_int(0)
        his = {h: from_int(h) for h in range(1, offsets[-1] + span)}
        want = {h: interp(3, (zero, v), random.Random(h)) for h, v in his.items()}

        def worker(offset):
            for h in range(offset, offset + span):
                if fast(3, 3, (zero, his[h]), random.Random(h)) != want[h]:
                    bad.append(h)
                sizes.append((len(memo), len(canon)))

        race(worker, offsets)
        assert not bad
        assert len(sizes) == n_threads * span
        assert max(m for m, _ in sizes) <= CHOICE_MEMO_CAP + n_threads
        assert max(c for _, c in sizes) <= CHOICE_MEMO_CAP + n_threads
        enum = resolve_compiled(ctx, ENUM, "le", Mode.from_string("io"))
        answers, marker = collect_answers(enum(3, (zero,)))
        le = resolve_compiled(ctx, CHECKER, "le", Mode.checker(2))
        for (top, _, hi), (got, got_marker, verdicts) in list(memo.items()):
            assert (got, got_marker) == (answers, marker)
            for (k,), v in zip(got, verdicts):
                assert v is None or v is negate(le(top, (hi, k)))

    @pytest.mark.parametrize("kind", [ENUM, GEN])
    def test_fast_producer_twins_carry_no_hook_sites(self, stlc_ctx, kind):
        mode = Mode.from_string("ioi")
        for rel in ("typing", "lookup"):
            src = resolve_compiled(stlc_ctx, kind, rel, mode).__fast_rec__
            assert_no_hook_sites(src.__derived_source__, rel)


class TestFoldedChecks:
    """A fast twin folds the checks right after a chooser site into the
    site's memo: same values, same draws, and each check run at most
    once per memo key and answer, only for answers that were picked."""

    @pytest.mark.parametrize("rel", sorted(FOLD_CASES))
    def test_executors_draw_alike(self, nat_ctx, rel):
        from repro.derive.trace import profile
        from repro.producers.option_bool import NONE_OB

        ctx = fold_ctx(nat_ctx)
        mode, draw_ins = FOLD_CASES[rel]
        gen = resolve_compiled(ctx, GEN, rel, Mode.from_string(mode))
        interp = resolve(ctx, GEN, rel, Mode.from_string(mode)).fn
        src = gen.__fast_rec__.__derived_source__
        assert "_canon_" in src and "_r1 " not in src
        assert "_canon_" not in gen.__derived_source__
        fast = seeded_draws(gen, draw_ins)
        with profile(ctx) as trace:
            instrumented = seeded_draws(gen, draw_ins)
        assert trace.total_attempts  # the instrumented twin ran
        assert fast == instrumented == seeded_draws(interp, draw_ins)
        outcomes = [out for out, _ in fast]
        assert any(is_value(out) for out in outcomes)
        memo, _ = site_tables(gen)
        verdicts = [v for _, _, vs in memo.values() for v in vs]
        assert any(v is None for v in verdicts)  # some answers never checked
        if rel == "fold_fuel":  # le k 9 runs out of fuel, never fails
            assert NONE_OB in verdicts and OUT_OF_FUEL in outcomes
        else:
            assert FAIL in outcomes

    def test_checks_run_lazily_and_once(self):
        """A counting ``lt`` checker behind BST's generator: the fast
        twin calls it at most once per memo key and answer, never more
        often than the instrumented twin, and only on picked answers
        (the instrumented twin checks exactly the picked ones)."""
        from repro.casestudies import bst
        from repro.core.values import to_int
        from repro.derive import register_checker
        from repro.derive.codegen import CHOICE_MEMO_CAP
        from repro.derive.trace import profile
        from repro.producers.option_bool import SOME_FALSE, SOME_TRUE

        ctx = bst.make_context()
        iio = Mode.from_string("iio")
        before = resolve_compiled(ctx, GEN, "bst", iio)
        calls = []

        def hand_lt(fuel, args):
            calls.append((fuel, args))
            return SOME_TRUE if to_int(args[0]) < to_int(args[1]) else SOME_FALSE

        register_checker(ctx, "lt", hand_lt, replace=True)
        gen = resolve_compiled(ctx, GEN, "bst", iio)
        assert gen is not before

        def draw_ins(r):
            lo = r.randrange(4)
            return (from_int(lo), from_int(lo + r.randrange(12)))

        fast = seeded_draws(gen, draw_ins)
        fast_calls, calls[:] = list(calls), []
        with profile(ctx):
            instrumented = seeded_draws(gen, draw_ins)
        assert fast == instrumented
        memo, _ = site_tables(gen)
        assert len(memo) < CHOICE_MEMO_CAP  # nothing was evicted
        filled = sum(v is not None for _, _, vs in memo.values() for v in vs)
        answers = sum(len(a) for a, _, _ in memo.values())
        assert 0 < len(fast_calls) == filled < answers
        assert len(fast_calls) <= len(calls)
        assert set(fast_calls) <= set(calls)


#: Names every instrumentation site spells: the trace (``_tr``,
#: ``record4``), observe (``_ob``, ``spans``) and budget (``_bud``,
#: ``charge``) hooks, and the session caches they are read from.
HOOK_NAMES = ("_tr", "_ob", "_bud", "record4", "spans", "charge", "caches")


def assert_no_hook_sites(src: str, label) -> None:
    for hook in HOOK_NAMES:
        assert hook not in src, (label, hook)


#: The Figure 3 checkers: (case study, relation, a positive input).
FIG3_CHECKERS = [
    ("stlc", "typing", (from_list([]), V("Con", from_int(1)), V("N"))),
    ("bst", "bst", (from_int(0), from_int(4), V("Leaf"))),
    ("ifc", "indist_list", (from_list([]), from_list([]))),
]


def _codes_run(fn, *args) -> set:
    """The code objects of every Python function *fn* calls."""
    import sys

    seen = set()

    def prof(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(prof)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


class TestFastTwinsCarryNoHooks:
    """The zero-cost-when-off claim of the trace, observe, budget and
    session hooks, checked exactly: with no hook installed the entry
    wrappers run the fast twins, and the fast twins spell no hook."""

    @pytest.mark.parametrize("study,rel,args", FIG3_CHECKERS)
    def test_fast_checker_twin_is_hook_free_and_runs_uninstrumented(
        self, study, rel, args
    ):
        import importlib

        from repro.observe import observe

        ctx = importlib.import_module(f"repro.casestudies.{study}").make_context()
        arity = ctx.relations.get(rel).arity
        check = resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity))
        assert_no_hook_sites(check.__spec_fast_source__, rel)
        assert "charge" in check.__spec_source__  # the check can fail
        assert check(8, args).is_true
        bare = _codes_run(check, 8, args)
        with observe(ctx):
            observed = _codes_run(check, 8, args)
        # Read after the calls: a twin's code exists once it first runs.
        fast, slow = check.__spec_fast__.__code__, check.__spec_rec__.__code__
        assert fast in bare and slow not in bare
        assert slow in observed and fast not in observed


#: Attributes of a compiled instance that hold a fixpoint, and the ones
#: an uninstrumented call selects.
FIXPOINT_ATTRS = ("__wrapped_rec__", "__spec_rec__", "__spec_fast__",
                  "__fast_rec__", "__spec_eval_rec__")
FAST_ATTRS = ("__spec_fast__", "__fast_rec__", "__spec_eval_rec__")

STLC_TERMS = [
    (from_list([]), V("Con", from_int(1)), V("N")),
    (from_list([V("N")]), V("Vart", from_int(0)), V("N")),
    (from_list([V("N")]), V("Vart", from_int(1)), V("N")),
    (from_list([]), V("Abs", V("N"), V("Vart", from_int(0))),
     V("Arr", V("N"), V("N"))),
    (from_list([]), V("Add", V("Con", from_int(1)), V("Abs", V("N"), V("Con", from_int(2)))),
     V("N")),
]


def _fixpoints(ctx) -> list:
    """``(attr, fixpoint)`` of every compiled instance's fixpoints,
    each fixpoint once."""
    seen: dict = {}
    for inst in ctx.instances.values():
        if inst.source != "compiled":
            continue
        for attr in FIXPOINT_ATTRS:
            f = getattr(inst.fn, attr, None)
            if f is not None:
                seen.setdefault(id(f), (attr, f))
    return list(seen.values())


def _is_compiled(fn) -> bool:
    from repro.derive.codegen import _uncompiled_rec

    return fn.__code__ is not _uncompiled_rec.__code__


def _derive_typing(ctx):
    from repro.derive.stats import install_stats

    stats = install_stats(ctx)
    check = resolve_compiled(ctx, CHECKER, "typing", Mode.checker(3))
    gen = resolve_compiled(ctx, GEN, "typing", Mode.from_string("ioi"))
    return stats, check, gen


class TestLazyCompilation:
    """Fixpoints are emitted at derivation and compiled on first call."""

    def test_derivation_compiles_nothing_and_keeps_every_source(self, stlc_ctx):
        stats, check, gen = _derive_typing(stlc_ctx)
        fixpoints = _fixpoints(stlc_ctx)
        assert len(fixpoints) > 4
        assert stats.fixpoints_compiled == 0
        assert not any(_is_compiled(f) for _, f in fixpoints)
        sources = [f.__derived_source__ for _, f in fixpoints] + [
            check.__derived_source__, check.__spec_source__,
            check.__spec_fast_source__, gen.__derived_source__,
        ]
        assert all("def rec(" in src for src in sources)

    def test_uninstrumented_call_compiles_only_fast_twins_it_reaches(self, stlc_ctx):
        from repro.derive.trace import profile

        stats, check, _ = _derive_typing(stlc_ctx)
        assert check(8, STLC_TERMS[1]).is_true
        compiled = [(a, f) for a, f in _fixpoints(stlc_ctx) if _is_compiled(f)]
        assert _is_compiled(check.__spec_fast__)
        assert {a for a, _ in compiled} <= set(FAST_ATTRS)
        assert stats.fixpoints_compiled == len(compiled)
        assert not _is_compiled(check.__spec_rec__)
        with profile(stlc_ctx):
            assert check(8, STLC_TERMS[1]).is_true
        assert _is_compiled(check.__spec_rec__)
        assert not _is_compiled(check.__wrapped_rec__)
        assert stats.fixpoints_compiled == sum(
            _is_compiled(f) for _, f in _fixpoints(stlc_ctx)
        )

    def test_racing_first_calls_compile_each_fixpoint_once(self, stlc_ctx):
        import sys
        import threading

        interp = resolve(stlc_ctx, CHECKER, "typing", Mode.checker(3)).fn
        expected = [interp(8, args) for args in STLC_TERMS]
        stats, check, gen = _derive_typing(stlc_ctx)
        ins = (from_list([V("N")]), V("Arr", V("N"), V("N")))
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads

        def worker(k):
            barrier.wait()
            got = [check(8, args) for args in STLC_TERMS]
            rng = random.Random(7)
            draws = [gen(4, ins, rng) for _ in range(20)]
            results[k] = (got, draws)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(r == results[0] for r in results)
        assert all(a is b for a, b in zip(results[0][0], expected))
        assert stats.fixpoints_compiled == sum(
            _is_compiled(f) for _, f in _fixpoints(stlc_ctx)
        ) > 0

    def test_second_call_runs_no_trampoline(self, stlc_ctx):
        _, check, _ = _derive_typing(stlc_ctx)
        first = {c.co_name for c in _codes_run(check, 8, STLC_TERMS[3])}
        assert {"_uncompiled_rec", "compile_rec"} <= first
        second = {c.co_name for c in _codes_run(check, 8, STLC_TERMS[3])}
        assert not {"_uncompiled_rec", "compile_rec"} & second
        assert "rec" in second

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method missing",
    )
    def test_fork_campaign_over_uncalled_instances_matches_inline(self, nat_ctx):
        from repro.quickchick import classify, for_all
        from repro.resilience import parallel_quick_check

        check = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))

        def gen(size, rng):
            return (rng.randint(0, size), rng.randint(0, size))

        def pred(pair):
            return check(30, (from_int(pair[0]), from_int(pair[1])))

        prop = for_all(gen, classify(lambda p: p[0] == p[1], "refl", pred),
                       name="le_holds")
        kw = dict(workers=2, seed=11, ctx=nat_ctx, stop_on_failure=False)
        forked = parallel_quick_check(prop, 60, backend="fork", **kw)
        # The shards compiled in their own processes, not here.
        assert not any(_is_compiled(f) for _, f in _fixpoints(nat_ctx))
        inline = parallel_quick_check(prop, 60, backend="inline", **kw)
        assert (forked.tests_run, forked.discards, forked.failed, forked.labels) == (
            inline.tests_run, inline.discards, inline.failed, inline.labels
        )
        assert inline.failed and inline.tests_run == 60


#: The Figure 3 derived generators with a callee: STLC ``typing``@ioi
#: chooses among ``lookup``@ioi answers, IFC ``indist_list``@io draws
#: from ``indist_atom``@io.
FIG3_GEN_CALLEES = [
    ("stlc", "typing", "ioi", ENUM, "lookup", "ioi"),
    ("ifc", "indist_list", "io", GEN, "indist_atom", "io"),
]


class TestGeneratorTwinCalls:
    """A fast generator twin calls its callees' fast fixpoints; the
    instrumented twin keeps the public wrappers, so hooks reach every
    callee site."""

    @pytest.mark.parametrize("study,rel,mode,kind,callee,cmode", FIG3_GEN_CALLEES)
    def test_fast_twin_calls_no_public_wrapper(
        self, study, rel, mode, kind, callee, cmode
    ):
        import importlib

        ctx = importlib.import_module(f"repro.casestudies.{study}").make_context()
        gen = resolve_compiled(ctx, GEN, rel, Mode.from_string(mode))
        target = resolve_compiled(ctx, kind, callee, Mode.from_string(cmode))

        def bound(fixpoint) -> dict:
            return {k: v for k, v in fixpoint.__globals__.items()
                    if k.startswith(f"_{kind}_{callee}")}

        fast, slow = bound(gen.__fast_rec__), bound(gen.__wrapped_rec__)
        assert list(fast.values()) == [target.__fast_rec__]
        assert list(slow.values()) == [target]
        (name,) = fast
        assert f"{name}(_top, " in gen.__fast_rec__.__derived_source__
        wrappers = [k for k, v in gen.__fast_rec__.__globals__.items()
                    if getattr(v, "__name__", None) in ("gen_st", "enum_st")]
        assert not wrappers

    def test_instrumented_twin_reaches_callee_sites_under_faults(self):
        """Seeded fault schedules under ``profile``: the charges and the
        callee's trace entries are the ones the public-wrapper calls of
        the earlier emitter produced."""
        from repro.casestudies import ifc
        from repro.derive.trace import profile
        from repro.resilience import FaultPlan, budget_scope

        ctx = ifc.make_context()
        gen = resolve_compiled(ctx, GEN, "indist_list", Mode.from_string("io"))
        mem = ifc.mem_to_value([(1, "L"), (2, "H"), (0, "L"), (3, "H")])
        ops = injected = misses = 0
        with profile(ctx) as trace:
            for seed in range(30):
                plan = FaultPlan.seeded(seed, n_events=3, horizon=120)
                with budget_scope(ctx, faults=plan, check_every=1) as bud:
                    out = gen(8, (mem,), random.Random(seed))
                ops += bud.ops
                injected += bud.injected
                misses += not is_value(out)
        assert (ops, injected, misses) == (1232, 8, 12)
        assert sorted(trace.entries.items()) == [
            (("gen", "indist_atom", "io", "ia_high"), [71, 40, 31, 0]),
            (("gen", "indist_atom", "io", "ia_low"), [79, 49, 30, 0]),
            (("gen", "indist_list", "io", "il_cons"), [99, 72, 27, 27]),
            (("gen", "indist_list", "io", "il_nil"), [18, 18, 0, 0]),
        ]

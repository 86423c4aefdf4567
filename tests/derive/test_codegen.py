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

    def test_fast_memo_under_concurrent_callers(self, stlc_ctx):
        """Engine workers share one compiled generator: its memo may
        overshoot the cap by one entry per racing thread, never answer
        wrongly."""
        import sys
        import threading

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

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(1 + k * 97,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        assert len(sizes) == n_threads * 2 * CHOICE_MEMO_CAP
        assert max(sizes) <= CHOICE_MEMO_CAP + n_threads

    @pytest.mark.parametrize("kind", [ENUM, GEN])
    def test_fast_producer_twins_carry_no_hook_sites(self, stlc_ctx, kind):
        mode = Mode.from_string("ioi")
        for rel in ("typing", "lookup"):
            src = resolve_compiled(stlc_ctx, kind, rel, mode).__fast_rec__
            assert_no_hook_sites(src.__derived_source__, rel)


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
        fast, slow = check.__spec_fast__.__code__, check.__spec_rec__.__code__
        assert check(8, args).is_true
        bare = _codes_run(check, 8, args)
        assert fast in bare and slow not in bare
        with observe(ctx):
            observed = _codes_run(check, 8, args)
        assert slow in observed and fast not in observed

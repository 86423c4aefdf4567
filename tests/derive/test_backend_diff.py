"""Differential property test: interpreter vs compiled backends.

Both backends execute the same lowered Plan (one lowering, two
executions), so on any input they must produce *identical* outcomes:

* checkers — the same ``OptionBool`` singleton;
* enumerators — the same value/marker sequence, in the same order;
* generators — the same sample (or marker) under the same RNG seed.

The corpus is every monomorphic relation the deriver handles in
``repro.sf`` (the Table 1 population) and the ``repro.casestudies``
relations, plus all derivable producer modes of the small shared
fixtures.  Inputs are seeded slices of each argument type's value
enumeration, capped to keep the product tractable.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.errors import ReproError
from repro.derive import Mode, disable_functionalization
from repro.derive.instances import (
    CHECKER,
    ENUM,
    GEN,
    resolve,
    resolve_compiled,
)
from repro.derive.specialize import disable_specialization
from repro.producers.combinators import _enum_values
from repro.producers.option_bool import NONE_OB
from repro.producers.outcome import FAIL, OUT_OF_FUEL
from repro.resilience import FaultPlan, budget_scope
from repro.sf.registry import CHAPTER_MODULES, load_chapter

CHECK_FUELS = (0, 2, 5)
MAX_PER_POSITION = 4
MAX_TUPLES = 40

_CHAPTERS = {}
_PLAIN_CHAPTERS = {}
_FUNC_OFF_CHAPTERS = {}


def chapter(module):
    if module not in _CHAPTERS:
        _CHAPTERS[module] = load_chapter(module)
    return _CHAPTERS[module]


def plain_chapter(module):
    """The same chapter with term-representation specialization off —
    its compiled instances are boxed-only (the pre-specialization
    emitter's behaviour)."""
    if module not in _PLAIN_CHAPTERS:
        ch = load_chapter(module)
        disable_specialization(ch.ctx)
        _PLAIN_CHAPTERS[module] = ch
    return _PLAIN_CHAPTERS[module]


def func_off_chapter(module):
    """The same chapter with premise functionalization off — plans
    keep their enumerate-then-check premises and codegen splices no
    premise bodies (the pre-pass behaviour)."""
    if module not in _FUNC_OFF_CHAPTERS:
        ch = load_chapter(module)
        disable_functionalization(ch.ctx)
        _FUNC_OFF_CHAPTERS[module] = ch
    return _FUNC_OFF_CHAPTERS[module]


def seeded_inputs(ctx, arg_types, seed=0):
    """A capped product of small values of each argument type."""
    per_position = []
    for ty in arg_types:
        values = list(itertools.islice(_enum_values(ctx, ty, 2), 12))
        if not values:
            return []
        rng = random.Random((seed, str(ty)).__repr__())
        if len(values) > MAX_PER_POSITION:
            values = rng.sample(values, MAX_PER_POSITION)
        per_position.append(values)
    return list(itertools.islice(itertools.product(*per_position), MAX_TUPLES))


def assert_checkers_agree(ctx, rel, fuels=CHECK_FUELS):
    relation = ctx.relations.get(rel)
    mode = Mode.checker(relation.arity)
    interp = resolve(ctx, CHECKER, rel, mode).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, mode)
    cases = seeded_inputs(ctx, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    for args in cases:
        for fuel in fuels:
            assert interp(fuel, args) is compiled(fuel, args), (
                f"checker mismatch: {rel} fuel={fuel} args={args}"
            )


def assert_enums_agree(ctx, rel, mode_str, fuels=(0, 2, 4)):
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    interp = resolve(ctx, ENUM, rel, mode).fn
    compiled = resolve_compiled(ctx, ENUM, rel, mode)
    in_types = [relation.arg_types[i] for i in mode.ins]
    for ins in seeded_inputs(ctx, in_types) or [()]:
        for fuel in fuels:
            a = list(interp(fuel, ins))
            b = list(compiled(fuel, ins))
            assert a == b, (
                f"enum mismatch: {rel}[{mode_str}] fuel={fuel} ins={ins}"
            )


def assert_gens_agree(ctx, rel, mode_str, fuel=4, seeds=range(25)):
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    interp = resolve(ctx, GEN, rel, mode).fn
    compiled = resolve_compiled(ctx, GEN, rel, mode)
    in_types = [relation.arg_types[i] for i in mode.ins]
    for ins in (seeded_inputs(ctx, in_types) or [()])[:6]:
        for seed in seeds:
            a = interp(fuel, ins, random.Random(seed))
            b = compiled(fuel, ins, random.Random(seed))
            assert a == b, (
                f"gen mismatch: {rel}[{mode_str}] seed={seed} ins={ins}"
            )


def _diff_within_budget(ctx, rel, fuels, max_ops=60_000, seconds=2.0):
    """Run the checker diff with every call resource-bounded.

    A handful of corpus relations are exponential even at fuel 2
    (plf_sub's ``subtype`` checks transitivity by producing the middle
    type unconstrained).  Each backend call runs under a fresh
    :class:`~repro.resilience.Budget`, so a blowup degrades that call
    to ``None`` instead of wedging the suite — a genuine backend
    divergence still fails fast.  Agreement is asserted on whatever
    completed, and also on pairs where *both* backends tripped the op
    cap (op charges are mirrored site-for-site, so both unwind at the
    same index and must still answer identically); only wall-clock
    trips — which land at backend-dependent op indices — skip the
    comparison.  Returns the number of compared pairs.
    """
    relation = ctx.relations.get(rel)
    mode = Mode.checker(relation.arity)
    interp = resolve(ctx, CHECKER, rel, mode).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, mode)
    cases = seeded_inputs(ctx, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(
                ctx, max_ops=max_ops, deadline_seconds=seconds
            ) as b_i:
                a = interp(fuel, args)
            with budget_scope(
                ctx, max_ops=max_ops, deadline_seconds=seconds
            ) as b_c:
                b = compiled(fuel, args)
            tripped = (
                b_i.exhausted.limit if b_i.exhausted else None,
                b_c.exhausted.limit if b_c.exhausted else None,
            )
            if "deadline" in tripped or tripped.count("ops") == 1:
                # Wall trips land at nondeterministic op indices, and a
                # one-sided op trip means the wall backstop fired first
                # on the other side — no comparable outcome either way.
                continue
            assert a is b, (
                f"checker mismatch: {rel} fuel={fuel} args={args} "
                f"(trips={tripped})"
            )
            compared += 1
    return compared


def _spec_unspec_diff(
    ctx_spec, ctx_plain, rel, fuels, max_ops=60_000, seconds=2.0
):
    """Diff the specialized compiled checker against a boxed-only
    compiled checker from an identical context.  Same budget/skip
    discipline as :func:`_diff_within_budget`; op charges are emitted
    site-for-site in both twins, so two-sided op trips still compare.
    Returns the number of compared pairs."""
    relation = ctx_spec.relations.get(rel)
    mode = Mode.checker(relation.arity)
    spec = resolve_compiled(ctx_spec, CHECKER, rel, mode)
    plain = resolve_compiled(ctx_plain, CHECKER, rel, mode)
    cases = seeded_inputs(ctx_spec, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(
                ctx_spec, max_ops=max_ops, deadline_seconds=seconds
            ) as b_s:
                a = spec(fuel, args)
            with budget_scope(
                ctx_plain, max_ops=max_ops, deadline_seconds=seconds
            ) as b_p:
                b = plain(fuel, args)
            tripped = (
                b_s.exhausted.limit if b_s.exhausted else None,
                b_p.exhausted.limit if b_p.exhausted else None,
            )
            if "deadline" in tripped or tripped.count("ops") == 1:
                continue
            assert a is b, (
                f"spec/unspec mismatch: {rel} fuel={fuel} args={args} "
                f"(trips={tripped})"
            )
            compared += 1
    return compared


FUNC_FAULT_SEEDS = (11, 22)


def _func_on_off_diff(
    ctx_on, ctx_off, rel, fuels, max_ops=60_000, seconds=2.0
):
    """Diff checkers with the functionalization pass on vs off.

    The pass is a *refinement*, not an equivalence: an OP_EVALREL
    premise computes its answer directly, so the pass-on checker may
    answer definitely where pass-off ran out of fuel enumerating — but
    it must never flip or lose a definite pass-off verdict.  The two
    plans charge different op streams by construction, so any budget
    trip on either side skips the pair (unlike the spec/unspec diff,
    where charges mirror site-for-site).  Within each configuration
    the interpreter and compiled twins must still agree exactly, under
    plain budgets and under seeded fault schedules (interruption
    soundness survives the transform).  Returns compared on/off pairs.
    """
    relation = ctx_on.relations.get(rel)
    mode = Mode.checker(relation.arity)
    on_i = resolve(ctx_on, CHECKER, rel, mode).fn
    on_c = resolve_compiled(ctx_on, CHECKER, rel, mode)
    off_i = resolve(ctx_off, CHECKER, rel, mode).fn
    off_c = resolve_compiled(ctx_off, CHECKER, rel, mode)
    cases = seeded_inputs(ctx_on, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            answers = {}
            for key, ctx, fn in (
                ("on", ctx_on, on_c),
                ("on_i", ctx_on, on_i),
                ("off", ctx_off, off_c),
                ("off_i", ctx_off, off_i),
            ):
                with budget_scope(
                    ctx, max_ops=max_ops, deadline_seconds=seconds
                ) as b:
                    answers[key] = (fn(fuel, args), b.exhausted is not None)
            for key in ("on", "off"):
                (a, ta), (b, tb) = answers[key], answers[key + "_i"]
                if not ta and not tb:
                    assert a is b, (
                        f"backends diverge ({key}): {rel} fuel={fuel} "
                        f"args={args}"
                    )
            (on, t_on), (off, t_off) = answers["on"], answers["off"]
            if t_on or t_off:
                continue
            assert on is off or (off is NONE_OB and on is not NONE_OB), (
                f"functionalization broke a verdict: {rel} fuel={fuel} "
                f"args={args} on={on} off={off}"
            )
            compared += 1
    # Interruption soundness per configuration: an injected fuel-out
    # may degrade a definite verdict to indefinite, never flip it, and
    # both backends must unwind identically at the injected op.
    plans = [
        FaultPlan.seeded(s, n_events=6, horizon=2048)
        for s in FUNC_FAULT_SEEDS
    ]
    for args in cases[:2]:
        for ctx, interp, compiled in (
            (ctx_on, on_i, on_c),
            (ctx_off, off_i, off_c),
        ):
            with budget_scope(ctx, max_ops=max_ops) as b0:
                base = compiled(2, args)
            base_definite = b0.exhausted is None and base is not NONE_OB
            for plan in plans:
                with budget_scope(
                    ctx, max_ops=max_ops, faults=plan, check_every=1
                ):
                    fi = interp(2, args)
                with budget_scope(
                    ctx, max_ops=max_ops, faults=plan, check_every=1
                ):
                    fc = compiled(2, args)
                assert fi is fc, (
                    f"backends diverge under faults: {rel} args={args} "
                    f"plan={list(plan)}"
                )
                if base_definite and fi is not NONE_OB:
                    assert fi is base, (
                        f"fault flipped a definite verdict: {rel} "
                        f"args={args} plan={list(plan)}"
                    )
    return compared


class TestSFCorpusCheckers:
    """Every derivable SF relation: interp and compiled checkers agree."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_checkers_agree(self, module):
        ch = chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                # Fuel 2 exercises base handlers, one recursion level
                # and external calls; fuel 3+ hits exponential search
                # cliffs on some relations (e.g. lf_indprop's evp)
                # without adding diff coverage.
                if _diff_within_budget(ch.ctx, entry.name, fuels=(0, 2)):
                    covered += 1
            except ReproError:
                continue  # out of the deriver's scope: census covers it
        assert covered, f"no relation in {module} was diffable"


class TestSpecializedVsUnspecialized:
    """The specialization pass must be invisible in verdicts: the
    specialized compiled checker and a boxed-only compiled checker
    agree over the whole corpus (all SF chapters + case studies)."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_spec_unspec_agree(self, module):
        ch, plain = chapter(module), plain_chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _spec_unspec_diff(
                    ch.ctx, plain.ctx, entry.name, fuels=(0, 2)
                ):
                    covered += 1
            except ReproError:
                continue
        assert covered, f"no relation in {module} was diffable"

    @pytest.mark.parametrize(
        "maker, rels",
        [
            ("bst", ("bst", "lt")),
            ("stlc", ("typing", "lookup")),
            ("ifc", ("indist_atom", "indist_list")),
        ],
    )
    def test_case_study_spec_unspec_agree(self, maker, rels):
        import importlib

        mod = importlib.import_module(f"repro.casestudies.{maker}")
        ctx_spec = mod.make_context()
        ctx_plain = mod.make_context()
        disable_specialization(ctx_plain)
        for rel in rels:
            assert _spec_unspec_diff(ctx_spec, ctx_plain, rel, fuels=(0, 2))


class TestFunctionalizeOnOff:
    """The functionalization pass (OP_EVALREL + cross-relation
    inlining) refines but never breaks verdicts, over the whole corpus
    (all SF chapters + case studies), under budgets and seeded fault
    schedules."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_on_off_agree(self, module):
        ch, off = chapter(module), func_off_chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _func_on_off_diff(
                    ch.ctx, off.ctx, entry.name, fuels=(0, 2)
                ):
                    covered += 1
            except ReproError:
                continue
        assert covered, f"no relation in {module} was diffable"

    @pytest.mark.parametrize(
        "maker, rels",
        [
            ("bst", ("bst", "lt")),
            ("stlc", ("typing", "lookup")),
            ("ifc", ("indist_atom", "indist_list")),
        ],
    )
    def test_case_study_on_off_agree(self, maker, rels):
        import importlib

        mod = importlib.import_module(f"repro.casestudies.{maker}")
        ctx_on = mod.make_context()
        ctx_off = mod.make_context()
        disable_functionalization(ctx_off)
        for rel in rels:
            assert _func_on_off_diff(ctx_on, ctx_off, rel, fuels=(0, 2))


def _fast_vs_instrumented(ctx, rel, fuels, max_ops=60_000, seconds=2.0):
    """Diff a compiled checker's fast twin against its instrumented
    twin.  Every call in the sweeps above runs under ``budget_scope``,
    which selects the instrumented twin, so they never reach the fast
    twins, their spliced premises or the eval twins they call.  Here
    each call runs under a budget first; when it finishes without a
    trip, it runs again bare (the fast twin) and must give the same
    singleton.  Returns the number of compared pairs."""
    relation = ctx.relations.get(rel)
    compiled = resolve_compiled(
        ctx, CHECKER, rel, Mode.checker(relation.arity)
    )
    cases = seeded_inputs(ctx, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(
                ctx, max_ops=max_ops, deadline_seconds=seconds
            ) as b:
                slow = compiled(fuel, args)
            if b.exhausted is not None:
                continue
            fast = compiled(fuel, args)
            assert fast is slow, (
                f"fast/instrumented mismatch: {rel} fuel={fuel} "
                f"args={args} fast={fast} instrumented={slow}"
            )
            compared += 1
    return compared


def _producer_fast_vs_instrumented(ctx, kind, rel, mode_str, fuels=(0, 2, 3)):
    """The same diff for a compiled producer: its answers under a
    budget (instrumented twin) against its answers bare (fast twin,
    which calls eval twins at functionalized premises).  Generators
    draw from one seed per pair: budget charges consume no
    randomness."""
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    compiled = resolve_compiled(ctx, kind, rel, mode)
    assert getattr(compiled, "__fast_rec__", None) is not None
    in_types = [relation.arg_types[i] for i in mode.ins]

    def answer(fuel, ins):
        if kind == ENUM:
            return list(compiled(fuel, ins))
        return compiled(fuel, ins, random.Random(fuel))

    compared = 0
    for ins in (seeded_inputs(ctx, in_types) or [()])[:12]:
        for fuel in fuels:
            with budget_scope(ctx, max_ops=60_000) as b:
                slow = answer(fuel, ins)
            if b.exhausted is not None:
                continue
            assert answer(fuel, ins) == slow, (
                f"{kind} fast/instrumented mismatch: {rel}[{mode_str}] "
                f"fuel={fuel} ins={ins}"
            )
            compared += 1
    return compared


def _eval_twin_agrees(ctx, rel, mode_str, fuels=(0, 2, 3)):
    """An eval twin answers what its enumerator answers first.  When
    the enumerator has a definite item, the twin answers the first one;
    when the enumeration is complete and empty, the twin answers
    ``FAIL``.  An incomplete empty enumeration allows either marker:
    committing may settle what the enumeration left open.  Returns the
    number of compared pairs (0 when the mode has no eval twin)."""
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    compiled = resolve_compiled(ctx, ENUM, rel, mode)
    ev = getattr(compiled, "__spec_eval__", None)
    if ev is None:
        return 0
    in_types = [relation.arg_types[i] for i in mode.ins]
    compared = 0
    for ins in seeded_inputs(ctx, in_types) or [()]:
        for fuel in fuels:
            answer = ev(fuel, ins)
            out = list(compiled(fuel, ins))
            items = [x for x in out if x is not OUT_OF_FUEL]
            if items:
                expected = items[0]
            elif len(out) == len(items):
                expected = FAIL
            else:
                expected = answer if answer is FAIL else OUT_OF_FUEL
            assert answer == expected, (
                f"eval twin answered {answer}, enumerator {out}: "
                f"{rel}[{mode_str}] fuel={fuel} ins={ins}"
            )
            compared += 1
    return compared


CASE_STUDY_CHECKERS = [
    ("bst", ("bst", "lt")),
    ("stlc", ("typing", "lookup")),
    ("ifc", ("indist_atom", "indist_list")),
]

FIXTURE_PRODUCER_MODES = [
    ("nat_ctx", "le", ("io", "oi", "oo")),
    ("nat_ctx", "ev", ("o",)),
    ("list_ctx", "Sorted", ("o",)),
    ("list_ctx", "InNat", ("io", "oi", "oo")),
    ("stlc_ctx", "typing", ("iio", "ioi")),
    ("stlc_ctx", "lookup", ("iio", "ioi")),
]


class TestFastTwins:
    """The fast twins agree with the instrumented twins on every corpus
    checker and on the fixture producer modes."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_fast_matches_instrumented(self, module):
        ch = chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _fast_vs_instrumented(ch.ctx, entry.name, fuels=(0, 2)):
                    covered += 1
            except ReproError:
                continue
        assert covered, f"no relation in {module} was diffable"

    @pytest.mark.parametrize("maker, rels", CASE_STUDY_CHECKERS)
    def test_case_study_fast_matches_instrumented(self, maker, rels):
        import importlib

        ctx = importlib.import_module(f"repro.casestudies.{maker}").make_context()
        for rel in rels:
            assert _fast_vs_instrumented(ctx, rel, fuels=(0, 2))

    @pytest.mark.parametrize("fixture, rel, modes", FIXTURE_PRODUCER_MODES)
    def test_fixture_producers_fast_match_instrumented(
        self, request, fixture, rel, modes
    ):
        ctx = request.getfixturevalue(fixture)
        for mode in modes:
            assert _producer_fast_vs_instrumented(ctx, ENUM, rel, mode)
            assert _producer_fast_vs_instrumented(ctx, GEN, rel, mode)
            _eval_twin_agrees(ctx, rel, mode)

    def test_fixtures_reach_eval_twins(self, stlc_ctx):
        assert _eval_twin_agrees(stlc_ctx, "typing", "iio")
        assert _eval_twin_agrees(stlc_ctx, "lookup", "iio")


class TestSplicing:
    """Cross-relation splicing fires where it pays, and the spliced
    fast twins keep the functionalization pass's refinement contract
    against a context with the pass off (where nothing is spliced)."""

    @pytest.mark.parametrize("maker, rel", [("bst", "bst"), ("stlc", "typing")])
    def test_splices_fire_and_agree(self, maker, rel):
        import importlib

        from repro.derive.stats import install_stats

        mod = importlib.import_module(f"repro.casestudies.{maker}")
        ctx_on, ctx_off = mod.make_context(), mod.make_context()
        disable_functionalization(ctx_off)
        stats_on, stats_off = install_stats(ctx_on), install_stats(ctx_off)
        mode = Mode.checker(ctx_on.relations.get(rel).arity)
        on = resolve_compiled(ctx_on, CHECKER, rel, mode)
        off = resolve_compiled(ctx_off, CHECKER, rel, mode)
        assert stats_on.inlined_frames > 0
        assert stats_off.inlined_frames == 0
        assert "_p1_" in on.__spec_fast_source__
        for args in seeded_inputs(ctx_on, ctx_on.relations.get(rel).arg_types):
            for fuel in (0, 2, 4):
                a, b = on(fuel, args), off(fuel, args)
                assert a is b or (b is NONE_OB and a is not NONE_OB), (
                    f"spliced twin broke a verdict: {rel} fuel={fuel} "
                    f"args={args} on={a} off={b}"
                )


class TestCaseStudies:
    def test_bst_checker_and_producers(self):
        from repro.casestudies import bst

        ctx = bst.make_context()
        assert_checkers_agree(ctx, "bst")
        assert_enums_agree(ctx, "bst", "iio", fuels=(0, 2, 3))
        assert_gens_agree(ctx, "bst", "iio")

    def test_stlc_checker_and_producers(self):
        from repro.casestudies import stlc

        ctx = stlc.make_context()
        assert_checkers_agree(ctx, "typing", fuels=(0, 2))
        assert_checkers_agree(ctx, "lookup", fuels=(0, 3))
        assert_enums_agree(ctx, "typing", "iio", fuels=(0, 3))
        assert_gens_agree(ctx, "typing", "ioi")

    def test_ifc_checker_and_producers(self):
        from repro.casestudies import ifc

        ctx = ifc.make_context()
        assert_checkers_agree(ctx, "indist_atom", fuels=(0, 3))
        assert_checkers_agree(ctx, "indist_list", fuels=(0, 2))
        assert_gens_agree(ctx, "indist_list", "io")


class TestAllModesSmallRelations:
    """Every producer mode of the small fixtures, both producer kinds."""

    @pytest.mark.parametrize("mode", ["io", "oi", "oo"])
    def test_le_modes(self, nat_ctx, mode):
        assert_enums_agree(nat_ctx, "le", mode)
        assert_gens_agree(nat_ctx, "le", mode)

    def test_ev_output_mode(self, nat_ctx):
        assert_enums_agree(nat_ctx, "ev", "o")
        assert_gens_agree(nat_ctx, "ev", "o")

    @pytest.mark.parametrize("mode", ["o"])
    def test_sorted_modes(self, list_ctx, mode):
        assert_enums_agree(list_ctx, "Sorted", mode)
        assert_gens_agree(list_ctx, "Sorted", mode)

    @pytest.mark.parametrize("mode", ["io", "oi", "oo"])
    def test_innat_modes(self, list_ctx, mode):
        assert_enums_agree(list_ctx, "InNat", mode, fuels=(0, 2, 3))
        assert_gens_agree(list_ctx, "InNat", mode)

    @pytest.mark.parametrize("mode", ["iio", "ioi"])
    def test_typing_modes(self, stlc_ctx, mode):
        assert_enums_agree(stlc_ctx, "typing", mode, fuels=(0, 2))
        assert_gens_agree(stlc_ctx, "typing", mode, seeds=range(15))


class TestChooserReplay:
    """Seeded replay through enumerate-then-choose sites at the
    Figure-3 fuels: the interpreter recomputes every choice while the
    compiled fast twin memoizes it, and both must draw the same
    stream.  A non-empty memo shows the chooser sites were reached."""

    @staticmethod
    def _memo_entries(ctx, rel, mode_str):
        fast = resolve_compiled(ctx, GEN, rel, Mode.from_string(mode_str))
        return sum(
            len(v)
            for k, v in fast.__fast_rec__.__globals__.items()
            if k.startswith("_memo")
        )

    def test_stlc_typing_at_fuel_4(self):
        from repro.casestudies import stlc

        ctx = stlc.make_context()
        assert_gens_agree(ctx, "typing", "ioi", fuel=4, seeds=range(40))
        assert self._memo_entries(ctx, "typing", "ioi")

    def test_bst_at_fuel_10(self):
        from repro.casestudies import bst

        ctx = bst.make_context()
        assert_gens_agree(ctx, "bst", "iio", fuel=10)
        assert self._memo_entries(ctx, "bst", "iio")

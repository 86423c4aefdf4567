"""Interruption-soundness differential suite (the ``fault-smoke`` CI job).

Every run here is resource-governed by a fresh :class:`Budget` with a
deterministic seeded :class:`FaultPlan` — injected forced fuel-outs,
latched trips, and cache evictions at fixed charge indices.  Because
both backends charge the identical op sequence (see
``repro.derive.exec_core``'s charge protocol), a schedule keyed on
charge indices replays identically on the interpreter and the compiled
twin, which lets the suite assert, over the SF chapter corpus and the
case studies:

* **agreement under faults** — interp and compiled produce the same
  outcome under the same schedule;
* **soundness of degradation** — a faulted run that still reaches a
  *definite* verdict agrees with the unfaulted baseline (faults only
  ever move answers toward indefinite);
* **stream validity** — a faulted enumeration emits only values the
  unfaulted enumeration emits, and generators emit only values the
  relation's checker accepts.

Wall-clock deadlines are deliberately absent: every limit is op-based,
so the whole suite is deterministic run-to-run.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ReproError
from repro.derive import Mode
from repro.derive.instances import (
    CHECKER,
    ENUM,
    GEN,
    resolve,
    resolve_compiled,
)
from repro.producers.option_bool import NONE_OB
from repro.producers.outcome import FAIL, OUT_OF_FUEL
from repro.resilience import FaultPlan, budget_scope
from repro.sf.registry import CHAPTER_MODULES

from tests.derive.test_backend_diff import chapter, seeded_inputs

FAULT_SEEDS = (101, 202, 303)
MAX_OPS = 50_000
MAX_CASES = 4
FUELS = (0, 2)


def fault_plans():
    return [FaultPlan.seeded(s, n_events=6, horizon=2048) for s in FAULT_SEEDS]


def _diff_checker_under_faults(ctx, rel, fuels=FUELS):
    """Both-backend checker diff under every seeded fault schedule.

    Returns the number of (args, fuel, plan) triples exercised, so the
    caller can assert the relation actually contributed coverage.
    """
    relation = ctx.relations.get(rel)
    mode = Mode.checker(relation.arity)
    interp = resolve(ctx, CHECKER, rel, mode).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, mode)
    cases = seeded_inputs(ctx, relation.arg_types)[:MAX_CASES]
    assert cases, f"no seeded inputs for {rel}"
    exercised = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(ctx, max_ops=MAX_OPS) as b0:
                base = interp(fuel, args)
            base_definite = b0.exhausted is None and base is not NONE_OB
            for plan in fault_plans():
                with budget_scope(
                    ctx, max_ops=MAX_OPS, faults=plan, check_every=1
                ):
                    fi = interp(fuel, args)
                with budget_scope(
                    ctx, max_ops=MAX_OPS, faults=plan, check_every=1
                ):
                    fc = compiled(fuel, args)
                assert fi is fc, (
                    f"backends diverge under faults: {rel} fuel={fuel} "
                    f"args={args} plan={list(plan)}"
                )
                if fi is not NONE_OB and base_definite:
                    assert fi is base, (
                        f"fault flipped a definite verdict: {rel} "
                        f"fuel={fuel} args={args} plan={list(plan)}"
                    )
                exercised += 1
    return exercised


class TestSFCorpusUnderFaults:
    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_checkers_survive_faults(self, module):
        ch = chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _diff_checker_under_faults(ch.ctx, entry.name):
                    covered += 1
            except ReproError:
                continue  # out of the deriver's scope
        assert covered, f"no relation in {module} was diffable under faults"


class TestCaseStudiesUnderFaults:
    def test_bst(self):
        from repro.casestudies import bst

        ctx = bst.make_context()
        assert _diff_checker_under_faults(ctx, "bst")

    def test_stlc(self):
        from repro.casestudies import stlc

        ctx = stlc.make_context()
        assert _diff_checker_under_faults(ctx, "typing")
        assert _diff_checker_under_faults(ctx, "lookup", fuels=(0, 3))

    def test_ifc(self):
        from repro.casestudies import ifc

        ctx = ifc.make_context()
        assert _diff_checker_under_faults(ctx, "indist_atom", fuels=(0, 3))
        assert _diff_checker_under_faults(ctx, "indist_list")


class TestProducersUnderFaults:
    def test_enum_streams_agree_and_stay_valid(self, nat_ctx):
        mode = Mode.from_string("oo")
        interp = resolve(nat_ctx, ENUM, "le", mode).fn
        compiled = resolve_compiled(nat_ctx, ENUM, "le", mode)
        full = [x for x in interp(4, ()) if x is not OUT_OF_FUEL]
        for plan in fault_plans():
            with budget_scope(nat_ctx, faults=plan, check_every=1):
                a = list(interp(4, ()))
            with budget_scope(nat_ctx, faults=plan, check_every=1):
                b = list(compiled(4, ()))
            assert a == b, f"enum streams diverge under plan={list(plan)}"
            values = [x for x in a if x is not OUT_OF_FUEL and x is not FAIL]
            for v in values:
                assert v in full, (
                    f"faulted enum invented a value: {v} plan={list(plan)}"
                )

    def test_gens_agree_and_generate_valid_values(self, nat_ctx):
        mode = Mode.from_string("io")
        interp = resolve(nat_ctx, GEN, "le", mode).fn
        compiled = resolve_compiled(nat_ctx, GEN, "le", mode)
        check = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        lo = seeded_inputs(nat_ctx, [nat_ctx.relations.get("le").arg_types[0]])
        for plan in fault_plans():
            for (arg,) in lo[:3]:
                for seed in range(6):
                    with budget_scope(nat_ctx, faults=plan, check_every=1):
                        a = interp(8, (arg,), random.Random(seed))
                    with budget_scope(nat_ctx, faults=plan, check_every=1):
                        b = compiled(8, (arg,), random.Random(seed))
                    assert a == b, (
                        f"gen diverges: seed={seed} plan={list(plan)}"
                    )
                    if isinstance(a, tuple):  # outputs, not a marker
                        assert check(30, (arg,) + a).is_true, (
                            f"faulted gen produced an invalid value: {a}"
                        )

    def test_gens_agree_through_chooser_sites(self):
        """STLC ``typing``@ioi enumerates-then-chooses at its ``lookup``
        premise: under a fault schedule both backends recompute the
        premise enumeration (charges and all) and draw identically."""
        from repro.casestudies import stlc
        from repro.core.values import V, from_list

        ctx = stlc.make_context()
        mode = Mode.from_string("ioi")
        interp = resolve(ctx, GEN, "typing", mode).fn
        compiled = resolve_compiled(ctx, GEN, "typing", mode)
        check = resolve(ctx, CHECKER, "typing", Mode.checker(3)).fn
        N = V("N")
        env = from_list([N, V("Arr", N, N)])
        vars_seen = 0
        for plan in fault_plans():
            for seed in range(8):
                with budget_scope(ctx, faults=plan, check_every=1):
                    a = interp(4, (env, N), random.Random(seed))
                with budget_scope(ctx, faults=plan, check_every=1):
                    b = compiled(4, (env, N), random.Random(seed))
                assert a == b, f"gen diverges: seed={seed} plan={list(plan)}"
                if isinstance(a, tuple):
                    vars_seen += "Vart" in str(a[0])
                    assert check(30, (env, a[0], N)).is_true, (
                        f"faulted gen produced an ill-typed term: {a}"
                    )
        assert vars_seen  # the lookup chooser site was reached

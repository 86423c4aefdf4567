"""Observation sessions: lifecycle, outcome encodings, backend
identity, and the QuickChick integration."""

from __future__ import annotations

import random

import pytest

from repro.core.values import from_int, nat_list
from repro.derive import (
    Mode,
    derive_checker,
    derive_enumerator,
    derive_generator,
    profile,
    trace_of,
)
from repro.derive.instances import CHECKER, resolve_compiled
from repro.derive.stats import STATS_KEY, stats_of
from repro.derive.trace import OBSERVE_KEY, TRACE_KEY
from repro.observe import Observation, observe
from repro.quickchick import classify, collect, for_all, quick_check


class TestLifecycle:
    def test_installs_and_removes_keys(self, nat_ctx):
        assert OBSERVE_KEY not in nat_ctx.caches
        with observe(nat_ctx) as obs:
            assert nat_ctx.caches[OBSERVE_KEY] is obs
            assert nat_ctx.caches[TRACE_KEY] is obs.trace
            assert stats_of(nat_ctx) is not None
        assert OBSERVE_KEY not in nat_ctx.caches
        assert TRACE_KEY not in nat_ctx.caches
        assert STATS_KEY not in nat_ctx.caches

    def test_restores_profile_trace(self, nat_ctx):
        with profile(nat_ctx) as tr:
            with observe(nat_ctx) as obs:
                assert trace_of(nat_ctx) is obs.trace
            assert trace_of(nat_ctx) is tr

    def test_nested_observe_restores_outer(self, nat_ctx):
        with observe(nat_ctx) as outer:
            with observe(nat_ctx) as inner:
                assert nat_ctx.caches[OBSERVE_KEY] is inner
            assert nat_ctx.caches[OBSERVE_KEY] is outer

    def test_all_spans_closed_after_block(self, nat_ctx):
        enum = derive_enumerator(nat_ctx, "le", "io")
        with observe(nat_ctx) as obs:
            next(iter(enum(4, from_int(0))))  # abandoned at top level
        assert not obs.spans.stack
        assert all(s.closed for s in obs.spans)
        assert any(s.outcome == "open" for s in obs.spans)

    def test_observation_does_not_change_answers(self, list_ctx):
        sorted_checker = derive_checker(list_ctx, "Sorted")
        args = [nat_list(xs) for xs in ([], [1, 2, 3], [3, 1])]
        plain = [sorted_checker(10, a) for a in args]
        with observe(list_ctx):
            traced = [sorted_checker(10, a) for a in args]
        assert plain == traced

    def test_span_cap_bounds_long_runs(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        with observe(nat_ctx, span_cap=8) as obs:
            for hi in range(20):
                le(30, from_int(1), from_int(hi))
        assert len(obs.spans) == 8
        assert obs.spans.dropped > 0
        # The trace keeps counting past the ring: coverage is complete.
        assert obs.coverage().fired("le") == {"le_n", "le_S"}


class TestOutcomeEncodings:
    def test_checker_true_false_fuel(self, nat_ctx):
        ev = derive_checker(nat_ctx, "ev")
        with observe(nat_ctx) as obs:
            assert ev(10, from_int(4)).is_true
            assert ev(10, from_int(3)).is_false
            assert ev(1, from_int(6)).is_none
        roots = obs.spans.roots()
        assert [s.outcome for s in roots] == ["true", "false", "fuel"]
        h = obs.metrics.histograms["checker.fuel_at_answer"]
        assert h.count == 2  # fuel-outs have no definite answer

    def test_enum_value_counts_and_fuel(self, nat_ctx):
        import re

        enum = derive_enumerator(nat_ctx, "le", "io")
        with observe(nat_ctx) as obs:
            n = sum(1 for _ in enum(3, from_int(0)))
        assert n > 0
        enum_spans = [s for s in obs.spans if s.kind == "enum"]
        assert enum_spans
        # Every drained enum span encodes its value count (and whether
        # it observed fuel exhaustion) in the outcome.
        for s in enum_spans:
            assert re.fullmatch(r"\d+v(\+fuel)?", s.outcome), s.outcome
        assert "enum.slice_depth" in obs.metrics.histograms

    def test_gen_value_and_fuel(self, nat_ctx):
        gen = derive_generator(nat_ctx, "le", "io")
        with observe(nat_ctx) as obs:
            for seed in range(10):
                gen(5, from_int(2), rng=random.Random(seed))
        outcomes = {s.outcome for s in obs.spans if s.kind == "gen"}
        assert "value" in outcomes
        assert obs.metrics.histograms["gen.retries"].count > 0
        # Entry-level successful samples record their value sizes.
        sizes = obs.metrics.histograms["gen.value_size"]
        assert sizes.count > 0

    def test_abandoned_enum_under_checker(self, nat_ctx):
        from repro.core import parse_declarations

        parse_declarations(
            nat_ctx,
            """
Inductive reach : nat -> Prop :=
| r : forall n m, le n m -> reach n.
""",
        )
        chk = derive_checker(nat_ctx, "reach")
        with observe(nat_ctx) as obs:
            assert chk(6, from_int(2)).is_true
        tree = obs.spans.tree(obs.spans.roots()[0])
        assert "checker:reach[i]" in tree
        assert "enum:le[io]" in tree
        enum_span = next(s for s in obs.spans if s.kind == "enum")
        assert enum_span.outcome == "abandoned"


class TestBackendIdentity:
    def _spans_and_coverage(self, ctx, run):
        with observe(ctx) as obs:
            run()
        return obs.spans.identities(), obs.coverage().table

    def test_interp_and_compiled_checker_identical(self, list_ctx):
        interp = derive_checker(list_ctx, "Sorted")
        compiled = resolve_compiled(list_ctx, CHECKER, "Sorted", Mode.checker(1))
        pool = [nat_list(xs) for xs in ([], [1], [1, 2, 3], [2, 1], [1, 3, 2])]
        ids_i, cov_i = self._spans_and_coverage(
            list_ctx, lambda: [interp(8, a) for a in pool]
        )
        ids_c, cov_c = self._spans_and_coverage(
            list_ctx, lambda: [compiled(8, (a,)) for a in pool]
        )
        assert ids_i, "no spans recorded"
        assert ids_i == ids_c
        assert cov_i == cov_c

    def test_interp_and_compiled_generator_identical_through_choosers(self):
        """STLC ``typing``@ioi enumerates its ``lookup`` premise and
        chooses: the premise's enum spans and coverage rows must match
        between the backends too."""
        from repro.casestudies import stlc
        from repro.core.values import V, from_list
        from repro.derive.instances import GEN

        ctx = stlc.make_context()
        interp = derive_generator(ctx, "typing", "ioi")
        compiled = resolve_compiled(ctx, GEN, "typing", Mode.from_string("ioi"))
        N = V("N")
        env = from_list([N, V("Arr", N, N)])
        ids_i, cov_i = self._spans_and_coverage(
            ctx,
            lambda: [interp(4, env, N, rng=random.Random(s)) for s in range(10)],
        )
        ids_c, cov_c = self._spans_and_coverage(
            ctx,
            lambda: [compiled(4, (env, N), random.Random(s)) for s in range(10)],
        )
        assert any(ident[3] == "enum" for ident in ids_i), "no chooser span"
        assert ids_i == ids_c
        assert cov_i == cov_c

    def test_mixed_backends_aggregate_one_trace(self, nat_ctx):
        interp = derive_checker(nat_ctx, "le")
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        args = (from_int(2), from_int(5))
        with observe(nat_ctx) as obs:
            interp(10, *args)
            compiled(10, args)
        # One trace, one key space: both backends land in the same rows
        # (the PR 3 contract), so every entry counts exactly twice.
        cov = obs.coverage()
        rules = cov.table[("le", "ii", "checker")]
        assert all(att % 2 == 0 for att, _ in rules.values())
        # And the two span subtrees are identical apart from sids.
        roots = obs.spans.roots()
        assert len(roots) == 2
        t1, t2 = (obs.spans.tree(r) for r in roots)
        assert t1 == t2


class TestQuickChickIntegration:
    def _le_property(self, nat_ctx, labeller=None):
        gen = derive_generator(nat_ctx, "le", "io")
        check = derive_checker(nat_ctx, "le")

        def draw(size, rng):
            out = gen(size, from_int(3), rng=rng)
            return out

        def prop(value):
            (m,) = value
            return check(10, from_int(3), m)

        judged = labeller(prop) if labeller else prop
        return for_all(draw, judged, "le 3 m sound")

    def test_collect_labels_distribution(self, nat_ctx):
        prop = self._le_property(
            nat_ctx, lambda p: collect(lambda v: f"m={v[0].size()}", p)
        )
        report = quick_check(prop, num_tests=50, size=5, seed=11)
        assert not report.failed
        assert report.labels
        assert sum(report.labels.values()) == report.tests_run
        assert all(label.startswith("m=") for label in report.labels)
        assert any("%" in line for line in str(report).splitlines()[1:])

    def test_classify_labels_condition(self, nat_ctx):
        prop = self._le_property(
            nat_ctx, lambda p: classify(lambda v: v[0].size() <= 2, "small", p)
        )
        report = quick_check(prop, num_tests=50, size=5, seed=11)
        assert set(report.labels) <= {"small"}

    def test_observe_attaches_observation(self, nat_ctx):
        prop = self._le_property(nat_ctx)
        report = quick_check(
            prop, num_tests=30, size=5, seed=7, observe=nat_ctx
        )
        assert isinstance(report.observation, Observation)
        assert len(report.observation.spans) > 0
        assert report.coverage is not None
        assert report.coverage.fired("le", kind="gen")
        # The session was uninstalled when quick_check returned.
        assert OBSERVE_KEY not in nat_ctx.caches

    def test_observe_does_not_change_verdicts(self, nat_ctx):
        prop = self._le_property(nat_ctx)
        plain = quick_check(prop, num_tests=30, size=5, seed=7)
        observed = quick_check(
            prop, num_tests=30, size=5, seed=7, observe=nat_ctx
        )
        assert plain.tests_run == observed.tests_run
        assert plain.discards == observed.discards
        assert plain.failed == observed.failed

    def test_coverage_none_without_observe(self, nat_ctx):
        report = quick_check(self._le_property(nat_ctx), num_tests=5, seed=3)
        assert report.observation is None
        assert report.coverage is None

    def test_discard_rate(self):
        from repro.quickchick.runner import CheckReport

        assert CheckReport("p").discard_rate == 0.0
        r = CheckReport("p", tests_run=75, discards=25)
        assert r.discard_rate == 0.25
        assert "25% discard rate" in str(r)

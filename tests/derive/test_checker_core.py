"""Tests for Algorithm 1 (the restricted baseline)."""

import pytest

from repro.core import parse_declarations
from repro.core.errors import OutOfScopeError
from repro.core.values import from_int, nat_list
from repro.derive.checker_core import (
    algorithm1_supported,
    algorithm1_unsupported_reasons,
    derive_checker_core,
)
from repro.derive.exec_core import make_checker
from repro.stdlib import standard_context


@pytest.fixture
def ctx():
    return standard_context()


class TestScope:
    def test_ev_supported(self, nat_ctx):
        assert algorithm1_supported(nat_ctx.relations.get("ev"))

    def test_nonlinear_unsupported(self, nat_ctx):
        reasons = algorithm1_unsupported_reasons(nat_ctx.relations.get("le"))
        assert any("non-linear" in r for r in reasons)

    def test_function_call_unsupported(self, nat_ctx):
        reasons = algorithm1_unsupported_reasons(
            nat_ctx.relations.get("square_of")
        )
        assert any("function call" in r for r in reasons)

    def test_existentials_unsupported(self, stlc_ctx):
        reasons = algorithm1_unsupported_reasons(
            stlc_ctx.relations.get("typing")
        )
        assert any("existential" in r for r in reasons)

    def test_sorted_supported(self, list_ctx):
        # Sorted's premises are external relation calls: in scope.
        assert algorithm1_supported(list_ctx.relations.get("Sorted"))

    def test_negation_unsupported(self, ctx):
        parse_declarations(
            ctx,
            """
            Inductive isz : nat -> Prop := | isz0 : isz 0.
            Inductive notz : nat -> Prop :=
            | nz : forall n, ~ isz n -> notz n.
            """,
        )
        assert not algorithm1_supported(ctx.relations.get("notz"))


class TestDerivedCore:
    def test_out_of_scope_raises(self, nat_ctx):
        with pytest.raises(OutOfScopeError):
            derive_checker_core(nat_ctx, "le")

    def test_core_checker_runs(self, nat_ctx):
        schedule = derive_checker_core(nat_ctx, "ev")
        assert schedule.algorithm == "core"
        chk = make_checker(nat_ctx, schedule)
        assert chk(10, (from_int(4),)).is_true
        assert chk(10, (from_int(5),)).is_false
        assert chk(1, (from_int(8),)).is_none

    def test_core_agrees_with_full_algorithm(self, list_ctx):
        from repro.derive import Mode, build_schedule

        core = make_checker(list_ctx, derive_checker_core(list_ctx, "Sorted"))
        full = make_checker(
            list_ctx, build_schedule(list_ctx, "Sorted", Mode.checker(1))
        )
        cases = [[], [1], [1, 2], [2, 1], [0, 0, 5], [5, 0]]
        for xs in cases:
            args = (nat_list(xs),)
            assert core(12, args).tag == full(12, args).tag

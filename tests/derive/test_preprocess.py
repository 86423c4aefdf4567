"""Tests for conclusion normalization (Section 3.1)."""

import pytest

from repro.core import parse_declarations
from repro.core.relations import EqPremise
from repro.core.terms import Ctor, Fun, Var, contains_fun, is_linear
from repro.derive import preprocess_relation, preprocess_rule
from repro.stdlib import standard_context


@pytest.fixture
def ctx():
    return standard_context()


def get_rel(ctx, text, name):
    parse_declarations(ctx, text)
    return ctx.relations.get(name)


class TestFunctionCallExtraction:
    def test_square_of(self, ctx):
        rel = get_rel(
            ctx,
            """
            Inductive square_of : nat -> nat -> Prop :=
            | sq : forall n, square_of n (n * n).
            """,
            "square_of",
        )
        out = preprocess_relation(rel, ctx)
        rule = out.rules[0]
        # Conclusion is now (n, fresh) with a premise  n * n = fresh.
        assert rule.conclusion[0] == Var("n")
        assert isinstance(rule.conclusion[1], Var)
        fresh = rule.conclusion[1].name
        assert fresh != "n"
        (eq,) = rule.premises
        assert isinstance(eq, EqPremise)
        assert eq.lhs == Fun("mult", (Var("n"), Var("n")))
        assert eq.rhs == Var(fresh)
        assert eq.ty is not None  # re-inferred

    def test_nested_call_extracted_maximally(self, ctx):
        rel = get_rel(
            ctx,
            """
            Inductive doub : nat -> nat -> Prop :=
            | d : forall n, doub n (S (n + n)).
            """,
            "doub",
        )
        out = preprocess_relation(rel, ctx)
        rule = out.rules[0]
        # S (...) stays a constructor; only the call moves out.
        conclusion = rule.conclusion[1]
        assert isinstance(conclusion, Ctor) and conclusion.name == "S"
        assert isinstance(conclusion.args[0], Var)
        assert len(rule.premises) == 1


class TestLinearization:
    def test_stlc_tabs(self, stlc_ctx):
        rel = stlc_ctx.relations.get("typing")
        out = preprocess_relation(rel, stlc_ctx)
        tabs = out.rule("TAbs")
        assert is_linear(tabs.conclusion)
        eqs = [p for p in tabs.premises if isinstance(p, EqPremise)]
        assert len(eqs) == 1
        assert eqs[0].lhs == Var("t1")

    def test_first_occurrence_keeps_name(self, ctx):
        rel = get_rel(
            ctx,
            """
            Inductive diag : nat -> nat -> Prop :=
            | dg : forall n, diag n n.
            """,
            "diag",
        )
        out = preprocess_relation(rel, ctx)
        rule = out.rules[0]
        assert rule.conclusion[0] == Var("n")
        assert rule.conclusion[1] != Var("n")

    def test_repetition_within_one_argument(self, ctx):
        rel = get_rel(
            ctx,
            """
            Inductive twin : list nat -> Prop :=
            | tw : forall x l, twin (x :: x :: l).
            """,
            "twin",
        )
        out = preprocess_relation(rel, ctx)
        assert is_linear(out.rules[0].conclusion)
        assert len(out.rules[0].premises) == 1


class TestIdempotence:
    def test_already_linear_untouched(self, nat_ctx):
        rel = nat_ctx.relations.get("ev")
        assert preprocess_relation(rel, nat_ctx) is rel

    def test_preprocessing_is_idempotent(self, nat_ctx):
        rel = nat_ctx.relations.get("square_of")
        once = preprocess_relation(rel, nat_ctx)
        twice = preprocess_relation(once, nat_ctx)
        assert once is twice

    def test_all_conclusions_become_patterns(self, stlc_ctx):
        for name in ("lookup", "typing"):
            out = preprocess_relation(stlc_ctx.relations.get(name), stlc_ctx)
            for rule in out.rules:
                assert is_linear(rule.conclusion)
                assert not any(contains_fun(t) for t in rule.conclusion)

    def test_fresh_vars_do_not_collide(self, ctx):
        rel = get_rel(
            ctx,
            """
            Inductive tricky : nat -> nat -> Prop :=
            | tk : forall n n_nl, le n n_nl -> tricky n n.
            """
            .replace("le n n_nl", "n = n_nl"),
            "tricky",
        )
        out = preprocess_relation(rel, ctx)
        rule = out.rules[0]
        names = rule.variables()
        # Three distinct variables: n, the user's n_nl, and the fresh one.
        assert len(names) == 3


class TestNormalizedOnce:
    """The gate, the determinacy analysis, the scheduler and the proof
    search share one normalized relation per relation per context."""

    @staticmethod
    def _counting(monkeypatch) -> dict:
        from repro.derive import preprocess

        runs: dict = {}
        real = preprocess.preprocess_relation

        def counted(rel, ctx):
            key = (id(ctx), rel.name)
            runs[key] = runs.get(key, 0) + 1
            return real(rel, ctx)

        monkeypatch.setattr(preprocess, "preprocess_relation", counted)
        return runs

    @staticmethod
    def _derive(ctx, rel, gen_mode):
        from repro.derive import Mode, derive_checker, derive_generator
        from repro.derive.instances import CHECKER, GEN, resolve_compiled

        derive_checker(ctx, rel)
        derive_generator(ctx, rel, gen_mode)
        arity = ctx.relations.get(rel).arity
        resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity))
        resolve_compiled(ctx, GEN, rel, Mode.from_string(gen_mode))

    @pytest.mark.parametrize(
        "study,rel,gen_mode", [("stlc", "typing", "ioi"), ("ifc", "indist_list", "io")]
    )
    def test_checker_and_generator_normalize_each_relation_once(
        self, monkeypatch, study, rel, gen_mode
    ):
        import importlib

        runs = self._counting(monkeypatch)
        ctx = importlib.import_module(f"repro.casestudies.{study}").make_context()
        self._derive(ctx, rel, gen_mode)
        assert runs.get((id(ctx), rel)) == 1
        assert max(runs.values()) == 1
        child = ctx.fork()
        self._derive(child, rel, gen_mode)
        assert runs.get((id(child), rel)) == 1
        assert max(runs.values()) == 1

    def test_redeclared_relation_is_normalized_afresh(self, ctx):
        from repro.derive.preprocess import normalized_relation

        text = "Inductive sq : nat -> nat -> Prop := | s : forall n, sq n (n * n)."
        first = normalized_relation(ctx, get_rel(ctx, text, "sq"))
        assert normalized_relation(ctx, ctx.relations.get("sq")) is first
        other = get_rel(standard_context(), text.replace("n * n", "n + n"), "sq")
        ctx.relations.declare(other, allow_replace=True)
        second = normalized_relation(ctx, ctx.relations.get("sq"))
        assert second is not first
        assert any(
            isinstance(p, EqPremise) and p.lhs.name == "plus"
            for p in second.rules[0].premises
        )

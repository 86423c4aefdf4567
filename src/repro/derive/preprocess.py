"""Preprocessing: normalize rule conclusions to linear patterns.

Section 3.1 of the paper handles two features by rewriting them into
equality premises before derivation:

* **Non-linear patterns** — a variable occurring twice in a conclusion
  (``typing Γ (Abs t1 e) (Arr t1 t2)``) is renamed at its later
  occurrences and an equality premise is added::

      TAbs : forall e t1 t2 t1', t1 = t1' ->
             typing (t1 :: Γ) e t2 -> typing Γ (Abs t1 e) (Arr t1' t2)

* **Function calls in conclusions** — a call (``square_of n (n * n)``)
  is replaced by a fresh variable constrained by equality::

      sq : forall n m, n * n = m -> square_of n m

After preprocessing, every conclusion is a *linear constructor
pattern*, so it can be compiled directly to a pattern match
(Algorithm 1).  The inserted equalities appear before the original
premises, in conclusion-argument order — mirroring the handlers shown
in the paper's Figure 1.  Variable types (including those of the fresh
variables) are (re)inferred afterwards.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.context import Context
from ..core.names import NameSupply
from ..core.relations import EqPremise, Premise, Relation, Rule
from ..core.terms import Ctor, Fun, Term, Var


def _extract_funcalls(
    t: Term, supply: NameSupply, eqs: list[EqPremise]
) -> Term:
    """Replace each *maximal* function-call subterm of *t* with a fresh
    variable, recording ``call = fresh`` equality premises."""
    if isinstance(t, Var):
        return t
    if isinstance(t, Fun):
        fresh = supply.fresh(f"{t.name}_out")
        eqs.append(EqPremise(t, Var(fresh)))
        return Var(fresh)
    return Ctor(t.name, tuple(_extract_funcalls(a, supply, eqs) for a in t.args))


def _linearize(
    t: Term, supply: NameSupply, seen: set[str], eqs: list[EqPremise]
) -> Term:
    """Rename repeated variable occurrences, recording
    ``orig = fresh`` equality premises.  The *first* occurrence keeps
    the original name."""
    if isinstance(t, Var):
        if t.name in seen:
            fresh = supply.fresh(t.name + "_nl")
            eqs.append(EqPremise(Var(t.name), Var(fresh)))
            return Var(fresh)
        seen.add(t.name)
        return t
    if isinstance(t, Fun):
        raise AssertionError("function calls must be extracted before linearizing")
    return Ctor(
        t.name, tuple(_linearize(a, supply, seen, eqs) for a in t.args)
    )


def preprocess_rule(rule: Rule) -> Rule:
    """Normalize one rule's conclusion; returns the rule unchanged if
    it is already a linear constructor pattern."""
    supply = NameSupply(rule.variables())
    fun_eqs: list[EqPremise] = []
    extracted = tuple(
        _extract_funcalls(t, supply, fun_eqs) for t in rule.conclusion
    )
    lin_eqs: list[EqPremise] = []
    seen: set[str] = set()
    linear = tuple(_linearize(t, supply, seen, lin_eqs) for t in extracted)
    if not fun_eqs and not lin_eqs:
        return rule
    new_premises: tuple[Premise, ...] = (
        tuple(lin_eqs) + tuple(fun_eqs) + rule.premises
    )
    # Fresh variables lack entries in var_types; inference fills them
    # in when the whole relation is re-checked.
    return replace(rule, premises=new_premises, conclusion=linear)


def preprocess_relation(rel: Relation, ctx: Context) -> Relation:
    """Normalize every rule of *rel* and re-infer variable types.

    The result has the same name and meaning as *rel* (each rewrite
    replaces a pattern constraint with an explicit equality premise);
    it is *not* registered in the context — the derivation pipeline
    and the reference proof search consume it directly.
    """
    new_rules = tuple(preprocess_rule(r) for r in rel.rules)
    if new_rules == rel.rules:
        return rel
    candidate = replace(rel, rules=new_rules)
    from ..core.typecheck import infer_relation_types

    return infer_relation_types(candidate, ctx)


#: ``ctx.artifacts`` key of the per-context normalized-relation cache.
NORMALIZED_KEY = "normalized_relations"


def normalized_relation(ctx: Context, rel: Relation) -> Relation:
    """:func:`preprocess_relation` of *rel*, computed once per context.

    Entries are keyed by relation name and hold the ``Relation`` they
    were built from: a hit requires that very object, so a re-declared
    relation is normalized afresh, and a forked context (whose artifacts
    start empty) builds its own.  The analysis gate, the determinacy
    analysis, the scheduler and the reference proof search all read it.
    """
    cache = ctx.artifacts.setdefault(NORMALIZED_KEY, {})
    hit = cache.get(rel.name)
    if hit is not None and hit[0] is rel:
        return hit[1]
    out = preprocess_relation(rel, ctx)
    cache[rel.name] = (rel, out)
    return out

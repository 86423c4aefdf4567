"""The linter checks (REL001..REL009).

The analyzer answers, *without executing any derived computation*:
will deriving ``(rel, mode)`` work, and will the result behave the way
the paper's algorithms promise?  Each check maps to a concept in the
source material:

* **REL001** — mode consistency / derivability (Section 4).  Replays
  the scheduler's variable-knowledge dataflow per rule and reports
  which premise forces which variable into unconstrained
  instantiation (generate-and-test), or blocks derivation outright.
* **REL002** — negation stratification (Section 5.2.2).  A negated
  premise whose target is in the same recursive component as the
  negating relation makes the checker's fixpoint non-monotone.
* **REL003** — unreachable / overlapping rules.  A premise-free rule
  whose conclusion subsumes a later rule's makes the later rule
  unreachable for checkers (``backtracking`` short-circuits at the
  first success) or redundant for producers.
* **REL004** — dead rules / unproductive recursion.  A relation none
  of whose rules can ever succeed exhausts fuel on every query; a
  zero-rule relation is *decidably* empty (``backtracking([])`` is
  ``Some false``) and only worth an info.
* **REL005** — instance-dependency closure (Section 8's typeclass
  limitation).  Walks ``required_instances`` transitively, reporting
  missing relations, underivable dependencies, and cyclic instance
  needs as diagnostics instead of deep ``DerivationError``\\ s.
* **REL006** — preprocessing degradation (Section 3.1).  Warns when a
  conclusion function call or non-linear pattern is *not* absorbed by
  the schedule (the inserted equality never becomes directed and the
  scheduler falls back to generate-and-test).
* **REL007/REL008/REL009** — determinacy & functionality
  (:mod:`repro.analysis.determinacy`): modes proven to return at most
  one answer (info), functional premises left to enumerate-then-check
  when the functionalization pass is off (warning), and
  claimed-deterministic producer modes defeated by overlapping
  conclusions (warning).

The per-rule simulation is the real scheduler: ``_Probe`` subclasses
``_HandlerBuilder`` (which itself sits on the shared
:class:`~repro.derive.readiness.RuleDataflow`) and only overrides the
instantiation hook, so diagnostics can never drift from what
``build_schedule`` actually does.
"""

from __future__ import annotations

from ..core.context import Context
from ..core.errors import OutOfScopeError, ReproError
from ..core.relations import Relation, RelPremise, Rule
from ..core.terms import Fun, Term, Var, subst, var_set_all
from ..core.unify import unify
from ..derive.instances import CHECKER, ENUM, GEN, lookup
from ..derive.modes import Mode
from ..derive.preprocess import normalized_relation
from ..derive.schedule import Schedule
from ..derive.scheduler import (
    DEFAULT_POLICY,
    _HandlerBuilder,
    build_schedule,
    check_in_scope,
    required_instances,
)
from .diagnostics import Diagnostic, Report, Severity


# ---------------------------------------------------------------------------
# REL001 / REL006: the scheduler probe
# ---------------------------------------------------------------------------

class _Probe(_HandlerBuilder):
    """Runs the real scheduler on one rule, recording every
    unconstrained instantiation (and its reason) instead of requiring
    the variable's type to be known."""

    def __init__(self, ctx: Context, rel: Relation, rule: Rule, mode: Mode) -> None:
        super().__init__(ctx, rel, rule, mode, DEFAULT_POLICY)
        #: (variable, reason kind, premise or None), in schedule order
        self.events: list = []

    def _instantiate(self, name, reason=None):
        kind, premise = reason if reason is not None else ("unconstrained", None)
        self.events.append((name, kind, premise))
        # Unlike the scheduler, don't demand a type: record and go on,
        # so one missing type doesn't hide later findings.
        self.vars.mark_known(name)


_REASON_TEXT = {
    "funcall": "it occurs under a function call in premise '{p}'",
    "negated": "negated premise '{p}' must be fully instantiated before checking",
    "recursive-input": "recursive premise '{p}' needs it at an input position",
    "producer-input": "premise '{p}' needs it at an input position",
    "forced-eq": "equality premise '{p}' never becomes directed",
    "unconstrained": "premise '{p}' is checked by brute force",
}


def _probe_rule(
    ctx: Context,
    pre: Relation,
    rule: Rule,
    orig: Rule,
    mode: Mode,
    diags: list,
):
    """REL001/REL006 for one preprocessed rule; returns the built
    handler, or None when the rule cannot be scheduled at all."""
    mode_str = str(mode)
    # Premises inserted by preprocessing sit in front of the original
    # ones; degradation through them is the conclusion's fault (REL006),
    # through user-written premises it is the mode's (REL001).
    n_syn = len(rule.premises) - len(orig.premises)
    synthetic = list(rule.premises[:n_syn])

    probe = _Probe(ctx, pre, rule, mode)
    try:
        handler = probe.build()
    except ReproError as exc:
        diags.append(
            Diagnostic(
                "REL001",
                Severity.ERROR,
                f"rule cannot be scheduled: {exc}",
                pre.name,
                rule.name,
                mode=mode_str,
                span=rule.span,
            )
        )
        return None

    for name, kind, premise in probe.events:
        note = None if premise is None else f"while processing '{premise}'"
        if name not in probe.var_types:
            blocker = (
                f"blocking premise: '{premise}'"
                if premise is not None
                else "needed for an unconstrained output position"
            )
            diags.append(
                Diagnostic(
                    "REL001",
                    Severity.ERROR,
                    f"variable {name!r} must be instantiated unconstrained "
                    "but has no inferred type ({})".format(blocker),
                    pre.name,
                    rule.name,
                    mode=mode_str,
                    span=rule.span,
                    note="was the relation declared without type inference?",
                )
            )
        elif premise is not None and premise in synthetic:
            cause = (
                "a function call in the conclusion"
                if isinstance(premise.lhs, Fun)
                else "a non-linear conclusion pattern"
            )
            diags.append(
                Diagnostic(
                    "REL006",
                    Severity.WARNING,
                    f"{cause} degrades to generate-and-test: variable "
                    f"{name!r} is enumerated unconstrained and filtered "
                    f"through '{premise}'",
                    pre.name,
                    rule.name,
                    mode=mode_str,
                    span=rule.span,
                )
            )
        elif kind == "output":
            diags.append(
                Diagnostic(
                    "REL001",
                    Severity.INFO,
                    f"output variable {name!r} is unconstrained by any "
                    "premise; producers sample it arbitrarily",
                    pre.name,
                    rule.name,
                    mode=mode_str,
                    span=rule.span,
                )
            )
        else:
            diags.append(
                Diagnostic(
                    "REL001",
                    Severity.WARNING,
                    f"variable {name!r} is bound by generate-and-test: "
                    + _REASON_TEXT[kind].format(p=premise),
                    pre.name,
                    rule.name,
                    mode=mode_str,
                    span=rule.span,
                    note=note,
                )
            )
    return handler


# ---------------------------------------------------------------------------
# REL002 / REL004: relation-graph checks
# ---------------------------------------------------------------------------

def _relation_graph(ctx: Context):
    """Call graph over declared relations, plus the negated edges."""
    edges: dict[str, set[str]] = {}
    negated: list[tuple[str, str, Rule, RelPremise]] = []
    for rel in ctx.relations:
        outs: set[str] = set()
        for rule in rel.rules:
            for p in rule.premises:
                if isinstance(p, RelPremise):
                    outs.add(p.rel)
                    if p.negated:
                        negated.append((rel.name, p.rel, rule, p))
        edges[rel.name] = outs
    return edges, negated


def _sccs(edges: dict[str, set[str]]):
    """Iterative Tarjan; returns (node -> component id, components)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    comps: list[list[str]] = []
    counter = 0

    def succs(node: str):
        return iter(sorted(e for e in edges[node] if e in edges))

    for root in sorted(edges):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[str, object]] = [(root, succs(root))]
        while work:
            node, it = work[-1]
            pushed = False
            for nxt in it:  # type: ignore[union-attr]
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, succs(nxt)))
                    pushed = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = len(comps)
                    members.append(w)
                    if w == node:
                        break
                comps.append(sorted(members))
    return comp, comps


def _reachable(edges: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        for nxt in edges.get(node, ()):
            if nxt in edges and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _check_stratification(
    ctx: Context, scope: set[str], diags: list
) -> None:
    """REL002: a negated premise inside a recursive component."""
    edges, negated = _relation_graph(ctx)
    if not negated:
        return
    comp, comps = _sccs(edges)
    for src, dst, rule, premise in negated:
        if src not in scope:
            continue
        if dst in comp and comp[src] == comp[dst]:
            cycle = " <-> ".join(comps[comp[src]])
            diags.append(
                Diagnostic(
                    "REL002",
                    Severity.ERROR,
                    f"negated premise '{premise}' is not stratified: "
                    f"{dst!r} is defined mutually with {src!r} "
                    f"(component {cycle}), so the checker fixpoint is "
                    "non-monotone",
                    src,
                    rule.name,
                    span=rule.span,
                    note="negation requires the negated relation to be "
                    "decidable independently of the negating one "
                    "(Section 5.2.2)",
                )
            )


def _productive_relations(ctx: Context) -> set[str]:
    """Least fixpoint of 'has a rule all of whose positive relation
    premises are productive'."""
    grounded: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rel in ctx.relations:
            if rel.name in grounded or not rel.rules:
                continue
            for rule in rel.rules:
                deps = [
                    p.rel
                    for p in rule.premises
                    if isinstance(p, RelPremise) and not p.negated
                ]
                if all(d in grounded for d in deps):
                    grounded.add(rel.name)
                    changed = True
                    break
    return grounded


def _check_productivity(
    ctx: Context, rel: Relation, grounded: set[str], diags: list
) -> None:
    """REL004 for one relation."""
    if not rel.rules:
        diags.append(
            Diagnostic(
                "REL004",
                Severity.INFO,
                "has no rules: decidably empty (checkers answer "
                "'Some false' without spending fuel)",
                rel.name,
                span=rel.span,
            )
        )
        return
    if rel.name not in grounded:
        diags.append(
            Diagnostic(
                "REL004",
                Severity.ERROR,
                "no rule can ever succeed: the recursion reaches no base "
                "case, so every derived computation exhausts its fuel",
                rel.name,
                span=rel.span,
                note="every rule's positive premises lead back into "
                "unproductive relations",
            )
        )
        return
    for rule in rel.rules:
        for p in rule.premises:
            if not isinstance(p, RelPremise) or p.negated:
                continue
            if p.rel not in ctx.relations or p.rel in grounded:
                continue
            dep = ctx.relations.get(p.rel)
            why = (
                f"premise relation {p.rel!r} is empty (has no rules)"
                if not dep.rules
                else f"premise relation {p.rel!r} never succeeds"
            )
            diags.append(
                Diagnostic(
                    "REL004",
                    Severity.WARNING,
                    f"rule can never succeed: {why}",
                    rel.name,
                    rule.name,
                    span=rule.span,
                )
            )
            break  # one finding per rule is enough


# ---------------------------------------------------------------------------
# REL003: rule overlap / unreachability
# ---------------------------------------------------------------------------

def _subsumes(
    general: tuple[Term, ...], specific: tuple[Term, ...], specific_vars: set[str]
) -> bool:
    """Does *general* match every instance of *specific*?  (One-way
    matching: unification succeeding without binding any
    *specific*-side variable.)"""
    s: dict = {}
    for g, t in zip(general, specific):
        nxt = unify(g, t, s)
        if nxt is None:
            return False
        s = nxt
    return all(name not in specific_vars for name in s)


def _check_overlap(pre: Relation, mode: Mode, diags: list) -> None:
    """REL003 over the *preprocessed* rules — synthetic equality
    premises count as constraints, so a non-linear base rule (e.g.
    ``le n n``) does not subsume everything."""
    mode_str = str(mode)
    for i, ri in enumerate(pre.rules):
        if ri.premises:
            continue  # only an unconditional rule always succeeds
        for rj in pre.rules[i + 1 :]:
            env = {v: Var(f"{v}#r3") for v in var_set_all(rj.conclusion)}
            renamed = tuple(subst(t, env) for t in rj.conclusion)
            spec_vars = {f"{v}#r3" for v in var_set_all(rj.conclusion)}
            if not _subsumes(ri.conclusion, renamed, spec_vars):
                continue
            if mode.is_checker:
                message = (
                    f"rule is unreachable at mode {mode_str}: premise-free "
                    f"rule {ri.name!r} already accepts every input this "
                    "rule matches, and the checker stops at the first "
                    "success"
                )
            else:
                message = (
                    f"rule is redundant at mode {mode_str}: every tuple it "
                    f"can produce is already produced by premise-free rule "
                    f"{ri.name!r}"
                )
            diags.append(
                Diagnostic(
                    "REL003",
                    Severity.WARNING,
                    message,
                    pre.name,
                    rj.name,
                    mode=mode_str,
                    span=rj.span,
                )
            )


# ---------------------------------------------------------------------------
# REL005: instance dependency closure
# ---------------------------------------------------------------------------

def _instance_requirements(ctx: Context, schedule: Schedule, kind: str):
    """``required_instances`` resolved to concrete (kind, rel, mode)
    triples, the way ``instances._resolve_dependencies`` maps them."""
    producer_kind = kind if kind != CHECKER else ENUM
    out = []
    for need_kind, need_rel, need_mode in required_instances(schedule):
        if need_kind == "checker":
            if need_rel in ctx.relations:
                need_mode = Mode.checker(ctx.relations.get(need_rel).arity)
            out.append((CHECKER, need_rel, need_mode))
        else:
            out.append((producer_kind, need_rel, need_mode))
    return out


def _check_instance_closure(
    ctx: Context,
    rel: Relation,
    mode: Mode,
    kind: str,
    root_schedule: Schedule,
    diags: list,
) -> None:
    """REL005: walk the dependency closure the way ``resolve`` would,
    but report problems instead of raising mid-derivation."""
    mode_str = str(mode)
    visited: set[tuple] = set()

    def report(severity: Severity, message: str, note: str | None = None):
        diags.append(
            Diagnostic(
                "REL005",
                severity,
                message,
                rel.name,
                mode=mode_str,
                span=rel.span,
                note=note,
            )
        )

    def visit(need_kind: str, need_rel: str, need_mode, chain: list) -> None:
        key = (need_kind, need_rel, str(need_mode))
        if key in chain:
            cycle = " -> ".join(
                f"{k}:{r}:{m}" for k, r, m in chain[chain.index(key) :] + [key]
            )
            report(
                Severity.ERROR,
                f"cyclic instance dependency ({cycle})",
                note="mutually recursive relations need "
                "repro.derive.mutual.derive_mutual",
            )
            return
        if key in visited:
            return
        visited.add(key)
        if need_rel not in ctx.relations:
            report(
                Severity.ERROR,
                f"required {need_kind} instance calls undeclared relation "
                f"{need_rel!r}",
            )
            return
        if lookup(ctx, need_kind, need_rel, need_mode) is not None:
            return  # a registered (possibly handwritten) instance: leaf
        try:
            schedule = build_schedule(ctx, need_rel, need_mode)
        except ReproError as exc:
            report(
                Severity.ERROR,
                f"required {need_kind} instance for {need_rel!r} at mode "
                f"{need_mode} cannot be derived: {exc}",
            )
            return
        for nk, nr, nm in _instance_requirements(ctx, schedule, need_kind):
            visit(nk, nr, nm, chain + [key])

    root_key = (kind, rel.name, mode_str)
    for nk, nr, nm in _instance_requirements(ctx, root_schedule, kind):
        visit(nk, nr, nm, [root_key])


def _check_determinacy(
    ctx: Context, rel: Relation, mode: Mode, diags: list
) -> None:
    """REL007/REL008/REL009: the determinacy & functionality analysis
    (:mod:`repro.analysis.determinacy`) surfaced as lint findings.

    * **REL007** (info) — a relation mode proven ``det``/``functional``:
      the analyzed mode itself when it is a producer mode, plus every
      mode derived for a premise produce loop (the backend rewrites
      those loops to direct evaluation).
    * **REL008** (warning) — a functional premise that *will* run by
      enumerate-then-check because functionalization is switched off.
      With the pass enabled (the default) the premise is computed
      directly and the warning does not apply.
    * **REL009** (warning) — a producer mode whose rules are all
      individually deterministic but whose conclusions definitely
      overlap on the input positions, defeating the claimed
      determinism (the paper's functionality precondition).
    """
    from ..derive.plan import functionalization_enabled
    from .determinacy import analyze_determinacy

    try:
        res = analyze_determinacy(ctx, rel.name, mode)
    except ReproError:
        return  # underivable modes are REL001/REL005 territory
    mode_str = str(mode)
    if not mode.is_checker:
        if res.verdict.at_most_one:
            diags.append(
                Diagnostic(
                    "REL007",
                    Severity.INFO,
                    f"proven {res.verdict} at producer mode {mode_str}",
                    rel.name,
                    mode=mode_str,
                    span=rel.span,
                    note="at most one answer per input: premise calls at "
                    "this mode are eligible for functionalization",
                )
            )
        elif res.definite_overlaps:
            a, b = res.definite_overlaps[0]
            diags.append(
                Diagnostic(
                    "REL009",
                    Severity.WARNING,
                    f"rules {a!r} and {b!r} have overlapping conclusions "
                    f"on the inputs of mode {mode_str}, so the mode can "
                    "yield duplicate answers",
                    rel.name,
                    rule=a,
                    mode=mode_str,
                    span=rel.span,
                    note="a single input matches both conclusions; "
                    "disjoint conclusions are a precondition for a "
                    "det/functional verdict",
                )
            )
    sites = res.functional_sites
    if not sites:
        return
    enabled = functionalization_enabled(ctx)
    seen: set[tuple[str, str]] = set()
    for site in sites:
        if not enabled:
            diags.append(
                Diagnostic(
                    "REL008",
                    Severity.WARNING,
                    f"premise {site.rel!r} is {site.verdict} at mode "
                    f"{site.mode_str} but runs by enumerate-then-check",
                    rel.name,
                    rule=site.rule,
                    mode=mode_str,
                    span=rel.span,
                    note="functionalization is disabled "
                    "(REPRO_NO_FUNCTIONALIZE / disable_functionalization); "
                    "enabling it computes this premise directly",
                )
            )
        key = (site.rel, site.mode_str)
        if key in seen:
            continue
        seen.add(key)
        target = ctx.relations.get(site.rel)
        diags.append(
            Diagnostic(
                "REL007",
                Severity.INFO,
                f"proven {site.verdict} at derived mode {site.mode_str}",
                site.rel,
                mode=site.mode_str,
                span=target.span,
                note=f"derived for a premise in rule {site.rule!r} of "
                f"{rel.name!r}",
            )
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze(
    ctx: Context,
    rel_name: str,
    mode: "str | Mode | None" = None,
    *,
    kind: str | None = None,
) -> Report:
    """Lint ``(rel, mode)``; ``mode=None`` means the checker mode.

    ``kind`` (one of ``'checker'``/``'enum'``/``'gen'``) names the
    artifact whose dependency closure REL005 walks; it defaults to the
    checker for checker modes and the enumerator otherwise.
    """
    rel = ctx.relations.get(rel_name)
    mode_obj = (
        Mode.checker(rel.arity) if mode is None else Mode.for_relation(rel, mode)
    )
    if kind is None:
        kind = CHECKER if mode_obj.is_checker else ENUM
    if kind not in (CHECKER, ENUM, GEN):
        raise ValueError(f"bad instance kind {kind!r}")
    diags: list[Diagnostic] = []
    mode_str = str(mode_obj)

    try:
        check_in_scope(ctx, rel)
    except OutOfScopeError as exc:
        diags.append(
            Diagnostic(
                "REL001",
                Severity.ERROR,
                str(exc),
                rel.name,
                mode=mode_str,
                span=rel.span,
            )
        )
        return Report.of(diags)

    edges, _ = _relation_graph(ctx)
    scope = _reachable(edges, rel.name)
    _check_stratification(ctx, scope, diags)
    _check_productivity(ctx, rel, _productive_relations(ctx), diags)

    try:
        pre = normalized_relation(ctx, rel)
    except ReproError as exc:
        diags.append(
            Diagnostic(
                "REL001",
                Severity.ERROR,
                f"preprocessing/type inference failed: {exc}",
                rel.name,
                mode=mode_str,
                span=rel.span,
            )
        )
        return Report.of(diags)

    _check_overlap(pre, mode_obj, diags)

    orig_by_name = {r.name: r for r in rel.rules}
    handlers = []
    schedulable = True
    for rule in pre.rules:
        handler = _probe_rule(
            ctx, pre, rule, orig_by_name[rule.name], mode_obj, diags
        )
        if handler is None:
            schedulable = False
        else:
            handlers.append(handler)

    if schedulable:
        out_types = tuple(rel.arg_types[i] for i in mode_obj.out_list)
        root = Schedule(rel.name, mode_obj, tuple(handlers), out_types)
        _check_instance_closure(ctx, rel, mode_obj, kind, root, diags)
        _check_determinacy(ctx, rel, mode_obj, diags)

    return Report.of(diags)


def analyze_context(
    ctx: Context,
    modes: "dict[str, list[str]] | None" = None,
) -> Report:
    """Lint every monomorphic relation in *ctx* at its checker mode,
    plus any extra ``{relation: [mode specs]}`` requested."""
    report = Report.of(())
    for rel in sorted(ctx.relations, key=lambda r: r.name):
        if not rel.is_monomorphic():
            continue  # nothing can be derived until it is instantiated
        report = report.merge(analyze(ctx, rel.name))
        for spec in (modes or {}).get(rel.name, ()):
            report = report.merge(analyze(ctx, rel.name, spec))
    return report

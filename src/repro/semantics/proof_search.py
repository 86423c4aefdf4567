"""Bounded reference proof search — the ground-truth semantics.

Translation validation (Section 5) needs an independent notion of when
``P v1 .. vn`` *holds*.  In Coq that notion is the logic itself; here
it is a bounded logic-programming engine over the declared rules:

    derivable(ctx, P, args, depth)  ⟺  some derivation tree of height
                                        ≤ depth concludes P args

The engine is an SLD-style resolution procedure with three refinements
that make it a usable ground truth for the whole corpus:

* **Function calls** are evaluated as soon as their arguments are
  ground (rules are normalized first, so conclusions are patterns).
* **Floundering premises** (whose unification or evaluation must wait
  for other premises to bind variables) are deferred and retried; if
  premises still flounder once everything else succeeded, the engine
  falls back to *bounded generate-and-test*: it enumerates candidate
  values for an unbound variable (up to ``enum_depth``) and retries.
  Generate-and-test is slow but obviously correct — exactly what a
  reference semantics should be.
* **Negated premises** are discharged by bounded refutation with a
  separate ``neg_depth`` budget (negation-as-failure; sound for the
  decidable relations the corpus negates, mirroring the paper's
  completeness caveat in Section 5.2.2).

Ground queries are memoized per context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.context import Context
from ..core.errors import EvaluationError, ReproError
from ..core.relations import EqPremise, Premise, Relation, RelPremise, Rule
from ..core.terms import Ctor, Fun, Term, Var, term_to_value, value_to_term
from ..core.types import TypeExpr
from ..core.unify import Subst, is_ground_under, resolve, unify, walk
from ..core.values import Value
from .derivation import Derivation


class FlounderError(ReproError):
    """The engine could not schedule a premise even with
    generate-and-test (e.g. an unbound variable of unknown type)."""


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the reference search.

    ``max_nodes`` bounds the number of rule applications a single
    open-goal query may explore; hitting it stops the search quietly
    (callers treat the witness set as a sound under-approximation).
    """

    neg_depth: int = 24
    enum_depth: int = 6
    max_solutions: int | None = None
    max_nodes: int = 200_000


class _Budget(Exception):
    """Internal: open-goal node budget exhausted."""


_DEFAULT = SearchConfig()


def _normalized(ctx: Context, rel_name: str) -> Relation:
    """The relation with conclusions normalized to linear patterns
    (function calls and repeated variables moved to equality premises),
    from the context's normalized-relation cache."""
    from ..derive.preprocess import normalized_relation

    return normalized_relation(ctx, ctx.relations.get(rel_name))


def _eval_open(t: Term, s: Subst, ctx: Context) -> Term:
    """Resolve *t* under *s* and evaluate every function call whose
    arguments became ground.  Raises :class:`EvaluationError` if a
    ground call fails (treated as premise failure by callers)."""
    t = walk(t, s)
    if isinstance(t, Var):
        return t
    new_args = tuple(_eval_open(a, s, ctx) for a in t.args)
    if isinstance(t, Ctor):
        return Ctor(t.name, new_args)
    if all(_term_is_value(a) for a in new_args):
        fn = ctx.functions.require(t.name)
        result = fn.apply(tuple(term_to_value(a) for a in new_args))
        return value_to_term(result)
    return Fun(t.name, new_args)


def _term_is_value(t: Term) -> bool:
    if isinstance(t, Ctor):
        return all(_term_is_value(a) for a in t.args)
    return False


def _has_fun(t: Term) -> bool:
    if isinstance(t, Fun):
        return True
    if isinstance(t, Var):
        return False
    return any(_has_fun(a) for a in t.args)


def _unbound_vars(t: Term, s: Subst) -> list[str]:
    t = walk(t, s)
    if isinstance(t, Var):
        return [t.name]
    out: list[str] = []
    for a in t.args:
        out.extend(_unbound_vars(a, s))
    return out


class _Engine:
    def __init__(self, ctx: Context, cfg: SearchConfig) -> None:
        self.ctx = ctx
        self.cfg = cfg
        self._rename_counter = 0
        self._nodes = 0
        # Ground-query memo: (rel, args, depth) -> Derivation | None
        self.memo: dict = ctx.caches.setdefault("proof_search_memo", {})
        # Positive results, keyed without the depth: (depth_found, tree).
        self.success: dict = ctx.caches.setdefault("proof_search_success", {})

    # -- goals ------------------------------------------------------------------

    def solve_goal(
        self, rel_name: str, args: tuple[Term, ...], s: Subst, depth: int
    ) -> Iterator[tuple[Subst, Derivation]]:
        """Yield (substitution, derivation) pairs proving
        ``rel_name args`` with derivation height ≤ depth."""
        if depth <= 0:
            return
        try:
            args = tuple(_eval_open(a, s, self.ctx) for a in args)
        except EvaluationError:
            return
        if all(_term_is_value(a) for a in args):
            ground = tuple(term_to_value(a) for a in args)
            tree = self.ground_query(rel_name, ground, depth)
            if tree is not None:
                yield s, tree
            return
        rel = _normalized(self.ctx, rel_name)
        for rule in rel.rules:
            yield from self._apply_rule(rel, rule, args, s, depth)

    def ground_query(
        self, rel_name: str, args: tuple[Value, ...], depth: int
    ) -> Derivation | None:
        key = (rel_name, args, depth, self.cfg.enum_depth, self.cfg.neg_depth)
        if key in self.memo:
            return self.memo[key]
        # Fast positive path: a success at a smaller depth is a success
        # here too (monotonicity of derivability in the height bound).
        success_key = (rel_name, args, self.cfg.enum_depth, self.cfg.neg_depth)
        prior = self.success.get(success_key)
        if prior is not None and prior[0] <= depth:
            self.memo[key] = prior[1]
            return prior[1]
        # Mark in-progress to cut cycles at equal depth: a derivation
        # of height ≤ depth cannot pass through the same ground goal
        # with the same remaining height.
        self.memo[key] = None
        result: Derivation | None = None
        rel = _normalized(self.ctx, rel_name)
        arg_terms = tuple(value_to_term(v) for v in args)
        for rule in rel.rules:
            for _s, tree in self._apply_rule(rel, rule, arg_terms, {}, depth):
                result = tree
                break
            if result is not None:
                break
        self.memo[key] = result
        if result is not None:
            best = self.success.get(success_key)
            if best is None or depth < best[0]:
                self.success[success_key] = (depth, result)
        return result

    # -- rules ------------------------------------------------------------------

    def _rename_rule(self, rule: Rule) -> tuple[Rule, dict[str, str]]:
        self._rename_counter += 1
        tag = self._rename_counter
        mapping = {v: f"__{tag}${v}" for v in rule.variables()}
        renamed = rule.subst_terms({v: Var(n) for v, n in mapping.items()})
        return renamed, mapping

    def _apply_rule(
        self,
        rel: Relation,
        rule: Rule,
        args: tuple[Term, ...],
        s: Subst,
        depth: int,
    ) -> Iterator[tuple[Subst, Derivation]]:
        self._nodes += 1
        if self._nodes > self.cfg.max_nodes:
            raise _Budget()
        renamed, mapping = self._rename_rule(rule)
        unified: Subst | None = s
        for goal_arg, pattern in zip(args, renamed.conclusion):
            unified = unify(goal_arg, pattern, unified)
            if unified is None:
                return
        for s2, tagged in self._solve_premises(
            list(renamed.premises), unified, depth - 1, renamed
        ):
            trees = [tree for _idx, tree in sorted(tagged, key=lambda p: p[0])]
            # Variables left unbound by the premises are genuinely
            # unconstrained: *any* well-typed inhabitant witnesses the
            # rule.  Ground them with a default before extracting the
            # binding (skipping them instead would make the reference
            # semantics incomplete).
            s3 = s2
            for orig, fresh in mapping.items():
                if not _term_is_value(_eval_open(Var(fresh), s3, self.ctx)):
                    for name in _unbound_vars(Var(fresh), s3):
                        filler = self._default_inhabitant(
                            renamed, mapping, name
                        )
                        if filler is not None:
                            s3 = dict(s3)
                            s3[name] = value_to_term(filler)
            binding: dict[str, Value] = {}
            complete = True
            for orig, fresh in mapping.items():
                t = _eval_open(Var(fresh), s3, self.ctx)
                if not _term_is_value(t):
                    complete = False
                    break
                binding[orig] = term_to_value(t)
            if not complete:
                continue  # no type information to ground with
            yield s3, Derivation(rel.name, rule.name, binding, tuple(trees))

    def _default_inhabitant(self, rule: Rule, mapping, renamed_name: str):
        """The first enumerable inhabitant of a rule variable's type."""
        orig = renamed_name.split("$", 1)[1] if "$" in renamed_name else renamed_name
        ty = rule.var_types.get(orig)
        if ty is None:
            return None
        from ..producers.combinators import _enum_values

        for size in (0, 1, 2, 4):
            for v in _enum_values(self.ctx, ty, size):
                return v
        return None

    # -- premises ------------------------------------------------------------------

    def _solve_premises(
        self,
        premises: list[Premise],
        s: Subst,
        depth: int,
        rule: Rule,
    ) -> Iterator[tuple[Subst, list[tuple[int, Derivation]]]]:
        indexed = list(enumerate(premises))
        yield from self._solve_seq(indexed, s, depth, rule, deferred_rounds=0)

    def _solve_seq(
        self,
        premises: list[tuple[int, Premise]],
        s: Subst,
        depth: int,
        rule: Rule,
        deferred_rounds: int,
    ) -> Iterator[tuple[Subst, list[tuple[int, Derivation]]]]:
        if not premises:
            yield s, []
            return
        (index, premise), rest = premises[0], premises[1:]

        status = self._premise_status(premise, s)
        if status == "flounder":
            if rest and deferred_rounds < len(premises):
                # Defer: move to the back and try the others first.
                yield from self._solve_seq(
                    rest + [(index, premise)], s, depth, rule, deferred_rounds + 1
                )
                return
            # Generate-and-test fallback.
            yield from self._enumerate_and_retry(
                premise, premises, s, depth, rule
            )
            return

        if isinstance(premise, EqPremise):
            for s2 in self._solve_eq(premise, s):
                for s3, trees in self._solve_seq(rest, s2, depth, rule, 0):
                    yield s3, trees
            return

        if premise.negated:
            try:
                args = tuple(
                    term_to_value(_eval_open(a, s, self.ctx)) for a in premise.args
                )
            except (EvaluationError, ReproError):
                return
            if self.ground_query(premise.rel, args, self.cfg.neg_depth) is None:
                yield from self._solve_seq(rest, s, depth, rule, 0)
            return

        for s2, tree in self.solve_goal(premise.rel, premise.args, s, depth):
            for s3, trees in self._solve_seq(rest, s2, depth, rule, 0):
                yield s3, [(index, tree)] + trees

    def _premise_status(self, premise: Premise, s: Subst) -> str:
        """'ready' when the premise can be attempted now, 'flounder'
        when it must wait for more bindings."""
        if isinstance(premise, EqPremise):
            try:
                lhs = _eval_open(premise.lhs, s, self.ctx)
                rhs = _eval_open(premise.rhs, s, self.ctx)
            except EvaluationError:
                return "ready"  # a failing ground call: fails cleanly
            if _has_fun(lhs) or _has_fun(rhs):
                return "flounder"
            if premise.negated and not (
                _term_is_value(lhs) and _term_is_value(rhs)
            ):
                return "flounder"
            return "ready"
        # Relation application.
        if premise.negated:
            try:
                args = [_eval_open(a, s, self.ctx) for a in premise.args]
            except EvaluationError:
                return "ready"
            if all(_term_is_value(a) for a in args):
                return "ready"
            return "flounder"
        try:
            args = [_eval_open(a, s, self.ctx) for a in premise.args]
        except EvaluationError:
            return "ready"
        if any(_has_fun(a) for a in args):
            return "flounder"
        return "ready"

    def _solve_eq(self, premise: EqPremise, s: Subst) -> Iterator[Subst]:
        try:
            lhs = _eval_open(premise.lhs, s, self.ctx)
            rhs = _eval_open(premise.rhs, s, self.ctx)
        except EvaluationError:
            return
        if premise.negated:
            if _term_is_value(lhs) and _term_is_value(rhs):
                if term_to_value(lhs) != term_to_value(rhs):
                    yield s
            return
        s2 = unify(lhs, rhs, s)
        if s2 is not None:
            yield s2

    # -- generate-and-test fallback ------------------------------------------------

    def _enumerate_and_retry(
        self,
        premise: Premise,
        premises: list[tuple[int, Premise]],
        s: Subst,
        depth: int,
        rule: Rule,
    ) -> Iterator[tuple[Subst, list[tuple[int, Derivation]]]]:
        if isinstance(premise, EqPremise):
            terms = [premise.lhs, premise.rhs]
        else:
            terms = list(premise.args)
        unbound: list[str] = []
        for t in terms:
            unbound.extend(_unbound_vars(t, s))
        unbound = list(dict.fromkeys(unbound))
        target = None
        for name in unbound:
            ty = self._var_type(name, rule)
            if ty is not None:
                target = (name, ty)
                break
        if target is None:
            raise FlounderError(
                f"cannot schedule premise {premise}; unbound vars {unbound} "
                "have no known types"
            )
        name, ty = target
        from ..producers.combinators import _enum_values

        for candidate in _enum_values(self.ctx, ty, self.cfg.enum_depth):
            s2 = dict(s)
            s2[name] = value_to_term(candidate)
            yield from self._solve_seq(premises, s2, depth, rule, 0)

    def _var_type(self, renamed: str, rule: Rule) -> TypeExpr | None:
        # Renamed variables look like "__<tag>$<orig>".
        if "$" in renamed:
            orig = renamed.split("$", 1)[1]
        else:
            orig = renamed
        return rule.var_types.get(renamed) or rule.var_types.get(orig)


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------

def derivable(
    ctx: Context,
    rel_name: str,
    args: tuple[Value, ...],
    depth: int,
    cfg: SearchConfig = _DEFAULT,
) -> bool:
    """True when ``rel_name args`` has a derivation of height ≤ depth."""
    engine = _Engine(ctx, cfg)
    try:
        return engine.ground_query(rel_name, args, depth) is not None
    except _Budget:
        raise FlounderError(
            f"ground query {rel_name} exceeded the node budget"
        ) from None


def search_derivation(
    ctx: Context,
    rel_name: str,
    args: tuple[Value, ...],
    depth: int,
    cfg: SearchConfig = _DEFAULT,
) -> Derivation | None:
    """A derivation of ``rel_name args`` of height ≤ depth, or None."""
    return _Engine(ctx, cfg).ground_query(rel_name, args, depth)


def solutions(
    ctx: Context,
    rel_name: str,
    args: tuple[Term, ...],
    depth: int,
    cfg: SearchConfig = _DEFAULT,
    limit: int | None = None,
) -> list[dict[str, Value]]:
    """Solve an *open* goal: `args` may contain variables; returns the
    distinct ground instantiations of those variables for which the
    goal is derivable at height ≤ depth.

    Used to compute reference witness sets when validating producers:
    ``solutions(ctx, 'typing', (G, e, Var('t')), d)`` is the set of
    types ``t`` the enumerator must (eventually) produce.
    """
    engine = _Engine(ctx, cfg)
    from ..core.terms import var_set_all

    rel = ctx.relations.get(rel_name)
    goal_vars = sorted(var_set_all(args))
    seen: set[tuple[Value, ...]] = set()
    out: list[dict[str, Value]] = []

    def add(witness: dict[str, Value]) -> bool:
        key = tuple(witness[v] for v in goal_vars)
        if key in seen:
            return False
        seen.add(key)
        out.append(witness)
        return limit is not None and len(out) >= limit

    try:
        for s, _tree in engine.solve_goal(rel_name, args, {}, depth):
            resolved = {
                v: _eval_open(Var(v), s, ctx) for v in goal_vars
            }
            if all(_term_is_value(t) for t in resolved.values()):
                if add({v: term_to_value(t) for v, t in resolved.items()}):
                    break
                continue
            # Unbound variables in a solution are universal: *any*
            # well-typed instantiation is a witness.  Ground them by
            # bounded enumeration, guided by the argument types.
            grounded = _ground_witnesses(
                ctx, rel, args, resolved, goal_vars, cfg.enum_depth
            )
            stop = False
            for witness in grounded:
                if add(witness):
                    stop = True
                    break
            if stop:
                break
    except _Budget:
        pass  # return the (sound) under-approximation found so far
    return out


def _ground_witnesses(ctx, rel, goal_args, resolved, goal_vars, depth):
    """Enumerate well-typed instantiations of the unbound variables in
    an open solution (bounded by *depth*, capped)."""
    import itertools

    from ..producers.combinators import _enum_values

    var_types: dict[str, object] = {}

    def collect(term, ty) -> bool:
        term_w = term
        if isinstance(term_w, Var):
            existing = var_types.get(term_w.name)
            if existing is not None and existing != ty:
                return False
            var_types[term_w.name] = ty
            return True
        if isinstance(term_w, Fun):
            return False  # cannot type residual calls; skip solution
        if not ctx.datatypes.is_constructor(term_w.name):
            return False
        from ..core.types import Ty

        if not isinstance(ty, Ty) or ty.name not in ctx.datatypes:
            return False
        dt = ctx.datatypes.get(ty.name)
        if not dt.has_constructor(term_w.name):
            return False
        arg_tys = dt.constructor_arg_types(term_w.name, ty.args)
        return all(collect(a, t) for a, t in zip(term_w.args, arg_tys))

    for v, term in resolved.items():
        position = goal_args.index(Var(v)) if Var(v) in goal_args else None
        if position is None:
            # The goal variable occurs under constructors; find its
            # position by matching each goal argument.
            for i, g in enumerate(goal_args):
                if v in {name for name in _vars_of(g)}:
                    position = i
                    break
        if position is None:
            return
        if not collect(term, rel.arg_types[position]):
            return

    free = sorted(
        {name for t in resolved.values() for name in _vars_of_term(t)}
    )
    pools = []
    for name in free:
        ty = var_types.get(name)
        if ty is None:
            return
        pool = list(itertools.islice(_enum_values(ctx, ty, depth), 16))
        pools.append(pool)
    from ..core.terms import subst as term_subst

    count = 0
    for combo in itertools.product(*pools):
        env = {name: value_to_term(v) for name, v in zip(free, combo)}
        witness = {}
        ok = True
        for v, term in resolved.items():
            grounded = term_subst(term, env)
            if not _term_is_value(grounded):
                ok = False
                break
            witness[v] = term_to_value(grounded)
        if ok:
            yield witness
            count += 1
            if count >= 64:
                return


def _vars_of(t):
    from ..core.terms import free_vars

    return free_vars(t)


def _vars_of_term(t):
    from ..core.terms import free_vars

    return free_vars(t)

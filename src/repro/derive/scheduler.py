"""The generalized derivation algorithm (Section 4).

``build_schedule`` compiles an inductive relation and a mode into a
:class:`~repro.derive.schedule.Schedule`.  It subsumes Algorithm 1
(checker mode, no existentials) and extends it with the paper's full
constraint-processing machinery:

* a per-rule variable-knowledge map (Algorithm 2) seeded from the
  conclusion patterns at the input positions;
* per-premise *compatibility* analysis deciding, for each constraint,
  among: a recursive call, an external checker call, an external or
  recursive producer call (binding the unknowns), or unconstrained
  instantiation followed by a check;
* handling of partially instantiated arguments by producing a fresh
  value and matching it against the pattern (the TApp treatment of
  Figure 2);
* deferral of equality premises until one side becomes computable, so
  the equalities inserted by preprocessing work in every mode.

The emitted schedule is kind-agnostic and is the *source of truth*:
``repro.validation`` certificates and the ``repro.analysis`` linter
walk it directly.  For execution it is lowered once more —
:func:`repro.derive.plan.lower_schedule` turns it into the slot-based
Plan IR that the three interpreters (via
:mod:`repro.derive.exec_core`) and the code generator all consume:

    relation + mode --build_schedule--> Schedule --lower_schedule-->
    Plan --{interp checker/enum/gen, codegen}--> computation
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.context import Context
from ..core.errors import (
    DerivationError,
    OutOfScopeError,
    UnsatisfiableModeError,
)
from ..core.names import NameSupply
from ..core.relations import EqPremise, Premise, Relation, RelPremise, Rule
from ..core.terms import Ctor, Fun, Term, Var, free_vars
from ..core.types import Ty, TypeExpr, TyVar, is_ground
from .modes import Mode
from .preprocess import normalized_relation
from .readiness import RuleDataflow
from .schedule import (
    Handler,
    SAssign,
    SCheckCall,
    SEqCheck,
    SInstantiate,
    SMatch,
    SProduce,
    SRecCheck,
    Schedule,
    Step,
)


@dataclass(frozen=True)
class DerivePolicy:
    """Tunable scheduler decisions (defaults follow the paper).

    ``prefer_producer``: when a premise has unknowns, call a
    constrained producer for it (Section 4's stated preference).  When
    False, instantiate the unknowns with *unconstrained* producers and
    then check the premise — the naive strategy the paper's Section
    3.1 dismisses as "too inefficient", kept for the ablation bench.

    ``reorder_premises``: the paper processes premises in declaration
    order and flags the resulting performance sensitivity as future
    work (Section 8).  When True (our extension, the default), the
    scheduler searches premise permutations for one that minimizes
    *produce-and-filter* work — e.g. for ``Sorted``'s
    ``le x y -> Sorted (y :: l) -> Sorted (x :: y :: l)`` at mode
    ``o``, producing the tail first turns a factorial filter cascade
    into a linear scan.  Order never affects meaning, only cost.
    """

    prefer_producer: bool = True
    reorder_premises: bool = True


DEFAULT_POLICY = DerivePolicy()
PAPER_POLICY = DerivePolicy(reorder_premises=False)


def check_in_scope(ctx: Context, rel: Relation) -> None:
    """Reject relations outside the algorithm's target class."""
    if rel.params or not rel.is_monomorphic():
        raise OutOfScopeError(
            f"{rel.name!r} is polymorphic; instantiate it to ground types "
            "before deriving (Relation.instantiate)"
        )
    for t in rel.arg_types:
        if isinstance(t, TyVar) or t.name not in ctx.datatypes:
            raise OutOfScopeError(
                f"{rel.name!r}: argument type {t} is not a first-order "
                "datatype"
            )
    for other in rel.mentioned_relations():
        if other != rel.name and other not in ctx.relations:
            raise OutOfScopeError(
                f"{rel.name!r} mentions undeclared relation {other!r}"
            )


class _HandlerBuilder(RuleDataflow):
    """Step emission on top of the shared readiness dataflow
    (:class:`~repro.derive.readiness.RuleDataflow`, also consumed by
    ``repro.analysis`` — keep the dataflow itself there)."""

    def __init__(
        self,
        ctx: Context,
        rel: Relation,
        rule: Rule,
        mode: Mode,
        policy: DerivePolicy,
        group: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(rel, rule, mode)
        self.ctx = ctx
        self.policy = policy
        # Mutual-recursion extension: relations sharing the fixpoint.
        self.group = group | {rel.name}
        self.supply = NameSupply(rule.variables())
        self.steps: list[Step] = []
        self.var_types: dict[str, TypeExpr] = dict(rule.var_types)

    # -- helpers -----------------------------------------------------------------

    def _type_of_var(self, name: str) -> TypeExpr:
        ty = self.var_types.get(name)
        if ty is None:
            raise DerivationError(
                f"{self.rel.name}.{self.rule.name}: no type for variable "
                f"{name!r} (type inference incomplete?)"
            )
        return ty

    def _instantiate(self, name: str, reason: "tuple | None" = None) -> None:
        """Emit an unconstrained-producer binding for *name*.

        ``reason`` is ``(kind, premise)`` describing *why* the variable
        had to be brute-forced — ignored here, but recorded by the
        static analyzer's probe subclass (``repro.analysis``), which is
        why every call site supplies it.
        """
        self.steps.append(SInstantiate(name, self._type_of_var(name)))
        self.vars.mark_known(name)

    def _bind_by_match(self, scrutinee: Term, pattern: Term) -> None:
        """Emit the step binding *pattern*'s unknowns from the known
        value of *scrutinee*."""
        unknowns = self.vars.unknown_in(pattern)
        if isinstance(pattern, Var) and unknowns:
            # Bare unknown variable: plain assignment.
            self.steps.append(SAssign(pattern.name, scrutinee))
            self.vars.mark_known(pattern.name)
            return
        self.steps.append(SMatch(scrutinee, pattern, frozenset(unknowns)))
        for name in unknowns:
            self.vars.mark_known(name)

    # -- premise processing --------------------------------------------------------

    def process_eq(self, premise: EqPremise) -> None:
        lhs_known = self.vars.term_known(premise.lhs)
        rhs_known = self.vars.term_known(premise.rhs)
        if lhs_known and rhs_known:
            self.steps.append(SEqCheck(premise.lhs, premise.rhs, premise.negated))
            return
        assert not premise.negated
        if lhs_known:
            known, pattern = premise.lhs, premise.rhs
        else:
            known, pattern = premise.rhs, premise.lhs
        for blocked in self.funcall_blocked_vars(pattern):
            self._instantiate(blocked, ("funcall", premise))
        if self.vars.term_known(pattern):
            self.steps.append(SEqCheck(known, pattern, negated=False))
            return
        self._bind_by_match(known, pattern)

    def process_rel(self, premise: RelPremise) -> None:
        target_arity = self._target_arity(premise.rel)
        if len(premise.args) != target_arity:
            raise DerivationError(
                f"{self.rel.name}.{self.rule.name}: premise {premise} has "
                f"wrong arity"
            )

        if premise.negated:
            # Negated premises must be fully instantiated; unknowns are
            # filled by unconstrained producers (then completeness for
            # the negation needs decidability — Section 5.2.2).
            for arg in premise.args:
                for name in self.vars.unknown_in(arg):
                    self._instantiate(name, ("negated", premise))
            self.steps.append(SCheckCall(premise.rel, premise.args, negated=True))
            return

        if premise.rel == self.rel.name and not self.mode.is_checker:
            # A self-premise in a producer derivation recurses at the
            # mode being derived, *even when fully instantiated*: the
            # produced values are filtered against the known arguments
            # (Figure 2's TAdd checks ``t1 = N`` on the recursive
            # enumeration).  Calling the relation's checker instead
            # would make the producer and the checker mutually
            # dependent — the cyclic-instance case Coq's typeclasses
            # (and our registry) reject.
            if self.policy.prefer_producer:
                self._emit_produce(premise, self.mode, recursive=True)
                return

        if all(self.vars.term_known(arg) for arg in premise.args):
            self._emit_check(premise)
            return

        if not self.policy.prefer_producer:
            # Ablation strategy: arbitrary instantiation + check.
            for arg in premise.args:
                for name in self.vars.unknown_in(arg):
                    self._instantiate(name, ("unconstrained", premise))
            self._emit_check(premise)
            return

        # Producer call.  First instantiate variables that sit under
        # function calls (compatibility returns ⊥ for those).
        for arg in premise.args:
            for blocked in self.funcall_blocked_vars(arg):
                self._instantiate(blocked, ("funcall", premise))

        out_positions = self.premise_out_positions(premise)
        if not out_positions:
            # Instantiation made everything known after all.
            self._emit_check(premise)
            return
        needed_mode = Mode(target_arity, frozenset(out_positions))
        self._emit_produce(premise, needed_mode, recursive=False)

    def _emit_produce(
        self, premise: RelPremise, mode: Mode, recursive: bool
    ) -> None:
        """Produce the arguments of *premise* at *mode*'s output
        positions, instantiating input-position unknowns first and
        matching produced values against the argument terms."""
        for i in mode.ins:
            for name in self.vars.unknown_in(premise.args[i]):
                self._instantiate(
                    name,
                    ("recursive-input" if recursive else "producer-input", premise),
                )
        in_args = tuple(premise.args[i] for i in mode.ins)
        binds: list[str] = []
        post_matches: list[tuple[str, Term]] = []
        for i in mode.out_list:
            arg = premise.args[i]
            if isinstance(arg, Var) and not self.vars.is_known(arg.name):
                # Bind the output directly to the rule variable.
                binds.append(arg.name)
                continue
            fresh = self.supply.fresh(f"{premise.rel}_out{i}")
            binds.append(fresh)
            post_matches.append((fresh, arg))
        self.steps.append(
            SProduce(premise.rel, mode, in_args, tuple(binds), recursive)
        )
        for name in binds:
            self.vars.mark_known(name)
        for fresh, arg in post_matches:
            self._bind_by_match(Var(fresh), arg)

    def _target_arity(self, rel_name: str) -> int:
        if rel_name == self.rel.name:
            return self.rel.arity
        return self.ctx.relations.get(rel_name).arity

    def _emit_check(self, premise: RelPremise) -> None:
        if premise.rel in self.group and self.mode.is_checker:
            # Within a group, the target relation is always explicit so
            # nested dispatch lands on the right sibling's handlers.
            target = premise.rel if len(self.group) > 1 else None
            self.steps.append(SRecCheck(premise.args, target))
        else:
            self.steps.append(SCheckCall(premise.rel, premise.args, False))

    # -- premise ordering (the §8 future-work extension) -------------------------------

    def _order_premises(self) -> list[Premise]:
        """Pick a processing order minimizing produce-and-filter work.

        Cost model per premise, given the set of already-known
        variables (simulated along the candidate order):

        * equality / negated / fully-known premises: free;
        * self-premises in a producer mode pay 1 per known variable
          occurring in an output-position argument (each becomes a
          filter over the recursive enumeration) and 3 per unknown
          needing unconstrained instantiation;
        * external premises adapt their mode to what is known, so they
          only pay for funcall-blocked instantiations.

        All orders are semantically equivalent (Section 8: "switching
        premises around could instantiate variables in a different
        order, resulting in potentially different performance").
        """
        premises = list(self.rule.premises)
        if not self.policy.reorder_premises or len(premises) <= 1:
            return premises
        if len(premises) > 7 or self.mode.is_checker:
            # Checkers never produce-and-filter on self premises
            # (existentials route through external producers), and huge
            # rules are not worth a permutation search.
            return premises

        import itertools

        initial = self.vars.known_set()

        def funcall_blocked(arg: Term, known: set[str]) -> int:
            count = 0

            def walk(node: Term, under: bool) -> None:
                nonlocal count
                if isinstance(node, Var):
                    if under and node.name not in known:
                        count += 1
                    return
                inside = under or isinstance(node, Fun)
                for a in node.args:
                    walk(a, inside)

            walk(arg, False)
            return count

        def premise_cost(premise: Premise, known: set[str]) -> int:
            if isinstance(premise, EqPremise) or premise.negated:
                return 0
            unknown_args = [
                i
                for i, a in enumerate(premise.args)
                if any(n not in known for n in free_vars(a))
            ]
            # A fully-known external premise is a checker call: free.
            # A fully-known *self* premise still recurses at the mode
            # being derived and filters the results (process_rel), so
            # it falls through to the recursion accounting below.
            if not unknown_args and premise.rel != self.rel.name:
                return 0
            cost = sum(
                3 * funcall_blocked(a, known) for a in premise.args
            )
            if premise.rel == self.rel.name:
                # Own-mode recursion: output-position args with known
                # material filter the whole recursive enumeration.
                for i in self.mode.out_list:
                    arg = premise.args[i]
                    cost += sum(1 for n in free_vars(arg) if n in known)
                for i in self.mode.ins:
                    arg = premise.args[i]
                    cost += 3 * len(
                        {n for n in free_vars(arg) if n not in known}
                    )
            return cost

        def simulate(order: tuple[Premise, ...]) -> int:
            known = set(initial)
            total = 0
            for premise in order:
                total += premise_cost(premise, known)
                if isinstance(premise, EqPremise):
                    terms = (premise.lhs, premise.rhs)
                else:
                    terms = premise.args
                for t in terms:
                    known.update(free_vars(t))
            return total

        baseline = simulate(tuple(premises))
        if baseline == 0:
            return premises
        best = tuple(premises)
        best_cost = baseline
        for order in itertools.permutations(premises):
            cost = simulate(order)
            if cost < best_cost:
                best = order
                best_cost = cost
        return list(best)

    # -- top level -------------------------------------------------------------------

    def build(self) -> Handler:
        pending: list[Premise] = []
        for premise in self._order_premises():
            if isinstance(premise, EqPremise) and not self.premise_ready(premise):
                pending.append(premise)
                continue
            if isinstance(premise, EqPremise):
                self.process_eq(premise)
            else:
                self.process_rel(premise)
            pending = self._drain(pending)
        # Whatever is still pending: force it by instantiating one side.
        while pending:
            premise = pending.pop(0)
            if not self.premise_ready(premise):
                for t in (premise.lhs, premise.rhs):
                    for name in self.vars.unknown_in(t):
                        self._instantiate(name, ("forced-eq", premise))
            self.process_eq(premise)  # type: ignore[arg-type]
            pending = self._drain(pending)

        out_terms = tuple(
            self.rule.conclusion[i] for i in self.mode.out_list
        )
        for t in out_terms:
            for name in self.vars.unknown_in(t):
                # An output variable no premise constrains: arbitrary.
                self._instantiate(name, ("output", None))

        in_patterns = tuple(
            self.rule.conclusion[i] for i in self.mode.ins
        )
        recursive = any(
            self.rule.is_recursive_in(member) for member in self.group
        )
        return Handler(
            rule=self.rule.name,
            in_patterns=in_patterns,
            steps=tuple(self.steps),
            out_terms=out_terms,
            recursive=recursive,
        )

    def _drain(self, pending: list[Premise]) -> list[Premise]:
        """Retry deferred equality premises after new bindings."""
        progress = True
        while progress:
            progress = False
            for premise in list(pending):
                if self.premise_ready(premise):
                    pending.remove(premise)
                    self.process_eq(premise)  # type: ignore[arg-type]
                    progress = True
        return pending


def build_schedule(
    ctx: Context,
    rel_name: str,
    mode: Mode,
    policy: DerivePolicy = DEFAULT_POLICY,
    group: frozenset[str] = frozenset(),
) -> Schedule:
    """Derive the schedule for ``(rel_name, mode)``.

    Results are cached on the context (keyed by relation, mode, policy
    and group), since instance resolution re-requests schedules
    freely.  ``group`` lists mutually inductive siblings sharing the
    fixpoint (see ``repro.derive.mutual``).
    """
    cache = ctx.artifacts.setdefault("schedules", {})
    key = (rel_name, mode, policy, group)
    if key in cache:
        return cache[key]
    rel = ctx.relations.get(rel_name)
    if mode.arity != rel.arity:
        raise DerivationError(
            f"mode {mode} has arity {mode.arity}, relation {rel_name!r} "
            f"has arity {rel.arity}"
        )
    check_in_scope(ctx, rel)
    normalized = normalized_relation(ctx, rel)
    handlers = tuple(
        _HandlerBuilder(ctx, normalized, rule, mode, policy, group).build()
        for rule in normalized.rules
    )
    out_types = tuple(rel.arg_types[i] for i in mode.out_list)
    schedule = Schedule(rel_name, mode, handlers, out_types)
    cache[key] = schedule
    return schedule


def required_instances(schedule: Schedule) -> list[tuple[str, str, Mode | None]]:
    """External instances a schedule calls at runtime, as
    ``(kind, rel, mode)`` triples with kind in {'checker', 'producer'}.

    Used for eager dependency-closure checks (cyclic dependencies are
    rejected, mirroring the paper's §8 typeclass limitation) and by
    the validation layer to certify dependencies first.
    """
    needs: list[tuple[str, str, Mode | None]] = []
    for handler in schedule.handlers:
        for step in handler.steps:
            if isinstance(step, SCheckCall):
                entry = ("checker", step.rel, None)
                if entry not in needs:
                    needs.append(entry)
            elif isinstance(step, SProduce) and not step.recursive:
                entry = ("producer", step.rel, step.mode)
                if entry not in needs:
                    needs.append(entry)
    return needs

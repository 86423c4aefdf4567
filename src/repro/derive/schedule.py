"""Schedule IR: the compilation target of the derivation algorithm.

A :class:`Schedule` is the mode-specific "program" derived from an
inductive relation — exactly the structure the paper's algorithm emits
as Gallina code, but reified so that two backends can run it in each
of the three instantiations (Section 4: "three different
instantiations of the same algorithm"):

* the plan interpreter (``exec_core``) runs it as an ``option bool``
  semi-decision procedure, an ``E (option A)`` enumerator or a
  ``G (option A)`` generator;
* the code generator (``codegen``) compiles it to Python source.

One :class:`Handler` per rule: the pattern match against the rule's
conclusion (input positions only), a sequence of :class:`Step`\\ s for
the premises, and the output expressions.  Step kinds mirror the
constructs of the paper's Figures 1 and 2 one-to-one — which is what
the validation layer's structural certificates walk (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..core.relations import Relation
from ..core.terms import Term
from ..core.types import TypeExpr
from .modes import Mode


@dataclass(frozen=True)
class SCheckCall:
    """``check top_size (Q e1 .. en) .&& ...`` — external checker call
    (also used for negated premises, with ``~`` applied)."""

    rel: str
    args: tuple[Term, ...]
    negated: bool = False

    def describe(self) -> str:
        neg = "~" if self.negated else ""
        return f"{neg}check {self.rel}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SRecCheck:
    """``rec size' top_size e1 .. en .&& ...`` — recursive checker call
    (checker schedules only).

    ``rel`` is ``None`` for a plain self-call; for a *group* derivation
    (mutually inductive relations, the §8 extension) it names the
    sibling whose handlers the shared fixpoint dispatches to.
    """

    args: tuple[Term, ...]
    rel: str | None = None

    def describe(self) -> str:
        target = f"{self.rel}:" if self.rel else ""
        return f"rec({target}{', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SEqCheck:
    """``check (t1 = t2)`` with both sides known — decidable equality."""

    lhs: Term
    rhs: Term
    negated: bool = False

    def describe(self) -> str:
        op = "<>" if self.negated else "="
        return f"check {self.lhs} {op} {self.rhs}"


@dataclass(frozen=True)
class SAssign:
    """``let var := t`` — an equality premise one side of which is an
    unknown bare variable; produces it deterministically."""

    var: str
    term: Term

    def describe(self) -> str:
        return f"let {self.var} := {self.term}"


@dataclass(frozen=True)
class SMatch:
    """Match the (known) value of *scrutinee* against *pattern*.

    Variables listed in *binds* are bound by the match; all other
    pattern variables are already known and act as equality
    constraints.  This is the construct the paper's TApp enumerator
    uses: ``match t12 with Arr t1' t2 => ...``.
    """

    scrutinee: Term
    pattern: Term
    binds: frozenset[str]

    def describe(self) -> str:
        return f"match {self.scrutinee} with {self.pattern}"


@dataclass(frozen=True)
class SProduce:
    """Call a producer for ``rel`` at ``mode``, binding the produced
    values to the fresh variables *binds* (one per output position).

    ``recursive`` marks a self-call at the very mode being derived
    (runs with ``size'``); otherwise the producer instance for
    ``(rel, mode)`` is resolved through the registry (``enumST`` /
    ``genST``, run with ``top_size``).  ``in_args`` are the argument
    terms at the producer's input positions, in position order.
    """

    rel: str
    mode: Mode
    in_args: tuple[Term, ...]
    binds: tuple[str, ...]
    recursive: bool = False

    def describe(self) -> str:
        how = "rec-produce" if self.recursive else "produce"
        outs = ", ".join(self.binds)
        ins = ", ".join(map(str, self.in_args))
        return f"{outs} <- {how} {self.rel}[{self.mode}]({ins})"


@dataclass(frozen=True)
class SInstantiate:
    """Bind *var* to an arbitrary inhabitant of *ty* via the
    unconstrained producer (enumeration / generation)."""

    var: str
    ty: TypeExpr

    def describe(self) -> str:
        return f"{self.var} <- arbitrary {self.ty}"


Step = Union[SCheckCall, SRecCheck, SEqCheck, SAssign, SMatch, SProduce, SInstantiate]


@dataclass(frozen=True)
class Handler:
    """The compiled form of one rule (the paper's per-constructor
    handler produced by CTR_LOOP)."""

    rule: str
    # Patterns for the *input* positions, in position order.
    in_patterns: tuple[Term, ...]
    steps: tuple[Step, ...]
    # Output expressions (conclusion terms at output positions).
    out_terms: tuple[Term, ...]
    # True when the rule mentions the relation itself (is_rec in
    # Algorithm 1): such handlers are skipped at size 0.
    recursive: bool

    def describe(self) -> str:
        lines = [f"handler {self.rule}{' (recursive)' if self.recursive else ''}:"]
        lines.append(
            "  match inputs with ("
            + ", ".join(map(str, self.in_patterns))
            + ")"
        )
        for step in self.steps:
            lines.append(f"  {step.describe()}")
        if self.out_terms:
            lines.append("  ret (" + ", ".join(map(str, self.out_terms)) + ")")
        else:
            lines.append("  ret true")
        return "\n".join(lines)


@dataclass(frozen=True)
class Schedule:
    """The derived program for ``(relation, mode)``."""

    rel: str
    mode: Mode
    handlers: tuple[Handler, ...]
    # Argument types at the output positions (for producers).
    out_types: tuple[TypeExpr, ...]
    # Which algorithm produced it ('core' = Algorithm 1, 'full').
    algorithm: str = "full"

    @property
    def base_handlers(self) -> tuple[Handler, ...]:
        return tuple(h for h in self.handlers if not h.recursive)

    @property
    def has_recursive_handlers(self) -> bool:
        return any(h.recursive for h in self.handlers)

    def describe(self) -> str:
        kind = "checker" if self.mode.is_checker else "producer"
        lines = [
            f"schedule for {self.rel} [{self.mode}] ({kind}, "
            f"algorithm={self.algorithm}):"
        ]
        for h in self.handlers:
            lines.append(_indent(h.describe(), 1))
        return "\n".join(lines)


def _indent(text: str, levels: int) -> str:
    pad = "  " * levels
    return "\n".join(pad + line for line in text.splitlines())

"""Query and result types for the serving layer.

One query names a derived computation (relation + kind + mode), its
ground inputs, its fuel, and optionally its own resource budget; one
:class:`QueryResult` carries the three-valued outcome in structured
form.  A query that runs out of fuel or budget is **not an error** —
it resolves with ``status="gave_up"`` and a :class:`GiveUp` saying
which limit stopped it (mirroring the paper's indefinite ``None``
outcome and the resilience layer's :class:`~repro.resilience.budget.
Exhausted` diagnosis).  Nor is a query the engine refused to run:
``status="shed"`` with ``GiveUp("admission" | "expired" | "overload"
| "breaker" | "shutdown")`` means admission control, deadline expiry,
the overload ladder, a shape breaker, or shutdown dropped the query
before (or instead of) executing it — see
:mod:`repro.serve.admission`.  ``status="error"`` is reserved for
queries that cannot run at all (unknown relation, unschedulable mode)
or whose execution raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class CheckQuery:
    """Decide ``rel(args...)`` — the ``DecOpt`` kind."""

    rel: str
    args: tuple
    fuel: int = 64
    max_ops: "int | None" = None
    deadline_seconds: "float | None" = None


@dataclass(frozen=True)
class EnumQuery:
    """Enumerate outputs of ``rel`` under *mode* for inputs *ins* —
    the ``EnumSizedSuchThat`` kind.  *max_values* truncates the answer
    (``complete`` is then False even without a fuel marker)."""

    rel: str
    mode: str
    ins: tuple = ()
    fuel: int = 8
    max_values: "int | None" = 32
    max_ops: "int | None" = None
    deadline_seconds: "float | None" = None


@dataclass(frozen=True)
class GenQuery:
    """Sample one output of ``rel`` under *mode* for inputs *ins* —
    the ``GenSizedSuchThat`` kind.  *seed* makes the draw replayable;
    ``None`` lets the worker draw from OS entropy."""

    rel: str
    mode: str
    ins: tuple = ()
    fuel: int = 8
    seed: "int | None" = None
    max_ops: "int | None" = None
    deadline_seconds: "float | None" = None


Query = "CheckQuery | EnumQuery | GenQuery"


@dataclass
class GiveUp:
    """Why a query stopped without a definite answer.

    *reason* is ``"fuel"`` (the indefinite outcome at the query's
    fuel), ``"retries"`` (a generator burned its retry budget), or a
    budget limit name from :class:`~repro.resilience.budget.Exhausted`
    (``"deadline"``, ``"ops"``, ``"depth"``, ``"fault:..."``);
    *exhausted* carries the structured diagnosis in the budget case.
    """

    reason: str
    exhausted: Any = None

    def as_dict(self) -> dict:
        ex = self.exhausted
        return {
            "reason": self.reason,
            "exhausted": ex.as_dict() if hasattr(ex, "as_dict") else ex,
        }


@dataclass(slots=True)
class QueryResult:
    """The outcome of one served query.

    ``status`` is ``"ok"`` / ``"gave_up"`` / ``"shed"`` / ``"error"``.
    ``value`` is the definite answer on ``ok``: a bool for checks, a
    list of output tuples for enums (with ``complete`` telling whether
    it is provably all of them), an output tuple for gens.  A gave-up
    enum still carries the outputs found before the limit hit — and so
    does an erroring one (the values found before the raise).  A shed
    query never executed; its ``give_up.reason`` says which admission
    mechanism dropped it.

    ``seed`` is the RNG seed a :class:`GenQuery` actually ran under
    (the query's own, or the worker's entropy draw) — recorded on
    every status, including ``error``, so any failure is replayable
    with ``GenQuery(..., seed=result.seed)``.

    Slotted: one served query is one GC-tracked object here, beside
    its :class:`~repro.serve.admission.Ticket`.
    """

    query: Any
    status: str
    value: Any = None
    complete: "bool | None" = None
    give_up: "GiveUp | None" = None
    error: "str | None" = None
    elapsed_seconds: float = 0.0
    worker: "int | None" = None
    batched: bool = False
    # Telemetry coordinates: the query id carried submit→queue→batch→
    # execute (0 when the engine runs without telemetry) and the time
    # the query waited in the engine queue before service began.
    qid: int = 0
    queue_seconds: float = 0.0
    # The RNG seed a GenQuery ran under (None for other kinds).
    seed: "int | None" = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        q = self.query
        kind = {
            "CheckQuery": "check",
            "EnumQuery": "enum",
            "GenQuery": "gen",
        }.get(type(q).__name__, type(q).__name__)
        value = self.value
        if kind == "enum" and value is not None:
            value = [[repr(v) for v in tup] for tup in value]
        elif kind == "gen" and value is not None:
            value = [repr(v) for v in value]
        return {
            "kind": kind,
            "rel": q.rel,
            "status": self.status,
            "value": value,
            "complete": self.complete,
            "give_up": self.give_up.as_dict() if self.give_up else None,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "worker": self.worker,
            "batched": self.batched,
            "qid": self.qid,
            "queue_seconds": self.queue_seconds,
            "seed": self.seed,
        }

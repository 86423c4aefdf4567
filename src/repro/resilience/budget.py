"""Resource budgets: cooperative cancellation for derived computations.

The paper's three-valued soundness contract says a derived checker may
answer ``Some true`` / ``Some false`` only when the relation definitely
holds / fails, and must otherwise signal indefiniteness.  Fuel is one
resource bound with that shape; this module generalizes it: a
:class:`Budget` bounds **wall-clock time**, **executor ops**, and
**recursion depth** (plus, through the memo layer, **cache size**), and
exhausting any of them degrades every derived computation to its
indefinite outcome — a checker answers ``None``, an enumerator ends its
(truncated but valid) slice with an ``OUT_OF_FUEL`` marker, a generator
returns ``OUT_OF_FUEL``.  Interruption can *never* manufacture a wrong
definite answer, because the only thing a trip does is convert "keep
searching" into "give up indefinitely" — the same edge fuel exhaustion
already exercises (``tests/resilience/test_fault_injection.py`` asserts
this differentially over the whole corpus).

Installation follows the observability pattern exactly: the budget
lives at ``ctx.caches[BUDGET_KEY]``, the interpreter and the
instrumented compiled twins probe it with one ``caches.get`` per
fixpoint level and guard every site with ``is not None``.  With no
budget installed the compiled entry wrappers run the fast twins,
which carry no charge site at all
(``tests/derive/test_codegen.py::TestFastTwinsCarryNoHooks``).

**Charging protocol.**  Both executor families charge at the same
three kinds of site, in the same order, so interpreted and compiled
runs consume op indices identically (which is what makes the
fault-injection differential suite meaningful):

* one op at every fixpoint-level entry (``rec`` call);
* ``handler.cost`` (1 + the handler's op count) per handler attempt;
* one op per item of every producer/instantiate enumeration loop.

:meth:`Budget.charge` is the hot path: an integer add and one compare
against a precomputed watermark; deadline probes (`time.perf_counter`)
run only every *check_every* ops.  A trip **latches**: every later
``charge`` returns ``True`` immediately, so deep recursion unwinds
cooperatively — each level does at most one more loop step before
answering its indefinite outcome.  Nothing is ever raised mid-plan.

After the run, :attr:`Budget.exhausted` carries the structured
:class:`Exhausted` outcome — which limit tripped, where (the first
fixpoint site to observe it, and the innermost open observation span if
a session is active), the op/elapsed accounting, and a partial
:class:`~repro.derive.stats.DeriveStats` snapshot.  ``Exhausted`` is
deliberately distinct from the ``OUT_OF_FUEL`` marker: the marker is a
value-level signal inside a search; ``Exhausted`` is the run-level
diagnosis of *why* the search was cut short.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..core.context import Context
from ..derive.stats import STATS_KEY
from ..derive.trace import BUDGET_KEY, OBSERVE_KEY

__all__ = [
    "BUDGET_KEY",
    "Budget",
    "Exhausted",
    "budget_scope",
    "install_budget",
    "remove_budget",
    "budget_of",
]

#: a practically-infinite op watermark (charge() never reaches it)
_NEVER = float("inf")


@dataclass
class Exhausted:
    """Structured outcome of a budget trip.

    Distinct from ``OUT_OF_FUEL``: the marker says "this search ended
    indefinitely"; ``Exhausted`` says *which resource limit* ended it,
    *where*, and what the run had done by then — enough to reproduce,
    re-budget, or report the interruption.
    """

    #: which limit tripped: 'deadline' | 'ops' | 'depth' | 'fault'
    limit: str
    #: charge index at the trip
    ops: int
    #: wall-clock seconds from budget start to the trip
    elapsed_seconds: float
    #: first fixpoint site to observe the trip: (kind, rel, mode) or None
    site: "tuple | None" = None
    #: innermost open observation span id at the trip (None when no
    #: observe session was active)
    span: "int | None" = None
    #: instance resolutions (derivations) performed inside the budget
    resolutions: int = 0
    #: partial DeriveStats snapshot at the trip (None when stats off)
    stats: "dict | None" = None
    #: the limits the budget was installed with
    limits: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "exhausted",
            "limit": self.limit,
            "ops": self.ops,
            "elapsed_seconds": self.elapsed_seconds,
            "site": list(self.site) if self.site else None,
            "span": self.span,
            "resolutions": self.resolutions,
            "stats": self.stats,
            "limits": self.limits,
        }

    def describe(self) -> str:
        site = (
            f"{self.site[0]}:{self.site[1]}[{self.site[2]}]"
            if self.site
            else "(outside any fixpoint)"
        )
        lines = [
            f"*** Exhausted: {self.limit} limit tripped after "
            f"{self.ops:,} ops / {self.elapsed_seconds:.3f}s",
            f"    at {site}"
            + (f" (span #{self.span})" if self.span is not None else ""),
        ]
        limits = ", ".join(
            f"{k}={v}" for k, v in self.limits.items() if v is not None
        )
        if limits:
            lines.append(f"    budget: {limits}")
        if self.resolutions:
            lines.append(
                f"    {self.resolutions} instance derivations inside the budget"
            )
        if self.stats:
            busy = {
                k: v for k, v in self.stats.items() if v and k != "cache_hits"
            }
            if busy:
                lines.append(
                    "    partial stats: "
                    + ", ".join(f"{k}={v:,}" for k, v in sorted(busy.items()))
                )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class Budget:
    """A cooperative resource budget for derived computations.

    Limits (all optional; ``None`` means unlimited):

    * *deadline_seconds* — wall clock, measured from :meth:`start`
      (probed every *check_every* ops, so granularity is cooperative);
    * *max_ops* — executor charge budget (see the module docstring for
      what one op is);
    * *max_depth* — recursion-depth cap **within each derived
      fixpoint** (``top_size - size``); with ``decide()``'s
      fuel-doubling this bounds depth while leaving breadth alone;
    * *max_cache_entries* — memo-table size cap, enforced by
      :mod:`repro.derive.memo` on insertion (oldest entries evicted).

    *faults* is an optional :class:`~repro.resilience.faults.FaultPlan`
    whose injections fire at their scheduled charge indices.

    A budget is **one-shot**: once tripped it stays tripped (use
    :meth:`renew` for a fresh copy with the same limits, optionally
    scaled — the campaign layer's retry backoff).
    """

    __slots__ = (
        "deadline_seconds",
        "max_ops",
        "max_depth",
        "max_cache_entries",
        "check_every",
        "faults",
        "ctx",
        "ops",
        "taints",
        "injected",
        "evictions",
        "resolutions",
        "exhausted",
        "_t0",
        "_deadline_at",
        "_wall_next",
        "_next_check",
        "_events",
        "_pos",
    )

    def __init__(
        self,
        *,
        deadline_seconds: "float | None" = None,
        max_ops: "int | None" = None,
        max_depth: "int | None" = None,
        max_cache_entries: "int | None" = None,
        check_every: int = 256,
        faults: Any = None,
        ctx: "Context | None" = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.deadline_seconds = deadline_seconds
        self.max_ops = max_ops
        self.max_depth = max_depth
        self.max_cache_entries = max_cache_entries
        self.check_every = check_every
        self.faults = faults
        self.ctx = ctx
        self.ops = 0
        #: exhaustion-taint counter: bumped on every trip and every
        #: injected one-shot fault.  The memo layer snapshots it around
        #: a computation and skips the table write when it moved — an
        #: ``Exhausted``-tainted result is never cached (ISSUE policy).
        self.taints = 0
        self.injected = 0
        self.evictions = 0
        self.resolutions = 0
        self.exhausted: "Exhausted | None" = None
        self._t0 = 0.0
        self._deadline_at = _NEVER
        self._events = tuple(faults.events) if faults is not None else ()
        self._pos = 0
        self._wall_next = _NEVER
        self._next_check = _NEVER
        self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Budget":
        """(Re)arm the clock and the charge watermark.  Called by the
        constructor and by :func:`budget_scope` on installation, so the
        deadline measures the governed region, not object creation."""
        self._t0 = perf_counter()
        if self.deadline_seconds is not None:
            self._deadline_at = self._t0 + self.deadline_seconds
            self._wall_next = self.ops + self.check_every
        else:
            self._deadline_at = _NEVER
            self._wall_next = _NEVER
        self._recompute_next()
        return self

    def renew(self, scale: float = 1.0) -> "Budget":
        """A fresh, untripped budget with the same limits (and a fresh
        fault schedule), optionally *scale*\\ d — the campaign layer's
        exponential backoff multiplies the op and deadline limits."""
        return Budget(
            deadline_seconds=(
                self.deadline_seconds * scale
                if self.deadline_seconds is not None
                else None
            ),
            max_ops=(
                int(self.max_ops * scale) if self.max_ops is not None else None
            ),
            max_depth=self.max_depth,
            max_cache_entries=self.max_cache_entries,
            check_every=self.check_every,
            faults=self.faults,
            ctx=self.ctx,
        )

    def limits_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_ops": self.max_ops,
            "max_depth": self.max_depth,
            "max_cache_entries": self.max_cache_entries,
        }

    @property
    def active(self) -> bool:
        """Whether any limit or fault schedule is actually live (a
        fully-unlimited budget still counts ops but can never trip)."""
        return (
            self.deadline_seconds is not None
            or self.max_ops is not None
            or self.max_depth is not None
            or self.max_cache_entries is not None
            or bool(self._events)
        )

    @property
    def elapsed_seconds(self) -> float:
        return perf_counter() - self._t0

    def taint_stamp(self) -> int:
        """Monotone counter of exhaustion events (trips + injected
        faults); the memo layer's poisoning guard."""
        return self.taints

    # -- the hot path --------------------------------------------------------

    def charge(self, n: int = 1) -> bool:
        """Consume *n* ops; ``True`` means "stop, answer indefinite".

        The common case is one integer add and one compare.  The slow
        path (due fault events, op cap, periodic deadline probe) runs
        only when the op counter crosses the precomputed watermark.
        A trip latches: once exhausted, every charge returns ``True``
        without further counting, so unwinding is O(live loop levels).
        """
        if self.exhausted is not None:
            return True
        self.ops = ops = self.ops + n
        if ops < self._next_check:
            return False
        return self._slow_check()

    def charge_entry(self, depth: int) -> bool:
        """The fixpoint-level entry charge: one op, plus the
        recursion-depth cap (*depth* is ``top_size - size``)."""
        if self.exhausted is not None:
            return True
        if self.max_depth is not None and depth > self.max_depth:
            self._trip("depth")
            return True
        return self.charge(1)

    # -- the slow path -------------------------------------------------------

    def _recompute_next(self) -> None:
        mark = self._wall_next
        if self.max_ops is not None and self.max_ops < mark:
            mark = self.max_ops
        if self._pos < len(self._events):
            ev = self._events[self._pos][0]
            if ev < mark:
                mark = ev
        self._next_check = mark

    def _slow_check(self) -> bool:
        ops = self.ops
        injected = False
        # Fault events due at (or before) this charge index.
        while self._pos < len(self._events) and self._events[self._pos][0] <= ops:
            _, kind = self._events[self._pos]
            self._pos += 1
            if kind == "trip":
                self._trip("fault")
                return True
            if kind == "fuel":
                # One-shot: this site answers indefinite, the run
                # continues — a forced OUT_OF_FUEL marker.
                self.injected += 1
                self.taints += 1
                self._observe_inc("budget.faults_injected")
                injected = True
            elif kind == "evict":
                self._evict()
        if self.max_ops is not None and ops >= self.max_ops:
            self._trip("ops")
            return True
        if ops >= self._wall_next:
            self._wall_next = ops + self.check_every
            if perf_counter() >= self._deadline_at:
                self._trip("deadline")
                return True
        self._recompute_next()
        return injected

    def _evict(self) -> None:
        """A cache-eviction fault: drop all memoized answers.  Always
        sound — the memo is a pure accelerator — which is exactly what
        the fault suite demonstrates by injecting it."""
        self.evictions += 1
        ctx = self.ctx
        if ctx is not None:
            from ..derive.memo import clear_memo

            clear_memo(ctx)
        self._observe_inc("budget.evictions")

    def _trip(self, limit: str) -> None:
        self.taints += 1
        ctx = self.ctx
        span = None
        stats_snapshot = None
        if ctx is not None:
            obs = ctx.caches.get(OBSERVE_KEY)
            if obs is not None:
                self._observe_inc("budget.trips", obs)
                self._observe_inc(f"budget.trip.{limit}", obs)
                stack = obs.spans.stack
                if stack:
                    span = stack[-1].sid
            stats = ctx.caches.get(STATS_KEY)
            if stats is not None:
                stats.budget_trips += 1
                stats_snapshot = stats.as_dict()
        self.exhausted = Exhausted(
            limit=limit,
            ops=self.ops,
            elapsed_seconds=self.elapsed_seconds,
            span=span,
            resolutions=self.resolutions,
            stats=stats_snapshot,
            limits=self.limits_dict(),
        )

    def _observe_inc(self, name: str, obs: Any = None) -> None:
        if obs is None:
            ctx = self.ctx
            obs = ctx.caches.get(OBSERVE_KEY) if ctx is not None else None
        if obs is not None:
            obs.metrics.inc(name)

    # -- cold-path bookkeeping (called by executors / registry) --------------

    def record_site(self, kind: str, rel: str, mode: str) -> None:
        """Attach the first fixpoint site to observe the trip.  The
        executors call this on the cold (already-tripped) path only."""
        ex = self.exhausted
        if ex is not None and ex.site is None:
            ex.site = (kind, rel, mode)

    def note_resolution(self) -> None:
        """Diagnostic only (never charged — resolution order differs
        between backends, and charging it would desynchronize the
        interp/compiled op streams the fault suite relies on)."""
        self.resolutions += 1

    def __repr__(self) -> str:
        state = (
            f"exhausted:{self.exhausted.limit}" if self.exhausted else "live"
        )
        return f"Budget(ops={self.ops}, {state})"


# ---------------------------------------------------------------------------
# Installation.
# ---------------------------------------------------------------------------


def install_budget(ctx: Context, budget: Budget) -> Budget:
    """Install *budget* at ``ctx.caches[BUDGET_KEY]`` (rearming its
    clock) and bind its context for diagnostics/eviction."""
    budget.ctx = ctx
    ctx.caches[BUDGET_KEY] = budget
    budget.start()
    return budget


def remove_budget(ctx: Context) -> None:
    ctx.caches.pop(BUDGET_KEY, None)


def budget_of(ctx: Context) -> "Budget | None":
    """The installed budget, or ``None`` (the zero-overhead path)."""
    return ctx.caches.get(BUDGET_KEY)


@contextmanager
def budget_scope(ctx: Context, budget: "Budget | None" = None, **limits):
    """Install a budget for the dynamic extent of the ``with`` block::

        with budget_scope(ctx, deadline_seconds=0.5) as bud:
            answer = checker(64, args)      # None if the deadline hit
        if bud.exhausted:
            print(bud.exhausted.describe())

    Accepts a prebuilt :class:`Budget` or keyword limits; the previous
    budget (if any) is restored on exit.
    """
    if budget is None:
        budget = Budget(**limits)
    elif limits:
        raise TypeError("pass a Budget or keyword limits, not both")
    previous = ctx.caches.get(BUDGET_KEY)
    install_budget(ctx, budget)
    try:
        yield budget
    finally:
        if previous is None:
            ctx.caches.pop(BUDGET_KEY, None)
        else:
            ctx.caches[BUDGET_KEY] = previous

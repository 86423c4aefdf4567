"""Admission control for the serving engine: bounded queues, deadline
expiry, and an adaptive degradation ladder.

PR 8's engine queued without bound: a burst 4x over capacity made
*every* query's latency grow with its queue position, and nothing shed
load until callers timed out on their own.  This module is the
serving-layer governor that PR 5's :class:`~repro.resilience.budget.
Budget` is for a single computation:

* :class:`Ticket` — one submitted query and its future in one
  object: ``Engine.submit`` returns the ticket itself, a
  :class:`concurrent.futures.Future` laid out in slots, because every
  tracked container a queued query holds counts against CPython's
  gen-0 collection threshold (see :mod:`repro.serve.engine`).
* :class:`AdmissionQueue` — a bounded FIFO with three full-queue
  policies.  ``block`` applies backpressure to the submitter;
  ``reject`` sheds the *incoming* query; ``shed_oldest`` evicts the
  queue head (the query that has already waited longest and is most
  likely to be expired or useless by service time) to make room.  A
  shed query is **not an error**: its future resolves with
  ``status="shed"`` and ``GiveUp("admission")`` — the same structured
  three-valued degradation budgets use.  Tickets carry an **absolute
  deadline** stamped at submit; an expired ticket is shed on dequeue
  without executing (reason ``"expired"``), and the executor budget of
  a deadlined query gets only the *remaining* time.
* :class:`OverloadController` — the degradation ladder.  It reads the
  queue-depth gauge (PR 9's obvious input signal) and a sliding-window
  service-latency blowup detector (PR 5's
  :class:`~repro.resilience.campaign.CircuitBreaker`, lifted from op
  costs to seconds) and climbs ``NORMAL -> TIGHTEN -> SHED``:
  *TIGHTEN* scales the engine's default per-query budgets down so each
  query does less work; *SHED* refuses new work at submit (reason
  ``"overload"``) until the queue drains below the low-water mark.
* :class:`ShapeBreaker` — per-``(kind, rel)`` fast-fail.  A shape
  whose queries repeatedly exhaust their budgets is a pure waste of
  worker time (every attempt burns a full budget and answers
  indefinitely anyway); after *threshold* consecutive exhaustions the
  breaker opens and queries of that shape shed immediately (reason
  ``"breaker"``), with one probe admitted per *cooldown* sheds so a
  recovered shape closes the breaker again.

Everything here is policy; the engine stays the mechanism.  With
``queue_max=None`` (the default) none of this is in the hot path,
which the benchmark suite's ``serve_batch`` workload guards end to
end.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures._base import PENDING
from time import monotonic
from typing import Any, Callable, Iterable

from ..resilience.campaign import CircuitBreaker

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionQueue",
    "OverloadController",
    "ShapeBreaker",
    "Ticket",
]

ADMISSION_POLICIES = ("block", "reject", "shed_oldest")


class _Condition(threading.Condition):
    """The condition a :class:`Ticket` waits on: ``threading.Condition``
    over an ``RLock``, with the lock's methods delegated from the class.

    The stdlib condition copies five of the lock's bound methods onto
    every instance (``acquire``, ``release``, ``_release_save``,
    ``_acquire_restore``, ``_is_owned``) — five GC-tracked objects per
    future.  Here they are methods, and every attribute is a slot, so
    the condition costs itself, its lock and its waiter deque.
    """

    __slots__ = ("_lock", "_waiters")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._waiters = deque()

    def acquire(self, *args, **kwargs):
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def _release_save(self):
        return self._lock._release_save()

    def _acquire_restore(self, state) -> None:
        self._lock._acquire_restore(state)

    def _is_owned(self) -> bool:
        return self._lock._is_owned()

    def notify_all(self) -> None:
        # Future.set_result notifies under the lock; most tickets are
        # resolved with nobody blocked in result().
        if self._waiters:
            super().notify_all()


class Ticket(Future):
    """One submitted query, and the future that resolves to its result.

    ``Engine.submit`` returns the ticket itself: it *is* a
    :class:`concurrent.futures.Future` (``result``, ``cancel``,
    ``add_done_callback``, ``wait``/``as_completed``,
    ``asyncio.wrap_future`` all work), and the worker resolves it with
    ``set_result``.  It sets the future's fields itself rather than
    calling ``Future.__init__``, so it waits on a :class:`_Condition`,
    and every attribute is a slot: a pending ticket holds six GC-tracked
    containers where a stdlib future plus a separate ticket held twelve.
    With 64 queries outstanding that keeps the serving window under
    CPython's gen-0 threshold (700), instead of a collection per chunk.

    *deadline* is absolute (``time.monotonic``); ``None`` means the
    query never expires in queue.  *fault* is the injected worker
    fault tag a claiming worker stamped on the ticket (chaos testing
    only; see :class:`~repro.resilience.faults.WorkerFaultPlan`).
    """

    # Future's own fields first (the layout Future.__init__ sets up),
    # then the ticket's.
    __slots__ = (
        "_condition", "_state", "_result", "_exception", "_waiters",
        "_done_callbacks",
        "query", "qid", "submitted", "deadline", "fault",
    )

    def __init__(self, query, qid, submitted, deadline=None):
        self._condition = _Condition()
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []
        self.query = query
        self.qid = qid
        self.submitted = submitted
        self.deadline = deadline
        self.fault = None

    def expired(self, now: "float | None" = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else monotonic()) >= self.deadline

    def remaining(self, now: "float | None" = None) -> "float | None":
        """Seconds until the deadline (``None`` = unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - (now if now is not None else monotonic())


class AdmissionQueue:
    """A bounded FIFO of :class:`Ticket`\\ s with shed callbacks.

    *maxsize* ``None`` = unbounded (the legacy engine's behavior);
    *policy* is one of :data:`ADMISSION_POLICIES`.  *on_shed* is
    called — **outside the queue lock** — as ``on_shed(ticket,
    reason)`` for every ticket the queue gives up on: ``"admission"``
    (rejected at a full queue, or evicted by ``shed_oldest``),
    ``"expired"`` (deadline passed while queued), ``"shutdown"``
    (drained at close).  Control sentinels (any non-Ticket object) are
    exempt from the bound and from shedding — they are how the engine
    delivers shutdown tokens through the same channel.
    """

    def __init__(
        self,
        maxsize: "int | None" = None,
        policy: str = "block",
        on_shed: "Callable[[Ticket, str], None] | None" = None,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.policy = policy
        self.on_shed = on_shed
        self._items: deque = deque()
        #: tickets in ``_items`` (control sentinels excluded), kept by
        #: every mutation so :meth:`qsize` and the bound are O(1)
        self._tickets = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closing = False

    # -- internals ----------------------------------------------------------

    def _shed(self, victims: "list[tuple[Ticket, str]]") -> None:
        # Outside the lock: resolving a future runs caller callbacks.
        if self.on_shed is not None:
            for ticket, reason in victims:
                self.on_shed(ticket, reason)

    # -- write side ---------------------------------------------------------

    def put(self, ticket: Ticket) -> bool:
        """Admit *ticket*; ``False`` means it was shed instead (its
        future is already resolved by the shed callback)."""
        victims: list = []
        admitted = True
        with self._lock:
            if self._closing:
                victims.append((ticket, "shutdown"))
                admitted = False
            elif self.maxsize is not None:
                if self.policy == "block":
                    while self._tickets >= self.maxsize and not self._closing:
                        self._not_full.wait()
                    if self._closing:
                        victims.append((ticket, "shutdown"))
                        admitted = False
                elif self._tickets >= self.maxsize:
                    if self.policy == "reject":
                        victims.append((ticket, "admission"))
                        admitted = False
                    else:  # shed_oldest: evict the head to make room
                        oldest = next(
                            it for it in self._items if isinstance(it, Ticket)
                        )
                        self._items.remove(oldest)
                        self._tickets -= 1
                        victims.append((oldest, "admission"))
            if admitted:
                self._items.append(ticket)
                self._tickets += 1
                self._not_empty.notify()
        self._shed(victims)
        return admitted

    def put_control(self, token: Any) -> None:
        """Enqueue a control sentinel, exempt from the bound."""
        with self._lock:
            self._items.append(token)
            self._not_empty.notify()

    def put_front(self, items: Iterable) -> None:
        """Requeue already-admitted items at the head (crash recovery);
        the bound does not re-apply — admission happened once."""
        items = list(items)
        with self._lock:
            self._items.extendleft(reversed(items))
            self._tickets += sum(1 for it in items if isinstance(it, Ticket))
            self._not_empty.notify(len(items))

    # -- read side ----------------------------------------------------------

    def _pop_live(self, victims: list):
        """Under the lock: pop the head's next live item (a ticket that
        has not expired, or a control sentinel), collecting expired
        tickets into *victims*; ``None`` when the deque runs dry."""
        items = self._items
        while items:
            candidate = items.popleft()
            if isinstance(candidate, Ticket):
                self._tickets -= 1
                self._not_full.notify()
                if candidate.expired():
                    victims.append((candidate, "expired"))
                    continue
            return candidate
        return None

    def get(self, timeout: "float | None" = None):
        """Dequeue the next live item: a :class:`Ticket` that has not
        expired, or a control sentinel.  Expired tickets are shed
        (reason ``"expired"``) and skipped.  ``None`` on timeout."""
        victims: list = []
        item = None
        with self._lock:
            while item is None:
                while not self._items:
                    if not self._not_empty.wait(timeout):
                        break
                if not self._items:
                    break
                item = self._pop_live(victims)
        self._shed(victims)
        return item

    def get_nowait(self):
        """Non-blocking :meth:`get`; ``None`` when empty."""
        victims: list = []
        with self._lock:
            item = self._pop_live(victims)
        self._shed(victims)
        return item

    def get_many(self, limit: int) -> "list[Ticket]":
        """Dequeue up to *limit* live tickets in one lock hold (a
        worker's batching window).  Stops early at an empty queue or at
        a control sentinel, which stays queued at the head; expired
        tickets are shed as in :meth:`get`."""
        victims: list = []
        out: list = []
        items = self._items
        with self._lock:
            now = monotonic()
            popped = 0
            while len(out) < limit and items and isinstance(items[0], Ticket):
                ticket = items.popleft()
                popped += 1
                if ticket.expired(now):
                    victims.append((ticket, "expired"))
                else:
                    out.append(ticket)
            if popped:
                self._tickets -= popped
                self._not_full.notify(popped)
        self._shed(victims)
        return out

    # -- lifecycle ----------------------------------------------------------

    def start_closing(self) -> None:
        """Refuse new admissions and wake blocked :meth:`put` callers
        (their tickets shed with reason ``"shutdown"``)."""
        with self._lock:
            self._closing = True
            self._not_full.notify_all()

    def drain(self, reason: str = "shutdown") -> int:
        """Shed every queued ticket (control sentinels stay); returns
        the number shed.  The engine's ``close`` calls this after the
        drain window so no future is ever stranded."""
        victims: list = []
        with self._lock:
            keep: deque = deque()
            for it in self._items:
                if isinstance(it, Ticket):
                    victims.append((it, reason))
                else:
                    keep.append(it)
            self._items = keep
            self._tickets = 0
            self._not_full.notify_all()
        self._shed(victims)
        return len(victims)

    def qsize(self) -> int:
        """Queued tickets (sentinels excluded): one counter read — a
        single int load, atomic under the GIL, so no lock is taken."""
        return self._tickets

    def empty(self) -> bool:
        return self._tickets == 0

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(size={self.qsize()}, maxsize={self.maxsize}, "
            f"policy={self.policy!r})"
        )


class OverloadController:
    """The degradation ladder: ``NORMAL -> TIGHTEN -> SHED``.

    Two input signals, both cheap:

    * **queue fill** — depth / *queue_max* (dead when the queue is
      unbounded).  Fill >= *high_fill* climbs straight to ``SHED``;
      fill >= *low_fill* holds at least ``TIGHTEN``; the ladder only
      descends once fill drops below *low_fill* (hysteresis, so the
      level does not flap around one threshold).
    * **latency blowup** — per-query service seconds fed to a
      :class:`~repro.resilience.campaign.CircuitBreaker` (window mean
      vs. baseline mean, *latency_factor*).  An open breaker holds
      ``TIGHTEN`` for *hold* further observations, then re-baselines —
      a persistent slowdown keeps re-opening it, a transient one
      decays.

    ``TIGHTEN`` reports :meth:`budget_scale` < 1: the engine scales
    its *default* per-query budgets (never a query's own explicit
    budget) so every query does less work under pressure.  ``SHED``
    additionally makes :meth:`should_shed` true: new queries resolve
    as ``status="shed"`` / ``GiveUp("overload")`` at submit, keeping
    the served ones fast — the burst p99 bound
    ``benchmarks/bench_admission.py`` pins.
    """

    NORMAL, TIGHTEN, SHED = 0, 1, 2

    def __init__(
        self,
        *,
        queue_max: "int | None" = None,
        high_fill: float = 0.75,
        low_fill: float = 0.25,
        latency_window: int = 16,
        latency_factor: float = 8.0,
        min_samples: int = 32,
        hold: int = 32,
        tighten_scale: float = 0.5,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        if not 0.0 < low_fill <= high_fill <= 1.0:
            raise ValueError("need 0 < low_fill <= high_fill <= 1")
        if not 0.0 < tighten_scale <= 1.0:
            raise ValueError("tighten_scale must be in (0, 1]")
        self.queue_max = queue_max
        self.high_fill = high_fill
        self.low_fill = low_fill
        self.hold = hold
        self.tighten_scale = tighten_scale
        self.breaker = breaker or CircuitBreaker(
            window=latency_window,
            factor=latency_factor,
            min_samples=min_samples,
            max_history=max(4 * latency_window, 128),
            # Costs here are seconds, not op counts: the baseline
            # floor must sit below any plausible service time.
            floor=1e-6,
        )
        self.level = self.NORMAL
        self.latency_opens = 0
        self._latency_hold = 0
        self._lock = threading.Lock()

    def _fill(self, depth: int) -> float:
        if not self.queue_max:
            return 0.0
        return depth / self.queue_max

    def _relevel(self, depth: int) -> int:
        fill = self._fill(depth)
        if fill >= self.high_fill:
            level = self.SHED
        elif fill >= self.low_fill or self._latency_hold > 0:
            level = self.TIGHTEN
        else:
            level = self.NORMAL
        # Hysteresis: only descend when fill is back under low water.
        if level < self.level and fill >= self.low_fill:
            level = self.level
        self.level = level
        return level

    def note_depth(self, depth: int) -> int:
        """Submit-side relevel from a fresh queue depth (bursts raise
        depth faster than workers observe latencies)."""
        with self._lock:
            return self._relevel(depth)

    def observe(self, depth: int, service_seconds: float) -> int:
        """Worker-side input: one served query's service time plus the
        current depth; returns the new ladder level."""
        with self._lock:
            if self._latency_hold > 0:
                self._latency_hold -= 1
            reason = self.breaker.record(service_seconds)
            if reason is not None:
                self.latency_opens += 1
                self._latency_hold = self.hold
                self.breaker.reset()  # re-baseline after the blowup
            return self._relevel(depth)

    def should_shed(self, depth: int) -> bool:
        return self.note_depth(depth) >= self.SHED

    def budget_scale(self) -> float:
        """The factor applied to the engine's default budget limits
        (1.0 at ``NORMAL``)."""
        return self.tighten_scale if self.level >= self.TIGHTEN else 1.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "level": self.level,
                "latency_opens": self.latency_opens,
                "latency_hold": self._latency_hold,
                "queue_max": self.queue_max,
            }

    def __repr__(self) -> str:
        names = {0: "NORMAL", 1: "TIGHTEN", 2: "SHED"}
        return f"OverloadController(level={names[self.level]})"


class ShapeBreaker:
    """Fast-fail for query shapes that repeatedly exhaust budgets.

    Tracks consecutive budget exhaustions per ``(kind, rel)``; at
    *threshold* the shape's breaker opens and :meth:`check` starts
    answering ``True`` (shed, reason ``"breaker"``) without burning a
    budget.  Every *cooldown* sheds one probe query is admitted; a
    definite (or plain-fuel) answer closes the breaker, another
    exhaustion re-opens it.  This is PR 5's campaign circuit breaker
    lifted to the serving layer: there the signal was op-cost blowup
    across tests of one property, here it is budget exhaustion across
    queries of one shape.
    """

    def __init__(self, threshold: int = 3, cooldown: int = 16) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        # shape -> [consecutive_exhaustions, open, sheds_since_probe]
        self._state: dict = {}
        self._lock = threading.Lock()
        self.opened = 0
        self.shed = 0

    def check(self, shape: tuple) -> bool:
        """``True`` = shed this query now (breaker open, not probing)."""
        with self._lock:
            st = self._state.get(shape)
            if st is None or not st[1]:
                return False
            st[2] += 1
            if st[2] > self.cooldown:
                st[2] = 0  # admit one probe
                return False
            self.shed += 1
            return True

    def record(self, shape: tuple, exhausted: bool) -> None:
        """Feed one *executed* query's outcome (shed queries never ran
        and must not be recorded)."""
        with self._lock:
            if not exhausted:
                self._state.pop(shape, None)
                return
            st = self._state.setdefault(shape, [0, False, 0])
            st[0] += 1
            if st[0] >= self.threshold and not st[1]:
                st[1] = True
                st[2] = 0
                self.opened += 1
            elif st[1]:
                st[2] = 0  # failed probe: restart the cooldown

    def open_shapes(self) -> "list[tuple]":
        with self._lock:
            return sorted(s for s, st in self._state.items() if st[1])

    def snapshot(self) -> dict:
        return {
            "open": ["{}:{}".format(*s) for s in self.open_shapes()],
            "opened": self.opened,
            "shed": self.shed,
        }

    def __repr__(self) -> str:
        return (
            f"ShapeBreaker(open={self.open_shapes()!r}, "
            f"threshold={self.threshold})"
        )

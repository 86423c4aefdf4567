"""The serving engine: sessioned worker threads over one shared context.

An :class:`Engine` owns a preloaded :class:`~repro.core.context.
Context` and a pool of worker threads.  Each worker binds its **own**
:class:`~repro.core.session.Session` once at thread start, so the
runtime state of concurrent queries never collides: budgets install
per worker, stats count per worker, and (with ``memoize=True``) each
worker fills its own memo shard — the worker-sharded memo
architecture.  Derived artifacts (schedules, plans, compiled code) and
instances are shared through the context; first-use derivation is
serialized by the context's derive lock, so a relation is derived once
no matter which worker's query arrives first.

Queries resolve to structured :class:`~repro.serve.queries.
QueryResult`\\ s — a budget- or fuel-limited query *gives up*, it does
not error, and a query the engine refuses to run is **shed** (also not
an error).  Submission is non-blocking: :meth:`Engine.submit` returns
the query's :class:`~repro.serve.admission.Ticket`, which *is* a
:class:`concurrent.futures.Future`, and :meth:`Engine.arun` awaits it
from asyncio.  There is no second future per query because what one
outstanding query allocates sets how often the collector runs: a
batching window of 64 queries must stay under CPython's gen-0
threshold (700 tracked containers), or nearly every chunk pays a
collection and the gen-2 passes that follow set the tail latency.  A
pending ticket holds six tracked containers, a served one with its
:class:`~repro.serve.queries.QueryResult` seven.

Every query runs on *the instance callable* of its ``(kind, rel,
mode)`` shape, resolved once per worker through
:func:`~repro.derive.api.compiled_instance`: the compiled backend's
emitted checker (``fn(fuel, args)``), enumerator (``enum_st``) or
generator (``gen_st``), or a registered handwritten or
``derive_mutual`` instance exactly as registered.  Resolution runs the
static-analysis gate; a gate or derivation failure is a
``status="error"`` result.  A per-worker registry-epoch check once per
chunk lets ``register(..., replace=True)`` reach a running engine.

A worker takes one ticket with a blocking get, then drains up to
*batch_max* - 1 more live tickets in one queue-lock hold.  It groups
same-relation check queries with no budget through the checker's
amortized batch entry point (``fn.__batch__``) — the batched
front-end that makes point-query traffic cheap — and runs the rest
singly.  Counters are accounted once per chunk, before the chunk's
futures resolve.  A query whose recursion overflows the Python stack
gives up with ``GiveUp("depth")``; it never errors.

High availability (PR 10) wraps three governors around that core:

* **admission control** — the queue is an :class:`~repro.serve.
  admission.AdmissionQueue`: *queue_max* bounds it, *admission* picks
  the full-queue policy (``block`` / ``reject`` / ``shed_oldest``),
  and an :class:`~repro.serve.admission.OverloadController` (enabled
  automatically with a bounded queue) climbs the degradation ladder —
  tightening default budgets under pressure, shedding at submit when
  saturated.  A :class:`~repro.serve.admission.ShapeBreaker` fast-
  fails ``(kind, rel)`` shapes that repeatedly exhaust their budgets.
* **deadline-aware queueing** — a query carrying ``deadline_seconds``
  gets an *absolute* deadline stamped at submit: it expires in queue
  without executing (shed, reason ``"expired"``), and when it does
  execute its budget gets only the *remaining* time, not the original
  allotment.  (The engine-level *deadline_seconds* default remains an
  execution-scoped budget, exactly as before.)
* **supervision** — a :class:`~repro.serve.supervisor.Supervisor`
  restarts crashed workers with capped exponential backoff.  A crash
  costs one query one structured error; the rest of the dying worker's
  chunk is requeued.  ``close(drain_timeout=...)`` resolves every
  outstanding future — served within the drain window, shed
  (``"shutdown"``) after it — and never strands one.  When the whole
  pool is dead (every slot retired, or no supervision), ``submit``
  raises instead of queueing into the void.

With ``queue_max=None`` (the default) none of the admission machinery
is active; the benchmark suite's ``serve_batch`` workload guards that
path end to end.

Chaos testing hooks: *faults* takes a :class:`~repro.resilience.
faults.WorkerFaultPlan`; each worker counts the queries it claims
(ordinals persist across restarts) and fires the planned ``crash`` /
``stall`` / ``poison`` faults — the serving chaos suite
(``tests/serve/test_chaos.py``) drives seeded plans through every
recovery path and asserts no future is ever stranded.

Synchronous convenience::

    with Engine(ctx, workers=4) as eng:
        results = eng.run_batch([CheckQuery("le", args) for args in work])
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import InvalidStateError
from time import monotonic
from typing import Any, Iterable

from ..core.context import Context
from ..core.errors import ReproError
from ..core.session import activate_session
from ..derive.api import compiled_instance
from ..derive.instances import CHECKER, ENUM, GEN, REGISTRY_EPOCH
from ..derive.memo import clear_memo, enable_memoization
from ..observe.metrics import Metrics
from ..observe.telemetry import Telemetry
from ..producers.option_bool import NONE_OB, SOME_TRUE
from ..producers.outcome import FAIL, OUT_OF_FUEL
from ..quickchick.runner import _SEED_SOURCE
from ..resilience.budget import budget_scope
from .admission import AdmissionQueue, OverloadController, ShapeBreaker, Ticket
from .queries import CheckQuery, GiveUp, QueryResult
from .supervisor import Supervisor

_CLOSE = object()  # worker shutdown sentinel

_KINDS = {"CheckQuery": "check", "EnumQuery": "enum", "GenQuery": "gen"}
_INSTANCE_KINDS = {"CheckQuery": CHECKER, "EnumQuery": ENUM, "GenQuery": GEN}

#: The per-worker counter fields ``Engine.stats()`` renders, in the
#: order of the legacy per-worker dicts.
_WORKER_FIELDS = ("queries", "batched", "gave_up", "errors")


class _InjectedCrash(BaseException):
    """A planned worker crash (chaos testing).  Derives from
    BaseException so the per-query isolation catches cannot swallow
    it — it must take the worker thread down like a real crash."""


class Engine:
    """Sessioned, batched query service over one context.

    *workers* threads each own a session (``serve-<i>``); *fuel* is
    the default fuel for queries created by the CLI, not a limit on
    query-carried fuel.  *max_ops* / *deadline_seconds* are the
    **default per-query budget** (``None`` = ungoverned); a query's
    own ``max_ops``/``deadline_seconds`` override them.  With
    ``memoize=True`` every worker session runs with memoization on —
    per-worker memo shards, no cross-worker locking.  *batch_max*
    bounds how many queued queries one worker drains per chunk (the
    batching window).

    High-availability knobs (see the module docstring):

    * *queue_max* / *admission* — bounded admission queue and its
      full-queue policy (``"block"`` backpressures the submitter,
      ``"reject"`` sheds the incoming query, ``"shed_oldest"`` evicts
      the head).  ``queue_max=None`` = unbounded, admission inactive.
    * *overload* — the degradation ladder: ``None`` enables an
      :class:`~repro.serve.admission.OverloadController` exactly when
      the queue is bounded; pass ``True``/``False`` to force, or a
      configured controller.
    * *breaker* — per-(kind, rel) fast-fail: ``None`` enables a
      :class:`~repro.serve.admission.ShapeBreaker` exactly when the
      engine has default budgets to exhaust; ``True``/``False``/
      instance to force.
    * *supervise* — worker supervision (default on): ``True``,
      ``False``, or a dict of :class:`~repro.serve.supervisor.
      Supervisor` keyword arguments (``backoff_base``, ``heal_seconds``,
      ``max_restarts``, ...).
    * *faults* — a :class:`~repro.resilience.faults.WorkerFaultPlan`
      for chaos testing (``None`` in production).

    *telemetry* switches on serving-layer observability: pass ``True``
    for a fresh :class:`~repro.observe.telemetry.Telemetry` with
    default sampling, or a configured instance (shareable across
    engines).  Every query then gets a campaign-unique id carried
    submit→queue→batch→execute, per-(kind, rel) latency histograms,
    queue-wait and batch-size distributions, queue-depth gauges, and —
    for sampled or slow queries only — the full span tree of the
    execution attached to its :class:`~repro.observe.telemetry.
    QueryEvent`.  Telemetry off costs a couple of locked counter
    bumps per query (the ``bench_telemetry.py`` bars pin both modes).

    All engine counters live in one locked
    :class:`~repro.observe.metrics.Metrics` registry (the telemetry's
    when on, a private one when off); :meth:`stats` renders the legacy
    per-worker dict shape as a *view* of that registry, so worker
    threads never mutate shared dicts unlocked.
    """

    def __init__(
        self,
        ctx: Context,
        *,
        workers: int = 1,
        max_ops: "int | None" = None,
        deadline_seconds: "float | None" = None,
        memoize: bool = False,
        batch: bool = True,
        batch_max: int = 64,
        telemetry: "Telemetry | bool | None" = None,
        queue_max: "int | None" = None,
        admission: str = "block",
        overload: "OverloadController | bool | None" = None,
        breaker: "ShapeBreaker | bool | None" = None,
        supervise: "bool | dict" = True,
        faults: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.ctx = ctx
        self.workers = workers
        self.max_ops = max_ops
        self.deadline_seconds = deadline_seconds
        self.memoize = memoize
        self.batch = batch
        self.batch_max = max(1, batch_max)
        if telemetry is True:
            telemetry = Telemetry()
        elif telemetry is False:
            telemetry = None
        self.telemetry: "Telemetry | None" = telemetry
        if telemetry is not None:
            self._metrics = telemetry.metrics
            self._lock = telemetry.lock
        else:
            self._metrics = Metrics()
            self._lock = threading.Lock()
        self._queue = AdmissionQueue(
            maxsize=queue_max, policy=admission, on_shed=self._shed_ticket
        )
        self.queue_max = queue_max
        if overload is None:
            overload = queue_max is not None
        if overload is True:
            overload = OverloadController(queue_max=queue_max)
        elif overload is False:
            overload = None
        self._overload: "OverloadController | None" = overload
        if breaker is None:
            breaker = max_ops is not None or deadline_seconds is not None
        if breaker is True:
            breaker = ShapeBreaker()
        elif breaker is False:
            breaker = None
        self._breaker: "ShapeBreaker | None" = breaker
        if supervise is True:
            supervise = {}
        self._supervisor: "Supervisor | None" = (
            Supervisor(self, **supervise) if isinstance(supervise, dict)
            else None
        )
        self._supervising = False
        self.faults = faults
        #: per-worker served-query ordinals (1-based), persisting across
        #: restarts so each planned fault fires exactly once
        self._ordinals: dict = {}
        #: per worker: (registry epoch, {(kind, rel, mode): Instance})
        self._resolved: "list[tuple | None]" = [None] * workers
        self._worker_keys = [
            tuple(f"serve.worker.{i}.{f}" for f in _WORKER_FIELDS)
            for i in range(workers)
        ]
        self._threads: "list[threading.Thread | None]" = [None] * workers
        #: workers inside their serving loop, kept by ``_worker_main``
        #: under ``_state_lock`` so ``submit`` reads one int, not threads
        self._live = 0
        self._started = False
        self._closing = False
        self._closed = False
        self._close_done = threading.Event()
        self._state_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Engine":
        if self._started:
            return self
        self._started = True
        for i in range(self.workers):
            self._spawn(i)
        if self._supervisor is not None:
            self._supervisor.start()
            self._supervising = True
        return self

    def close(self, drain_timeout: "float | None" = None) -> None:
        """Stop the engine, resolving **every** outstanding future.

        *drain_timeout* bounds how long workers keep serving the
        already-admitted queue: ``None`` drains it fully (bounded in
        practice — no new admissions once closing, and the wait ends
        early if no worker is left alive to drain), ``0`` sheds
        immediately, *t* waits up to *t* seconds.  Whatever is still
        queued after the window is shed with reason ``"shutdown"`` —
        shed, not stranded.  Idempotent; concurrent callers block
        until the first close completes.
        """
        with self._state_lock:
            if self._closed:
                return
            if self._closing:
                already = True
            else:
                already = False
                self._closing = True
        if already:
            self._close_done.wait()
            return
        try:
            q = self._queue
            q.start_closing()  # blocked put() callers shed "shutdown"
            if self._started:
                deadline = (
                    None if drain_timeout is None
                    else monotonic() + drain_timeout
                )
                while not q.empty():
                    if deadline is not None and monotonic() >= deadline:
                        break
                    if not any(
                        t is not None and t.is_alive() for t in self._threads
                    ):
                        break  # nobody left to drain it
                    time.sleep(0.002)
            q.drain("shutdown")
            if self._started:
                for _ in range(self.workers):
                    q.put_control(_CLOSE)
                if self._supervising:
                    self._supervisor.stop()
                    self._supervising = False
                for t in self._threads:
                    if t is not None:
                        t.join()
                # A worker that crashed mid-close may have requeued its
                # chunk after the first drain; nothing will serve it now.
                q.drain("shutdown")
            self._closed = True
        finally:
            self._close_done.set()

    def __enter__(self) -> "Engine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, query) -> Ticket:
        """Enqueue *query* and return its :class:`~repro.serve.admission.
        Ticket` — a :class:`concurrent.futures.Future` that resolves to
        its :class:`QueryResult` (never to an exception — failures
        become ``status="error"`` results, refusals ``status="shed"``).
        Cancelling a queued query drops its answer; the worker may
        still run it.  Raises only when the engine cannot serve at
        all: it is closed, or the whole worker pool is dead."""
        if self._closed or self._closing:
            raise RuntimeError("engine is closed")
        if not self._started:
            self.start()
        if not self._live and self._pool_dead():
            raise RuntimeError(
                "engine worker pool is dead (every worker crashed and "
                "none can be restarted)"
            )
        tel = self.telemetry
        qid = tel.next_qid() if tel is not None else 0
        now = monotonic()
        per_query = getattr(query, "deadline_seconds", None)
        deadline = now + per_query if per_query is not None else None
        ticket = Ticket(query, qid, now, deadline)
        ctl = self._overload
        if ctl is not None and ctl.should_shed(self._queue.qsize()):
            self._note_level(ctl.level)
            self._shed_ticket(ticket, "overload")
            return ticket
        brk = self._breaker
        if brk is not None and brk.check(
            (_KINDS.get(type(query).__name__, "?"), getattr(query, "rel", "?"))
        ):
            self._shed_ticket(ticket, "breaker")
            return ticket
        self._queue.put(ticket)
        if tel is not None:
            tel.observe_queue_depth(self._queue.qsize())
        return ticket

    def run(self, query) -> QueryResult:
        """Submit and wait."""
        return self.submit(query).result()

    def run_batch(self, queries: Iterable[Any]) -> list[QueryResult]:
        """Submit all, gather results in submission order."""
        futures = [self.submit(q) for q in queries]
        return [f.result() for f in futures]

    async def arun(self, query) -> QueryResult:
        """Await one query from asyncio without blocking the loop."""
        import asyncio

        return await asyncio.wrap_future(self.submit(query))

    async def arun_batch(self, queries: Iterable[Any]) -> list[QueryResult]:
        import asyncio

        futures = [asyncio.wrap_future(self.submit(q)) for q in queries]
        return list(await asyncio.gather(*futures))

    # -- read side -----------------------------------------------------------

    def stats(self) -> dict:
        """Per-worker served/batched/gave-up/error counts — a rendered
        view of the locked metrics registry (the legacy dict shape) —
        plus shed counts by reason, crash/restart totals, and the
        governors' snapshots.  With telemetry on, a ``"telemetry"``
        key carries the full
        :meth:`~repro.observe.telemetry.Telemetry.snapshot`."""
        with self._lock:
            snap = dict(self._metrics.counters)
        prefix = "serve.shed.reason."
        out = {
            "workers": self.workers,
            "per_worker": [
                {
                    f: snap.get(f"serve.worker.{i}.{f}", 0)
                    for f in _WORKER_FIELDS
                }
                for i in range(self.workers)
            ],
            "shed": {
                k[len(prefix):]: v
                for k, v in snap.items()
                if k.startswith(prefix)
            },
            "crashes": snap.get("serve.worker_crashes", 0),
            "restarts": snap.get("serve.worker_restarts", 0),
        }
        if self._overload is not None:
            out["overload"] = self._overload.snapshot()
        if self._breaker is not None:
            out["breaker"] = self._breaker.snapshot()
        if self._supervisor is not None:
            out["supervisor"] = self._supervisor.snapshot()
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot()
        return out

    def prepare(self, queries: Iterable[Any]) -> None:
        """Derive and compile every instance the queries will run, up
        front — first-query latency becomes load-time latency."""
        seen = set()
        for q in queries:
            kind = _INSTANCE_KINDS.get(type(q).__name__)
            key = (kind, q.rel, getattr(q, "mode", None))
            if kind is None or key in seen:
                continue
            seen.add(key)
            compiled_instance(self.ctx, *key)

    # -- supervision hooks ---------------------------------------------------

    def _accepting(self) -> bool:
        """Whether worker deaths should be treated as crashes (the
        supervisor's restart gate — clean shutdown exits are not)."""
        return self._started and not self._closing and not self._closed

    def _worker_alive(self, index: int) -> bool:
        t = self._threads[index]
        return t is not None and t.is_alive()

    def _spawn(self, index: int) -> None:
        t = threading.Thread(
            target=self._worker_main, args=(index,),
            name=f"repro-serve-{index}", daemon=True,
        )
        self._threads[index] = t
        t.start()

    def _respawn_worker(self, index: int) -> None:
        """Supervisor callback: bring a crashed worker slot back.

        The restart is counted before the spawn: the new worker may
        serve every requeued query before this thread runs again, and
        whoever sees those answers must see the restart too."""
        with self._lock:
            c = self._metrics.counters
            c["serve.worker_restarts"] = c.get("serve.worker_restarts", 0) + 1
        try:
            self._spawn(index)
        except RuntimeError:
            with self._lock:
                c["serve.worker_restarts"] -= 1
            raise

    def _pool_dead(self) -> bool:
        """The scan behind ``submit``'s live-worker count, for when the
        count reads zero: a worker may be spawned but not yet in its
        loop, or the pool may really be dead."""
        if not self._started:
            return False
        if any(t is not None and t.is_alive() for t in self._threads):
            return False
        if self._supervisor is not None and self._supervising:
            # Restarts are coming unless every slot has been retired.
            return len(self._supervisor.retired) >= self.workers
        return True

    # -- shedding ------------------------------------------------------------

    def _shed_ticket(self, ticket: Ticket, reason: str) -> None:
        """Resolve *ticket* as ``status="shed"`` — the structured
        refusal used for admission rejects, evictions, in-queue
        expiry, overload, open shape breakers, and shutdown."""
        query = ticket.query
        queue_s = monotonic() - ticket.submitted
        tel = self.telemetry
        if tel is not None:
            tel.record_shed(
                qid=ticket.qid,
                kind=_KINDS.get(type(query).__name__, "?"),
                rel=getattr(query, "rel", "?"),
                mode=getattr(query, "mode", ""),
                reason=reason,
                queue_seconds=queue_s,
            )
        else:
            with self._lock:
                c = self._metrics.counters
                for key in ("serve.shed", f"serve.shed.reason.{reason}"):
                    c[key] = c.get(key, 0) + 1
        _resolve(
            ticket,
            QueryResult(
                query, "shed", give_up=GiveUp(reason),
                qid=ticket.qid, queue_seconds=queue_s,
            ),
        )

    def _note_level(self, level: int) -> None:
        # Gauge store is unlocked by design (single dict store, GIL-
        # atomic) — same contract as Telemetry.observe_queue_depth.
        self._metrics.gauges["serve.overload_level"] = level

    # -- worker side ---------------------------------------------------------

    def _claim(self, index: int, ticket: Ticket) -> None:
        """Count one claimed query and fire any planned fault for it.
        ``stall`` sleeps here; ``poison`` tags the ticket for its
        execution to raise; ``crash`` raises :class:`_InjectedCrash`
        (the caller's crash handler takes the worker down)."""
        plan = self.faults
        if plan is None:
            return
        nth = self._ordinals.get(index, 0) + 1
        self._ordinals[index] = nth
        kind = plan.draw(index, nth)
        if kind is None:
            return
        if kind == "stall":
            time.sleep(plan.stall_seconds)
        elif kind == "poison":
            ticket.fault = "poison"
        else:  # crash
            ticket.fault = "crash"
            raise _InjectedCrash(f"planned crash: worker {index} query {nth}")

    def _crash(self, index: int, ticket: "Ticket | None", exc) -> None:
        """A worker is going down: resolve its in-flight ticket as a
        structured error, account the crash, wake the supervisor."""
        if ticket is not None:
            queue_s = monotonic() - ticket.submitted
            result = QueryResult(
                ticket.query, "error", error=f"worker crashed: {exc!r}",
                worker=index, qid=ticket.qid, queue_seconds=queue_s,
            )
            tel = self.telemetry
            if tel is not None:
                tel.record_query(
                    qid=ticket.qid,
                    kind=_KINDS.get(type(ticket.query).__name__, "?"),
                    rel=getattr(ticket.query, "rel", "?"),
                    mode=getattr(ticket.query, "mode", ""),
                    status="error",
                    worker=index,
                    queue_seconds=queue_s,
                )
            else:
                self._bump(index, (1, 0, 0, 1))
            _resolve(ticket, result)
        with self._lock:
            c = self._metrics.counters
            c["serve.worker_crashes"] = c.get("serve.worker_crashes", 0) + 1
        if self._supervising and self._accepting():
            self._supervisor.notify_crash(index, exc)

    def _worker_main(self, index: int) -> None:
        ctx = self.ctx
        # Bind this thread's session for the thread's whole life; the
        # binding is thread-local (contextvars), so each worker sees
        # only its own state.
        activate_session(ctx, ctx.new_session(f"serve-{index}"))
        if self.memoize:
            with ctx._derive_lock:
                # Wrapping instances mutates the shared table
                # (idempotently); serialize it.  The memo *flag* and
                # tables land in this worker's session.
                enable_memoization(ctx)
        q = self._queue
        window = self.batch_max - 1 if self.batch else 0
        with self._state_lock:
            self._live += 1
        while True:
            item = q.get()
            if item is None:
                continue
            if item is _CLOSE:
                self._leave()
                return
            chunk = [item]
            claiming: "Ticket | None" = item
            try:
                # Claim the head before draining the window, so a
                # planned stall parks the worker with the rest queued.
                self._claim(index, item)
                if window:
                    chunk += q.get_many(window)
                    if self.faults is not None:
                        for claiming in chunk[1:]:
                            self._claim(index, claiming)
                claiming = None
                self._serve_chunk(index, chunk)
            except BaseException as e:  # crash: never strand a Future
                # Leave before reporting: a slot the supervisor retires
                # must already read as dead to submit().
                self._leave()
                survivors = [t for t in chunk if not t.done()]
                if claiming is not None and claiming in survivors:
                    # The crash fired at claim time: the ticket being
                    # claimed is the in-flight victim.
                    survivors.remove(claiming)
                    survivors.insert(0, claiming)
                victim = survivors[0] if survivors else None
                if len(survivors) > 1:
                    # Untouched chunk neighbors go back for the
                    # restarted worker (or a sibling) to serve.
                    q.put_front(survivors[1:])
                self._crash(index, victim, e)
                return

    def _leave(self) -> None:
        with self._state_lock:
            self._live -= 1

    def _shapes(self, index: int) -> dict:
        """Worker *index*'s resolved instances by ``(kind, rel, mode)``.
        Checked once per chunk against the registry epoch, so a
        ``register(..., replace=True)`` reaches a running engine at its
        next chunk; per worker, so every resolution (and memo wrapping)
        happens in the worker's own session.  A new epoch also clears
        the worker's memo shard: ``register`` invalidates only the
        registering session's tables, and cached answers may depend on
        the replaced instance."""
        epoch = self.ctx.artifacts.get(REGISTRY_EPOCH, 0)
        cached = self._resolved[index]
        if cached is None or cached[0] != epoch:
            clear_memo(self.ctx)
            cached = self._resolved[index] = (epoch, {})
        return cached[1]

    def _instance(self, shapes: dict, kind: str, rel: str, mode) -> Any:
        key = (kind, rel, mode)
        inst = shapes.get(key)
        if inst is None:
            # Errors (unknown relation, analysis gate, unschedulable
            # mode) are not cached: each query of the shape reports
            # them, and the gate's report is cached by the context.
            inst = shapes[key] = compiled_instance(self.ctx, kind, rel, mode)
        return inst

    def _serve_chunk(self, index: int, chunk: list) -> None:
        # Group plain check queries per (rel, fuel) for the instance's
        # batch entry; everything else runs singly.  "Plain" excludes
        # budgets, deadlines, poison tags, and queries sampled for
        # tracing — each of those needs its own execution.  Tickets
        # resolve after the chunk's counters are accounted, once;
        # done[i] resolves to results[i].
        tel = self.telemetry
        shapes = self._shapes(index)
        counts = [0, 0, 0, 0]  # _WORKER_FIELDS
        done: list = []
        results: list = []
        try:
            groups: dict[tuple, list] = {}
            singles: list = []
            plain = (
                len(chunk) > 1
                and self.max_ops is None
                and self.deadline_seconds is None
            )
            for t in chunk:
                query = t.query
                if (
                    plain
                    and isinstance(query, CheckQuery)
                    and query.max_ops is None
                    and t.deadline is None
                    and t.fault is None
                    and not (
                        tel is not None
                        and tel.should_trace(t.qid, "check", query.rel)
                    )
                ):
                    group = groups.get((query.rel, query.fuel))
                    if group is None:
                        groups[(query.rel, query.fuel)] = [t]
                    else:
                        group.append(t)
                else:
                    singles.append(t)
            for (rel, fuel), items in groups.items():
                if len(items) == 1:
                    singles.extend(items)
                    continue
                results += self._serve_check_batch(
                    index, shapes, rel, fuel, items, counts
                )
                done += items
            for t in singles:
                if t.expired():
                    # The deadline passed while chunk neighbors were served.
                    self._shed_ticket(t, "expired")
                    continue
                results.append(self._serve_one(index, shapes, t, counts))
                done.append(t)
        finally:
            if counts[0]:
                self._bump(index, counts)
            for t, result in zip(done, results):
                _resolve(t, result)

    def _bump(self, index: int, counts) -> None:
        # Telemetry-off accounting, one lock hold per chunk: the same
        # registry stats() renders, without building events.
        with self._lock:
            c = self._metrics.counters
            for key, n in zip(self._worker_keys[index], counts):
                if n:
                    c[key] = c.get(key, 0) + n

    def _serve_check_batch(
        self, index: int, shapes: dict, rel: str, fuel: int, items: list,
        counts: list,
    ) -> "list[QueryResult]":
        """The results of *items*, in order."""
        t0 = monotonic()
        n = len(items)
        tel = self.telemetry
        try:
            fn = self._instance(shapes, CHECKER, rel, None).fn
        except ReproError as e:
            # A derive/schedule failure is shared by the whole group —
            # every query of this shape errors identically.
            elapsed = (monotonic() - t0) / n
            if tel is not None:
                tel.record_batch(
                    kind="check", rel=rel, worker=index,
                    entries=[(t.qid, t0 - t.submitted) for t in items],
                    service_seconds=elapsed,
                    statuses=["error"] * n,
                    reasons=[None] * n,
                )
                with self._lock:
                    c = self._metrics.counters
                    key = self._worker_keys[index][3]
                    c[key] = c.get(key, 0) + n
            else:
                counts[0] += n
                counts[3] += n
            return [
                QueryResult(
                    t.query, "error", error=str(e),
                    elapsed_seconds=elapsed, worker=index,
                    qid=t.qid, queue_seconds=t0 - t.submitted,
                )
                for t in items
            ]
        try:
            argses = [tuple(t.query.args) for t in items]
            batch_fn = getattr(fn, "__batch__", None)
            if batch_fn is None:
                answers = [fn(fuel, args) for args in argses]
            else:
                answers = batch_fn(fuel, argses)
        except Exception:
            # Anything else (a wrong-arity query, a raise, a recursion
            # too deep) is one bad query's problem, not the group's:
            # isolate by re-serving each singly (the single path
            # resolves the culprit and answers its neighbors).
            return [self._serve_one(index, shapes, t, counts) for t in items]
        elapsed = (monotonic() - t0) / n
        # Positional fields: query, status, value, complete, give_up,
        # error, elapsed_seconds, worker, batched, qid, queue_seconds.
        result = QueryResult
        out = []
        append = out.append
        gave_up = 0
        for t, res in zip(items, answers):
            if res is not NONE_OB:
                append(result(
                    t.query, "ok", res is SOME_TRUE, None, None, None,
                    elapsed, index, True, t.qid, t0 - t.submitted,
                ))
            else:
                gave_up += 1
                append(result(
                    t.query, "gave_up", None, None, GiveUp("fuel"), None,
                    elapsed, index, True, t.qid, t0 - t.submitted,
                ))
        if tel is not None:
            tel.record_batch(
                kind="check", rel=rel, worker=index,
                entries=[(t.qid, t0 - t.submitted) for t in items],
                service_seconds=elapsed,
                statuses=[r.status for r in out],
                reasons=[
                    r.give_up.reason if r.give_up is not None else None
                    for r in out
                ],
            )
        else:
            counts[0] += n
            counts[1] += n
            counts[2] += gave_up
        ctl = self._overload
        if ctl is not None:
            self._note_level(ctl.observe(self._queue.qsize(), elapsed))
        return out

    def _limits(self, query, remaining: "float | None" = None) -> dict:
        """The effective budget limits for *query* (empty = none).

        A query's own limits are sacred; the engine *defaults* scale
        down under the overload ladder's TIGHTEN.  *remaining* (the
        ticket's time to deadline) caps the deadline budget — an
        executing query gets only the time it has left, not its
        original allotment.
        """
        out = {}
        ctl = self._overload
        scale = ctl.budget_scale() if ctl is not None else 1.0
        if query.max_ops is not None:
            out["max_ops"] = query.max_ops
        elif self.max_ops is not None:
            out["max_ops"] = max(1, int(self.max_ops * scale))
        if query.deadline_seconds is not None:
            deadline = query.deadline_seconds
        elif self.deadline_seconds is not None:
            deadline = self.deadline_seconds * scale
        else:
            deadline = None
        if remaining is not None:
            deadline = remaining if deadline is None else min(
                deadline, remaining
            )
        if deadline is not None:
            out["deadline_seconds"] = max(deadline, 1e-6)
        return out

    def _run_limited(
        self, query, kind: str, shapes: dict, remaining: "float | None" = None
    ) -> QueryResult:
        limits = self._limits(query, remaining)
        if not limits:
            return self._execute(query, kind, shapes)
        with budget_scope(self.ctx, **limits) as bud:
            result = self._execute(query, kind, shapes)
        if bud.exhausted is not None and (
            result.status == "gave_up" or result.complete is False
        ):
            # The budget (not plain fuel) is what stopped it:
            # surface the structured diagnosis, keeping any
            # partial enum answer found before the trip.
            result = QueryResult(
                query,
                "gave_up",
                value=result.value,
                complete=False if result.complete is not None else None,
                give_up=GiveUp(
                    getattr(bud.exhausted, "limit", "budget"),
                    exhausted=bud.exhausted,
                ),
                seed=result.seed,
            )
        return result

    def _serve_one(
        self, index: int, shapes: dict, ticket: Ticket, counts: list
    ) -> QueryResult:
        tel = self.telemetry
        query = ticket.query
        qid = ticket.qid
        kind = _KINDS.get(type(query).__name__, "?")
        t0 = monotonic()
        queue_s = t0 - ticket.submitted
        remaining = ticket.remaining(t0)
        spans = None
        try:
            if ticket.fault == "poison":
                raise RuntimeError("injected poison query")
            if tel is not None and tel.should_trace(qid, kind, query.rel):
                from ..observe import observe

                with observe(self.ctx, span_cap=tel.span_cap) as obs:
                    result = self._run_limited(query, kind, shapes, remaining)
                spans = [s.as_dict() for s in obs.spans]
            else:
                result = self._run_limited(query, kind, shapes, remaining)
        except Exception as e:
            # Per-query isolation: a raise inside one query's execution
            # is that query's result, never its neighbors' or the
            # worker's.  (Real crashes — BaseException — still
            # propagate to the worker's crash handler.)
            result = _failed(query, e)
        result.elapsed_seconds = monotonic() - t0
        result.worker = index
        result.qid = qid
        result.queue_seconds = queue_s
        status = result.status
        brk = self._breaker
        if brk is not None:
            brk.record(
                (kind, getattr(query, "rel", "?")),
                result.give_up is not None
                and result.give_up.exhausted is not None,
            )
        ctl = self._overload
        if ctl is not None:
            self._note_level(
                ctl.observe(self._queue.qsize(), result.elapsed_seconds)
            )
        if tel is not None:
            tel.record_query(
                qid=qid,
                kind=kind,
                rel=getattr(query, "rel", "?"),
                mode=getattr(query, "mode", ""),
                status=status,
                reason=(
                    result.give_up.reason
                    if result.give_up is not None
                    else None
                ),
                worker=index,
                queue_seconds=queue_s,
                service_seconds=result.elapsed_seconds,
                batch=1,
                spans=spans,
            )
        else:
            counts[0] += 1
            if status == "gave_up":
                counts[2] += 1
            elif status == "error":
                counts[3] += 1
        return result

    def _execute(self, query, kind: str, shapes: dict) -> QueryResult:
        """Run *query* on its shape's instance callable (internal
        calling conventions, :mod:`repro.derive.instances`)."""
        if kind == "check":
            fn = self._instance(shapes, CHECKER, query.rel, None).fn
            res = fn(query.fuel, tuple(query.args))
            if res is NONE_OB:
                return QueryResult(query, "gave_up", give_up=GiveUp("fuel"))
            return QueryResult(query, "ok", value=res is SOME_TRUE)
        if kind == "enum":
            fn = self._instance(shapes, ENUM, query.rel, query.mode).fn
            values: list = []
            saw_fuel = truncated = False
            try:
                for x in fn(query.fuel, tuple(query.ins)):
                    if x is OUT_OF_FUEL:
                        saw_fuel = True
                        continue
                    values.append(x)
                    if (
                        query.max_values is not None
                        and len(values) >= query.max_values
                    ):
                        truncated = True
                        break
            except Exception as e:
                # Mid-stream failure: the values found before the
                # raise are still a sound partial answer — keep them.
                return _failed(query, e, value=values, complete=False)
            complete = not saw_fuel and not truncated
            if saw_fuel and not values:
                return QueryResult(
                    query, "gave_up", value=values, complete=False,
                    give_up=GiveUp("fuel"),
                )
            return QueryResult(query, "ok", value=values, complete=complete)
        if kind == "gen":
            fn = self._instance(shapes, GEN, query.rel, query.mode).fn
            seed = (
                query.seed
                if query.seed is not None
                else _SEED_SOURCE.randrange(2**63)
            )
            try:
                res = fn(query.fuel, tuple(query.ins), random.Random(seed))
            except Exception as e:
                # The seed makes even a crash replayable:
                # GenQuery(..., seed=result.seed) reruns the draw.
                return _failed(query, e, seed=seed)
            if res is OUT_OF_FUEL:
                return QueryResult(
                    query, "gave_up", give_up=GiveUp("fuel"), seed=seed
                )
            if res is FAIL:
                return QueryResult(
                    query, "gave_up", give_up=GiveUp("retries"), seed=seed
                )
            return QueryResult(query, "ok", value=res, seed=seed)
        return QueryResult(
            query, "error", error=f"unknown query type {type(query).__name__}"
        )


def _resolve(ticket: Ticket, result: QueryResult) -> None:
    """Resolve *ticket* with *result* — unless its caller cancelled it
    while it was queued: the cancel stands and the answer is dropped."""
    try:
        ticket.set_result(result)
    except InvalidStateError:
        if not ticket.cancelled():
            raise


def _failed(query, exc: Exception, **fields) -> QueryResult:
    """The structured result of a query whose execution raised.  A
    recursion too deep for the interpreter stack gives up (reason
    ``"depth"``, like a budget's depth limit); anything else is an
    error, a :class:`ReproError` reported by its message."""
    if isinstance(exc, RecursionError):
        return QueryResult(query, "gave_up", give_up=GiveUp("depth"), **fields)
    msg = (
        str(exc) if isinstance(exc, ReproError)
        else f"query execution failed: {exc!r}"
    )
    return QueryResult(query, "error", error=msg, **fields)

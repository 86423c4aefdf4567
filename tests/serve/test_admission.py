"""High-availability serving: admission control, deadlines, overload
degradation, shape breakers, worker supervision, and close semantics.

The contract under test: the engine **never strands a future** and
**never turns a refusal into an error** — queries the engine will not
run resolve as structured ``status="shed"`` results, crashed workers
restart, and ``close()`` resolves everything outstanding.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.values import Value
from repro.resilience import WorkerFaultPlan
from repro.serve import (
    AdmissionQueue,
    CheckQuery,
    Engine,
    EnumQuery,
    OverloadController,
    ShapeBreaker,
    Ticket,
)


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


def _ticket(qid=1, deadline=None):
    return Ticket(CheckQuery("le", (nat(1), nat(2))), qid,
                  time.monotonic(), deadline)


def _stall_plan(seconds, worker=0, nth=1):
    """A plan whose only event parks *worker* at its *nth* claim —
    the deterministic way to hold queries in the queue."""
    return WorkerFaultPlan.from_events(
        (worker, nth, "stall"), stall_seconds=seconds
    )


class TestTicket:
    def test_no_deadline_never_expires(self):
        t = _ticket()
        assert not t.expired()
        assert t.remaining() is None

    def test_deadline_expiry_and_remaining(self):
        now = time.monotonic()
        t = _ticket(deadline=now + 60.0)
        assert not t.expired(now)
        assert 59.0 < t.remaining(now) <= 60.0
        assert t.expired(now + 61.0)
        assert t.remaining(now + 61.0) < 0


class TestAdmissionQueue:
    def test_reject_policy_sheds_incoming(self):
        shed = []
        q = AdmissionQueue(maxsize=2, policy="reject",
                           on_shed=lambda t, r: shed.append((t.qid, r)))
        assert q.put(_ticket(1)) and q.put(_ticket(2))
        assert not q.put(_ticket(3))
        assert shed == [(3, "admission")]
        assert q.qsize() == 2

    def test_shed_oldest_policy_evicts_head(self):
        shed = []
        q = AdmissionQueue(maxsize=2, policy="shed_oldest",
                           on_shed=lambda t, r: shed.append((t.qid, r)))
        q.put(_ticket(1))
        q.put(_ticket(2))
        assert q.put(_ticket(3))  # evicts qid 1, admits qid 3
        assert shed == [(1, "admission")]
        assert [q.get_nowait().qid, q.get_nowait().qid] == [2, 3]

    def test_block_policy_waits_for_room(self):
        q = AdmissionQueue(maxsize=1, policy="block")
        q.put(_ticket(1))
        admitted = []
        blocker = threading.Thread(
            target=lambda: admitted.append(q.put(_ticket(2)))
        )
        blocker.start()
        time.sleep(0.05)
        assert not admitted  # still blocked on the full queue
        assert q.get_nowait().qid == 1
        blocker.join(timeout=5)
        assert admitted == [True]

    def test_expired_tickets_shed_on_dequeue(self):
        shed = []
        q = AdmissionQueue(on_shed=lambda t, r: shed.append((t.qid, r)))
        q.put(_ticket(1, deadline=time.monotonic() - 1.0))  # already dead
        q.put(_ticket(2))
        live = q.get_nowait()
        assert live.qid == 2
        assert shed == [(1, "expired")]

    def test_drain_sheds_tickets_keeps_sentinels(self):
        shed = []
        token = object()
        q = AdmissionQueue(on_shed=lambda t, r: shed.append((t.qid, r)))
        q.put(_ticket(1))
        q.put_control(token)
        q.put(_ticket(2))
        assert q.drain() == 2
        assert sorted(shed) == [(1, "shutdown"), (2, "shutdown")]
        assert q.get_nowait() is token

    def test_closing_queue_sheds_new_puts(self):
        shed = []
        q = AdmissionQueue(on_shed=lambda t, r: shed.append((t.qid, r)))
        q.start_closing()
        assert not q.put(_ticket(9))
        assert shed == [(9, "shutdown")]


def _parked(cond, timeout=30.0):
    """Wait until a thread is parked on *cond* (its waiter deque is
    fed under the queue lock, before the thread blocks)."""
    deadline = time.monotonic() + timeout
    while not cond._waiters:
        assert time.monotonic() < deadline, "no thread parked"
        time.sleep(0.001)


def _in_thread(fn):
    """Run *fn* on a daemon thread (a thread that is never woken must
    not hold the test run open); returns the thread and its result
    list."""
    out: list = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    return t, out


class TestQueueWakeUps:
    """The queue's conditions skip ``notify`` when nobody waits; every
    operation that makes room or an item must still wake a parked
    thread."""

    @pytest.mark.parametrize("op", ["put", "put_front", "put_control"])
    def test_blocked_get_wakes(self, op):
        q = AdmissionQueue()
        item = object() if op == "put_control" else _ticket(7)
        t, got = _in_thread(q.get)
        _parked(q._not_empty)
        if op == "put":
            assert q.put(item)
        elif op == "put_front":
            q.put_front([item])
        else:
            q.put_control(item)
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == [item]
        assert not q._not_empty._waiters

    @pytest.mark.parametrize("op", ["get", "get_many", "start_closing"])
    def test_blocked_put_wakes(self, op):
        shed = []
        q = AdmissionQueue(maxsize=1, policy="block",
                           on_shed=lambda t, r: shed.append((t.qid, r)))
        assert q.put(_ticket(1))
        t, admitted = _in_thread(lambda: q.put(_ticket(2)))
        _parked(q._not_full)
        if op == "get":
            assert q.get().qid == 1
        elif op == "get_many":
            assert [it.qid for it in q.get_many(4)] == [1]
        else:
            q.start_closing()
        t.join(timeout=10)
        assert not t.is_alive()
        if op == "start_closing":
            assert admitted == [False]
            assert shed == [(2, "shutdown")]
        else:
            assert admitted == [True]
            assert q.get_nowait().qid == 2
        assert not q._not_full._waiters

    def test_every_parked_getter_wakes(self):
        q = AdmissionQueue()
        getters = [_in_thread(q.get) for _ in range(3)]
        deadline = time.monotonic() + 30
        while len(q._not_empty._waiters) < 3:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        tickets = [_ticket(i) for i in range(3)]
        for t in tickets:
            assert q.put(t)
        for t, _ in getters:
            t.join(timeout=10)
            assert not t.is_alive()
        assert sorted(got[0].qid for _, got in getters) == [0, 1, 2]


class TestOverloadController:
    def test_fill_climbs_the_ladder(self):
        ctl = OverloadController(queue_max=10)
        assert ctl.note_depth(0) == ctl.NORMAL
        assert ctl.note_depth(3) == ctl.TIGHTEN   # >= low_fill
        assert ctl.note_depth(8) == ctl.SHED      # >= high_fill
        assert ctl.should_shed(9)

    def test_hysteresis_descends_only_below_low_water(self):
        ctl = OverloadController(queue_max=10)
        ctl.note_depth(8)
        # Back between the watermarks: still SHED, not TIGHTEN.
        assert ctl.note_depth(5) == ctl.SHED
        assert ctl.note_depth(1) == ctl.NORMAL

    def test_tighten_scales_default_budgets(self):
        ctl = OverloadController(queue_max=10, tighten_scale=0.25)
        assert ctl.budget_scale() == 1.0
        ctl.note_depth(4)
        assert ctl.budget_scale() == 0.25

    def test_latency_blowup_holds_tighten(self):
        ctl = OverloadController(
            latency_window=4, latency_factor=4.0, min_samples=8, hold=16
        )
        for _ in range(8):
            ctl.observe(0, 0.001)
        level = ctl.observe(0, 1.0)  # 1000x the baseline: breaker opens
        assert ctl.latency_opens == 1
        assert level == ctl.TIGHTEN
        assert ctl.budget_scale() < 1.0


class TestShapeBreaker:
    SHAPE = ("check", "le")

    def test_opens_after_threshold_consecutive_exhaustions(self):
        brk = ShapeBreaker(threshold=3, cooldown=100)
        for _ in range(2):
            brk.record(self.SHAPE, True)
            assert not brk.check(self.SHAPE)
        brk.record(self.SHAPE, True)
        assert brk.check(self.SHAPE)
        assert brk.open_shapes() == [self.SHAPE]

    def test_success_resets_the_count(self):
        brk = ShapeBreaker(threshold=2, cooldown=100)
        brk.record(self.SHAPE, True)
        brk.record(self.SHAPE, False)  # recovery
        brk.record(self.SHAPE, True)
        assert not brk.check(self.SHAPE)

    def test_probe_admitted_after_cooldown_and_closes_on_success(self):
        brk = ShapeBreaker(threshold=1, cooldown=2)
        brk.record(self.SHAPE, True)
        assert brk.check(self.SHAPE) and brk.check(self.SHAPE)
        assert not brk.check(self.SHAPE)  # the probe
        brk.record(self.SHAPE, False)     # probe succeeded: closed
        assert not brk.check(self.SHAPE)


class TestEngineAdmission:
    def test_reject_policy_resolves_shed_not_error(self, nat_ctx):
        plan = _stall_plan(0.4)
        with Engine(
            nat_ctx, workers=1, queue_max=2, admission="reject",
            overload=False, faults=plan,
        ) as eng:
            first = eng.submit(CheckQuery("le", (nat(1), nat(2))))
            time.sleep(0.05)  # the worker claims it and parks
            futures = [
                eng.submit(CheckQuery("le", (nat(1), nat(i + 2))))
                for i in range(4)
            ]
            results = [f.result(timeout=30) for f in futures]
            assert first.result(timeout=30).ok
        # With the worker parked, 2 queued and the overflow shed.
        # Nothing errored, nothing was stranded.
        shed = [r for r in results if r.status == "shed"]
        served = [r for r in results if r.ok]
        assert len(shed) == 2 and len(served) == 2
        for r in shed:
            assert r.give_up.reason == "admission"
            assert r.error is None

    def test_shed_oldest_evicts_longest_waiter(self, nat_ctx):
        plan = _stall_plan(0.4)
        with Engine(
            nat_ctx, workers=1, queue_max=2, admission="shed_oldest",
            overload=False, faults=plan,
        ) as eng:
            first = eng.submit(CheckQuery("le", (nat(1), nat(2))))
            time.sleep(0.05)  # the worker claims it and parks
            futures = [
                eng.submit(CheckQuery("le", (nat(1), nat(i + 2))))
                for i in range(4)
            ]
            results = [f.result(timeout=30) for f in futures]
            assert first.result(timeout=30).ok
        shed = [i for i, r in enumerate(results) if r.status == "shed"]
        # The two oldest queued queries were evicted for the two newest.
        assert shed == [0, 1]
        assert results[2].ok and results[3].ok

    def test_block_policy_backpressures_and_serves_all(self, nat_ctx):
        with Engine(
            nat_ctx, workers=2, queue_max=2, admission="block",
            overload=False,
        ) as eng:
            results = eng.run_batch(
                [CheckQuery("le", (nat(i % 5), nat(4))) for i in range(20)]
            )
        assert all(r.ok for r in results)
        assert eng.stats()["shed"] == {}

    def test_overload_ladder_sheds_at_submit(self, nat_ctx):
        plan = _stall_plan(0.4)
        with Engine(
            nat_ctx, workers=1, queue_max=4, faults=plan,
        ) as eng:  # bounded queue: overload controller auto-enabled
            first = eng.submit(CheckQuery("le", (nat(1), nat(2))))
            time.sleep(0.05)  # the worker claims it and parks
            futures = [
                eng.submit(CheckQuery("le", (nat(1), nat(i + 2))))
                for i in range(5)
            ]
            results = [f.result(timeout=30) for f in futures]
            assert first.result(timeout=30).ok
        statuses = [r.status for r in results]
        # Fill crosses high water at depth 3/4: submits 4 and 5 shed.
        assert statuses == ["ok", "ok", "ok", "shed", "shed"]
        for r in results[3:]:
            assert r.give_up.reason == "overload"
        assert eng.stats()["shed"] == {"overload": 2}

    def test_shape_breaker_fast_fails_budget_burners(self, nat_ctx):
        brk = ShapeBreaker(threshold=2, cooldown=100)
        with Engine(
            nat_ctx, workers=1, max_ops=5, breaker=brk, batch=False
        ) as eng:
            burner = CheckQuery("le", (nat(20), nat(30)), fuel=64)
            assert eng.run(burner).give_up.reason == "ops"
            assert eng.run(burner).give_up.reason == "ops"
            third = eng.run(burner)
        assert third.status == "shed"
        assert third.give_up.reason == "breaker"
        assert eng.stats()["breaker"]["open"] == ["check:le"]

    def test_deadlined_query_expires_in_queue(self, nat_ctx):
        plan = _stall_plan(0.3)
        with Engine(nat_ctx, workers=1, faults=plan) as eng:
            eng.submit(CheckQuery("le", (nat(1), nat(2))))  # parks the worker
            time.sleep(0.05)
            doomed = eng.submit(
                CheckQuery("le", (nat(1), nat(3)), deadline_seconds=0.05)
            )
            res = doomed.result(timeout=30)
        assert res.status == "shed"
        assert res.give_up.reason == "expired"
        assert res.queue_seconds >= 0.05

    def test_executing_query_gets_only_remaining_time(self, nat_ctx):
        eng = Engine(nat_ctx)
        q = CheckQuery("le", (nat(1), nat(2)), deadline_seconds=5.0)
        limits = eng._limits(q, remaining=1.0)
        assert limits["deadline_seconds"] == 1.0  # not the original 5
        assert eng._limits(q)["deadline_seconds"] == 5.0

    def test_shed_counts_in_telemetry_and_prometheus(self, nat_ctx):
        from repro.observe.export import render_prometheus

        plan = _stall_plan(0.3)
        with Engine(nat_ctx, workers=1, faults=plan, telemetry=True) as eng:
            eng.submit(CheckQuery("le", (nat(1), nat(2))))
            time.sleep(0.05)
            eng.submit(
                CheckQuery("le", (nat(2), nat(3)), deadline_seconds=0.05)
            ).result(timeout=30)
            tel = eng.telemetry
            snap = tel.metrics.counter_snapshot()
            assert snap["serve.shed"] == 1
            assert snap["serve.shed.reason.expired"] == 1
            assert snap["serve.shed.check.le"] == 1
            text = render_prometheus(tel)
            assert 'repro_serve_shed{kind="check",rel="le"} 1' in text
            assert "repro_serve_shed_reason_expired 1" in text
            ev = [e for e in tel.events if e.status == "shed"]
            assert len(ev) == 1 and ev[0].reason == "expired"


class TestSupervision:
    SUP = {"backoff_base": 0.005, "check_interval": 0.005}

    def test_crashed_worker_restarts_and_serves_again(self, nat_ctx):
        plan = WorkerFaultPlan.from_events((0, 2, "crash"))
        with Engine(
            nat_ctx, workers=1, faults=plan, supervise=self.SUP
        ) as eng:
            assert eng.run(CheckQuery("le", (nat(1), nat(2)))).ok
            crashed = eng.run(CheckQuery("le", (nat(2), nat(3))))
            assert crashed.status == "error"
            assert "worker crashed" in crashed.error
            after = eng.run(CheckQuery("le", (nat(3), nat(4))))
            assert after.ok and after.value is True
        stats = eng.stats()
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1

    def test_queries_behind_a_crash_still_answer(self, nat_ctx):
        # The crash takes the worker down mid-chunk: the in-flight
        # query errors, its chunk neighbors are requeued and answered
        # by the restarted worker.
        plan = WorkerFaultPlan.from_events((0, 1, "crash"))
        with Engine(
            nat_ctx, workers=1, faults=plan, supervise=self.SUP
        ) as eng:
            futures = [
                eng.submit(CheckQuery("le", (nat(i), nat(3)), fuel=32))
                for i in range(6)
            ]
            results = [f.result(timeout=30) for f in futures]
        errors = [r for r in results if r.status == "error"]
        assert len(errors) == 1
        assert all(
            r.ok and r.value == (i <= 3)
            for i, r in enumerate(results)
            if r.status == "ok"
        )
        assert len([r for r in results if r.ok]) == 5

    def test_max_restarts_retires_and_pool_death_raises(self, nat_ctx):
        plan = WorkerFaultPlan.from_events(
            (0, 1, "crash"), (0, 2, "crash"), (0, 3, "crash")
        )
        sup = dict(self.SUP, max_restarts=2)
        with Engine(
            nat_ctx, workers=1, faults=plan, supervise=sup, batch=False
        ) as eng:
            for _ in range(3):
                res = eng.run(CheckQuery("le", (nat(1), nat(2))))
                assert res.status == "error"
            for _ in range(200):  # the third crash retires the slot
                if eng._supervisor.retired:
                    break
                time.sleep(0.01)
            assert eng._supervisor.retired == {0}
            with pytest.raises(RuntimeError, match="pool is dead"):
                eng.submit(CheckQuery("le", (nat(1), nat(2))))

    def test_unsupervised_crash_kills_pool(self, nat_ctx):
        plan = WorkerFaultPlan.from_events((0, 1, "crash"))
        eng = Engine(nat_ctx, workers=1, faults=plan, supervise=False)
        try:
            res = eng.run(CheckQuery("le", (nat(1), nat(2))))
            assert res.status == "error"
            for _ in range(200):
                if not eng._worker_alive(0):
                    break
                time.sleep(0.01)
            with pytest.raises(RuntimeError, match="pool is dead"):
                eng.submit(CheckQuery("le", (nat(2), nat(3))))
        finally:
            eng.close()

    def test_supervisor_snapshot_in_stats(self, nat_ctx):
        with Engine(nat_ctx, workers=1) as eng:
            eng.run(CheckQuery("le", (nat(1), nat(2))))
            snap = eng.stats()["supervisor"]
        assert snap["crashes"] == 0 and snap["retired"] == []


class TestCloseSemantics:
    def test_close_drains_pending_by_default(self, nat_ctx):
        plan = _stall_plan(0.2)
        eng = Engine(nat_ctx, workers=1, faults=plan).start()
        futures = [
            eng.submit(CheckQuery("le", (nat(i % 4), nat(3)), fuel=32))
            for i in range(8)
        ]
        eng.close()  # default: serve everything already admitted
        results = [f.result(timeout=1) for f in futures]
        assert all(r.ok for r in results)

    def test_close_zero_drain_sheds_pending(self, nat_ctx):
        plan = _stall_plan(0.3)
        eng = Engine(nat_ctx, workers=1, faults=plan).start()
        futures = [
            eng.submit(CheckQuery("le", (nat(1), nat(i + 1))))
            for i in range(6)
        ]
        time.sleep(0.05)  # worker claims a chunk, then parks
        eng.close(drain_timeout=0)
        results = [f.result(timeout=5) for f in futures]
        assert all(r.status in ("ok", "shed") for r in results)
        shed = [r for r in results if r.status == "shed"]
        assert shed, "nothing was shed by a zero drain window"
        assert all(r.give_up.reason == "shutdown" for r in shed)

    def test_double_close_is_idempotent(self, nat_ctx):
        eng = Engine(nat_ctx).start()
        eng.run(CheckQuery("le", (nat(1), nat(2))))
        eng.close()
        eng.close()  # no error, no hang
        assert eng._closed

    def test_submit_after_close_raises(self, nat_ctx):
        eng = Engine(nat_ctx).start()
        eng.close()
        with pytest.raises(RuntimeError, match="closed"):
            eng.submit(CheckQuery("le", (nat(1), nat(2))))

    def test_submit_racing_close_never_strands(self, nat_ctx):
        # Hammer submits from a sibling thread while the engine closes:
        # every future that submit() returned must resolve.
        eng = Engine(nat_ctx, workers=2).start()
        futures, rejected = [], []
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                try:
                    futures.append(
                        eng.submit(CheckQuery("le", (nat(1), nat(2))))
                    )
                except RuntimeError:
                    rejected.append(1)
                    return

        pumper = threading.Thread(target=pump)
        pumper.start()
        time.sleep(0.05)
        eng.close()
        # Once close() has returned the pump's next submit must raise,
        # so the thread exits on its own; stop is only a safety net
        # (setting it before the join would race the pump into exiting
        # without ever attempting that post-close submit).
        pumper.join(timeout=10)
        stop.set()
        assert not pumper.is_alive(), "pump thread never exited"
        assert rejected, "submit never started raising after close"
        for f in futures:
            res = f.result(timeout=5)
            assert res.status in ("ok", "shed")

    def test_worker_death_without_supervision_close_resolves_queue(
        self, nat_ctx
    ):
        plan = WorkerFaultPlan.from_events((0, 1, "crash"))
        eng = Engine(
            nat_ctx, workers=1, faults=plan, supervise=False, batch=False
        )
        futures = [
            eng.submit(CheckQuery("le", (nat(1), nat(i + 1))))
            for i in range(4)
        ]
        # First query dies with the worker; close must shed the rest
        # rather than wait forever for a worker that isn't coming back.
        assert futures[0].result(timeout=10).status == "error"
        eng.close()
        for f in futures[1:]:
            res = f.result(timeout=5)
            assert res.status == "shed"
            assert res.give_up.reason == "shutdown"

    def test_run_batch_resolves_under_rejection(self, nat_ctx):
        plan = _stall_plan(0.2)
        with Engine(
            nat_ctx, workers=1, queue_max=1, admission="reject",
            overload=False, faults=plan,
        ) as eng:
            results = eng.run_batch(
                [CheckQuery("le", (nat(1), nat(i + 1))) for i in range(8)]
            )
        assert len(results) == 8
        assert all(r.status in ("ok", "shed") for r in results)


class TestCancel:
    """A caller may cancel a query's future while it is queued: the
    cancel stands, the worker drops that answer, and nothing else
    notices — no crash, no error for a neighbor."""

    def test_cancel_queued_query_does_not_crash_the_worker(self, nat_ctx):
        with Engine(nat_ctx, workers=1, faults=_stall_plan(0.3)) as eng:
            futures = [
                eng.submit(CheckQuery("le", (nat(i % 5), nat(4))))
                for i in range(20)
            ]
            assert futures[5].cancel()  # queued behind the stalled head
            results = {
                i: f.result(timeout=30)
                for i, f in enumerate(futures) if i != 5
            }
            stats = eng.stats()
        assert futures[5].cancelled()
        assert all(r.ok and r.value is True for r in results.values())
        assert stats["crashes"] == 0 and stats["restarts"] == 0

    def test_cancelled_ticket_survives_expiry_shed(self, nat_ctx):
        with Engine(nat_ctx, workers=1, faults=_stall_plan(0.3)) as eng:
            eng.submit(CheckQuery("le", (nat(1), nat(2))))  # parks the worker
            time.sleep(0.05)
            doomed = eng.submit(
                CheckQuery("le", (nat(1), nat(3)), deadline_seconds=0.05)
            )
            after = eng.submit(CheckQuery("le", (nat(2), nat(3))))
            assert doomed.cancel()
            assert after.result(timeout=30).ok
            stats = eng.stats()
        assert doomed.cancelled()
        assert stats["crashes"] == 0
        assert stats["shed"] == {"expired": 1}

    def test_cancelled_ticket_survives_shutdown_drain(self, nat_ctx):
        eng = Engine(nat_ctx, workers=1, faults=_stall_plan(0.3)).start()
        eng.submit(CheckQuery("le", (nat(1), nat(2))))
        time.sleep(0.05)
        queued = [
            eng.submit(CheckQuery("le", (nat(1), nat(i + 2))))
            for i in range(3)
        ]
        assert queued[1].cancel()
        eng.close(drain_timeout=0)  # sheds the queue; must not raise
        assert queued[1].cancelled()
        for f in (queued[0], queued[2]):
            assert f.result(timeout=5).give_up.reason == "shutdown"
        assert eng.stats()["crashes"] == 0


class TestSeedRecording:
    def test_gen_results_record_their_seed(self, nat_ctx):
        from repro.serve import GenQuery

        with Engine(nat_ctx, workers=1) as eng:
            drawn = eng.run(GenQuery("le", "oi", (nat(9),), fuel=16))
            assert drawn.ok and drawn.seed is not None
            replay = eng.run(
                GenQuery("le", "oi", (nat(9),), fuel=16, seed=drawn.seed)
            )
        assert replay.seed == drawn.seed
        assert replay.value == drawn.value
        assert drawn.to_dict()["seed"] == drawn.seed

    def test_erroring_enum_keeps_partial_values(self, nat_ctx):
        # An enumerator that raises mid-stream must surface the values
        # found so far, not discard them.  The failing stream is
        # injected through the registry: a handwritten enumerator that
        # replaces the derived one, which the engine then serves.
        from repro.derive.instances import ENUM, register_producer
        from repro.derive.modes import Mode

        def explode(fuel, ins):
            yield (nat(0),)
            yield (nat(1),)
            raise ValueError("stream corrupted")

        register_producer(
            nat_ctx, ENUM, "le", Mode.from_string("oi"), explode,
            replace=True,
        )
        with Engine(nat_ctx, workers=1) as eng:
            res = eng.run(EnumQuery("le", "oi", (nat(5),), fuel=10))
        assert res.status == "error"
        assert "stream corrupted" in res.error
        assert len(res.value) == 2
        assert res.complete is False

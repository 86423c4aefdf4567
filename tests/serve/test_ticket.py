"""The engine's future is its admission ticket.

``Engine.submit`` returns a :class:`repro.serve.admission.Ticket`, a
:class:`concurrent.futures.Future` subclass that lays out the future's
fields itself (all slots, a condition that keeps its lock's methods on
the class).  Three things are pinned here:

* **allocation budget** — what one outstanding query keeps alive in
  GC-tracked containers, because 64 of them plus the caller's own
  objects must stay under CPython's gen-0 threshold or the serving
  window triggers a collection per chunk;
* **future conformance** — everything a caller may do with a stdlib
  future works on an engine future, including through the ticket's
  own ``set_result``, ``add_done_callback`` and ``result``, which take
  the condition's lock directly;
* **layout drift** — the fields ``Future.__init__`` and
  ``Condition.__init__`` set are the ones the ticket and its condition
  declare, so a new interpreter's extra field fails here rather than
  quietly costing a ``__dict__`` per query.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import gc
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.values import Value
from repro.resilience import WorkerFaultPlan
from repro.serve import CheckQuery, Engine, QueryResult, Ticket
from repro.serve.admission import _Condition
from repro.serve.engine import _resolve

#: Tracked containers one pending ticket may hold: itself, its
#: condition, the condition's lock and waiter deque, and the future's
#: waiter and callback lists.
PENDING_BUDGET = 6
#: ... plus the served QueryResult.
SERVED_BUDGET = 7
#: Queries the serving benchmark keeps outstanding (the engine's default
#: ``batch_max``), and the tracked objects its client keeps per query
#: (a done-callback partial and its argument tuple, a bound method).
OUTSTANDING = 64
CALLER_PER_QUERY = 3


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


def _held(obj, before: set) -> int:
    """Tracked objects reachable from *obj* that did not exist in
    *before* (ids of objects kept alive by the caller's snapshot)."""
    seen: set = set()
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or id(o) in before or not gc.is_tracked(o):
            continue
        seen.add(id(o))
        stack.extend(gc.get_referents(o))
    return len(seen)


@pytest.fixture
def no_gc():
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


@pytest.fixture
def engine(nat_ctx):
    with Engine(nat_ctx, workers=1) as eng:
        yield eng


class TestAllocationBudget:
    def test_pending_ticket(self, no_gc):
        query = CheckQuery("le", (nat(1), nat(2)))
        snapshot = gc.get_objects()
        before = {id(o) for o in snapshot}
        ticket = Ticket(query, 0, time.monotonic())
        assert _held(ticket, before) <= PENDING_BUDGET

    def test_served_ticket(self, engine, no_gc):
        query = CheckQuery("le", (nat(1), nat(2)))
        engine.run(query)  # resolve the shape before counting
        snapshot = gc.get_objects()
        before = {id(o) for o in snapshot}
        ticket = engine.submit(query)
        result = ticket.result(timeout=30)
        assert result.ok and result.value is True
        assert _held(ticket, before) <= SERVED_BUDGET

    def test_window_fits_under_gen0_threshold(self):
        per_query = SERVED_BUDGET + CALLER_PER_QUERY
        assert OUTSTANDING * per_query < gc.get_threshold()[0]


class TestFutureConformance:
    def test_is_a_future(self, engine):
        f = engine.submit(CheckQuery("le", (nat(1), nat(2))))
        assert isinstance(f, Future)
        assert f.result(timeout=30).ok
        assert f.done() and not f.cancelled() and f.exception() is None

    def test_result_timeout_raises(self, nat_ctx):
        plan = WorkerFaultPlan.from_events((0, 1, "stall"), stall_seconds=0.3)
        with Engine(nat_ctx, workers=1, faults=plan) as eng:
            f = eng.submit(CheckQuery("le", (nat(1), nat(2))))
            with pytest.raises(cf.TimeoutError):
                f.result(timeout=0.01)
            assert f.result(timeout=30).ok

    def test_wait_and_as_completed(self, engine):
        futures = [
            engine.submit(CheckQuery("le", (nat(i), nat(4))))
            for i in range(8)
        ]
        done, pending = cf.wait(futures, timeout=30)
        assert done == set(futures) and not pending
        more = [
            engine.submit(CheckQuery("le", (nat(i), nat(4))))
            for i in range(8)
        ]
        seen = list(cf.as_completed(more, timeout=30))
        assert sorted(map(id, seen)) == sorted(map(id, more))
        assert [f.result().value for f in more] == [i <= 4 for i in range(8)]

    def test_arun_and_arun_batch(self, engine):
        async def drive():
            one = await engine.arun(CheckQuery("le", (nat(2), nat(5))))
            many = await engine.arun_batch(
                [CheckQuery("le", (nat(i), nat(3))) for i in range(6)]
            )
            return one, many

        one, many = asyncio.run(drive())
        assert isinstance(one, QueryResult) and one.value is True
        assert [r.value for r in many] == [i <= 3 for i in range(6)]

    def test_done_callback_before_and_after_resolution(self, engine):
        calls: list = []
        got = threading.Event()

        def before(f):
            calls.append(("before", f.result().value))
            got.set()

        f = engine.submit(CheckQuery("le", (nat(3), nat(1))))
        f.add_done_callback(before)
        assert got.wait(30)
        f.add_done_callback(lambda f: calls.append(("after", f.result().value)))
        assert calls == [("before", False), ("after", False)]

    def test_raising_callback_does_not_take_the_worker_down(self, engine):
        def boom(f):
            raise ValueError("callback failure")

        futures = [
            engine.submit(CheckQuery("le", (nat(i), nat(2))))
            for i in range(4)
        ]
        for f in futures:
            f.add_done_callback(boom)
        assert [f.result(timeout=30).value for f in futures] == [
            True, True, True, False
        ]
        assert engine.run(CheckQuery("le", (nat(0), nat(0)))).ok
        assert engine.stats()["crashes"] == 0


def _bare_ticket():
    return Ticket(CheckQuery("le", (nat(1), nat(2))), 0, time.monotonic())


def _parked(cond, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not cond._waiters:
        assert time.monotonic() < deadline, "no thread parked"
        time.sleep(0.001)


class TestLeanResolve:
    """``Ticket.set_result``, ``add_done_callback`` and ``result``
    behave as the stdlib future's do."""

    def test_raising_callback_is_logged_and_the_next_runs(self, caplog):
        t = _bare_ticket()
        calls: list = []

        def boom(f):
            calls.append("boom")
            raise ValueError("callback failure")

        t.add_done_callback(boom)
        t.add_done_callback(lambda f: calls.append(f.result()))
        with caplog.at_level("ERROR", logger="concurrent.futures"):
            t.set_result("answer")
        assert calls == ["boom", "answer"]
        [record] = caplog.records
        assert record.name == "concurrent.futures"
        assert "exception calling callback" in record.getMessage()
        assert record.exc_info[0] is ValueError

    def test_callback_added_after_resolution_runs_at_once(self, caplog):
        t = _bare_ticket()
        t.set_result(1)
        seen: list = []
        t.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [1]
        with caplog.at_level("ERROR", logger="concurrent.futures"):
            t.add_done_callback(lambda f: 1 / 0)
        assert len(caplog.records) == 1

    def test_blocked_result_wakes(self):
        t = _bare_ticket()
        got: list = []
        waiter = threading.Thread(target=lambda: got.append(t.result(30)))
        waiter.start()
        _parked(t._condition)
        t.set_result("late")
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert got == ["late"]
        assert not t._condition._waiters

    def test_blocked_wait_wakes(self):
        t = _bare_ticket()
        got: list = []
        waiter = threading.Thread(
            target=lambda: got.append(cf.wait([t], timeout=30))
        )
        waiter.start()
        deadline = time.monotonic() + 30
        while not t._waiters:  # cf.wait's waiter is installed
            assert time.monotonic() < deadline
            time.sleep(0.001)
        t.set_result(3)
        waiter.join(timeout=30)
        [(done, pending)] = got
        assert done == {t} and not pending

    def test_second_set_result_raises(self):
        t = _bare_ticket()
        t.set_result(1)
        with pytest.raises(cf.InvalidStateError):
            t.set_result(2)
        assert t.result() == 1

    def test_set_result_on_a_cancelled_ticket_raises(self):
        t = _bare_ticket()
        assert t.cancel()
        with pytest.raises(cf.InvalidStateError):
            t.set_result(1)
        with pytest.raises(cf.CancelledError):
            t.result(0)

    def test_resolve_drops_a_cancelled_tickets_answer(self):
        t = _bare_ticket()
        calls: list = []
        t.add_done_callback(lambda f: calls.append(f.cancelled()))
        assert t.cancel()
        _resolve(t, "dropped")
        assert t.cancelled() and calls == [True]
        with pytest.raises(cf.CancelledError):
            t.result(0)

    def test_resolve_still_raises_on_a_double_answer(self):
        t = _bare_ticket()
        _resolve(t, 1)
        with pytest.raises(cf.InvalidStateError):
            _resolve(t, 2)

    def test_result_after_set_exception_raises_it(self):
        t = _bare_ticket()
        t.set_exception(KeyError("k"))
        with pytest.raises(KeyError):
            t.result(0)
        assert isinstance(t.exception(0), KeyError)

    def test_running_ticket_resolves(self):
        t = _bare_ticket()
        assert t.set_running_or_notify_cancel()
        t.set_result(5)
        assert t.result(0) == 5 and t.done()


class TestLayoutDrift:
    def test_ticket_declares_every_future_field(self):
        assert set(vars(Future())) <= set(Ticket.__slots__)

    def test_condition_declares_every_condition_field(self):
        # The stdlib condition's per-instance attributes are its lock,
        # its waiter deque, and the lock methods it exports; the
        # subclass keeps the first two as slots and the rest as methods.
        declared = set(_Condition.__slots__) | set(vars(_Condition))
        assert set(vars(threading.Condition())) <= declared

    def test_condition_wait_notify_round_trip(self):
        cond = _Condition()
        with cond:
            assert cond.wait(0.01) is False  # times out, lock reacquired
            assert cond._is_owned()
        woke: list = []

        def waiter():
            with cond:
                woke.append(cond.wait(30))

        t = threading.Thread(target=waiter)
        t.start()
        while True:  # until the waiter is parked on the condition
            with cond:
                if cond._waiters:
                    cond.notify_all()
                    break
            time.sleep(0.001)
        t.join(timeout=30)
        assert not t.is_alive()
        assert woke == [True]
        assert not cond._is_owned()

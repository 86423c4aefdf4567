"""The admission queue's O(1) ticket count.

``AdmissionQueue.qsize`` reads a counter that every mutation keeps,
instead of rescanning the deque.  The property: after any sequence of
operations — admissions under each full-queue policy, requeues,
dequeues (blocking, non-blocking, bulk), drains, with control
sentinels and expired tickets mixed in — the counter equals a scan.
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdmissionQueue, CheckQuery, Ticket

OPS = ("put", "put_expired", "put_control", "put_front", "get", "get_nowait",
       "get_many", "drain")


def _scan(q: AdmissionQueue) -> int:
    return sum(1 for it in q._items if isinstance(it, Ticket))


def _ticket(expired: bool = False) -> Ticket:
    deadline = time.monotonic() - 1.0 if expired else None
    return Ticket(CheckQuery("le", ()), 0, time.monotonic(), deadline)


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(("reject", "shed_oldest")),
    maxsize=st.one_of(st.none(), st.integers(1, 4)),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 5)), max_size=40
    ),
)
def test_count_equals_scan(policy, maxsize, ops):
    shed: list = []
    q = AdmissionQueue(
        maxsize=maxsize, policy=policy, on_shed=lambda t, r: shed.append(r)
    )
    for op, n in ops:
        if op == "put":
            q.put(_ticket())
        elif op == "put_expired":
            q.put(_ticket(expired=True))
        elif op == "put_control":
            q.put_control(object())
        elif op == "put_front":
            q.put_front([_ticket() for _ in range(n)] + [object()])
        elif op == "get":
            if q._items:  # never block
                q.get(timeout=0)
        elif op == "get_nowait":
            q.get_nowait()
        elif op == "get_many":
            got = q.get_many(n)
            assert len(got) <= n
            assert all(isinstance(t, Ticket) for t in got)
        else:
            q.drain()
        assert q.qsize() == _scan(q)
        assert q.empty() == (_scan(q) == 0)


def test_get_many_stops_at_a_sentinel():
    q = AdmissionQueue()
    first, second, token = _ticket(), _ticket(), object()
    q.put(first)
    q.put(second)
    q.put_control(token)
    q.put(_ticket())
    assert q.get_many(10) == [first, second]
    assert q.get_nowait() is token  # left at the head, in order
    assert q.qsize() == 1


def test_get_many_sheds_expired_tickets():
    shed: list = []
    q = AdmissionQueue(on_shed=lambda t, r: shed.append(r))
    live = _ticket()
    q.put(_ticket(expired=True))
    q.put(live)
    assert q.get_many(4) == [live]
    assert shed == ["expired"]
    assert q.qsize() == 0

"""Worker supervision: crashed workers restart instead of dying silently.

PR 8's worker loop re-raised any non-``ReproError`` after erroring its
chunk's futures — the thread died, and every query queued behind it
hung forever (with one worker, the whole engine).  The
:class:`Supervisor` closes that liveness hole: a monitor thread scans
the engine's worker threads, and any thread found dead while the
engine is accepting work is **restarted** with capped exponential
backoff.  The dying worker resolves its in-flight query as a
structured error and requeues the untouched remainder of its chunk, so
a crash costs exactly one query one answer — the serving chaos suite
(``tests/serve/test_chaos.py``) drives seeded ``crash`` faults through
this path and asserts no future is ever stranded.

Backoff is per worker index and *consecutive*: each crash doubles the
restart delay up to *backoff_cap*; a worker that stays up for
*heal_seconds* resets its count.  A crash loop therefore converges to
one restart per *backoff_cap* seconds instead of a hot spin, and
*max_restarts* (``None`` = never give up) can retire a hopeless worker
slot entirely — if every slot retires, the engine fails submissions
instead of queueing into the void.
"""

from __future__ import annotations

import threading
from time import monotonic

__all__ = ["Supervisor"]


class Supervisor:
    """Monitors and restarts an :class:`~repro.serve.engine.Engine`'s
    worker threads (see the module docstring).

    The supervisor only acts while the engine is accepting work; the
    clean worker exits during ``close()`` are never "restarted".  All
    interaction with the engine goes through two methods the engine
    provides: ``_worker_alive(index)`` and ``_respawn_worker(index)``.
    """

    def __init__(
        self,
        engine,
        *,
        backoff_base: float = 0.02,
        backoff_cap: float = 1.0,
        heal_seconds: float = 5.0,
        check_interval: float = 0.02,
        max_restarts: "int | None" = None,
    ) -> None:
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")
        self.engine = engine
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heal_seconds = heal_seconds
        self.check_interval = check_interval
        self.max_restarts = max_restarts
        self.restarts = 0
        self.crashes = 0
        #: worker indices retired after max_restarts consecutive crashes
        self.retired: set = set()
        self._counts: dict = {}      # index -> consecutive crash count
        self._last_crash: dict = {}  # index -> monotonic time
        self._due: dict = {}         # index -> restart due time
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # -- signals -------------------------------------------------------------

    def notify_crash(self, index: int, exc: BaseException) -> None:
        """Called by a worker on its way down: schedules the restart
        immediately instead of waiting for the next liveness scan."""
        self._note_crash(index)
        self._wake.set()

    def _note_crash(self, index: int) -> None:
        now = monotonic()
        with self._lock:
            if index in self._due:
                return  # already scheduled
            last = self._last_crash.get(index)
            if last is not None and now - last > self.heal_seconds:
                self._counts[index] = 0  # healthy for a while: forgive
            self._last_crash[index] = now
            count = self._counts.get(index, 0) + 1
            self._counts[index] = count
            self.crashes += 1
            if (
                self.max_restarts is not None
                and count > self.max_restarts
            ):
                self.retired.add(index)
                return
            delay = min(
                self.backoff_base * (2 ** (count - 1)), self.backoff_cap
            )
            self._due[index] = now + delay

    # -- the monitor loop ----------------------------------------------------

    def _run(self) -> None:
        engine = self.engine
        while not self._stop.is_set():
            self._wake.wait(self.check_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            if not engine._accepting():
                continue
            now = monotonic()
            for index in range(engine.workers):
                if index in self.retired:
                    continue
                with self._lock:
                    due = self._due.get(index)
                if due is None:
                    # Liveness scan: catch deaths that never notified.
                    if not engine._worker_alive(index):
                        self._note_crash(index)
                    continue
                if now < due:
                    continue
                if engine._worker_alive(index):
                    # Raced with a notify for a thread that recovered
                    # (respawned elsewhere); nothing to do.
                    with self._lock:
                        self._due.pop(index, None)
                    continue
                # Counted before the respawn, as in the engine: the new
                # worker may answer before this thread runs again.
                with self._lock:
                    self.restarts += 1
                try:
                    engine._respawn_worker(index)
                except RuntimeError:
                    # Interpreter shutting down; give up quietly.
                    with self._lock:
                        self.restarts -= 1
                    continue
                with self._lock:
                    self._due.pop(index, None)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "restarts": self.restarts,
                "crashes": self.crashes,
                "retired": sorted(self.retired),
                "pending": sorted(self._due),
            }

    def __repr__(self) -> str:
        return (
            f"Supervisor(restarts={self.restarts}, "
            f"crashes={self.crashes}, retired={sorted(self.retired)})"
        )

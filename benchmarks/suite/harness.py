"""Machinery shared by the workloads: the metric spec, timing
statistics, set-up timing, the GC monitor, the in-memory span tracer
and the run record every workload returns.

Nothing here imports ``repro``: the workloads do, inside the child
interpreter, so that the parent process stays small and a checkout
without the library fails in the child before any result is printed.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    """``BENCHMARK.json``: the single definition of workloads, metric
    names, units, directions and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics --------------------------------------------------------------


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile *q* (0..1) of an ascending sequence."""
    if not len(sorted_xs):
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_xs)))
    return sorted_xs[min(rank, len(sorted_xs)) - 1]


def latency_summary(steps) -> dict:
    """Latency percentiles in microseconds over the samples of all
    *steps*, with the sample count and the highest percentile that has
    at least ten samples beyond it (``quotable_tail``)."""
    xs = sorted(x for step in steps for x in step)
    n = len(xs)
    tail = "p99.9" if n >= 10_000 else "p99" if n >= 1_000 else "p90" if n >= 100 else "p50"
    return {
        "n": n,
        "p50_us": percentile(xs, 0.50) * 1e6,
        "p90_us": percentile(xs, 0.90) * 1e6,
        "p99_us": percentile(xs, 0.99) * 1e6,
        "p999_us": percentile(xs, 0.999) * 1e6,
        "max_us": xs[-1] * 1e6,
        "quotable_tail": tail,
    }


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


median = statistics.median


def spread(xs) -> float:
    """Distance between the first and third quartile as a share of the
    median (the run-to-run spread the bounds are compared against)."""
    xs = list(xs)
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_for(seconds: float, step, min_steps: int = 1, between=None) -> int:
    """Call ``step(i)`` for i = 0, 1, ... until *seconds* have passed
    and at least *min_steps* steps ran; returns the number of steps.
    *between* runs before every step, outside the timed budget."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_steps or time.perf_counter() < deadline:
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        step(i)
        i += 1
    return i


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right, key: int) -> None:
        self.left, self.right, self.key = left, right, key


def _build(depth: int, key: int):
    if depth == 0:
        return None
    return _Node(_build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1), key)


def _walk(node, acc: int) -> int:
    if node is None:
        return acc
    return _walk(node.right, _walk(node.left, acc + node.key % 3))


class Clock:
    """The host's speed over time, from a fixed piece of pure-Python
    work timed before and after every set-up and step.

    On a shared host the same work takes from 10% to 100% longer from
    one minute to the next (clock frequency, neighbours on the same
    cores and caches), and no repetition inside one run removes that.
    The calibration work — build a tree of 2,047 small objects and walk
    it recursively, the allocation and call pattern of the derived code
    — does not touch the library, so its time measures the host alone.
    A step's *factor* is the calibration's median time around it over
    its reference time; dividing the step's times by it reports them
    at the reference speed.
    """

    #: the calibration's median on the reference host (2-core x86-64
    #: VM, CPython 3.11)
    REFERENCE_S = 0.8e-3
    DEPTH = 11

    def __init__(self, ticks_per_mark: int = 1) -> None:
        self.ticks_per_mark = ticks_per_mark
        self.marks: list[list[float]] = []

    def mark(self) -> None:
        """Time the calibration work (without the cyclic GC, whose
        pauses depend on the workload's heap rather than the host)."""
        samples = []
        gc.disable()
        try:
            for _ in range(self.ticks_per_mark):
                t0 = time.perf_counter()
                _walk(_build(self.DEPTH, 1), 0)
                samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.marks.append(samples)

    def factor(self, k: "int | None" = None) -> float:
        """Host slowness between marks *k* and *k* + 1, or over the
        whole run."""
        if k is None:
            xs = [x for m in self.marks for x in m]
        else:
            xs = self.marks[k] + self.marks[k + 1]
        return statistics.median(xs) / self.REFERENCE_S


# -- the Python runtime layer ------------------------------------------------


class GcMonitor:
    """Collection counts and pauses, recorded through ``gc.callbacks``
    for the extent of a ``with`` block."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._t0)
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def collections(self) -> int:
        return len(self.pauses)

    @property
    def max_pause_ms(self) -> float:
        return max(self.pauses, default=0.0) * 1e3


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans recorded in memory by the suite's own wrappers.

    A span has a name, a layer, a start and end (``perf_counter``), the
    span that was open when it began (its parent, in the same thread),
    a request id (a test, a query or a derivation) and the thread it ran
    in.  Self time — the span's duration minus the part its children
    cover — accumulates per ``(layer, thread)`` as spans close, so the
    totals stay exact when only the first *keep* spans are stored for
    export.  Collections of the cyclic GC become ``runtime`` spans
    inside whatever span was open when they ran.
    """

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        #: (layer, thread) -> seconds of self time
        self.self_s: dict[tuple, float] = {}
        #: (name, layer) -> closed spans
        self.counts: dict[tuple, int] = {}
        #: request id given to spans that open with nothing above them
        #: in their thread (a worker serving the client's current query)
        self.rid = None
        self._ids = itertools.count(1)
        self._tls = threading.local()
        # Re-entrant: a collection can start inside end()'s critical
        # section (allocating the span record), and its "stop" callback
        # closes the GC span from within it.
        self._lock = threading.RLock()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, layer: str, rid=None) -> None:
        stack = self._stack()
        if rid is None:
            rid = stack[-1][4] if stack else self.rid
        # [id, name, layer, start, request id, time covered by children]
        stack.append([next(self._ids), name, layer, time.perf_counter(), rid, 0.0])

    def end(self) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        sid, name, layer, t0, rid, covered = stack.pop()
        duration = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[5] += duration
        tid = threading.get_ident()
        with self._lock:
            key = (layer, tid)
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - covered
            key = (name, layer)
            self.counts[key] = self.counts.get(key, 0) + 1
            if len(self.spans) < self.keep:
                self.spans.append(
                    (sid, name, layer, t0, t1,
                     parent[0] if parent is not None else None, rid, tid)
                )
            else:
                self.dropped += 1

    def span(self, name: str, layer: str, rid=None):
        return _Span(self, name, layer, rid)

    def wrap(self, fn, name: str, layer: str):
        """*fn* with every call recorded as a span."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def wrap_iter(self, iterable, name: str, layer: str):
        """*iterable* with every ``next`` recorded as a span."""
        it = iter(iterable)
        while True:
            self.begin(name, layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end()
            yield item

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.begin("gc", "runtime")
        else:
            self.end()

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._gc_callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._gc_callback)

    # -- read side -----------------------------------------------------------

    def count(self, name: str, layer: "str | None" = None) -> int:
        """Closed spans called *name* (in *layer* and its ``layer/...``
        sub-layers, or in any layer)."""
        return sum(
            n for (nm, lay), n in self.counts.items()
            if nm == name and (layer is None or lay.split("/")[0] == layer
                               or lay == layer)
        )

    def layers(self) -> dict[str, float]:
        """Self time per layer, summed over threads."""
        out: dict[str, float] = {}
        for (layer, _tid), s in self.self_s.items():
            out[layer] = out.get(layer, 0.0) + s
        return out

    def write(self, jsonl_path: Path, chrome_path: Path) -> None:
        """Write the stored spans as JSON Lines and as a Chrome trace
        (open it in ``chrome://tracing`` or Perfetto)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = []
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for sid, name, layer, t0, t1, parent, rid, tid in self.spans:
                row = {
                    "id": sid, "name": name, "layer": layer,
                    "start_us": (t0 - origin) * 1e6,
                    "end_us": (t1 - origin) * 1e6,
                    "parent": parent, "rid": rid, "thread": tid,
                }
                fh.write(json.dumps(row) + "\n")
                events.append({
                    "name": name, "cat": layer, "ph": "X",
                    "ts": row["start_us"], "dur": row["end_us"] - row["start_us"],
                    "pid": 1, "tid": tid,
                    "args": {"id": sid, "parent": parent, "rid": rid},
                })
        with open(chrome_path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _Span:
    __slots__ = ("tracer", "name", "layer", "rid")

    def __init__(self, tracer: Tracer, name: str, layer: str, rid) -> None:
        self.tracer, self.name, self.layer, self.rid = tracer, name, layer, rid

    def __enter__(self) -> None:
        self.tracer.begin(self.name, self.layer, self.rid)

    def __exit__(self, *exc) -> None:
        self.tracer.end()


# -- the run record ----------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to the command line.

    *metrics* holds the spec-facing metrics (the end-to-end ones in an
    untraced run, the per-layer ones in a traced run) as plain numbers;
    *detail* holds everything else the run measured — per-case rows,
    sample counts, tail percentiles — for the printed report and the
    results file.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: the traced run's spans, for export
    tracer: "Tracer | None" = None

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

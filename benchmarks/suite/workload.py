"""The workload interface, and the code that runs a workload.

A workload is set up several times (the median is ``setup_s``), then
measured in *steps* — fixed amounts of work whose inputs derive from
the seed and the step's index — until the run's time is up.  An
untraced run reports the end-to-end metrics.  A traced run repeats the
set-ups and the steps under a :class:`~benchmarks.suite.harness.
Tracer`, replays the same steps untraced (the difference is the tracing
overhead), and reports the per-layer metrics.
"""

from __future__ import annotations

import time

from .harness import (
    Clock, GcMonitor, Outcome, Tracer, load_spec, median, peak_rss_mb, run_for,
)

#: The derivation phases, each a layer of the traced runs (see
#: :class:`~benchmarks.suite.derivation.Phases`).
PHASE_LAYERS = ("core.parse", "analysis.gate", "derive.schedule",
                "derive.lower", "derive.codegen")


class Sample:
    """Counts from the profiled fixed sample of a traced run."""

    FIELDS = ("ops", "calls", "indefinite", "attempts", "backtracks", "size")

    def __init__(self) -> None:
        self.ops = 0
        self.calls = 0
        #: calls with no definite outcome (checker ``None``, generator
        #: ``FAIL``/``OUT_OF_FUEL``)
        self.indefinite = 0
        self.attempts = 0
        self.backtracks = 0
        #: constructor nodes in generated values
        self.size = 0

    def add(self, other: "Sample") -> None:
        for f in self.FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def add_trace(self, trace) -> None:
        """Fold in a :class:`repro.derive.trace.DeriveTrace`."""
        for entry in trace.entries.values():
            self.attempts += entry[0]
            self.backtracks += entry[2]

    def metrics(self) -> dict:
        calls = max(1, self.calls)
        return {
            "exec.calls_per_op": self.calls / max(1, self.ops),
            "exec.attempts_per_call": self.attempts / calls,
            "exec.backtracks_per_call": self.backtracks / calls,
            "exec.indefinite_share": self.indefinite / calls,
        }


class Workload:
    """One workload; subclasses fill in the hooks.

    *op* names one operation (a test, a query, a derivation); *host*
    is the layer that calls the derived code in this workload.
    """

    op = ""
    host = ""
    setup_repeats = 5
    #: calibration ticks between two steps (see Clock)
    ticks_per_step = 1
    #: False when the workload derives during its steps (derive_cold):
    #: its derivation-phase rows then come from the traced steps.
    derives_in_setup = True

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        #: per-batch derivation-phase metrics of the traced run
        self.phase_rows: list[dict] = []
        self.tracer: "Tracer | None" = None

    # -- hooks ---------------------------------------------------------------

    def setup(self, phases) -> None:
        """Build the state the steps run on, deriving through *phases*."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (threads, engines)."""

    def prepare(self, out: Outcome) -> None:
        """Untimed work after the last set-up (references, pools)."""

    def step(self, i: int, out: Outcome) -> int:
        """Run step *i*; return the number of operations it ran.  Under
        ``self.tracer`` the step records spans and no timing samples."""
        raise NotImplementedError

    def instrument(self, tracer: "Tracer | None") -> None:
        """Route derived calls through *tracer* (``None``: plain)."""
        self.tracer = tracer

    def verify(self, out: Outcome) -> None:
        """Check answers against the independent reference."""

    def sample(self, out: Outcome) -> Sample:
        """Profile a fixed, seeded sample of the work."""
        raise NotImplementedError

    def end_to_end(self, factors: list[float]) -> tuple[dict, dict]:
        """``ops_per_s`` and the latency metrics from the recorded
        steps, each step's times divided by its host-speed factor;
        plus a detail dict."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Size of the derived artifacts (per derivation batch)."""
        raise NotImplementedError

    def trace_detail(self, tracer: Tracer, ops: int, out: Outcome) -> dict:
        """Workload-specific rows of the traced report."""
        return {}


def _group(layers: dict, prefix: str) -> float:
    """Self time of *prefix* and its ``prefix/<case>`` sub-layers."""
    return sum(v for k, v in layers.items() if k.split("/")[0] == prefix)


def run(w: Workload, seconds: float, trace: bool) -> Outcome:
    """Run *w* and report its end-to-end metrics, or with *trace* its
    per-layer ones.  Times are reported at the reference host speed
    (see :class:`~benchmarks.suite.harness.Clock`); the run record keeps
    them as measured too."""
    out = Outcome()
    clock = Clock(w.ticks_per_step)
    try:
        if trace:
            _traced(w, seconds, out, clock)
        else:
            _untraced(w, seconds, out, clock)
    finally:
        w.teardown()
    out.detail["host_speed_factor"] = clock.factor()
    return out


def _setups(w: Workload, clock: Clock) -> list[float]:
    import gc

    from .derivation import Phases

    times = []
    for _ in range(w.setup_repeats):
        # The host is timed before the previous set-up's state is freed:
        # right after a collection returns memory to the OS, the timing
        # work pays for page faults and reads the host as slower.
        clock.mark()
        w.teardown()
        gc.collect()
        phases = Phases()
        t0 = time.perf_counter()
        w.setup(phases)
        times.append(time.perf_counter() - t0)
        if w.derives_in_setup:
            w.phase_rows.append(phases.metrics())
    gc.collect()
    return times


def _untraced(w: Workload, seconds: float, out: Outcome, clock: Clock) -> None:
    setup_times = _setups(w, clock)
    w.prepare(out)
    with GcMonitor() as gcm:
        steps = run_for(seconds, lambda i: w.step(i, out), between=clock.mark)
    clock.mark()
    rss = peak_rss_mb()  # before the checks and statistics below
    w.verify(out)
    n = len(setup_times)
    # Set-up j ran between marks j and j+1, step i between marks n+i
    # and n+i+1: each is scaled by the host's speed around it.
    setups = [t / clock.factor(j) for j, t in enumerate(setup_times)]
    e2e, detail = w.end_to_end([clock.factor(n + i) for i in range(steps)])
    raw, _ = w.end_to_end([1.0] * steps)
    out.metrics = {"setup_s": median(setups), "peak_rss_mb": rss, **e2e}
    out.detail = {
        "op": w.op, "steps": steps, "setup_s_samples": setup_times,
        "runtime.gc_collections": gcm.collections,
        "runtime.gc_gen2": gcm.gen2,
        "runtime.gc_pause_ms_max": gcm.max_pause_ms,
        **detail,
        "as_measured": {"setup_s": median(setup_times), **raw},
    }


def _traced(w: Workload, seconds: float, out: Outcome, clock: Clock) -> None:
    import gc

    _setups(w, clock)
    w.prepare(out)
    # The runtime layer's cost per gen-2 pass over the workload's heap.
    full_gc = []
    for _ in range(3):
        t0 = time.perf_counter()
        gc.collect()
        full_gc.append(time.perf_counter() - t0)
    tracer = Tracer()
    w.instrument(tracer)
    ops = 0
    traced_wall = 0.0

    def traced_step(i: int) -> None:
        nonlocal ops, traced_wall
        t0 = time.perf_counter()
        with tracer.span("step", "harness"):
            ops += w.step(i, out)
        traced_wall += time.perf_counter() - t0

    with tracer:
        steps = run_for(seconds / 2, traced_step, between=clock.mark)
    w.instrument(None)

    # The same steps untraced, the host timed between them as in the
    # traced pass: the tracing overhead, and the collections the
    # workload incurs without spans.
    plain_wall = 0.0
    with GcMonitor() as gcm:
        for i in range(steps):
            clock.mark()
            t0 = time.perf_counter()
            w.step(i, out)
            plain_wall += time.perf_counter() - t0
    clock.mark()
    w.verify(out)
    sample = w.sample(out)

    layers = tracer.layers()
    attribution = {p: _group(layers, p) for p in PHASE_LAYERS if p in layers}
    for group in ("exec", "runtime", "harness"):
        attribution[group] = _group(layers, group)
    exec_s, harness_s = attribution["exec"], attribution["harness"]
    # Whatever the other layers do not claim is the host's.  In the
    # single-threaded workloads this equals the host's own spans; for
    # the engine it is the only outside view of the worker thread.
    host_s = traced_wall - sum(attribution.values())
    attribution[f"{w.host} (host)"] = host_s
    calls = tracer.count("exec.call")
    measured = {
        **{k: median([r[k] for r in w.phase_rows]) for k in w.phase_rows[0]},
        **w.counts(),
        "exec.call_us": exec_s / max(1, calls) * 1e6,
        "exec.share": exec_s / traced_wall,
        **sample.metrics(),
        "host.self_us": host_s / max(1, ops) * 1e6,
        "harness.self_us": harness_s / max(1, ops) * 1e6,
        "runtime.gc_collections": gcm.collections,
        "runtime.gc_gen2": gcm.gen2,
        "runtime.gc_full_ms": median(full_gc) * 1e3,
        "trace.overhead_x": traced_wall / plain_wall,
    }
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    f = clock.factor()
    out.metrics = {
        k: v / f if units[k] in ("s", "ms", "us") else v for k, v in measured.items()
    }
    out.detail = {
        "op": w.op,
        "host_layer": w.host,
        "steps": steps,
        "ops_traced": ops,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "attribution_s": attribution,
        "span_self_s": dict(sorted(layers.items())),
        "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "runtime.gc_pause_ms_max": gcm.max_pause_ms,
        **w.trace_detail(tracer, ops, out),
        "as_measured": measured,
    }
    out.tracer = tracer

"""Serving telemetry overhead: the tax of measuring the engine.

The telemetry layer records per-query latency histograms, give-up
counters, queue-wait, and sampled span traces for every `Engine`
query.  This harness pins the acceptance bars of the serving-telemetry
PR on the bench_serve mixed check workload:

* **telemetry off** — the default `Engine` (``telemetry=None``) is the
  baseline: it takes the counter fast path (plain locked dict bumps)
  and is guarded end to end by the benchmark suite's ``serve_batch``
  and ``serve_serial`` workloads.
* **telemetry on, sampled** — ``Telemetry(sample_every=128)``, the
  production default: full latency/counter recording on every query,
  span traces only on sampled queries.  Bar: **<= 1.05x** the off
  configuration (median per-pair ratio of alternating pairs, see
  ``benchmarks/pairs.py``; 2.0x under
  ``REPRO_BENCH_QUICK=1`` — shared CI runners make tight bars flaky).
* **telemetry on, full tracing** — ``sample_every=1`` runs every
  query under an observation and keeps its span tree.  Reported only:
  tracing everything is a debugging mode, not a serving mode.

Run standalone (prints the table, writes ``BENCH_telemetry.json``)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

or under pytest (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -s
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_serve import QUICK, _corpus_ctx, _engine_workload
from benchmarks.pairs import ab_pairs
from repro.observe.telemetry import Telemetry
from repro.serve import Engine

OVERHEAD_BAR = 2.0 if QUICK else 1.05


def _paired_run(telemetry_factory, **engine_kwargs):
    """Alternating pairs of the same warmed workload through two
    engines: telemetry off vs ``telemetry_factory()``.

    Separate contexts so memo/stats warmth cannot leak between the
    sides; both engines are warmed with a full pass before timing.
    """
    queries = _engine_workload()
    with Engine(_corpus_ctx(), **engine_kwargs) as eng_off, Engine(
        _corpus_ctx(), telemetry=telemetry_factory(), **engine_kwargs
    ) as eng_on:
        eng_off.prepare(queries)
        eng_on.prepare(queries)
        pairs = ab_pairs(
            lambda: eng_off.run_batch(queries),
            lambda: eng_on.run_batch(queries),
        )
        traced = eng_on.telemetry.metrics.counter_snapshot().get(
            "serve.traced", 0
        )
    return pairs.a, pairs.b, pairs.ratio, traced


def bench_sampled_overhead():
    """Off vs the production default (every query counted, every
    128th traced), unbatched dispatch."""
    return _paired_run(lambda: Telemetry(sample_every=128), workers=1)


def bench_sampled_overhead_batched():
    """The same pair through batched ``check_batch`` dispatch — the
    path where telemetry amortizes one lock hold over the batch."""
    return _paired_run(
        lambda: Telemetry(sample_every=128),
        workers=1, batch=True, batch_max=64,
    )


def bench_full_trace_cost():
    """Off vs trace-everything (``sample_every=1``).  Reported only."""
    return _paired_run(lambda: Telemetry(sample_every=1), workers=1)


# -- pytest entry points -----------------------------------------------------


def test_sampled_telemetry_overhead():
    _, _, ratio, _ = bench_sampled_overhead()
    assert ratio <= OVERHEAD_BAR, (
        f"sampled telemetry overhead {ratio:.3f}x (bar {OVERHEAD_BAR}x)"
    )


def test_sampled_telemetry_overhead_batched():
    _, _, ratio, _ = bench_sampled_overhead_batched()
    assert ratio <= OVERHEAD_BAR, (
        f"sampled telemetry overhead {ratio:.3f}x on the batched path "
        f"(bar {OVERHEAD_BAR}x)"
    )


def test_telemetry_records_the_workload():
    """The cheap configuration still measures: every query counted,
    sampling traced at least the first query per shape."""
    queries = _engine_workload()
    telemetry = Telemetry(sample_every=128)
    with Engine(_corpus_ctx(), workers=1, telemetry=telemetry) as engine:
        engine.prepare(queries)
        engine.run_batch(queries)
    snap = telemetry.metrics.counter_snapshot()
    assert snap["serve.queries"] == len(queries)
    assert snap["serve.traced"] >= 1
    table = telemetry.query_table()
    assert sum(row["count"] for row in table) == len(queries)


if __name__ == "__main__":
    from benchmarks.benchjson import emit

    rows = {}
    for label, fn in (
        ("sampled", bench_sampled_overhead),
        ("sampled batched", bench_sampled_overhead_batched),
        ("full trace", bench_full_trace_cost),
    ):
        t_off, t_on, ratio, traced = fn()
        rows[label] = {
            "off_s": t_off, "on_s": t_on, "ratio": ratio, "traced": traced,
        }
        print(
            f"[bench_telemetry] {label:16s} off {t_off * 1e3:8.1f} ms"
            f"   on {t_on * 1e3:8.1f} ms   ratio {ratio:5.3f}x"
            f"   traced {traced}"
        )
    worst = max(rows[k]["ratio"] for k in ("sampled", "sampled batched"))
    print(
        f"[bench_telemetry] worst sampled overhead: {worst:.3f}x "
        f"(bar {OVERHEAD_BAR}x; full trace reported only)"
    )
    emit("telemetry", {**rows, "worst_sampled_overhead": worst,
                       "overhead_bar": OVERHEAD_BAR})
    sys.exit(0 if worst <= OVERHEAD_BAR else 1)

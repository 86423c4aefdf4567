"""Serving-layer benchmark: campaign speedup and engine throughput.

* **campaign speedup** — ``parallel_quick_check`` with the ``fork``
  backend vs the ``inline`` sequential reference on the *same shard
  plan* (same seed, same per-shard seeds).  The merged
  :class:`~repro.quickchick.runner.CheckReport` must equal the
  sequential one field for field — that equality is asserted
  unconditionally.  The **>= 2x** wall-clock bar is asserted only on a
  >= 4-core runner (the acceptance criterion's wording); on smaller
  machines the ratio is reported.
* **engine throughput** — ``repro.serve.Engine`` answering a mixed
  check workload: queries/second plus p50/p99 per-query service time,
  in three configurations (sequential worker, sharded workers, batched
  dispatch through ``check_batch``), and once more under per-query op
  budgets to show give-ups are structured and cheap.  Reported; the
  answers of the three configurations must agree.
* **engine over compiled** — the same check queries served by a
  one-worker engine (64 outstanding, the batched path) and fed straight
  to the compiled checkers' ``__batch__`` in the same 64-query groups,
  timed in alternating pairs (``benchmarks/pairs.py``).  Reported as
  microseconds per query and their ratio, without a bar: the target is
  an engine within 3x of the compiled work it serves.  The answers must
  agree.  The rows land in ``BENCH_serve.json`` from both entry points.

That session routing costs nothing on the hot path is checked
exactly, not timed: the fast twins the entry wrappers select with no
hook installed never read the session caches
(``tests/derive/test_codegen.py::TestFastTwinsCarryNoHooks``).  The
engine's end-to-end speed is the benchmark suite's ``serve_batch``
and ``serve_serial`` workloads.

Run standalone (prints the table)::

    PYTHONPATH=src python benchmarks/bench_serve.py

or under pytest (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s

``REPRO_BENCH_QUICK=1`` shrinks workloads and relaxes the timing bars
(the CI smoke mode — shared runners make tight bars flaky).
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from functools import partial

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import benchjson
from benchmarks.pairs import PAIRS, ab_pairs
from repro.core import parse_declarations
from repro.core.values import Value
from repro.derive import Mode
from repro.derive.instances import CHECKER, resolve_compiled
from repro.producers.option_bool import SOME_TRUE
from repro.quickchick import classify, for_all
from repro.resilience import parallel_quick_check
from repro.serve import CheckQuery, Engine
from repro.stdlib import standard_context

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

CAMPAIGN_TESTS = 200 if QUICK else 2000
ENGINE_QUERIES = 80 if QUICK else 400

# Quick mode is a smoke test on shared CI runners.
SPEEDUP_BAR = 1.3 if QUICK else 2.0

LE_DECL = """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).

Inductive add : nat -> nat -> nat -> Prop :=
| add_O : forall m, add O m m
| add_S : forall n m p, add n m p -> add (S n) m (S p).
"""


def nat(n: int) -> Value:
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


def _corpus_ctx():
    ctx = standard_context()
    parse_declarations(ctx, LE_DECL)
    return ctx


# -- campaign speedup --------------------------------------------------------


def _campaign_property(ctx, fuel: int = 40):
    """A compute-bearing ``le`` property: each test decides a call of
    the compiled derived checker (the one the engine and the suite
    run), so shard wall-clock is real executor work."""
    check = resolve_compiled(ctx, CHECKER, "le", Mode.checker(2))

    def gen(size, rng):
        a = rng.randint(0, size)
        return (a, a + rng.randint(0, size))

    def pred(pair):
        return check(fuel, (nat(pair[0]), nat(pair[1])))

    judged = classify(lambda pair: pair[0] == pair[1], "reflexive", pred)
    return for_all(gen, judged, name="le_holds")


def _report_key(report):
    return (
        report.tests_run,
        report.discards,
        report.failed,
        report.labels,
        report.budget_trips,
        report.budget_retries,
        report.stopped_reason,
        report.shard_seeds,
    )


def bench_campaign_speedup(workers: "int | None" = None, seed: int = 2024):
    """Fork-backend campaign vs the inline sequential reference on the
    same shard plan; returns ``(t_seq, t_par, report_seq, report_par)``."""
    ctx = _corpus_ctx()
    if workers is None:
        workers = min(os.cpu_count() or 1, 4)
    prop = _campaign_property(ctx)
    kwargs = dict(
        workers=workers, size=18, seed=seed, ctx=ctx,
    )

    start = time.perf_counter()
    report_seq = parallel_quick_check(
        prop, CAMPAIGN_TESTS, backend="inline", **kwargs
    )
    t_seq = time.perf_counter() - start

    start = time.perf_counter()
    report_par = parallel_quick_check(
        prop, CAMPAIGN_TESTS, backend="fork", **kwargs
    )
    t_par = time.perf_counter() - start
    return t_seq, t_par, report_seq, report_par


# -- engine throughput -------------------------------------------------------


def _engine_workload(rng: "random.Random | None" = None):
    """A mixed check workload over ``le``/``add``: many repeated
    (rel, fuel) groups so batched dispatch has something to fuse."""
    rng = rng or random.Random(7)
    queries = []
    for _ in range(ENGINE_QUERIES):
        if rng.random() < 0.7:
            a = rng.randint(0, 30)
            b = rng.randint(0, 30)
            queries.append(CheckQuery("le", (nat(a), nat(b)), fuel=64))
        else:
            a = rng.randint(0, 12)
            b = rng.randint(0, 12)
            queries.append(
                CheckQuery("add", (nat(a), nat(b), nat(a + b)), fuel=32)
            )
    return queries


def _percentile(sorted_xs, q):
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, int(round(q * (len(sorted_xs) - 1))))
    return sorted_xs[idx]


def _drive_engine(queries, **engine_kwargs):
    ctx = _corpus_ctx()
    with Engine(ctx, **engine_kwargs) as engine:
        engine.prepare(queries)
        # Warm pass: instance resolution and code compilation paid once.
        engine.run_batch(queries[: max(1, len(queries) // 20)])
        start = time.perf_counter()
        results = engine.run_batch(queries)
        wall = time.perf_counter() - start
        stats = engine.stats()
    lat = sorted(r.elapsed_seconds for r in results)
    batched = sum(w["batched"] for w in stats["per_worker"])
    return {
        "qps": len(queries) / wall,
        "wall": wall,
        "p50": _percentile(lat, 0.50),
        "p99": _percentile(lat, 0.99),
        "ok": sum(r.ok for r in results),
        "gave_up": sum(r.status == "gave_up" for r in results),
        "errors": sum(r.status == "error" for r in results),
        "batched": batched,
        "results": results,
    }


def bench_engine_throughput():
    """qps and p50/p99 service time across the three configurations,
    plus the same workload under per-query op budgets."""
    queries = _engine_workload()
    shard_workers = min(os.cpu_count() or 1, 4)
    rows = {
        "sequential": _drive_engine(queries, workers=1, batch=False),
        "sharded": _drive_engine(queries, workers=shard_workers, batch=False),
        "batched": _drive_engine(queries, workers=1, batch=True, batch_max=64),
    }
    budgeted = [
        CheckQuery(q.rel, q.args, fuel=q.fuel, max_ops=40) for q in queries
    ]
    rows["budgeted"] = _drive_engine(
        budgeted, workers=1, batch=False
    )
    return rows


# -- engine over the compiled work it serves ---------------------------------

#: Queries outstanding in the engine pass, and the raw pass's group size:
#: the engine's default ``batch_max``, as in the suite's ``serve_batch``.
WINDOW = 64


def bench_engine_vs_compiled(repeat: "int | None" = None):
    """Engine-batched vs raw compiled ``__batch__`` microseconds per
    query on the same check queries, in alternating pairs; returns
    ``(row, engine_answers, compiled_answers)``."""
    repeat = repeat or (2 if QUICK else 20)
    queries = _engine_workload() * repeat
    ctx = _corpus_ctx()
    batch = {
        rel: resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity)).__batch__
        for rel, arity in (("le", 2), ("add", 3))
    }
    # The engine's grouping: per window, one batch per (rel, fuel).
    groups = []
    for lo in range(0, len(queries), WINDOW):
        by_shape: dict = {}
        for i in range(lo, min(lo + WINDOW, len(queries))):
            q = queries[i]
            by_shape.setdefault((q.rel, q.fuel), []).append(i)
        groups += [(batch[rel], fuel, idxs, [queries[i].args for i in idxs])
                   for (rel, fuel), idxs in by_shape.items()]
    compiled_answers: list = [None] * len(queries)

    def raw():
        for fn, fuel, idxs, argses in groups:
            for i, r in zip(idxs, fn(fuel, argses)):
                compiled_answers[i] = r is SOME_TRUE

    engine = Engine(ctx, workers=1, batch_max=WINDOW).start()
    engine.prepare(queries)
    engine.run_batch(queries[:WINDOW])
    engine_answers: list = [None] * len(queries)

    def served():
        # A closed loop, as the suite's serve_batch drives it: a new
        # query goes out only when one of the WINDOW outstanding ones
        # resolved, and no future outlives its answer.
        window = threading.Semaphore(WINDOW)

        def done(i, f):
            engine_answers[i] = f.result().value
            window.release()

        for i, q in enumerate(queries):
            window.acquire()
            engine.submit(q).add_done_callback(partial(done, i))
        for _ in range(WINDOW):
            window.acquire()

    try:
        pairs = ab_pairs(raw, served)
    finally:
        engine.close()
    n = len(queries)
    row = {
        "queries": n,
        "pairs": PAIRS,
        "engine_batched_us": pairs.b / n * 1e6,
        "compiled_batch_us": pairs.a / n * 1e6,
        "engine_over_compiled_x": pairs.ratio,
    }
    return row, engine_answers, compiled_answers


# -- reporting / acceptance --------------------------------------------------


def run_all(verbose: bool = True):
    t_seq, t_par, rep_s, rep_p = bench_campaign_speedup()
    speedup = t_seq / t_par if t_par else float("inf")
    merged_equal = _report_key(rep_s) == _report_key(rep_p)
    if verbose:
        cores = os.cpu_count() or 1
        print(
            f"[bench_serve] campaign {CAMPAIGN_TESTS} tests: inline"
            f" {t_seq * 1e3:.0f} ms   fork {t_par * 1e3:.0f} ms   "
            f"speedup {speedup:.2f}x on {cores} cores   "
            f"merged==sequential: {merged_equal}"
        )
    engine = bench_engine_throughput()
    if verbose:
        for name, row in engine.items():
            print(
                f"[bench_serve] engine {name:10s} {row['qps']:8.0f} q/s"
                f"   p50 {row['p50'] * 1e6:7.1f} us"
                f"   p99 {row['p99'] * 1e6:7.1f} us"
                f"   ok/gave_up/err {row['ok']}/{row['gave_up']}"
                f"/{row['errors']}   batched {row['batched']}"
            )
    overhead, _, _ = bench_engine_vs_compiled()
    if verbose:
        _print_overhead(overhead)
    return speedup, merged_equal, engine, overhead


def _print_overhead(row) -> None:
    print(
        f"[bench_serve] engine batched {row['engine_batched_us']:6.2f} us/query"
        f"   compiled __batch__ {row['compiled_batch_us']:6.2f} us/query"
        f"   ratio {row['engine_over_compiled_x']:5.2f}x"
        f" (median of {row['pairs']} pairs, {row['queries']} queries; target <= 3x)"
    )


# -- pytest entry points -----------------------------------------------------


def test_campaign_merge_equals_sequential():
    """The correctness half of the speedup criterion holds on any
    machine: fork and inline agree field for field on the same seed."""
    _, _, rep_s, rep_p = bench_campaign_speedup(workers=4, seed=99)
    assert _report_key(rep_s) == _report_key(rep_p)
    assert rep_s.coverage == rep_p.coverage


def test_campaign_speedup_on_multicore():
    """The >= 2x wall-clock bar, asserted only where the acceptance
    criterion states it: a >= 4-core runner."""
    cores = os.cpu_count() or 1
    if cores < 4:
        import pytest

        pytest.skip(f"speedup bar needs >= 4 cores (runner has {cores})")
    t_seq, t_par, rep_s, rep_p = bench_campaign_speedup()
    assert _report_key(rep_s) == _report_key(rep_p)
    speedup = t_seq / t_par
    assert speedup >= SPEEDUP_BAR, (
        f"fork campaign speedup {speedup:.2f}x on {cores} cores "
        f"(bar {SPEEDUP_BAR}x)"
    )


def test_engine_serves_workload():
    rows = bench_engine_throughput()
    for name in ("sequential", "sharded", "batched"):
        row = rows[name]
        assert row["errors"] == 0
        assert row["gave_up"] == 0
        assert row["ok"] == ENGINE_QUERIES
    answers = {}
    for name in ("sequential", "sharded", "batched"):
        answers[name] = [r.value for r in rows[name]["results"]]
    assert answers["sequential"] == answers["sharded"] == answers["batched"]
    budgeted = rows["budgeted"]
    assert budgeted["errors"] == 0
    assert budgeted["ok"] + budgeted["gave_up"] == ENGINE_QUERIES
    for r in budgeted["results"]:
        if r.status == "gave_up":
            assert r.give_up is not None and r.give_up.reason


def test_engine_over_compiled_batch():
    """Reported, not asserted: the ratio lands in BENCH_serve.json.
    The engine must give the compiled checkers' answers."""
    row, engine_answers, compiled_answers = bench_engine_vs_compiled()
    _print_overhead(row)
    assert engine_answers == compiled_answers
    benchjson.record("serve", "engine_vs_compiled", row)


if __name__ == "__main__":
    speedup, merged_equal, _engine, overhead = run_all()
    benchjson.emit("serve", {
        "campaign_speedup": speedup,
        "merged_equals_sequential": merged_equal,
        "engine": {
            name: {k: v for k, v in row.items() if k != "results"}
            for name, row in _engine.items()
        },
        "engine_vs_compiled": overhead,
    })
    ok = merged_equal
    if (os.cpu_count() or 1) >= 4:
        ok = ok and speedup >= SPEEDUP_BAR
    sys.exit(0 if ok else 1)

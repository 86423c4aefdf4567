"""Parallel ``quick_check`` campaigns: shard, fork, merge.

A campaign of N tests is partitioned into per-worker *shards*, each
with its own deterministically derived seed; workers run their shard
as an ordinary (optionally budgeted/observed) ``quick_check`` under a
**fresh session** on the context, and the per-shard
:class:`~repro.quickchick.runner.CheckReport`\\ s fold into one with
:meth:`CheckReport.merge` — summed counts/labels/budget counters,
merged coverage and observe dumps, first-failure reproduction
coordinates, and ``shard_seeds`` as the campaign's replay handle.

Backends:

* ``"fork"`` (default) — a ``multiprocessing`` fork-start process
  pool.  Workers inherit the parent's context (registries, derived
  instances, artifacts) by address-space copy, so nothing is pickled
  on the way in — properties routinely close over contexts and
  derived callables, which no serializer handles.  Only the
  *reports* cross back over the pipe.  This is the throughput
  backend: shards run on real cores.
* ``"thread"`` — a thread pool; each task binds its own session via
  :func:`~repro.core.session.use_session`.  Correct under the session
  model, but GIL-bound: use it to overlap budget waits, not compute.
* ``"inline"`` — the same shards run back to back in the calling
  thread, each still under a fresh session.  This is the sequential
  reference: given the same ``seed``, its merged report matches the
  fork backend's field for field (the property the test suite pins).

Every shard starts session-cold (empty memo tables, fresh stats, its
own budget slot): a worker's budget trips and memo warmth can not
depend on which backend ran the other shards.  Platforms without the
``fork`` start method (Windows, macOS spawn-default Pythons) silently
fall back to ``inline``.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..core.session import use_session
from ..derive.trace import TRACE_KEY
from ..quickchick.runner import CheckReport, _SEED_SOURCE, quick_check


class CampaignProgress:
    """Live per-shard campaign counters, visible mid-run.

    A flat ``multiprocessing.Array`` of int64 cells — one row of
    (tests, discards, failed, budget_trips, rules_fired) per shard —
    allocated by :meth:`attach` *before* the worker pool exists, so
    fork children inherit the shared memory and their in-place writes
    are visible to the parent while the campaign is still running (the
    merged :class:`~repro.quickchick.runner.CheckReport` only exists
    at the end).  Thread and inline backends share the same cells
    in-process, so the read side is backend-independent.

    ``rules_fired`` counts the distinct derivation rules the shard's
    session trace has fired so far — live coverage growth — and is 0
    unless the campaign runs with ``observe=True`` (the trace is
    installed by the observation).

    Writers are lock-free: each shard owns its row, and a torn read
    of a monotone counter is at worst one test stale.
    """

    COLUMNS = ("tests", "discards", "failed", "budget_trips", "rules_fired")

    def __init__(self) -> None:
        self.shards: list = []
        self._cells = None

    def attach(self, shards: "list[Shard]") -> "CampaignProgress":
        """Allocate one row per shard (called by
        :func:`parallel_quick_check` before workers start)."""
        import multiprocessing

        self.shards = list(shards)
        self._cells = multiprocessing.Array(
            "q", len(self.shards) * len(self.COLUMNS), lock=False
        )
        return self

    def writer(self, shard: "Shard", ctx) -> "Any":
        """The per-test callback for *shard* (runs in the worker)."""
        ncol = len(self.COLUMNS)
        base = next(
            i for i, s in enumerate(self.shards) if s.index == shard.index
        ) * ncol
        cells = self._cells

        def write(report) -> None:
            cells[base] = report.tests_run
            cells[base + 1] = report.discards
            cells[base + 2] = 1 if report.failed else 0
            cells[base + 3] = report.budget_trips
            if ctx is not None:
                trace = ctx.caches.get(TRACE_KEY)
                if trace is not None:
                    cells[base + 4] = sum(
                        1 for row in trace.entries.values() if row[1] > 0
                    )

        return write

    def snapshot(self) -> "list[dict]":
        """One dict per shard, in shard order."""
        if self._cells is None:
            return []
        ncol = len(self.COLUMNS)
        raw = list(self._cells)
        return [
            dict(
                zip(self.COLUMNS, raw[i * ncol:(i + 1) * ncol]),
                shard=s.index, seed=s.seed, planned=s.num_tests,
            )
            for i, s in enumerate(self.shards)
        ]

    def totals(self) -> dict:
        out = {c: 0 for c in self.COLUMNS}
        out["planned"] = 0
        for row in self.snapshot():
            for c in self.COLUMNS:
                out[c] += row[c]
            out["planned"] += row["planned"]
        return out

    def render(self) -> str:
        rows = self.snapshot()
        if not rows:
            return "campaign progress: (not attached)"
        lines = [
            f"  {'shard':>5} {'tests':>9} {'discards':>9} {'trips':>7}"
            f" {'rules':>6} {'state':>7}"
        ]
        for r in rows:
            state = (
                "FAILED" if r["failed"]
                else "done" if r["tests"] >= r["planned"]
                else "running"
            )
            lines.append(
                f"  {r['shard']:>5} {r['tests']:>5}/{r['planned']:<3}"
                f" {r['discards']:>9} {r['budget_trips']:>7}"
                f" {r['rules_fired']:>6} {state:>7}"
            )
        t = self.totals()
        lines.append(
            f"  total {t['tests']:>5}/{t['planned']:<3} {t['discards']:>9}"
            f" {t['budget_trips']:>7} {t['rules_fired']:>6}"
        )
        return "campaign progress:\n" + "\n".join(lines)


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a campaign: its index in shard order, its
    derived seed, and how many tests it owns."""

    index: int
    seed: int
    num_tests: int


def plan_shards(
    num_tests: int, workers: int, seed: "int | None" = None
) -> list[Shard]:
    """Deterministic partition of *num_tests* across *workers*.

    Shard seeds are drawn from ``random.Random(seed)`` in shard order,
    so the partition is a pure function of ``(num_tests, workers,
    seed)`` — the contract that makes a fork campaign and its inline
    reference replay identically.  Tests split as evenly as possible
    (the first ``num_tests % workers`` shards get one extra); shards
    that would own zero tests are dropped.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed is None:
        seed = _SEED_SOURCE.randrange(2**63)
    rng = random.Random(seed)
    seeds = [rng.randrange(2**63) for _ in range(workers)]
    base, extra = divmod(num_tests, workers)
    shards = []
    for i in range(workers):
        n = base + (1 if i < extra else 0)
        if n:
            shards.append(Shard(i, seeds[i], n))
    return shards


def _shard_telemetry(template):
    """A fresh per-shard :class:`~repro.observe.telemetry.Telemetry`.

    Each shard records into its own instance (created *inside* the
    worker — telemetry carries a lock and per-shard qid state, so
    sharing one across fork children could not work) configured from
    the caller's template; the per-shard instances ride home on
    ``report.telemetry`` and fold together in ``CheckReport.merge``.
    """
    if not template:
        return None
    from ..observe.telemetry import Telemetry

    if template is True:
        return Telemetry()
    return Telemetry(
        sample_every=template.sample_every,
        slow_seconds=template.slow_seconds,
        event_cap=template.event_cap,
        span_cap=template.span_cap,
    )


def _run_shard(prop, shard: Shard, opts: dict, ctx, observe: bool) -> CheckReport:
    """One shard as an ordinary quick_check, under a fresh session."""
    kwargs = dict(
        num_tests=shard.num_tests,
        seed=shard.seed,
        size=opts["size"],
        max_discard_ratio=opts["max_discard_ratio"],
        stop_on_failure=opts["stop_on_failure"],
        deadline_seconds=opts["deadline_seconds"],
        budget=opts["budget"],
        campaign_deadline_seconds=opts["campaign_deadline_seconds"],
        budget_retries=opts["budget_retries"],
        budget_backoff=opts["budget_backoff"],
    )
    telemetry = _shard_telemetry(opts.get("telemetry"))
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    progress = opts.get("progress")
    if progress is not None:
        kwargs["progress"] = progress.writer(shard, ctx)
    if ctx is None:
        return quick_check(prop, **kwargs)
    if observe:
        kwargs["observe"] = ctx
    with use_session(ctx, ctx.new_session(f"shard-{shard.index}")):
        return quick_check(prop, ctx=ctx, **kwargs)


# Fork-inherited worker state: set immediately before the pool is
# created, inherited by the children's address space, cleared after.
# This is how unpicklable properties (closures over contexts and
# derived callables) reach the workers.
_FORK_STATE: "tuple | None" = None


def _fork_worker(shard: Shard) -> CheckReport:
    prop, opts, ctx, observe = _FORK_STATE
    return _run_shard(prop, shard, opts, ctx, observe)


def parallel_quick_check(
    prop: Any,
    num_tests: int = 1000,
    *,
    workers: "int | None" = None,
    size: int = 5,
    seed: "int | None" = None,
    backend: str = "fork",
    ctx: Any = None,
    observe: bool = False,
    max_discard_ratio: int = 10,
    stop_on_failure: bool = True,
    deadline_seconds: "float | None" = None,
    budget: Any = None,
    campaign_deadline_seconds: "float | None" = None,
    budget_retries: int = 1,
    budget_backoff: float = 2.0,
    telemetry: Any = False,
    progress: "CampaignProgress | None" = None,
) -> CheckReport:
    """Run *prop* as a sharded campaign and merge the shard reports.

    *seed* seeds the shard partition (drawn from OS entropy when
    ``None`` — the merged report's ``shard_seeds`` then carries the
    concrete per-shard seeds for replay).  *workers* defaults to the
    CPU count, capped at 8.  *ctx* is required for budgeted or
    observed runs and recommended whenever the property exercises
    derived computations: shards then run under per-worker sessions.
    With ``observe=True`` every shard runs under
    :func:`repro.observe.observe` on its session and the merged report
    carries the merged dump (summed coverage/metrics, concatenated
    span forest).

    ``stop_on_failure`` is per shard: a failing shard stops early, the
    others run to completion — the merge keeps the first failed
    shard's counterexample.  See the module docstring for backend
    semantics; throughput needs ``"fork"``.

    ``telemetry=True`` (or a :class:`~repro.observe.telemetry.Telemetry`
    used as a settings template) gives every shard its own telemetry
    recorder; the merged report's ``.telemetry`` is their fold, with
    shard-local qids renumbered into one campaign-global sequence and
    events stamped with their shard of origin.  *progress* is a
    :class:`CampaignProgress` whose live per-shard counters update as
    shards run — readable from the calling process even under the
    fork backend.
    """
    if observe and ctx is None:
        raise TypeError("observe=True needs ctx=... to observe")
    if budget is not None and ctx is None:
        ctx = budget.ctx
    if (deadline_seconds is not None or budget is not None) and ctx is None:
        raise TypeError(
            "a budgeted parallel campaign needs the governed context: "
            "pass ctx=... or a Budget built with ctx=..."
        )
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    shards = plan_shards(num_tests, workers, seed)
    if progress is not None:
        progress.attach(shards)  # pre-fork, so children inherit the cells
    opts = {
        "size": size,
        "max_discard_ratio": max_discard_ratio,
        "stop_on_failure": stop_on_failure,
        "deadline_seconds": deadline_seconds,
        "budget": budget,
        "campaign_deadline_seconds": campaign_deadline_seconds,
        "budget_retries": budget_retries,
        "budget_backoff": budget_backoff,
        "telemetry": telemetry,
        "progress": progress,
    }
    # Imported here, not at module load: ``import repro`` stays free of
    # the multiprocessing stack until a campaign actually shards.
    import multiprocessing

    if backend == "fork" and (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        backend = "inline"
    if backend == "inline":
        reports = [_run_shard(prop, s, opts, ctx, observe) for s in shards]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            reports = list(
                pool.map(lambda s: _run_shard(prop, s, opts, ctx, observe), shards)
            )
    elif backend == "fork":
        global _FORK_STATE
        mp = multiprocessing.get_context("fork")
        previous = _FORK_STATE
        _FORK_STATE = (prop, opts, ctx, observe)
        try:
            with mp.Pool(processes=min(len(shards), workers)) as pool:
                reports = pool.map(_fork_worker, shards)
        finally:
            _FORK_STATE = previous
    else:
        raise ValueError(
            f"unknown backend {backend!r} (expected 'fork', 'thread', "
            "or 'inline')"
        )
    return CheckReport.merge(reports, property_name=prop.name)

"""Serving-layer chaos suite: seeded worker faults vs. the liveness
invariant.

The invariant, from the HA serving PR: **under any fault schedule,
every submitted future resolves** (to ok / gave_up / shed / error —
never a hang), and **every ``ok`` answer is field-for-field equal to
the fault-free run's answer** for the same query.  Crashes may cost
individual queries (they resolve as structured errors), stalls may
push deadlined queries into expiry (they resolve as sheds) — but a
definite answer that does come back must be the *right* one, and
nobody waits forever.

Fault schedules are :class:`~repro.resilience.faults.WorkerFaultPlan`
instances — seeded, so every run of this suite replays the same
attacks (the serving analogue of the interruption-soundness
differential suite in ``tests/resilience/test_fault_injection.py``).
"""

from __future__ import annotations

import pytest

from repro.core.values import Value
from repro.resilience import WorkerFaultPlan
from repro.serve import CheckQuery, Engine, EnumQuery, GenQuery

#: Generous per-future watchdog: a liveness failure shows up as a
#: TimeoutError here, not as a hung test session.
WATCHDOG = 60.0

SUP = {"backoff_base": 0.005, "check_interval": 0.005}


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


def workload():
    """A deterministic mixed workload: batched checks, enums (complete
    and fuel-marked), seeded gens.  ~24 queries, matching the default
    seeded-plan horizon so planned faults actually land."""
    qs = []
    for a in range(5):
        for b in range(4):
            qs.append(CheckQuery("le", (nat(a), nat(b)), fuel=32))
    qs.append(EnumQuery("le", "oi", (nat(3),), fuel=6))
    qs.append(EnumQuery("ev", "o", (), fuel=8, max_values=5))
    qs.append(GenQuery("le", "oi", (nat(8),), fuel=16, seed=3))
    qs.append(GenQuery("le", "oi", (nat(8),), fuel=16, seed=7))
    return qs


@pytest.fixture
def baseline(nat_ctx):
    """The fault-free answers, one per workload index."""
    with Engine(nat_ctx, workers=2) as eng:
        eng.prepare(workload())
        return eng.run_batch(workload())


def run_faulted(ctx, plan, queries, **engine_kw):
    """Submit *queries* under *plan*; watchdog-resolve every future."""
    kw = dict(workers=2, faults=plan, supervise=SUP)
    kw.update(engine_kw)
    with Engine(ctx, **kw) as eng:
        futures = [eng.submit(q) for q in queries]
        results = [f.result(timeout=WATCHDOG) for f in futures]
    assert all(f.done() for f in futures)
    return results, eng


def assert_ok_answers_match(faulted, baseline):
    """Every definite faulted answer equals the fault-free answer,
    field for field (value, completeness, and the recorded gen seed)."""
    for i, (got, want) in enumerate(zip(faulted, baseline)):
        if got.status != "ok":
            continue
        assert want.status == "ok", (
            f"query {i}: faulted run answered ok where the fault-free "
            f"run said {want.status!r}"
        )
        assert got.value == want.value, f"query {i}: value diverged"
        assert got.complete == want.complete, f"query {i}: complete diverged"
        assert got.seed == want.seed, f"query {i}: seed diverged"


class TestSeededSchedules:
    @pytest.mark.parametrize("seed", range(8))
    def test_liveness_and_differential(self, nat_ctx, baseline, seed):
        plan = WorkerFaultPlan.seeded(
            seed, workers=2, n_events=4, horizon=24, stall_seconds=0.01
        )
        results, eng = run_faulted(nat_ctx, plan, workload())
        # Liveness: every future resolved (the watchdog already
        # enforced it) to a structured status.
        assert len(results) == len(workload())
        assert all(
            r.status in ("ok", "gave_up", "shed", "error") for r in results
        )
        # Only crashes and poisons may surface as errors, and each
        # planned event costs at most one query.
        crashes = sum(1 for _, _, k in plan if k == "crash")
        poisons = sum(1 for _, _, k in plan if k == "poison")
        errors = [r for r in results if r.status == "error"]
        assert len(errors) <= crashes + poisons
        for r in errors:
            assert "worker crashed" in r.error or "injected poison" in r.error
        # Correctness: definite answers are the fault-free answers.
        assert_ok_answers_match(results, baseline)

    def test_every_seed_replays_identically(self):
        a = WorkerFaultPlan.seeded(5, workers=2, n_events=4)
        b = WorkerFaultPlan.seeded(5, workers=2, n_events=4)
        assert a.events == b.events


class TestPoison:
    def test_poison_isolated_to_one_query(self, nat_ctx, baseline):
        # Worker 0's second claim raises mid-execution: that query
        # errors, its chunk neighbors still get real answers.
        plan = WorkerFaultPlan.from_events((0, 2, "poison"))
        results, eng = run_faulted(
            nat_ctx, plan, workload(), workers=1
        )
        errors = [r for r in results if r.status == "error"]
        assert len(errors) == 1
        assert "injected poison" in errors[0].error
        assert sum(1 for r in results if r.ok) == len(workload()) - 1
        assert_ok_answers_match(results, baseline)
        # The worker survived a poison query: no crash, no restart.
        stats = eng.stats()
        assert stats["crashes"] == 0 and stats["restarts"] == 0


class TestCrash:
    def test_crash_recovery_differential(self, nat_ctx, baseline):
        plan = WorkerFaultPlan.from_events((0, 1, "crash"), (1, 1, "crash"))
        results, eng = run_faulted(nat_ctx, plan, workload())
        errors = [r for r in results if r.status == "error"]
        assert len(errors) <= 2  # each crash costs at most one query
        for r in errors:
            assert "worker crashed" in r.error
        assert sum(1 for r in results if r.ok) >= len(workload()) - 2
        assert_ok_answers_match(results, baseline)
        stats = eng.stats()
        assert stats["crashes"] >= 1
        assert stats["restarts"] >= 1

    def test_restart_counted_before_the_respawned_worker_runs(self, nat_ctx):
        # The respawned worker reads the counters on entry, before it
        # serves anything: the restart that brought it up must show.
        plan = WorkerFaultPlan.from_events((0, 1, "crash"))
        seen = []
        with Engine(nat_ctx, workers=1, faults=plan, supervise=SUP) as eng:
            first_main = eng._worker_main

            def respawned_main(index):
                stats = eng.stats()
                seen.append((stats["restarts"], stats["supervisor"]["restarts"]))
                return first_main(index)

            eng._worker_main = respawned_main
            futures = [eng.submit(q) for q in workload()]
            for f in futures:
                f.result(timeout=WATCHDOG)
        assert seen and seen[0] == (1, 1)

    def test_crash_storm_on_one_worker(self, nat_ctx, baseline):
        # Repeated crashes on the same worker: backoff restarts keep
        # the engine live and the answers right.
        plan = WorkerFaultPlan.from_events(
            (0, 1, "crash"), (0, 3, "crash"), (0, 5, "crash")
        )
        results, eng = run_faulted(nat_ctx, plan, workload(), workers=1)
        errors = [r for r in results if r.status == "error"]
        assert len(errors) <= 3
        assert_ok_answers_match(results, baseline)
        assert eng.stats()["restarts"] >= 1


class TestStall:
    def test_stall_expires_deadlined_queries_only(self, nat_ctx, baseline):
        # A stalled worker pushes deadlined queries past expiry: they
        # shed (never error, never hang); undeadlined neighbors answer.
        plan = WorkerFaultPlan.from_events(
            (0, 1, "stall"), stall_seconds=0.25
        )
        queries = workload()
        deadlined = [
            CheckQuery(q.rel, q.args, fuel=q.fuel, deadline_seconds=0.1)
            if isinstance(q, CheckQuery) and i % 2 == 0
            else q
            for i, q in enumerate(queries)
        ]
        results, eng = run_faulted(nat_ctx, plan, deadlined, workers=1)
        assert all(
            r.status in ("ok", "gave_up", "shed") for r in results
        )
        shed = [r for r in results if r.status == "shed"]
        assert shed, "the stall expired nothing"
        for r in shed:
            assert r.give_up.reason == "expired"
        assert_ok_answers_match(results, baseline)

    def test_stalls_alone_change_no_answers(self, nat_ctx, baseline):
        plan = WorkerFaultPlan.from_events(
            (0, 1, "stall"), (0, 4, "stall"), (1, 2, "stall"),
            stall_seconds=0.02,
        )
        results, _ = run_faulted(nat_ctx, plan, workload())
        # No deadlines, no crashes: every answer matches fault-free.
        assert [r.status for r in results] == [
            r.status for r in baseline
        ]
        assert_ok_answers_match(results, baseline)

"""The serving engine: sessioned workers, batching, budgets, CLI.

Covers the Layer-3 surface of the derivation-as-a-service PR: query
execution across all three kinds, batched check dispatch, per-query
and engine-default budgets surfacing as structured give-ups, worker
isolation (per-worker memo shards), the async entry points, and the
``python -m repro.serve`` front end.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.values import Value, to_int
from repro.serve import (
    CheckQuery,
    Engine,
    EnumQuery,
    GenQuery,
    GiveUp,
    QueryResult,
)
from repro.serve.cli import main as serve_main


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


def unnat(v):
    return to_int(v)


@pytest.fixture
def engine(nat_ctx):
    with Engine(nat_ctx, workers=2) as eng:
        yield eng


class TestCheckQueries:
    def test_definite_answers(self, engine):
        yes = engine.run(CheckQuery("le", (nat(3), nat(8))))
        no = engine.run(CheckQuery("le", (nat(8), nat(3))))
        assert yes.ok and yes.value is True
        assert no.ok and no.value is False

    def test_fuel_give_up_is_structured(self, engine):
        res = engine.run(CheckQuery("le", (nat(0), nat(10)), fuel=1))
        assert res.status == "gave_up"
        assert res.give_up is not None
        assert res.give_up.reason == "fuel"
        assert res.ok is False

    def test_unknown_relation_is_error(self, engine):
        res = engine.run(CheckQuery("nope", (nat(1),)))
        assert res.status == "error"
        assert "nope" in res.error
        # The engine keeps serving after an error.
        assert engine.run(CheckQuery("le", (nat(1), nat(2)))).ok

    def test_batched_dispatch_matches_singles(self, nat_ctx):
        queries = [
            CheckQuery("le", (nat(a), nat(b)), fuel=32)
            for a in range(6)
            for b in range(6)
        ]
        with Engine(nat_ctx, workers=1, batch=True) as batched:
            batched.prepare(queries)
            got_batched = batched.run_batch(queries)
            stats = batched.stats()
        with Engine(nat_ctx, workers=1, batch=False) as single:
            got_single = single.run_batch(queries)
        assert [r.value for r in got_batched] == [
            r.value for r in got_single
        ]
        assert [r.value for r in got_single] == [
            a <= b for a in range(6) for b in range(6)
        ]
        assert sum(w["batched"] for w in stats["per_worker"]) > 0


class TestBatchedResults:
    def test_every_field_of_a_batched_result(self, nat_ctx):
        """The batched path builds its results positionally; each one
        must read as the keyword-built single-path result does."""
        from repro.resilience import WorkerFaultPlan

        plan = WorkerFaultPlan.from_events((0, 1, "stall"), stall_seconds=0.3)
        queries = [CheckQuery("le", (nat(0), nat(1)))]  # the parked head
        queries += [CheckQuery("le", (nat(a), nat(3))) for a in range(5)]
        queries += [CheckQuery("le", (nat(0), nat(9)), fuel=1)] * 2
        with Engine(nat_ctx, workers=1, faults=plan) as eng:
            eng.prepare(queries)
            tickets = [eng.submit(q) for q in queries]
            results = [t.result(timeout=30) for t in tickets]
        for t, q, r in zip(tickets, queries, results):
            assert r.query is q and r.qid == t.qid
            assert r.worker == 0 and r.complete is None and r.error is None
            assert r.queue_seconds >= 0 and r.elapsed_seconds >= 0
            assert r.seed is None
        batched = results[1:]
        assert all(r.batched for r in batched)
        assert [(r.status, r.value) for r in batched[:5]] == [
            ("ok", a <= 3) for a in range(5)
        ]
        for r in batched[5:]:
            assert r.status == "gave_up" and r.value is None
            assert r.give_up == GiveUp("fuel")
        assert all(r.give_up is None for r in batched[:5])


class TestWrongArity:
    """A check query with the wrong number of arguments resolves as an
    ``ArityError`` result on both paths, and never costs its batch
    neighbours their answers."""

    MESSAGE = "'le' expects 2 argument(s), got {}"

    def test_single_path(self, engine):
        long = engine.run(CheckQuery("le", (nat(1), nat(2), nat(0))))
        short = engine.run(CheckQuery("le", (nat(1),)))
        raw = engine.run(CheckQuery("le", (1, 2, 0)))
        for res, got in ((long, 3), (short, 1), (raw, 3)):
            assert res.status == "error" and res.value is None
            assert res.error == self.MESSAGE.format(got)
        assert engine.run(CheckQuery("le", (nat(1), nat(2)))).value is True

    def test_batched_path_answers_the_neighbours(self, nat_ctx):
        from repro.resilience import WorkerFaultPlan

        # Park the worker on the first claim of each run so every
        # query of the run lands in one chunk, and one (rel, fuel)
        # group: 18 claims, then the second run's head.
        plan = WorkerFaultPlan.from_events(
            (0, 1, "stall"), (0, 19, "stall"), stall_seconds=0.3
        )
        pairs = [(a, b) for a in range(4) for b in range(4)]
        queries = [CheckQuery("le", (nat(a), nat(b))) for a, b in pairs]
        queries.insert(3, CheckQuery("le", (nat(1), nat(2), nat(0))))
        queries.insert(9, CheckQuery("le", (nat(5),)))
        with Engine(nat_ctx, workers=1, faults=plan) as eng:
            eng.prepare(queries)
            results = eng.run_batch(queries)
            stats = eng.stats()
            again = eng.run_batch(
                [CheckQuery("le", (nat(a), nat(b))) for a, b in pairs]
            )
        bad = {3: 3, 9: 1}
        good = [r for i, r in enumerate(results) if i not in bad]
        for i, got in bad.items():
            assert results[i].status == "error"
            assert results[i].error == self.MESSAGE.format(got)
        assert [r.value for r in good] == [a <= b for a, b in pairs]
        assert all(r.ok for r in good)
        assert stats["per_worker"][0]["errors"] == 2
        assert stats["crashes"] == 0
        assert [r.value for r in again] == [a <= b for a, b in pairs]
        assert all(r.batched for r in again)


class TestEnumQueries:
    def test_complete_enumeration(self, engine):
        res = engine.run(EnumQuery("le", "oi", (nat(3),), fuel=6))
        assert res.ok and res.complete is True
        assert sorted(unnat(t[0]) for t in res.value) == [0, 1, 2, 3]

    def test_max_values_truncates(self, engine):
        res = engine.run(
            EnumQuery("le", "oi", (nat(9),), fuel=12, max_values=4)
        )
        assert res.ok
        assert len(res.value) == 4
        assert res.complete is False

    def test_fuel_starved_enum_gives_up(self, engine):
        res = engine.run(EnumQuery("ev", "o", (), fuel=2, max_values=100))
        # At tiny fuel the stream is fuel-marked: either some values
        # with complete=False, or a structured give-up with none.
        if res.status == "gave_up":
            assert res.give_up.reason == "fuel"
        else:
            assert res.complete is False


class TestGenQueries:
    def test_seeded_generation_is_replayable(self, engine):
        q = GenQuery("le", "oi", (nat(12),), fuel=16, seed=5)
        a = engine.run(q)
        b = engine.run(q)
        assert a.ok and b.ok
        assert a.value == b.value
        assert unnat(a.value[0]) <= 12

    def test_unseeded_generation_succeeds(self, engine):
        res = engine.run(GenQuery("le", "oi", (nat(6),), fuel=16))
        assert res.ok
        assert unnat(res.value[0]) <= 6


class TestBudgets:
    def test_query_budget_trips_structured(self, engine):
        res = engine.run(
            CheckQuery("le", (nat(20), nat(30)), fuel=64, max_ops=5)
        )
        assert res.status == "gave_up"
        assert res.give_up.reason == "ops"
        assert res.give_up.exhausted is not None
        assert res.give_up.exhausted.limit == "ops"

    def test_engine_default_budget_applies(self, nat_ctx):
        with Engine(nat_ctx, workers=1, max_ops=5) as eng:
            res = eng.run(CheckQuery("le", (nat(20), nat(30)), fuel=64))
        assert res.status == "gave_up"
        assert res.give_up.reason == "ops"

    def test_query_budget_overrides_engine_default(self, nat_ctx):
        with Engine(nat_ctx, workers=1, max_ops=5) as eng:
            res = eng.run(
                CheckQuery("le", (nat(3), nat(8)), fuel=64, max_ops=100_000)
            )
        assert res.ok and res.value is True

    def test_budgeted_enum_keeps_partial_values(self, engine):
        res = engine.run(
            EnumQuery("le", "oi", (nat(30),), fuel=40, max_ops=40)
        )
        assert res.status == "gave_up"
        assert res.give_up.reason == "ops"
        assert res.complete is False
        assert res.value  # partial answers survive the trip

    def test_budget_does_not_leak_between_queries(self, engine):
        tripped = engine.run(
            CheckQuery("le", (nat(20), nat(30)), fuel=64, max_ops=5)
        )
        assert tripped.status == "gave_up"
        clean = engine.run(CheckQuery("le", (nat(20), nat(30)), fuel=64))
        assert clean.ok and clean.value is True


class TestEngineMechanics:
    def test_multi_worker_serves_all(self, nat_ctx):
        queries = [
            CheckQuery("le", (nat(i % 10), nat(i % 7)), fuel=32)
            for i in range(60)
        ]
        with Engine(nat_ctx, workers=4) as eng:
            eng.prepare(queries)
            results = eng.run_batch(queries)
            stats = eng.stats()
        assert len(results) == 60
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [
            i % 10 <= i % 7 for i in range(60)
        ]
        assert sum(w["queries"] for w in stats["per_worker"]) == 60

    def test_memoized_workers(self, nat_ctx):
        queries = [
            CheckQuery("le", (nat(4), nat(9)), fuel=32) for _ in range(10)
        ]
        with Engine(nat_ctx, workers=2, memoize=True) as eng:
            results = eng.run_batch(queries)
        assert all(r.ok and r.value is True for r in results)

    def test_submit_returns_future(self, engine):
        fut = engine.submit(CheckQuery("le", (nat(1), nat(2))))
        assert fut.result(timeout=30).ok

    def test_closed_engine_rejects(self, nat_ctx):
        eng = Engine(nat_ctx)
        eng.start()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit(CheckQuery("le", (nat(1), nat(2))))

    def test_worker_count_validated(self, nat_ctx):
        with pytest.raises(ValueError):
            Engine(nat_ctx, workers=0)

    def test_async_entry_points(self, nat_ctx):
        async def drive():
            with Engine(nat_ctx, workers=2) as eng:
                one = await eng.arun(CheckQuery("le", (nat(2), nat(5))))
                many = await eng.arun_batch(
                    [
                        CheckQuery("le", (nat(i), nat(5)), fuel=32)
                        for i in range(8)
                    ]
                )
                return one, many

        one, many = asyncio.run(drive())
        assert one.ok and one.value is True
        assert [r.value for r in many] == [i <= 5 for i in range(8)]

    def test_result_to_dict_roundtrips_json(self, engine):
        res = engine.run(CheckQuery("le", (nat(1), nat(3))))
        blob = json.dumps(res.to_dict())
        back = json.loads(blob)
        assert back["kind"] == "check"
        assert back["status"] == "ok"
        assert back["value"] is True

    def test_give_up_as_dict(self):
        g = GiveUp("fuel")
        assert g.as_dict() == {"reason": "fuel", "exhausted": None}

    def test_query_result_ok_property(self):
        q = CheckQuery("le", ())
        assert QueryResult(q, "ok").ok
        assert not QueryResult(q, "gave_up").ok
        assert not QueryResult(q, "error").ok


class TestCli:
    def test_demo_exits_zero(self, capsys):
        assert serve_main(["--demo"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[-1]["kind"] == "engine_stats"
        assert all(l["status"] == "ok" for l in lines[:-1])

    def test_demo_telemetry_export(self, tmp_path, capsys):
        outdir = tmp_path / "tel"
        assert serve_main(
            ["--demo", "--stats", "--export", str(outdir), "--sample-every", "1"]
        ) == 0
        captured = capsys.readouterr()
        # --stats renders the latency table to stderr.
        assert "repro.serve telemetry" in captured.err
        assert "check:le" in captured.err
        # The stats line on stdout carries the telemetry snapshot.
        lines = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert lines[-1]["telemetry"]["counters"]["serve.queries"] == 6
        # --export wrote all three artifacts; the JSONL re-reads.
        from repro.observe.export import read_jsonl

        dump = read_jsonl(outdir / "telemetry.jsonl")
        assert len(dump.queries) == 6
        assert (outdir / "metrics.prom").read_text().startswith("# TYPE")
        assert "repro.serve telemetry" in (outdir / "stats.txt").read_text()

    def test_query_file_served(self, tmp_path, capsys):
        decls = tmp_path / "corpus.v"
        decls.write_text(
            "Inductive le : nat -> nat -> Prop :=\n"
            "| le_n : forall n, le n n\n"
            "| le_S : forall n m, le n m -> le n (S m).\n"
        )
        qfile = tmp_path / "queries.jsonl"
        qfile.write_text(
            '{"kind": "check", "rel": "le", "args": ["2", "5"]}\n'
            '{"kind": "enum", "rel": "le", "mode": "oi", "ins": ["2"]}\n'
            '{"kind": "gen", "rel": "le", "mode": "oi", "ins": ["4"],'
            ' "seed": 3}\n'
        )
        code = serve_main([str(qfile), "--decls", str(decls)])
        assert code == 0
        lines = [
            json.loads(l)
            for l in capsys.readouterr().out.strip().splitlines()
        ]
        assert [l["kind"] for l in lines[:-1]] == ["check", "enum", "gen"]
        assert lines[0]["value"] is True
        assert lines[1]["complete"] is True

    def test_gave_up_query_exits_one(self, tmp_path, capsys):
        decls = tmp_path / "corpus.v"
        decls.write_text(
            "Inductive le : nat -> nat -> Prop :=\n"
            "| le_n : forall n, le n n\n"
            "| le_S : forall n m, le n m -> le n (S m).\n"
        )
        qfile = tmp_path / "queries.jsonl"
        qfile.write_text(
            '{"kind": "check", "rel": "le", "args": ["0", "9"], "fuel": 1}\n'
        )
        assert serve_main([str(qfile), "--decls", str(decls)]) == 1
        line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert line["status"] == "gave_up"
        assert line["give_up"]["reason"] == "fuel"

    def test_missing_args_exits_two(self, capsys):
        assert serve_main([]) == 2

    def test_bad_query_kind_exits_two(self, tmp_path, capsys):
        qfile = tmp_path / "queries.jsonl"
        qfile.write_text('{"kind": "solve", "rel": "le"}\n')
        assert serve_main([str(qfile)]) == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "results.jsonl"
        assert serve_main(["--demo", "--out", str(out)]) == 0
        lines = [
            json.loads(l) for l in out.read_text().strip().splitlines()
        ]
        assert lines and lines[-1]["kind"] == "engine_stats"


REACH_DECL = """
Inductive reach : nat -> Prop :=
| r : forall n m, le n m -> reach n.
"""


class TestTelemetry:
    def test_engine_records_every_query(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        tel = Telemetry()
        with Engine(nat_ctx, workers=2, telemetry=tel) as eng:
            queries = [CheckQuery("le", (nat(a), nat(a + 1))) for a in range(6)]
            results = eng.run_batch(queries)
        snap = tel.metrics.counter_snapshot()
        assert snap["serve.queries"] == 6
        assert snap["serve.ok"] == 6
        assert all(r.ok for r in results)
        hist = tel.metrics.histograms["serve.service_seconds.check.le"]
        assert hist.count == 6

    def test_telemetry_true_builds_a_recorder(self, nat_ctx):
        with Engine(nat_ctx, telemetry=True) as eng:
            eng.run(CheckQuery("le", (nat(1), nat(2))))
            assert eng.telemetry is not None
            assert (
                eng.telemetry.metrics.counter_snapshot()["serve.queries"] == 1
            )

    def test_qids_monotonic_in_submit_order(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        with Engine(nat_ctx, workers=3, telemetry=Telemetry()) as eng:
            queries = [CheckQuery("le", (nat(a), nat(a))) for a in range(8)]
            results = eng.run_batch(queries)
        assert [r.qid for r in results] == list(range(1, 9))
        assert all(r.queue_seconds >= 0.0 for r in results)

    def test_stats_keeps_legacy_shape_and_adds_telemetry(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        with Engine(nat_ctx, workers=2, telemetry=Telemetry()) as eng:
            eng.run_batch(
                [CheckQuery("le", (nat(a), nat(a + 2))) for a in range(5)]
            )
            stats = eng.stats()
        assert stats["workers"] == 2
        assert len(stats["per_worker"]) == 2
        for row in stats["per_worker"]:
            assert set(row) == {"queries", "batched", "gave_up", "errors"}
        assert sum(w["queries"] for w in stats["per_worker"]) == 5
        tsnap = stats["telemetry"]
        assert tsnap["counters"]["serve.queries"] == 5
        assert tsnap["events"] == 5

    def test_stats_without_telemetry_has_no_telemetry_key(self, engine):
        engine.run(CheckQuery("le", (nat(1), nat(2))))
        assert "telemetry" not in engine.stats()

    def test_give_up_rates_by_shape(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        tel = Telemetry()
        with Engine(nat_ctx, telemetry=tel) as eng:
            eng.run(CheckQuery("le", (nat(0), nat(10)), fuel=1))
            eng.run(CheckQuery("le", (nat(0), nat(1)), fuel=16))
        snap = tel.metrics.counter_snapshot()
        assert snap["serve.gave_up"] == 1
        assert snap["serve.gave_up.reason.fuel"] == 1
        assert snap["serve.gave_up.check.le"] == 1
        (row,) = tel.query_table()
        assert row["count"] == 2 and row["give_up_rate"] == 0.5

    def test_sampled_trace_keeps_abandoned_enum_spans(self, nat_ctx):
        # The reach checker proves its goal through the first witness
        # of an le enumeration and abandons the rest mid-stream: the
        # consumer-abandoned span must survive into the query event.
        from repro.core import parse_declarations
        from repro.observe.telemetry import Telemetry

        parse_declarations(nat_ctx, REACH_DECL)
        tel = Telemetry(sample_every=1)
        with Engine(nat_ctx, telemetry=tel) as eng:
            res = eng.run(CheckQuery("reach", (nat(2),), fuel=16))
        assert res.ok and res.value is True
        (event,) = tel.events
        assert event.spans, "sampled query lost its span tree"
        outcomes = {(s["kind"], s["outcome"]) for s in event.spans}
        assert ("enum", "abandoned") in outcomes
        assert ("checker", "true") in outcomes

    def test_unsampled_queries_carry_no_spans(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        tel = Telemetry(sample_every=128)
        with Engine(nat_ctx, workers=1, telemetry=tel) as eng:
            eng.run_batch(
                [CheckQuery("le", (nat(a), nat(a))) for a in range(4)]
            )
        by_qid = {ev.qid: ev.spans for ev in tel.events}
        assert by_qid[1] is not None         # qid 1 sampled
        assert all(by_qid[q] is None for q in (2, 3, 4))
        assert tel.metrics.counter_snapshot()["serve.traced"] == 1

    def test_batched_dispatch_records_batch_telemetry(self, nat_ctx):
        from repro.observe.telemetry import Telemetry

        tel = Telemetry(sample_every=0)
        queries = [
            CheckQuery("le", (nat(a % 4), nat(3)), fuel=32) for a in range(12)
        ]
        with Engine(
            nat_ctx, workers=1, batch=True, batch_max=64, telemetry=tel
        ) as eng:
            eng.prepare(queries)
            results = eng.run_batch(queries)
        assert all(r.status in ("ok",) for r in results)
        snap = tel.metrics.counter_snapshot()
        assert snap["serve.queries"] == 12
        assert snap["serve.batched"] > 0
        assert tel.metrics.histograms["serve.batch_size"].max > 1
        # qids survive batching and stay unique.
        assert sorted(r.qid for r in results) == list(range(1, 13))

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_crash_strands_no_futures(self, nat_ctx, monkeypatch):
        from repro.observe.telemetry import Telemetry

        with Engine(nat_ctx, workers=1, telemetry=Telemetry()) as eng:
            eng.run(CheckQuery("le", (nat(1), nat(2))))  # worker is live

            def boom(index, chunk):
                raise RuntimeError("induced crash")

            monkeypatch.setattr(eng, "_serve_chunk", boom)
            fut = eng.submit(CheckQuery("le", (nat(2), nat(3))))
            res = fut.result(timeout=5)
        assert res.status == "error"
        assert "worker crashed" in res.error
        assert res.qid == 2


# -- the compiled executors ---------------------------------------------------

EVEN_ODD = """
Inductive even : nat -> Prop :=
| even_0 : even 0
| even_S : forall n, odd n -> even (S n)
with odd : nat -> Prop :=
| odd_S : forall n, even n -> odd (S n).
"""

UNSTRAT = """
Inductive unstrat : nat -> Prop :=
| us_0 : unstrat 0
| us_S : forall n, ~ (unstrat n) -> unstrat (S n).
"""


def _stall_first(seconds=0.2):
    """Park worker 0 at its first claim so the queries submitted
    meanwhile queue up and drain as one chunk (the batched path)."""
    from repro.resilience import WorkerFaultPlan

    return WorkerFaultPlan.from_events((0, 1, "stall"), stall_seconds=seconds)


def _run_chunked(ctx, queries, **engine_kw):
    """Serve *queries* as one chunk behind a parked first query."""
    with Engine(ctx, workers=1, faults=_stall_first(), **engine_kw) as eng:
        eng.prepare(queries)
        results = eng.run_batch(queries)
        sources = _served_sources(eng)
    return results, sources


def _served_sources(eng):
    return {key: inst.source for key, inst in eng._resolved[0][1].items()}


class TestCompiledExecutors:
    def test_served_queries_run_compiled_instances(self, nat_ctx, monkeypatch):
        # Any interpreter execution would now raise — and resolve as an
        # error result — so ok answers prove the compiled code ran.
        from repro.derive import exec_core

        def interpreter_called(*a, **k):
            raise AssertionError("the interpreter ran a served query")

        monkeypatch.setattr(exec_core, "run_checker", interpreter_called)
        monkeypatch.setattr(exec_core, "run_enum", interpreter_called)
        monkeypatch.setattr(exec_core, "run_gen", interpreter_called)
        checks = [
            CheckQuery("le", (nat(a), nat(3)), fuel=16) for a in range(6)
        ]
        others = [
            CheckQuery("le", (nat(2), nat(4)), deadline_seconds=5.0),
            EnumQuery("le", "oi", (nat(3),), fuel=6),
            GenQuery("le", "oi", (nat(5),), fuel=8, seed=1),
        ]
        results, sources = _run_chunked(nat_ctx, checks + others)
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.value for r in results[:6]] == [a <= 3 for a in range(6)]
        assert all(r.batched for r in results[:6])
        assert sorted(unnat(t[0]) for t in results[7].value) == [0, 1, 2, 3]
        assert unnat(results[8].value[0]) <= 5
        assert sources == {
            ("checker", "le", None): "compiled",
            ("enum", "le", "oi"): "compiled",
            ("gen", "le", "oi"): "compiled",
        }

    def test_handwritten_instances_serve_as_registered(self, nat_ctx):
        from repro.derive.instances import (
            ENUM,
            GEN,
            register_checker,
            register_producer,
        )
        from repro.derive.modes import Mode
        from repro.producers.option_bool import SOME_FALSE

        calls = []

        def never(fuel, args):  # deliberately wrong: proves who answered
            calls.append(args)
            return SOME_FALSE

        register_checker(nat_ctx, "le", never)
        register_producer(
            nat_ctx, ENUM, "le", Mode.from_string("oi"),
            lambda fuel, ins: iter([(nat(7),)]),
        )
        register_producer(
            nat_ctx, GEN, "le", Mode.from_string("oi"),
            lambda fuel, ins, rng: (nat(9),),
        )
        checks = [CheckQuery("le", (nat(1), nat(b))) for b in range(2, 6)]
        others = [
            EnumQuery("le", "oi", (nat(3),)),
            GenQuery("le", "oi", (nat(3),), seed=0),
        ]
        results, sources = _run_chunked(nat_ctx, checks + others)
        assert [r.value for r in results[:4]] == [False] * 4
        assert all(r.batched for r in results[:4])
        assert len(calls) == 4
        assert [unnat(t[0]) for t in results[4].value] == [7]
        assert unnat(results[5].value[0]) == 9
        assert set(sources.values()) == {"handwritten"}

    def test_mutual_group_serves_as_registered(self, nat_ctx):
        from repro.core import parse_declarations
        from repro.derive.mutual import derive_mutual_checkers

        parse_declarations(nat_ctx, EVEN_ODD)
        derive_mutual_checkers(nat_ctx, ["even", "odd"])
        queries = [CheckQuery("even", (nat(n),), fuel=32) for n in range(8)]
        queries += [CheckQuery("odd", (nat(5),), fuel=32)]
        results, sources = _run_chunked(nat_ctx, queries)
        assert [r.value for r in results] == [n % 2 == 0 for n in range(8)] + [
            True
        ]
        assert set(sources.values()) == {"derived-mutual"}

    def test_replace_takes_effect_on_running_engine(self, nat_ctx):
        from repro.derive.instances import register_checker
        from repro.producers.option_bool import SOME_FALSE

        queries = [CheckQuery("le", (nat(1), nat(b))) for b in range(2, 6)]
        with Engine(nat_ctx, workers=1) as eng:
            assert eng.run(queries[0]).value is True
            assert [r.value for r in eng.run_batch(queries)] == [True] * 4
            register_checker(
                nat_ctx, "le", lambda fuel, args: SOME_FALSE, replace=True
            )
            assert eng.run(queries[0]).value is False
            assert [r.value for r in eng.run_batch(queries)] == [False] * 4
            assert _served_sources(eng) == {
                ("checker", "le", None): "handwritten"
            }

    @pytest.mark.parametrize("memoize", [False, True])
    def test_replace_reaches_compiled_dependents_on_running_engine(
        self, stlc_ctx, memoize
    ):
        """Replacing a premise (STLC ``lookup``) of a shape the engine
        already serves (``typing``) changes its answers at once: no
        stale compiled caller, no stale memo shard."""
        from repro.core.values import from_list
        from repro.derive.instances import register_checker
        from repro.producers.option_bool import SOME_FALSE

        n_ty = Value("N", ())
        query = CheckQuery(
            "typing", (from_list([n_ty]), Value("Vart", (nat(0),)), n_ty),
            fuel=5,
        )
        with Engine(stlc_ctx, workers=1, memoize=memoize) as eng:
            assert eng.run(query).value is True
            register_checker(
                stlc_ctx, "lookup", lambda fuel, args: SOME_FALSE, replace=True
            )
            assert eng.run(query).value is False

    def test_gate_runs_once_per_shape_with_structured_errors(
        self, nat_ctx, monkeypatch
    ):
        import repro.analysis.checks as checks
        from repro.core import parse_declarations

        parse_declarations(nat_ctx, UNSTRAT)
        runs = []
        real = checks.analyze

        def counting(*a, **k):
            runs.append(a[1:3])
            return real(*a, **k)

        monkeypatch.setattr(checks, "analyze", counting)
        queries = [CheckQuery("unstrat", (nat(n),)) for n in range(5)]
        with Engine(nat_ctx, workers=1, faults=_stall_first()) as eng:
            batched = eng.run_batch(queries)
            single = eng.run(queries[0])
        for r in batched + [single]:
            assert r.status == "error"
            assert "static analysis rejected 'unstrat'" in r.error
        assert len(runs) == 1

    def test_memoized_engine_hits_on_the_batched_path(self, nat_ctx):
        from repro.derive.api import compiled_instance
        from repro.derive.instances import CHECKER

        # Count the raw compiled checker's calls, under the memo layer
        # the memoizing workers wrap around it.
        inst = compiled_instance(nat_ctx, CHECKER, "le")
        assert inst.source == "compiled"
        raw = inst.fn
        calls = {"single": 0, "batch": 0}

        def counted(fuel, args):
            calls["single"] += 1
            return raw(fuel, args)

        def counted_batch(fuel, argses):
            calls["batch"] += len(argses)
            return raw.__batch__(fuel, argses)

        counted.__batch__ = counted_batch
        inst.fn = counted
        queries = [
            CheckQuery("le", (nat(a), nat(4)), fuel=16) for a in range(8)
        ]
        with Engine(
            nat_ctx, workers=1, memoize=True, faults=_stall_first()
        ) as eng:
            rounds = [eng.run_batch(queries) for _ in range(3)]
        for results in rounds:
            assert [r.value for r in results] == [a <= 4 for a in range(8)]
        assert sum(r.batched for r in rounds[0]) >= 7
        # Every distinct query computed once; the rest were memo hits.
        assert calls == {"single": 8, "batch": 0}


# -- give-ups on deep recursion -----------------------------------------------

@pytest.fixture
def shallow_stack():
    """A low recursion limit, so a deep query overflows fast and on
    every Python version."""
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


DEPTH = 20_000


class TestDepthGiveUp:
    def _add_ctx(self, nat_ctx):
        from repro.core import parse_declarations

        parse_declarations(
            nat_ctx,
            "Inductive add : nat -> nat -> nat -> Prop :=\n"
            "| add_O : forall m, add O m m\n"
            "| add_S : forall n m p, add n m p -> add (S n) m (S p).\n",
        )
        return nat_ctx

    def test_single_path_check_gives_up_on_depth(self, nat_ctx, shallow_stack):
        q = CheckQuery("le", (nat(0), nat(DEPTH)), fuel=DEPTH + 8,
                       deadline_seconds=30.0)
        with Engine(nat_ctx, workers=1) as eng:
            res = eng.run(q)
            after = eng.run(CheckQuery("le", (nat(1), nat(2))))
        assert res.status == "gave_up"
        assert res.give_up.reason == "depth"
        assert res.error is None
        assert after.ok and after.value is True

    def test_gen_gives_up_on_depth_with_its_seed(self, nat_ctx, shallow_stack):
        ctx = self._add_ctx(nat_ctx)
        q = GenQuery("add", "iio", (nat(DEPTH), nat(1)), fuel=DEPTH + 8,
                     seed=4)
        with Engine(ctx, workers=1) as eng:
            res = eng.run(q)
        assert res.status == "gave_up"
        assert res.give_up.reason == "depth"
        assert res.seed == 4

    def test_enum_gives_up_on_depth_keeping_partial_values(
        self, nat_ctx, shallow_stack
    ):
        from repro.derive.instances import ENUM, register_producer
        from repro.derive.modes import Mode

        def sink(n):
            return sink(n + 1)

        def deep_enum(fuel, ins):
            yield (nat(0),)
            sink(0)

        register_producer(
            nat_ctx, ENUM, "le", Mode.from_string("oi"), deep_enum
        )
        with Engine(nat_ctx, workers=1) as eng:
            res = eng.run(EnumQuery("le", "oi", (nat(3),)))
        assert res.status == "gave_up"
        assert res.give_up.reason == "depth"
        assert res.complete is False
        assert [unnat(t[0]) for t in res.value] == [0]

    def test_batched_path_gives_up_on_depth(self, nat_ctx, shallow_stack):
        from repro.derive.instances import register_checker
        from repro.producers.option_bool import SOME_TRUE

        def countdown(fuel, args):  # one frame per unit of fuel
            return countdown(fuel - 1, args) if fuel else SOME_TRUE

        register_checker(nat_ctx, "le", countdown)
        deep = CheckQuery("le", (nat(0), nat(0)), fuel=DEPTH)
        shallow = CheckQuery("le", (nat(0), nat(0)), fuel=8)
        queries = [shallow, deep, shallow, deep]
        with Engine(nat_ctx, workers=1, faults=_stall_first()) as eng:
            results = eng.run_batch(queries)
            stats = eng.stats()
        assert [r.status for r in results] == ["ok", "gave_up"] * 2
        assert all(r.value is True for r in results[::2])
        assert all(r.give_up.reason == "depth" for r in results[1::2])
        assert stats["per_worker"][0]["errors"] == 0
        assert stats["per_worker"][0]["gave_up"] == 2


# -- engine answers equal direct interpreter answers --------------------------

def _direct(ctx, q):
    """The interpreter's answer to *q*, outside the engine: the public
    ``derive_*`` objects, under the query's own op budget."""
    import random

    from repro.derive.api import (
        derive_checker,
        derive_enumerator,
        derive_generator,
    )
    from repro.producers.option_bool import NONE_OB, SOME_TRUE
    from repro.producers.outcome import OUT_OF_FUEL
    from repro.resilience import budget_scope

    def run():
        if isinstance(q, CheckQuery):
            res = derive_checker(ctx, q.rel).check(q.fuel, tuple(q.args))
            return ("gave_up", None) if res is NONE_OB else (
                "ok", res is SOME_TRUE
            )
        if isinstance(q, EnumQuery):
            values, saw_fuel = [], False
            for x in derive_enumerator(ctx, q.rel, q.mode).enum_st(
                q.fuel, tuple(q.ins)
            ):
                if x is OUT_OF_FUEL:
                    saw_fuel = True
                    continue
                values.append(x)
                if q.max_values is not None and len(values) >= q.max_values:
                    break
            if saw_fuel and not values:
                return ("gave_up", values)
            return ("ok", values)
        res = derive_generator(ctx, q.rel, q.mode).gen_st(
            q.fuel, tuple(q.ins), random.Random(q.seed)
        )
        return ("ok", res) if isinstance(res, tuple) else ("gave_up", None)

    if q.max_ops is None:
        return run()
    with budget_scope(ctx, max_ops=q.max_ops) as bud:
        status, value = run()
    if bud.exhausted is not None:
        status = "gave_up"
    return status, value


def _differential_queries(rels):
    qs = []
    for a in range(5):
        for b in range(5):
            qs.append(CheckQuery("le", (nat(a), nat(b)), fuel=3 + a))
    qs += [
        CheckQuery(rel, (nat(n),), fuel=12) for rel in rels for n in range(7)
    ]
    for n in range(4):
        qs.append(EnumQuery("le", "oi", (nat(n),), fuel=2 + n))
        qs.append(GenQuery("le", "oi", (nat(n + 2),), fuel=6, seed=n))
    qs.append(EnumQuery("ev", "o", (), fuel=6, max_values=4))
    qs.append(GenQuery("ev", "o", (), fuel=6, seed=11))
    # Per-query budgets: some trip, some are ample.
    qs += [
        CheckQuery("le", (nat(20), nat(30)), fuel=64, max_ops=ops)
        for ops in (5, 50, 100_000)
    ]
    qs += [
        EnumQuery("le", "oi", (nat(30),), fuel=40, max_ops=ops)
        for ops in (40, 100_000)
    ]
    qs.append(GenQuery("le", "oi", (nat(6),), fuel=8, seed=3, max_ops=100_000))
    return qs


def _differential_ctx(variant):
    from repro.core import parse_declarations
    from repro.stdlib import standard_context

    from ..conftest import NAT_RELATIONS

    ctx = standard_context()
    parse_declarations(ctx, NAT_RELATIONS)
    rels = ["ev"]
    if variant == "spec_off":
        from repro.derive.specialize import disable_specialization

        disable_specialization(ctx)
    elif variant == "handwritten":
        from repro.derive.instances import register_checker
        from repro.producers.option_bool import SOME_FALSE, SOME_TRUE

        def ev(fuel, args):
            return SOME_TRUE if unnat(args[0]) % 2 == 0 else SOME_FALSE

        register_checker(ctx, "ev", ev)
    elif variant == "mutual":
        from repro.derive.mutual import derive_mutual_checkers

        parse_declarations(ctx, EVEN_ODD)
        derive_mutual_checkers(ctx, ["even", "odd"])
        rels = ["ev", "even", "odd"]
    return ctx, rels


@pytest.mark.parametrize(
    "variant", ["default", "spec_off", "handwritten", "mutual"]
)
def test_engine_answers_equal_interpreter_answers(variant):
    ctx, rels = _differential_ctx(variant)
    queries = _differential_queries(rels)
    with Engine(ctx, workers=1, faults=_stall_first()) as eng:
        served = eng.run_batch(queries)
    assert any(r.batched for r in served)
    assert {r.status for r in served} == {"ok", "gave_up"}
    for q, r in zip(queries, served):
        status, value = _direct(ctx, q)
        assert r.status == status, q
        if isinstance(q, CheckQuery):
            assert r.value == value, q
        elif isinstance(q, EnumQuery):
            assert r.value == value, q
        elif status == "ok":
            assert r.value == value, q

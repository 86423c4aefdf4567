"""Smoke test of the benchmark suite: every workload at 1/50 of its
work, untraced and traced, through the command line.

Run with ``python -m pytest benchmarks/suite/test_suite.py`` (about a
minute and a half on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.suite.harness import ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Per-layer metrics that count work on a fixed sample: a seed must
#: reproduce them exactly.
EXACT = ("derive.instances", "plan.handlers", "codegen.fixpoints",
         "codegen.source_kb", "exec.calls_per_op", "exec.attempts_per_call",
         "exec.backtracks_per_call", "exec.indefinite_share")


def nesting_problems(spans: list[dict]) -> list[str]:
    """Spans that end before they start or escape their parent."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end_us"] < s["start_us"]:
            problems.append(f"span {s['id']} ({s['name']}) ends before it starts")
        p = by_id.get(s["parent"])
        if p is not None and (s["start_us"] < p["start_us"] or s["end_us"] > p["end_us"]):
            problems.append(f"span {s['id']} ({s['name']}) escapes its parent")
    return problems


def _run(out_dir, *extra) -> tuple[dict, list[dict]]:
    """One quick run of every workload; the final line and the run
    records it appended."""
    runs = out_dir / "runs.jsonl"
    before = len(runs.read_text().splitlines()) if runs.exists() else 0
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--seed", "7",
         "--quick", "--out", str(out_dir), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    records = [json.loads(line) for line in runs.read_text().splitlines()[before:]]
    return final, records


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    plain = _run(out)
    traced = [_run(out, "--trace"), _run(out, "--trace")]
    return out, plain, traced


def test_metric_names_and_units_match_the_spec(runs):
    _, (final, records), traced = runs
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [r["workload"] for r in records] == WORKLOADS
    for r in records:
        assert set(r["metrics"]) == set(e2e)
    for name, metric in final["metrics"].items():
        wl, _, m = name.partition(".")
        assert wl in WORKLOADS and metric["unit"] == e2e[m]
    for tfinal, trecords in traced:
        for r in trecords:
            assert set(r["metrics"]) == set(layer)
        for name, metric in tfinal["metrics"].items():
            assert metric["unit"] == layer[name.partition(".")[2]]


def test_every_answer_is_correct(runs):
    _, (final, records), traced = runs
    for r in records + [r for _, rs in traced for r in rs]:
        assert r["correct"], (r["workload"], r["problems"])
        assert r["failed"] == 0 and r["attempted"] > 0
    assert final["correct"] and final["failed"] == 0


def test_same_seed_same_counts(runs):
    _, _, [(_, first), (_, second)] = runs
    for a, b in zip(first, second):
        assert a["workload"] == b["workload"]
        for name in EXACT:
            assert a["metrics"][name] == b["metrics"][name], (a["workload"], name)


def test_trace_output_parses_and_nests(runs):
    out, _, traced = runs
    for r in traced[-1][1]:
        attribution = r["detail"]["attribution_s"]
        wall = r["detail"]["traced_wall_s"]
        # Every layer's self time is non-negative, and together they
        # account for the traced wall time.
        assert all(s >= -0.01 * wall for s in attribution.values()), (r["workload"], attribution)
        assert abs(sum(attribution.values()) - wall) <= 0.05 * wall
        stem = out / f"{r['workload']}-s7"
        with open(stem.with_suffix(".chrome.json")) as fh:
            assert json.load(fh)["traceEvents"]
        rows = [json.loads(line) for line in
                stem.with_suffix(".spans.jsonl").read_text().splitlines()]
        assert rows
        assert nesting_problems(rows) == []
        covered: dict = {}
        for s in rows:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end_us"] - s["start_us"]
        for s in rows:
            self_us = s["end_us"] - s["start_us"] - covered.get(s["id"], 0.0)
            assert self_us >= -1e-3, s


def test_compare_applies_bounds_and_the_claim_rule(tmp_path):
    from benchmarks.suite.compare import compare

    def records(path, ops, base_side):
        # Pair i runs base first for even i, the change first for odd i.
        with open(path, "w") as fh:
            for i, o in enumerate(ops):
                metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
                metrics["ops_per_s"] = o
                first = (i % 2 == 0) == base_side
                fh.write(json.dumps({
                    "workload": "serve_batch", "seed": i, "trace": 0,
                    "started": 2 * i + (0 if first else 1), "correct": True,
                    "failed": 0, "metrics": metrics,
                }) + "\n")

    ten = range(10)
    records(tmp_path / "base.jsonl", [100 + i % 2 for i in ten], True)
    records(tmp_path / "slower.jsonl", [80 + i % 2 for i in ten], False)
    records(tmp_path / "faster.jsonl", [120 + i % 2 for i in ten], False)
    base = tmp_path / "base.jsonl"
    assert compare(base, tmp_path / "slower.jsonl") == 1
    assert compare(base, tmp_path / "faster.jsonl") == 0
    assert compare(base, tmp_path / "faster.jsonl", "ops_per_s@serve_batch") == 0
    assert compare(base, base, "ops_per_s@serve_batch") == 1

"""``python -m benchmarks.suite compare BASE NEW [--claim METRIC@WORKLOAD]``

Reads untraced run records (JSON Lines files, or directories of them)
for a base and a new version of the code, and judges the new one:

* the named claim, by the rule for claiming a gain: at least ten pairs
  of runs on the same seed, alternating which side ran first; the new
  side wins at least nine in ten of them (ties count for neither); and
  the medians differ, in the claimed direction, by more than the
  distance between the base runs' quartiles;
* every other end-to-end metric on every workload, by its bound in
  ``BENCHMARK.json``: a median worse by more than the bound is a
  regression — unless either side's spread (quartile distance over
  median) is wider than the bound, which makes it unresolved, or every
  new run is better than every base run.

One row per workload; the exit status is 1 on a regression, a failed
claim, or a new run with failed operations.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .harness import load_spec, spread


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            runs += [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if r.get("trace") == 0]


def _better(direction: str, a: float, b: float) -> bool:
    """Whether *a* is strictly better than *b*."""
    return a > b if direction == "higher" else a < b


def judge_claim(metric: dict, base_runs: list, new_runs: list) -> tuple[bool, str]:
    """Whether the new runs show the claimed gain on *metric*, and why."""
    name, direction = metric["name"], metric["better"]
    by_seed: dict = {}
    for r in base_runs:
        by_seed.setdefault(r["seed"], ([], []))[0].append(r)
    for r in new_runs:
        by_seed.setdefault(r["seed"], ([], []))[1].append(r)
    pairs = [p for b, n in by_seed.values() for p in zip(b, n)]
    if not pairs:
        return False, "no pairs on a common seed"
    wins = sum(_better(direction, n["metrics"][name], b["metrics"][name])
               for b, n in pairs)
    base_first = sum(b["started"] < n["started"] for b, n in pairs)
    alternating = abs(2 * base_first - len(pairs)) <= 1
    base_vals = [b["metrics"][name] for b, _ in pairs]
    new_vals = [n["metrics"][name] for _, n in pairs]
    b_med, n_med = statistics.median(base_vals), statistics.median(new_vals)
    q1, _, q3 = statistics.quantiles(base_vals, n=4) if len(base_vals) > 1 else (0, 0, 0)
    gap_ok = _better(direction, n_med, b_med) and abs(n_med - b_med) > q3 - q1
    met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap_ok
           and alternating)
    why = (f"{len(pairs)} pairs ({base_first} base-first), new wins {wins}; "
           f"median {b_med:.6g} -> {n_med:.6g}, base IQR {q3 - q1:.3g}")
    return met, why


def judge(metric: dict, base_vals: list, new_vals: list) -> tuple[str, float]:
    """A verdict on one metric, and the change of its median as a
    share of the base median."""
    direction, bound = metric["better"], metric["bound"]
    b_med, n_med = statistics.median(base_vals), statistics.median(new_vals)
    change = (n_med - b_med) / b_med
    worse = -change if direction == "higher" else change
    all_better = all(_better(direction, n, b) for n in new_vals for b in base_vals)
    if max(spread(base_vals), spread(new_vals)) > bound:
        return ("better" if all_better else "unresolved"), change
    if worse > bound:
        return "REGRESSION", change
    return "ok", change


def compare(base: Path, new: Path, claim: "str | None" = None) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base_runs, new_runs = load_runs(base), load_runs(new)
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    claim_metric = claim_workload = None
    if claim is not None:
        claim_metric, _, claim_workload = claim.partition("@")
        if claim_metric not in metrics or claim_workload not in workloads:
            raise SystemExit(f"--claim {claim!r}: expected METRIC@WORKLOAD with "
                             f"METRIC in {sorted(metrics)}, WORKLOAD in {workloads}")
    for wl in workloads:
        b = [r for r in base_runs if r["workload"] == wl]
        n = [r for r in new_runs if r["workload"] == wl]
        if not b or not n:
            continue
        cells = []
        for name, m in metrics.items():
            if name == claim_metric and wl == claim_workload:
                met, why = judge_claim(m, b, n)
                cells.append(f"{name} CLAIM {'met' if met else 'NOT MET'} ({why})")
                status |= not met
                claim = None
                continue
            verdict, change = judge(m, [r["metrics"][name] for r in b],
                                    [r["metrics"][name] for r in n])
            cells.append(f"{name} {change:+.1%} {verdict}")
            status |= verdict == "REGRESSION"
        failed = sum(r["failed"] for r in n)
        if failed or not all(r["correct"] for r in n):
            cells.append(f"FAILED OPERATIONS {failed}")
            status = 1
        print(f"{wl:13s} {len(b)} base / {len(n)} new runs: " + "; ".join(cells))
    if claim is not None:
        print(f"claim {claim}: no runs of {claim_workload} on both sides")
        return 1
    return status

"""Command line of the benchmark suite.

Run every workload, or one, each in its own child interpreter::

    python -m benchmarks.suite run --seed 1
    python -m benchmarks.suite run --seed 1 --workload serve_batch --trace
    python -m benchmarks.suite run --seed 1 --quick

and judge a change against a base::

    python -m benchmarks.suite compare BASE.jsonl NEW.jsonl --claim ops_per_s@fig3_gen

``run`` prints every metric by name with its unit, appends one JSON
record per workload to ``<out>/runs.jsonl`` (traced runs also write
their spans there), and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or
with ``--trace`` the per-layer ones (named ``<workload>.<metric>`` when
several workloads ran).  It exits non-zero, printing no result, when a
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from .harness import ROOT, load_spec

#: A workload run that has not finished by then is stopped.
CHILD_TIMEOUT_S = 170
#: ``--quick`` runs this share of the work.
QUICK_SHARE = 1 / 50


def _child(workload: str, args, seconds: float, spans_dir: Path) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.suite.child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spans-dir", str(spans_dir)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _print_record(record: dict, units: dict) -> None:
    wl, detail = record["workload"], record["detail"]
    kind = "per-layer" if record["trace"] else "end-to-end"
    print(f"== {wl} (seed {record['seed']}, {record['seconds']:g} s, {kind}): "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"   ! {problem}")
    for name, value in record["metrics"].items():
        print(f"   {name:28s} {value:14.6g} {units[name]}")
    if record["trace"]:
        wall = detail["traced_wall_s"]
        print(f"   self time by layer over {wall:.3f} s traced "
              f"({detail['untraced_wall_s']:.3f} s untraced):")
        for layer, s in detail["attribution_s"].items():
            print(f"     {layer:22s} {s:9.4f} s {s / wall:7.1%}")
    else:
        lat = detail.get("latency")
        if lat:
            print(f"   latency per {detail['op']} (n={lat['n']}): "
                  f"p50 {lat['p50_us']:.1f} us, p99 {lat['p99_us']:.1f} us, "
                  f"p99.9 {lat['p999_us']:.1f} us (tail quotable to {lat['quotable_tail']})")
        for kind, lat in detail.get("latency_by_kind", {}).items():
            print(f"     {kind:5s} (n={lat['n']}): p50 {lat['p50_us']:.1f} us, "
                  f"p99 {lat['p99_us']:.1f} us")
    serve = {k: v for k, v in detail.items() if k.startswith("serve.")}
    if serve:
        print("   serving, as measured: "
              + ", ".join(f"{k} {v:.3g}" for k, v in serve.items()))
    for case, row in detail.get("cases", {}).items():
        cells = []
        for k, v in row.items():
            if isinstance(v, dict):  # a latency summary
                cells.append(f"p50 {v['p50_us']:.1f} us p99 {v['p99_us']:.1f} us (n={v['n']})")
            else:
                cells.append(f"{k} {v:.4g}")
        print(f"   {case:5s} " + ", ".join(cells))


def cmd_run(args) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"benchmark: unknown workload(s) {unknown}; one of {names}", file=sys.stderr)
        return 2
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.quick:
        seconds *= QUICK_SHARE
    args.out.mkdir(parents=True, exist_ok=True)

    records = []
    for wl in workloads:
        try:
            record = _child(wl, args, seconds, args.out)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"benchmark: {e}", file=sys.stderr)
            return 1
        if set(record["metrics"]) != set(units):
            print(f"benchmark: {wl} reported {sorted(record['metrics'])}, "
                  f"expected {sorted(units)}", file=sys.stderr)
            return 1
        _print_record(record, units)
        with open(args.out / "runs.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        records.append(record)

    def metric(name: str, value: float) -> dict:
        return {"value": value, "unit": units[name]}

    if len(records) == 1:
        metrics = {k: metric(k, v) for k, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": metric(k, v)
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append",
                     help="run only this workload (repeatable)")
    run.add_argument("--seconds", type=float,
                     help="measured time per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="report the per-layer metrics from a traced run")
    run.add_argument("--quick", action="store_true",
                     help=f"run {QUICK_SHARE:.0%} of the work (a smoke test)")
    run.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "suite" / "results",
                     help="where to append runs.jsonl and write spans")
    cmp = sub.add_parser("compare", help="judge NEW runs against BASE runs")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("new", type=Path)
    cmp.add_argument("--claim", metavar="METRIC@WORKLOAD",
                     help="the gain the change claims")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    from .compare import compare

    return compare(args.base, args.new, args.claim)


if __name__ == "__main__":
    sys.exit(main())

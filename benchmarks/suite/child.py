"""Run one workload in this interpreter and print its run record, as
JSON, on the last line of standard output.

The command line (``python -m benchmarks.suite run``) starts one of
these per workload so that the heap, the GC generations and the peak
RSS belong to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path


def make_workload(name: str, seed: int, quick: bool):
    from .derivation import DeriveCold
    from .fig3 import Fig3
    from .serving import Serve

    factories = {
        "fig3_check": lambda: Fig3("check", seed, quick),
        "fig3_gen": lambda: Fig3("gen", seed, quick),
        "serve_batch": lambda: Serve("batch", seed, quick),
        "serve_serial": lambda: Serve("serial", seed, quick),
        "derive_cold": lambda: DeriveCold(seed, quick),
    }
    if name not in factories:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(factories)}")
    return factories[name]()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans-dir", type=Path)
    args = parser.parse_args(argv)

    from .workload import run

    started = time.time()
    w = make_workload(args.workload, args.seed, args.quick)
    out = run(w, args.seconds, bool(args.trace))
    if out.tracer is not None and args.spans_dir is not None:
        args.spans_dir.mkdir(parents=True, exist_ok=True)
        stem = args.spans_dir / f"{args.workload}-s{args.seed}"
        out.tracer.write(stem.with_suffix(".spans.jsonl"),
                         stem.with_suffix(".chrome.json"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "started": started,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} x{os.cpu_count()}",
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "metrics": out.metrics,
        "detail": out.detail,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

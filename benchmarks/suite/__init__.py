"""The layered benchmark suite.

One command runs the paper's Figure-3 loops, the serving engine and a
cold derivation pipeline, each workload in its own child interpreter,
checks every answer against an independent reference, and prints every
end-to-end metric by name with its unit::

    python -m benchmarks.suite run --seed 1
    python -m benchmarks.suite run --seed 1 --workload fig3_gen --trace
    python -m benchmarks.suite compare BASE.jsonl NEW.jsonl

``BENCHMARK.json`` at the repository root names the workloads and the
metrics (units, directions, regression bounds); ``README.md`` next to
this file explains what each workload and metric is for.
"""

"""Figure 3 (right): generator throughput, handwritten vs derived.

The dual experiment: the *same* handcrafted checker judges the
property; inputs come once from the handcrafted generator and once
from the derived one (compiled backend).  The paper reports 1–3.5%
slowdown (−1.21% BST, −1.74% STLC); derived generators backtrack
locally, so they are expected to lose slightly more than derived
checkers do.

The side-by-side rows time the two generators alternately in one
process (:func:`benchmarks.pairs.ab_pairs`) on the ``fig3_gen``
workload's own chunks: the same ``quick_check`` chunk seeds, chunk
sizes and property settings as ``python -m benchmarks.suite``.  Each
case's ``derived_over_hand`` is the median per-pair ratio of the
handwritten side's time to the derived side's, i.e. derived tests/s
as a share of handwritten tests/s.  Run standalone to write
``BENCH_fig3_generators.json``::

    PYTHONPATH=src python benchmarks/bench_fig3_generators.py

or under pytest, which asserts the parity bar in full mode::

    PYTHONPATH=src python -m pytest benchmarks/bench_fig3_generators.py -s
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.benchjson import record
from benchmarks.conftest import run_property
from benchmarks.pairs import PAIRS, QUICK, Pairs, ab_pairs
from benchmarks.suite.fig3 import CASES, chunk_seed, run_chunk
from repro.derive import Mode
from repro.derive.instances import GEN, resolve_compiled
from repro.quickchick import for_all

#: ROADMAP item 2's bar: derived tests/s at least this share of the
#: handwritten generator's, timed side by side.
PARITY = 0.8
#: The cases that meet the bar today; full mode asserts it for them.
AT_PARITY = ("bst",)
#: The suite's run seed, as CI runs it; chunks per side per timed run.
SEED = 1
CHUNKS = 1 if QUICK else 4

TESTS = {"BST": 300, "STLC": 100, "IFC": 300}

_RESULTS: dict[tuple[str, str], float] = {}


def _run(benchmark, cell, gen_fn, label):
    gen, predicate = cell.workload.property_fn(
        gen_fn, cell.hand_check, cell.correct_impl
    )
    num = TESTS[cell.name]
    benchmark.extra_info["case"] = cell.name
    benchmark.extra_info["generator"] = label
    result = benchmark(run_property, gen, predicate, num, 13)
    assert result == num
    if benchmark.stats is None:
        return  # --benchmark-disable smoke mode: one plain run, no stats
    stats = benchmark.stats.stats
    throughput = num / stats.mean
    _RESULTS[(cell.name, label)] = throughput
    record("fig3_generators", f"{cell.name}.{label}_tests_per_s", throughput)
    print(f"\n[Fig3-right] {cell.name:5s} generator={label:12s} "
          f"{throughput:12,.0f} tests/s")
    hand = _RESULTS.get((cell.name, "handwritten"))
    derived = _RESULTS.get((cell.name, "derived"))
    if hand and derived:
        delta = (derived - hand) / hand * 100
        record("fig3_generators", f"{cell.name}.delta_pct", delta)
        print(f"[Fig3-right] {cell.name:5s} derived vs handwritten: {delta:+.1f}%")


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_bst_generator_throughput(benchmark, bst_cell, label):
    gen_fn = bst_cell.hand_gen if label == "handwritten" else bst_cell.derived_gen
    _run(benchmark, bst_cell, gen_fn, label)


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_stlc_generator_throughput(benchmark, stlc_cell, label):
    gen_fn = stlc_cell.hand_gen if label == "handwritten" else stlc_cell.derived_gen
    _run(benchmark, stlc_cell, gen_fn, label)


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_ifc_generator_throughput(benchmark, ifc_cell, label):
    gen_fn = ifc_cell.hand_gen if label == "handwritten" else ifc_cell.derived_gen
    _run(benchmark, ifc_cell, gen_fn, label)


# -- side by side, on the suite's chunks ----------------------------------------


def side_by_side(ci: int) -> Pairs:
    """Alternating pairs for ``CASES[ci]``: side A runs the derived
    generator, side B the handwritten one, over the same chunk seeds,
    so ``ratio`` is derived tests/s over handwritten tests/s."""
    case = CASES[ci]
    mod = importlib.import_module(f"repro.casestudies.{case.module}")
    ctx = mod.make_context()
    workload = getattr(mod, case.workload)(ctx)
    derived = resolve_compiled(ctx, GEN, case.rel, Mode.from_string(case.gen_mode))
    tests = max(1, case.gen_chunk // (10 if QUICK else 1))
    seeds = [chunk_seed(SEED, ci, k) for k in range(CHUNKS)]

    def chunks(gen_fn):
        gen, pred = workload.property_fn(
            gen_fn, getattr(mod, case.hand_check), getattr(mod, case.impl),
            **dict(case.gen_kwargs),
        )
        prop = for_all(gen, pred, name=f"fig3_gen_{case.name}")

        def run():
            for seed in seeds:
                run_chunk(prop, seed, tests, None)
        return run

    return ab_pairs(chunks(derived), chunks(getattr(mod, case.hand_gen)))


def record_side_by_side(ci: int) -> Pairs:
    name = CASES[ci].name
    pairs = side_by_side(ci)
    record("fig3_generators", f"{name}.derived_over_hand", pairs.ratio)
    record("fig3_generators", f"{name}.derived_s", pairs.a)
    record("fig3_generators", f"{name}.hand_s", pairs.b)
    verdict = "meets" if pairs.ratio >= PARITY else "below"
    print(f"\n[Fig3-right] {pairs.row(f'{name} side by side', 'derived', 'hand')}"
          f"   {verdict} the {PARITY}x bar")
    return pairs


@pytest.mark.parametrize("ci", range(len(CASES)), ids=[c.name for c in CASES])
def test_side_by_side(ci):
    pairs = record_side_by_side(ci)
    assert pairs.ratio > 0
    name = CASES[ci].name
    if not QUICK and name in AT_PARITY:
        assert pairs.ratio >= PARITY, (
            f"{name}: derived generator at {pairs.ratio:.2f}x handwritten "
            f"(bar {PARITY}x, median of {PAIRS} pairs)"
        )


if __name__ == "__main__":
    from benchmarks.benchjson import emit

    for ci in range(len(CASES)):
        record_side_by_side(ci)
    emit("fig3_generators")

"""Specialization and functionalization benchmark: the two passes'
in-tree A/B bars, plus the Figure 3 checker deltas.

Each bar runs the live code generator with a pass on and off (fresh
contexts, identical schedules and input pools) under the alternating-
pairs rule of :mod:`benchmarks.pairs`, and judges the median per-pair
ratio:

* **specialization on vs off** on the BST nat-heavy checker workload;
  acceptance bar **>= 2x** (``lt`` premises collapse from Peano walks
  to int arithmetic).
* **functionalization on vs off** on the STLC typing checker, where the
  TApp premise collapses from enumerate-then-check to direct type
  inference; acceptance bar **>= 1.5x**.
* **Figure 3 deltas** — derived vs handwritten checker throughput per
  case study (BST / STLC / IFC), printed for the EXPERIMENTS.md
  table; reported, not barred (the residual gaps are analyzed there).

That a switched-off pass costs nothing is checked exactly, not timed:
with specialization off no twin is compiled
(``tests/derive/test_specialize.py::TestSpecializationFlag``), and
with functionalization off nothing is spliced and no eval twin exists
(``tests/derive/test_backend_diff.py::TestSplicing``,
``tests/derive/test_codegen.py::TestEvalTwin``).

Run standalone (prints the table)::

    PYTHONPATH=src python benchmarks/bench_specialize.py

or under pytest (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_specialize.py -s

``REPRO_BENCH_QUICK=1`` shrinks the workloads and relaxes the bars to
sanity checks — the CI smoke mode (shared runners make tight timing
bars flaky).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.pairs import QUICK, ab_pairs, bst_workload, stlc_workload
from repro.casestudies import bst, ifc, stlc
from repro.derive import Mode, disable_functionalization
from repro.derive.instances import CHECKER, resolve_compiled
from repro.derive.specialize import disable_specialization

FIG3_TESTS = 40 if QUICK else 300

# Quick mode is a smoke test: workloads still run end to end and must
# agree, but shared CI runners are too noisy for the real bars.
SPEC_BAR = 1.0 if QUICK else 2.0
FUNC_BAR = 1.0 if QUICK else 1.5


def _pass_on_off(wl, disable):
    """The workload's compiled checker with a pass on (side A) and off
    (side B, *disable* applied to a fresh context); returns the pairs
    and the on-side checker.  Answers must agree exactly: at these
    fuels every input is decided definitely on both sides, so the
    passes' refinement contract is equivalence here."""
    ctx_off = wl.make_ctx()
    disable(ctx_off)
    on, off = wl.checker(wl.make_ctx()), wl.checker(ctx_off)
    assert wl.answers(on) == wl.answers(off)
    return ab_pairs(lambda: wl.loop(on), lambda: wl.loop(off)), on


def bench_spec_on_off():
    pairs, on = _pass_on_off(bst_workload(), disable_specialization)
    assert on.__spec_reprs__  # the pass genuinely fired
    return pairs


def bench_func_on_off():
    pairs, on = _pass_on_off(stlc_workload(), disable_functionalization)
    assert "_p1_" in on.__spec_fast_source__  # a premise was spliced
    return pairs


def bench_fig3_deltas():
    """Derived vs handwritten checker throughput per case study —
    the numbers behind the EXPERIMENTS.md before/after table, as
    ``{case: (pairs, delta_percent)}`` with handwritten as side A."""
    from benchmarks.conftest import run_property

    cases = [
        ("BST", bst, "bst", "handwritten_bst_gen",
         "handwritten_bst_check", "insert", "BstWorkload"),
        ("STLC", stlc, "typing", "handwritten_typing_gen",
         "handwritten_typing_check", "subst", "StlcWorkload"),
        ("IFC", ifc, "indist_list", "handwritten_indist_gen",
         "handwritten_indist_check", "CORRECT_STEP", "IfcWorkload"),
    ]
    deltas = {}
    for name, mod, rel, gen_name, hand_name, impl_name, wname in cases:
        ctx = mod.make_context()
        w = getattr(mod, wname)(ctx)
        mode = Mode.checker(ctx.relations.get(rel).arity)
        derived = resolve_compiled(ctx, CHECKER, rel, mode)
        gd, pd = w.property_fn(
            getattr(mod, gen_name), derived, getattr(mod, impl_name)
        )
        gh, ph = w.property_fn(
            getattr(mod, gen_name), getattr(mod, hand_name),
            getattr(mod, impl_name),
        )
        pairs = ab_pairs(
            lambda: run_property(gh, ph, FIG3_TESTS, 11),
            lambda: run_property(gd, pd, FIG3_TESTS, 11),
        )
        deltas[name] = (pairs, (1 / pairs.ratio - 1) * 100)
    return deltas


# -- reporting / acceptance --------------------------------------------------


def run_all(verbose: bool = True):
    results = {}
    for label, bench in (
        ("spec BST bst (off/on)", bench_spec_on_off),
        ("func STLC typing (off/on)", bench_func_on_off),
    ):
        pairs = bench()
        results[label] = pairs.ratio
        if verbose:
            print(f"[bench_specialize] {pairs.row(label, 'on', 'off')}")
    for case, (pairs, delta) in bench_fig3_deltas().items():
        results[f"fig3 {case}"] = delta
        if verbose:
            print(
                f"[bench_specialize] "
                f"{pairs.row(f'Fig3 {case}', 'hand', 'derived')}"
                f"   derived vs handwritten {delta:+.1f}%"
            )
    return results


# -- pytest entry points -----------------------------------------------------


def test_specialization_speedup_bst():
    pairs = bench_spec_on_off()
    print(f"\n[bench_specialize] {pairs.row('spec BST', 'on', 'off')}")
    assert pairs.ratio >= SPEC_BAR, (
        f"specialization speedup only {pairs.ratio:.2f}x (bar {SPEC_BAR}x)"
    )


def test_functionalization_speedup_stlc():
    pairs = bench_func_on_off()
    print(f"\n[bench_specialize] {pairs.row('func STLC', 'on', 'off')}")
    assert pairs.ratio >= FUNC_BAR, (
        f"functionalization speedup only {pairs.ratio:.2f}x on the "
        f"STLC typing checker (bar {FUNC_BAR}x)"
    )


def test_fig3_deltas_report():
    deltas = bench_fig3_deltas()
    for case, (pairs, delta) in deltas.items():
        print(
            f"[bench_specialize] {pairs.row(f'Fig3 {case}', 'hand', 'derived')}"
            f"   delta {delta:+.1f}%"
        )
    # Identical-verdict property is asserted inside run_property (a
    # failing derived verdict raises); here we only require the rates
    # to be finite and the BST gap to stay far from the pre-pass
    # -50% regime even on noisy runners.
    assert all(d == d for _, d in deltas.values())
    if not QUICK:
        assert deltas["BST"][1] > -35.0, (
            f"BST derived-vs-handwritten delta {deltas['BST'][1]:+.1f}% "
            "regressed toward the pre-specialization -50% regime"
        )


if __name__ == "__main__":
    from benchmarks.benchjson import emit

    emit("specialize", run_all())

"""Observability benchmark: the cost of observation, and backend
identity under it.

* **observation-on cost** — reported, not barred: the compiled
  Figure 3 BST and STLC checkers with observation off vs on, timed
  under the alternating-pairs rule of :mod:`benchmarks.pairs`.  Off,
  the entry wrappers run the fast twins; on, the instrumented twins,
  which allocate one span per fixpoint level.  The ratio is the price
  of a full call tree, not a regression.
* **backend identity** — with observation on, the interpreted and
  compiled backends must produce identical timing-stripped span trees
  and identical rule coverage on the same workload (the trace
  contract, extended to spans).  The generator's identity through
  choosers is ``tests/observe/test_session.py::TestBackendIdentity``.

That observation costs nothing when off is checked exactly, not
timed: with no hook installed the entry wrappers select the fast
twins, which spell no hook site
(``tests/derive/test_codegen.py::TestFastTwinsCarryNoHooks``).

Run standalone (prints the table)::

    PYTHONPATH=src python benchmarks/bench_observe.py

or under pytest (asserts the identities)::

    PYTHONPATH=src python -m pytest benchmarks/bench_observe.py -s

``REPRO_BENCH_QUICK=1`` shrinks the workloads (identity assertions
stay exact — they are not timing-sensitive).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.pairs import ab_pairs, bst_workload, stlc_workload
from repro.derive import Mode
from repro.derive.instances import CHECKER, resolve
from repro.observe import observe


def bench_on_cost(wl):
    """The compiled checker with observation off (A) vs on (B).  Each
    observed run opens its own observation, so spans do not pile up
    across pairs."""
    ctx = wl.make_ctx()
    check = wl.checker(ctx)

    def observed():
        with observe(ctx):
            wl.loop(check)

    return ab_pairs(lambda: wl.loop(check), observed)


def spans_and_coverage(wl, ctx, check, n_inputs: int = 10):
    """Run *check* over a pool prefix under observation; return the
    timing-stripped span identities and the coverage table."""
    with observe(ctx) as obs:
        for args in wl.args_pool[:n_inputs]:
            check(wl.fuel, args)
    return obs.spans.identities(), obs.coverage().table


def backend_identity(wl, n_inputs: int = 10):
    """Interp vs compiled: identical span trees and coverage."""
    ctx = wl.make_ctx()
    compiled = wl.checker(ctx)
    arity = ctx.relations.get(wl.rel).arity
    interp = resolve(ctx, CHECKER, wl.rel, Mode.checker(arity)).fn
    return (
        spans_and_coverage(wl, ctx, interp, n_inputs),
        spans_and_coverage(wl, ctx, compiled, n_inputs),
    )


# -- pytest entry points -----------------------------------------------------


def test_spans_and_coverage_backend_identical_bst():
    (ids_i, cov_i), (ids_c, cov_c) = backend_identity(bst_workload())
    assert ids_i, "no spans recorded"
    assert ids_i == ids_c
    assert cov_i == cov_c


def test_spans_and_coverage_backend_identical_stlc():
    (ids_i, cov_i), (ids_c, cov_c) = backend_identity(stlc_workload())
    assert ids_i, "no spans recorded"
    assert ids_i == ids_c
    assert cov_i == cov_c


# -- standalone --------------------------------------------------------------


if __name__ == "__main__":
    from benchmarks.benchjson import emit, record

    for wl_fn in (bst_workload, stlc_workload):
        wl = wl_fn()
        pairs = bench_on_cost(wl)
        record("observe", f"on_cost_ratio.{wl.name}", pairs.ratio)
        print(
            f"[bench_observe] {pairs.row(f'on-cost {wl.name}', 'off', 'on')}"
            "   (reported only)"
        )
    ok = True
    for wl_fn in (bst_workload, stlc_workload):
        wl = wl_fn()
        (ids_i, cov_i), (ids_c, cov_c) = backend_identity(wl)
        same = bool(ids_i) and ids_i == ids_c and cov_i == cov_c
        record("observe", f"identity.{wl.name}", same)
        print(
            f"[bench_observe] identity {wl.name:12s}"
            f" {len(ids_i)} spans   interp==compiled: {same}"
        )
        ok = ok and same
    emit("observe")
    raise SystemExit(0 if ok else 1)

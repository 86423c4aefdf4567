"""Resource-governance benchmark: what an installed budget costs, and
how fast a deadline trip unwinds.

* **budget-on cost** — reported, not barred: the compiled STLC typing
  checker with no budget vs an installed unlimited budget, timed under
  the alternating-pairs rule of :mod:`benchmarks.pairs`.  With a
  budget installed the entry wrappers select the instrumented twins,
  which pay one counter increment and compare per charge site — the
  price of cooperative cancellation, not a regression.
* **trip latency** — reported and loosely barred: how fast a deadline
  trip unwinds a deliberately exponential search through the compiled
  enumerator (the cancellation-responsiveness story; a trip must cost
  milliseconds, not the search's natural runtime).

That budgets cost nothing when none is installed is checked exactly,
not timed: with no hook installed the entry wrappers select the fast
twins, which spell no charge site
(``tests/derive/test_codegen.py::TestFastTwinsCarryNoHooks``).

Run standalone (prints the table)::

    PYTHONPATH=src python benchmarks/bench_resilience.py

or under pytest (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -s

``REPRO_BENCH_QUICK=1`` shrinks the workloads.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.pairs import ab_pairs, stlc_workload
from repro.core import parse_declarations
from repro.derive import Mode
from repro.derive.instances import ENUM, resolve_compiled
from repro.resilience import Budget, budget_scope, install_budget, remove_budget
from repro.stdlib import standard_context

LE_DECL = """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).
"""


def bench_budget_on_cost(wl):
    """The compiled checker with no budget (A) vs an installed
    unlimited budget (B)."""
    ctx = wl.make_ctx()
    check = wl.checker(ctx)

    def budgeted():
        install_budget(ctx, Budget())
        try:
            wl.loop(check)
        finally:
            remove_budget(ctx)

    return ab_pairs(lambda: wl.loop(check), budgeted)


def bench_trip_latency():
    """Wall-clock to cut off a search that would otherwise run far
    past the deadline: draining ``le[oo]`` at fuel 600 is exponential
    work; the deadline truncates the stream in milliseconds."""
    ctx = standard_context()
    parse_declarations(ctx, LE_DECL)
    enum = resolve_compiled(ctx, ENUM, "le", Mode.from_string("oo"))
    deadline = 0.02
    with budget_scope(ctx, deadline_seconds=deadline, check_every=64) as bud:
        start = time.perf_counter()
        for _pair in enum(600, ()):
            pass
        elapsed = time.perf_counter() - start
    return deadline, elapsed, bud.exhausted


# -- reporting / acceptance --------------------------------------------------


def run_all(verbose: bool = True):
    pairs = bench_budget_on_cost(stlc_workload())
    deadline, elapsed, exhausted = bench_trip_latency()
    if verbose:
        print(
            f"[bench_resilience] "
            f"{pairs.row('budget-on cost STLC typing', 'off', 'on')}"
            "   (reported only)"
        )
        print(
            f"[bench_resilience] trip latency: deadline {deadline * 1e3:.0f} ms"
            f"   unwound in {elapsed * 1e3:.1f} ms"
            f"   ({exhausted.limit if exhausted else 'no trip!'})"
        )
    return pairs, deadline, elapsed, exhausted


def _trip_ok(deadline, elapsed, exhausted) -> bool:
    # Generous absolute bound: the point is "milliseconds, not the
    # search's natural runtime", not a tight timing bar.
    return (
        exhausted is not None
        and exhausted.limit == "deadline"
        and elapsed < deadline + 1.0
    )


# -- pytest entry points -----------------------------------------------------


def test_trip_unwinds_promptly():
    assert _trip_ok(*bench_trip_latency())


if __name__ == "__main__":
    from benchmarks.benchjson import emit

    pairs, deadline, elapsed, exhausted = run_all()
    ok = _trip_ok(deadline, elapsed, exhausted)
    emit("resilience", {
        "budget_on_cost": {"off_s": pairs.a, "on_s": pairs.b,
                           "ratio": pairs.ratio},
        "trip_deadline_s": deadline,
        "trip_elapsed_s": elapsed,
        "trip_ok": ok,
    })
    sys.exit(0 if ok else 1)

"""Memoization layer benchmark: repeated-query and decide() workloads.

Measures the derive hot path with and without the monotonicity-aware
memo layer (``repro.derive.memo``) on the BST and STLC case studies:

* **repeated-query** — a fixed pool of inputs checked over many
  rounds, the shape of mutation testing (`bench_mutation.py` re-checks
  the same inputs once per mutant) and of shrinking loops;
* **decide() fuel-doubling** — repeated semi-decisions, where the memo
  collapses the doubling loop to a table lookup after the first call.

Run standalone (prints a table plus the DeriveStats report)::

    PYTHONPATH=src python benchmarks/bench_memo.py

or under pytest (asserts the >= 2x speedup acceptance bar)::

    PYTHONPATH=src python -m pytest benchmarks/bench_memo.py -s
"""

from __future__ import annotations

import random
import time

from repro.casestudies import bst, stlc
from repro.core.values import V, from_int, from_list
from repro.derive import derive_checker, derive_stats, enable_memoization

# The workload is sized so the memo layer's table management
# amortizes; REPRO_BENCH_QUICK deliberately does NOT shrink it (tiny
# pools make the memoized run slower, not faster, and the full run is
# already seconds).
ROUNDS = 12
POOL = 40


def _bst_pool(seed: int = 11):
    rng = random.Random(seed)
    lo, hi = from_int(0), from_int(16)
    pool = []
    while len(pool) < POOL:
        out = bst.handwritten_bst_gen(8, (lo, hi), rng)
        if isinstance(out, tuple):
            pool.append(out[0])
            pool.append(bst.insert_swapped(rng.randrange(1, 16), out[0]))
    return lo, hi, pool[:POOL]


def _stlc_pool(seed: int = 12):
    rng = random.Random(seed)

    def go(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return (
                V("Con", from_int(rng.randrange(0, 3)))
                if rng.random() < 0.5
                else V("Vart", from_int(rng.randrange(0, 2)))
            )
        pick = rng.randrange(3)
        if pick == 0:
            return V("Add", go(depth - 1), go(depth - 1))
        if pick == 1:
            return V("Abs", V("N"), go(depth - 1))
        return V("App", go(depth - 1), go(depth - 1))

    return [go(3) for _ in range(POOL)]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_bst_repeated(memoized: bool) -> tuple[float, object]:
    ctx = bst.make_context()
    if memoized:
        enable_memoization(ctx)
    chk = derive_checker(ctx, "bst")
    lo, hi, pool = _bst_pool()

    def workload():
        for _ in range(ROUNDS):
            for tree in pool:
                chk(24, lo, hi, tree)

    return _timed(workload), derive_stats(ctx)


def bench_stlc_decide(memoized: bool) -> tuple[float, object]:
    ctx = stlc.make_context()
    if memoized:
        enable_memoization(ctx)
    chk = derive_checker(ctx, "typing")
    env = from_list([])
    ty = V("N")
    pool = _stlc_pool()

    def workload():
        for _ in range(ROUNDS):
            for term in pool:
                chk.decide((env, term, ty), max_fuel=16)

    return _timed(workload), derive_stats(ctx)


WORKLOADS = [
    ("BST repeated-query", bench_bst_repeated),
    ("STLC decide() doubling", bench_stlc_decide),
]


def run_all(verbose: bool = True) -> dict[str, float]:
    speedups: dict[str, float] = {}
    for name, bench in WORKLOADS:
        t_plain, _ = bench(memoized=False)
        t_memo, stats = bench(memoized=True)
        speedup = t_plain / t_memo
        speedups[name] = speedup
        if verbose:
            print(
                f"\n[bench_memo] {name:24s} uncached {t_plain * 1e3:9.1f} ms"
                f"   memoized {t_memo * 1e3:9.1f} ms   speedup {speedup:5.1f}x"
            )
            print(
                f"[bench_memo]   hits={stats.cache_hits:,} "
                f"misses={stats.cache_misses:,} "
                f"hit_rate={stats.hit_rate:.1%} "
                f"checker_calls={stats.checker_calls:,}"
            )
    return speedups


def test_repeated_query_speedup():
    """Acceptance bar: >= 2x over the uncached baseline."""
    t_plain, _ = bench_bst_repeated(memoized=False)
    t_memo, stats = bench_bst_repeated(memoized=True)
    assert stats.cache_hits > 0 and stats.cache_misses > 0
    assert t_plain / t_memo >= 2.0, (
        f"memoized speedup only {t_plain / t_memo:.2f}x"
    )


def test_decide_doubling_speedup():
    t_plain, _ = bench_stlc_decide(memoized=False)
    t_memo, stats = bench_stlc_decide(memoized=True)
    assert stats.cache_hits > 0
    assert t_plain / t_memo >= 2.0, (
        f"memoized speedup only {t_plain / t_memo:.2f}x"
    )


if __name__ == "__main__":
    try:
        from benchmarks.benchjson import emit
    except ImportError:  # standalone: python benchmarks/bench_memo.py
        from benchjson import emit

    results = run_all()
    worst = min(results.values())
    print(f"\n[bench_memo] worst speedup: {worst:.1f}x (bar: 2.0x)")
    emit("memo", {
        "speedups": results, "worst_speedup": worst, "bar": 2.0,
    })
    raise SystemExit(0 if worst >= 2.0 else 1)

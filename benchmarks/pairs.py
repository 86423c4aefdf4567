"""Alternating-pairs timing and the checker workloads of the A/B bars.

:func:`ab_pairs` is the one timing harness behind every in-tree A/B
bar of the ``bench_*.py`` files.  It times ``PAIRS`` runs of each side,
alternating which side runs first, so clock-speed drift and cache
warmth land on both sides alike.  The bar statistic is the **median
per-pair ratio** ``b / a``: a real difference shows in most pairs,
while one noisy pair moves the median by at most one rank.  (The
minimum per-pair ratio favours whichever side drew the luckiest pair,
so it can report a slower side as faster.)  Both sides' median
timings come back beside the ratio, so every printed ratio shows its
base.

The two checker workloads are Figure 3 cells over fixed input pools:
BST ``bst`` (nat-heavy, where specialization pays) and STLC
``typing`` over well-typed terms (where functionalization pays).  Each
A/B builds its own contexts from ``make_ctx``, so a switch set on one
side never leaks into the other.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass

from repro.casestudies import bst, stlc
from repro.core.values import from_int
from repro.derive import Mode
from repro.derive.instances import CHECKER, resolve_compiled

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Timed pairs per A/B; odd, so the median is one measured pair.
PAIRS = 3 if QUICK else 9
ROUNDS = 2 if QUICK else 32
POOL = 10 if QUICK else 40


@dataclass(frozen=True)
class Pairs:
    """Medians of one alternating-pairs run: seconds per side, and the
    per-pair ratio ``b / a``."""

    a: float
    b: float
    ratio: float

    def row(self, label: str, a_name: str, b_name: str) -> str:
        return (
            f"{label:28s} {a_name} {self.a * 1e3:8.1f} ms"
            f"   {b_name} {self.b * 1e3:8.1f} ms"
            f"   ratio {self.ratio:5.3f}x (median of {PAIRS} pairs)"
        )


def ab_pairs(fn_a, fn_b) -> Pairs:
    """Warm both sides once, then time ``PAIRS`` alternating runs."""
    fn_a()
    fn_b()
    times_a: list[float] = []
    times_b: list[float] = []
    for i in range(PAIRS):
        order = [(fn_a, times_a), (fn_b, times_b)]
        if i % 2:
            order.reverse()
        for fn, out in order:
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    return Pairs(
        statistics.median(times_a),
        statistics.median(times_b),
        statistics.median(b / a for a, b in zip(times_a, times_b)),
    )


class CheckerWorkload:
    """A relation's compiled checker driven over a fixed input pool."""

    def __init__(self, name, make_ctx, rel, fuel, args_pool):
        self.name = name
        self.make_ctx = make_ctx
        self.rel = rel
        self.fuel = fuel
        self.args_pool = args_pool

    def checker(self, ctx):
        """The compiled checker of the relation in *ctx* (the instance
        every workload of the benchmark suite runs)."""
        arity = ctx.relations.get(self.rel).arity
        return resolve_compiled(ctx, CHECKER, self.rel, Mode.checker(arity))

    def loop(self, check) -> None:
        fuel = self.fuel
        for _ in range(ROUNDS):
            for args in self.args_pool:
                check(fuel, args)

    def answers(self, check) -> list:
        return [check(self.fuel, args) for args in self.args_pool]


def _bst_pool(seed: int = 11):
    rng = random.Random(seed)
    lo, hi = from_int(0), from_int(16)
    pool = []
    while len(pool) < POOL:
        out = bst.handwritten_bst_gen(8, (lo, hi), rng)
        if isinstance(out, tuple):
            pool.append((lo, hi, out[0]))
    return pool


def _stlc_pool(seed: int = 13):
    rng = random.Random(seed)
    env = stlc.StlcWorkload(None).environment()
    pool = []
    while len(pool) < POOL:
        ty = stlc._gen_type(2, rng)
        out = stlc.handwritten_typing_gen(6, (env, ty), rng)
        if isinstance(out, tuple):
            pool.append((env, out[0], ty))
    return pool


def bst_workload() -> CheckerWorkload:
    return CheckerWorkload("BST bst", bst.make_context, "bst", 24, _bst_pool())


def stlc_workload() -> CheckerWorkload:
    return CheckerWorkload(
        "STLC typing", stlc.make_context, "typing", 24, _stlc_pool()
    )

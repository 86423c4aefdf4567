#!/usr/bin/env python3
"""Sessions, parallel campaigns, and the query engine (`repro.serve`).

Everything derived so far assumed one caller.  This walkthrough shows
the serving layer that lifts that:

1. bind two `Session`s on one shared context and watch their runtime
   state (stats, memo tables, budgets) stay disjoint while derived
   instances stay shared;
2. run a `quick_check` campaign sharded across a process pool with
   `parallel_quick_check`, and verify the merged `CheckReport` equals
   the sequential run of the same seed partition — parallelism as a
   pure throughput knob;
3. serve a mixed check/enumerate/generate workload through an
   `Engine`: sessioned worker threads, batched `__batch__` dispatch,
   and per-query budgets that come back as *structured give-ups*
   (reason + `Exhausted` diagnosis), never errors;
4. (with `--telemetry`) the same engine run under a `Telemetry`
   recorder: per-(kind, relation) latency percentiles, queue wait,
   sampled span traces, and — with `--export DIR` — the whole thing
   written out as `telemetry.jsonl` + `metrics.prom` + `stats.txt`;
5. the high-availability layer: a bounded admission queue turning
   overload into *structured sheds* (`status="shed"`, never an error,
   never a hang), absolute deadlines that expire in queue, and a
   supervisor restarting a crashed worker mid-workload — driven by a
   seeded `WorkerFaultPlan`, the chaos-testing hook.

Run:  python examples/serving.py [--workers N] [--tests N]
                                 [--telemetry] [--export DIR]
"""

import argparse
import os

from repro.core import parse_declarations
from repro.core.session import use_session
from repro.core.values import Value, from_int, to_int
from repro.derive.instances import CHECKER, resolve
from repro.derive.memo import enable_memoization
from repro.derive.modes import Mode
from repro.derive.stats import stats_of
from repro.quickchick import classify, for_all
from repro.resilience import parallel_quick_check
from repro.serve import CheckQuery, Engine, EnumQuery, GenQuery
from repro.stdlib import standard_context

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--workers", type=int,
                    default=min(os.cpu_count() or 1, 4))
parser.add_argument("--tests", type=int, default=400,
                    help="campaign size for the parallel quick_check")
parser.add_argument("--telemetry", action="store_true",
                    help="run the engine under a Telemetry recorder")
parser.add_argument("--export", metavar="DIR", default=None,
                    help="write telemetry.jsonl/metrics.prom/stats.txt "
                    "into DIR (implies --telemetry)")
args = parser.parse_args()
if args.export:
    args.telemetry = True

ctx = standard_context()
parse_declarations(ctx, """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).

Inductive add : nat -> nat -> nat -> Prop :=
| add_O : forall m, add O m m
| add_S : forall n m p, add n m p -> add (S n) m (S p).
""")
check_le = resolve(ctx, CHECKER, "le", Mode.checker(2)).fn


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


# -- 1. sessions: disjoint runtime state, shared artifacts -------------------

print("== sessions ==")
with use_session(ctx, ctx.new_session("alice")):
    enable_memoization(ctx)
    for a in range(8):
        check_le(30, (nat(a), nat(a + 1)))
    alice_calls = stats_of(ctx).checker_calls
with use_session(ctx, ctx.new_session("bob")):
    enable_memoization(ctx)
    bob_calls = stats_of(ctx).checker_calls
print(f"alice ran {alice_calls} checker calls; bob, on the same context,")
print(f"sees {bob_calls} — sessions own stats/memo/budget, the context")
print("owns the derived instances both reuse.\n")


# -- 2. parallel campaign, deterministic merge -------------------------------

print("== parallel campaign ==")


def gen(size, rng):
    a = rng.randint(0, size)
    return (a, a + rng.randint(0, size))


prop = for_all(
    gen,
    classify(lambda p: p[0] == p[1], "reflexive",
             lambda p: check_le(30, (nat(p[0]), nat(p[1])))),
    name="le_holds",
)

seq = parallel_quick_check(prop, args.tests, workers=args.workers,
                           seed=7, backend="inline", ctx=ctx)
par = parallel_quick_check(prop, args.tests, workers=args.workers,
                           seed=7, backend="fork", ctx=ctx)
print(f"{args.tests} tests over {args.workers} workers:")
print(f"  fork:   {par.tests_run} run, labels {par.labels}, "
      f"{par.tests_per_second:.0f} tests/s")
print(f"  inline: {seq.tests_run} run, labels {seq.labels}")
assert (par.tests_run, par.discards, par.labels, par.shard_seeds) == \
       (seq.tests_run, seq.discards, seq.labels, seq.shard_seeds)
print(f"merged report == sequential reference; replay via shard_seeds="
      f"{par.shard_seeds}\n")


# -- 3. the query engine -----------------------------------------------------

print("== query engine ==")
queries = (
    [CheckQuery("le", (nat(a), nat(b)), fuel=32)
     for a in range(5) for b in range(5)]
    + [EnumQuery("add", "ooi", (nat(6),), fuel=10),
       GenQuery("le", "oi", (nat(9),), fuel=16, seed=3),
       # a deliberately starved query: structured give-up, not an error
       CheckQuery("le", (nat(20), nat(28)), fuel=64, max_ops=10)]
)
telemetry = None
if args.telemetry:
    from repro.observe.telemetry import Telemetry

    # sample_every=1 traces every query: fine for a demo, far too
    # eager for production (the default is every 128th per shape).
    telemetry = Telemetry(sample_every=1)

with Engine(ctx, workers=args.workers, memoize=True,
            telemetry=telemetry) as eng:
    eng.prepare(queries)
    results = eng.run_batch(queries)
    stats = eng.stats()

ok = [r for r in results if r.ok]
gave_up = [r for r in results if r.status == "gave_up"]
print(f"{len(results)} queries: {len(ok)} ok, {len(gave_up)} gave up, "
      f"{sum(w['batched'] for w in stats['per_worker'])} served batched")
pairs = results[25]
print(f"enum add[ooi] 6 -> "
      f"{[(to_int(a), to_int(b)) for a, b in pairs.value]} "
      f"(complete={pairs.complete})")
g = results[26]
print(f"gen le[oi] 9  -> {to_int(g.value[0])} (seeded, replayable)")
starved = results[-1]
print(f"budgeted check -> status={starved.status}, "
      f"reason={starved.give_up.reason}, "
      f"ops={starved.give_up.exhausted.ops}")
assert starved.status == "gave_up" and starved.give_up.reason == "ops"
assert all(r.status != "error" for r in results)


# -- 4. serving telemetry ----------------------------------------------------

if telemetry is not None:
    print("\n== serving telemetry ==")
    print(telemetry.render())
    if args.export:
        from pathlib import Path

        from repro.observe import write_prometheus, write_telemetry_jsonl

        outdir = Path(args.export)
        outdir.mkdir(parents=True, exist_ok=True)
        write_telemetry_jsonl(telemetry, outdir / "telemetry.jsonl")
        write_prometheus(telemetry, outdir / "metrics.prom")
        (outdir / "stats.txt").write_text(telemetry.render() + "\n")
        print(f"\nexported telemetry.jsonl + metrics.prom + stats.txt "
              f"to {outdir}/")
        print(f"re-render: python -m repro.observe {outdir}/telemetry.jsonl")

# -- 5. high availability: admission, deadlines, supervision -----------------

print("\n== high availability ==")
from repro.resilience import WorkerFaultPlan  # noqa: E402

# A stalled single worker + a one-slot queue: the burst cannot fit, so
# the `reject` policy sheds at submit — a structured answer, not an
# error, and nobody blocks.  (overload=False isolates the admission
# policy; by default a bounded queue also gets the overload ladder,
# which would shed these as 'overload' even earlier.)
stall = WorkerFaultPlan.from_events((0, 1, "stall"), stall_seconds=0.2)
with Engine(ctx, workers=1, queue_max=1, admission="reject",
            overload=False, faults=stall) as eng:
    futures = [eng.submit(CheckQuery("le", (nat(a), nat(a + 1)), fuel=32))
               for a in range(12)]
    burst = [f.result(timeout=30) for f in futures]
served = sum(1 for r in burst if r.ok)
sheds = [r for r in burst if r.status == "shed"]
print(f"12-query burst into a stalled 1-slot queue: {served} served, "
      f"{len(sheds)} shed ({sheds[0].give_up.reason!r})")
assert served + len(sheds) == len(burst) and sheds
assert all(r.give_up.reason == "admission" for r in sheds)

# Deadlines are absolute from submit: a query stuck behind the stall
# expires *in queue* — shed as 'expired', its budget never even runs.
with Engine(ctx, workers=1, faults=stall) as eng:
    futures = [eng.submit(CheckQuery("le", (nat(a), nat(a + 1)), fuel=32,
                                     deadline_seconds=0.05))
               for a in range(6)]
    dead = [f.result(timeout=30) for f in futures]
expired = [r for r in dead if r.status == "shed"]
print(f"deadline 50ms behind a 200ms stall: {len(expired)} expired in "
      f"queue, {sum(1 for r in dead if r.ok)} served in time")
assert expired and all(r.give_up.reason == "expired" for r in expired)

# Crash the worker on its first claim: the supervisor restarts it
# (capped exponential backoff), the crashed query resolves as a
# structured error, and every other future still gets its answer.
crash = WorkerFaultPlan.from_events((0, 1, "crash"))
with Engine(ctx, workers=1, faults=crash,
            supervise={"backoff_base": 0.01}) as eng:
    futures = [eng.submit(CheckQuery("le", (nat(a), nat(a + 1)), fuel=32))
               for a in range(8)]
    after_crash = [f.result(timeout=30) for f in futures]
    ha = eng.stats()
errors = [r for r in after_crash if r.status == "error"]
print(f"crash on first claim: {ha['crashes']} crash, {ha['restarts']} "
      f"restart; {sum(1 for r in after_crash if r.ok)}/8 answered, "
      f"{len(errors)} structured error ('worker crashed')")
assert ha["restarts"] >= 1 and len(errors) <= 1
assert all("worker crashed" in r.error for r in errors)

print("\nSame corpus from the command line: python -m repro.serve --demo")
print("HA flags: python -m repro.serve queries.jsonl --queue-max 256 "
      "--admission reject --drain-timeout 5")

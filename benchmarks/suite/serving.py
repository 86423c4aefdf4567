"""Serving: the ``serve_batch`` and ``serve_serial`` workloads.

Both drive one :class:`repro.serve.Engine` with one worker from one
client thread in a closed loop — the next query goes out only when an
earlier one resolved — over the ``le``/``add`` relations.

* ``serve_batch`` keeps 64 check queries outstanding (the engine's
  ``batch_max``), so the worker drains full chunks and serves them
  through the batched path.  Engine defaults, unbounded queue.
* ``serve_serial`` keeps one query outstanding, with admission control
  on (``queue_max=256``, ``admission="reject"``): half checks (30% of
  them with a one-second deadline), a quarter ``EnumQuery("le", "io")``
  capped at eight values, a quarter seeded ``GenQuery("add", "iio")``.
  Every query takes the engine's single path.

Inputs: the seed draws a stream of 8,192 queries whose arguments are
Peano naturals taken from one shared pool built at set-up.  (Fresh
values per query keep tens of thousands of trees alive, and the
resulting generation-2 collections swing closed-loop throughput by 2x.)
Each step serves the next fixed-size slice of the stream.  Latency is
timed per query from ``submit`` until its future resolves.

Correctness: every answer is compared with arithmetic — ``le a b`` is
``a <= b``, ``add a b c`` is ``a + b == c``, the first eight ``le a``
outputs are ``a .. a+7``, and the generated ``add a b`` is ``a + b``.
"""

from __future__ import annotations

import random
import threading
import time
from array import array
from functools import partial

from .harness import Outcome, latency_summary, median
from .workload import Sample, Workload

DECLARATIONS = """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).

Inductive add : nat -> nat -> nat -> Prop :=
| add_O : forall m, add O m m
| add_S : forall n m p, add n m p -> add (S n) m (S p).
"""

STREAM = 8192
OUTSTANDING = 64
ENUM_VALUES = 8

CONFIGS = {
    "batch": dict(engine={"workers": 1}, outstanding=OUTSTANDING, chunk=16000),
    "serial": dict(engine={"workers": 1, "queue_max": 256, "admission": "reject"},
                   outstanding=1, chunk=1000),
}


def make_stream(seed: int, mode: str, nats: list) -> tuple[list, list, list]:
    """``(queries, expected answers, kinds)`` drawn from *seed*."""
    from repro.serve import CheckQuery, EnumQuery, GenQuery

    rng = random.Random(seed)
    queries, expected, kinds = [], [], []
    for _ in range(STREAM):
        r = 0.0 if mode == "batch" else rng.random()
        if r < 0.5:
            deadline = 1.0 if mode == "serial" and rng.random() < 0.3 else None
            if rng.random() < 0.7:
                a, b = rng.randint(0, 30), rng.randint(0, 30)
                q = CheckQuery("le", (nats[a], nats[b]), fuel=64,
                               deadline_seconds=deadline)
                answer = a <= b
            else:
                a, b = rng.randint(0, 12), rng.randint(0, 12)
                c = a + b + (rng.random() < 0.5)
                q = CheckQuery("add", (nats[a], nats[b], nats[c]), fuel=32,
                               deadline_seconds=deadline)
                answer = c == a + b
            kind = "check"
        elif r < 0.75:
            a = rng.randint(0, 30)
            q = EnumQuery("le", "io", (nats[a],), max_values=ENUM_VALUES)
            answer, kind = list(range(a, a + ENUM_VALUES)), "enum"
        else:
            a, b = rng.randint(0, 6), rng.randint(0, 20)
            q = GenQuery("add", "iio", (nats[a], nats[b]), seed=rng.randrange(2**31))
            answer, kind = a + b, "gen"
        queries.append(q)
        expected.append(answer)
        kinds.append(kind)
    return queries, expected, kinds


def matches(kind: str, status: str, value, expected) -> bool:
    from repro.core.values import to_int

    if status != "ok":
        return False
    if kind == "check":
        return value is expected
    if kind == "enum":
        return [to_int(t[0]) for t in value] == expected
    return isinstance(value, tuple) and to_int(value[0]) == expected


class Serve(Workload):
    op = "query"
    host = "serve"

    def __init__(self, mode: str, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.mode = mode
        cfg = CONFIGS[mode]
        self.engine_kwargs = cfg["engine"]
        self.outstanding = cfg["outstanding"]
        self.chunk = cfg["chunk"] // (10 if quick else 1)
        if quick:
            self.setup_repeats = 2
        self.engine = None
        self.rates: list[float] = []
        self.latencies: list = []  # per step
        self.kind_latencies = {"check": array("d"), "enum": array("d"), "gen": array("d")}
        self.parts = {"submit": 0.0, "queue": 0.0, "service": 0.0, "n": 0}

    def setup(self, phases) -> None:
        from repro.core.values import from_int
        from repro.derive.instances import CHECKER, ENUM, GEN
        from repro.serve import Engine

        ctx, _ = phases.context(DECLARATIONS)
        shapes = [(CHECKER, "le", None), (CHECKER, "add", None)]
        if self.mode == "serial":
            shapes += [(ENUM, "le", "io"), (GEN, "add", "iio")]
        # The engine runs interpreter instances; the compiled twins are
        # the A/B the traced report sets beside them.
        self.compiled = {}
        for kind, rel, mode in shapes:
            phases.derive(ctx, kind, rel, mode, backend="interp")
            self.compiled[(kind, rel)] = phases.derive(ctx, kind, rel, mode)
        self.ctx = ctx
        nats = [from_int(i) for i in range(64)]
        self.queries, self.expected, self.kinds = make_stream(self.seed, self.mode, nats)
        engine = Engine(ctx, **self.engine_kwargs)
        engine.start()
        engine.prepare(self.queries)
        for q in self.queries[:256]:  # warm, at most the window outstanding
            engine.run(q)
        self.engine = engine

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def instrument(self, tracer) -> None:
        """Wrap the derived instances the engine resolves per query."""
        from repro.derive.api import derive_checker, derive_enumerator, derive_generator

        super().instrument(tracer)
        ctx = self.ctx
        owners = [derive_checker(ctx, "le"), derive_checker(ctx, "add")]
        if self.mode == "serial":
            owners += [derive_enumerator(ctx, "le", "io"),
                       derive_generator(ctx, "add", "iio")]
        for owner in owners:
            for attr in ("check", "check_batch", "enum_st", "gen_st"):
                if tracer is None:
                    owner.__dict__.pop(attr, None)
                elif hasattr(type(owner), attr):
                    method = getattr(type(owner), attr).__get__(owner)
                    if attr == "enum_st":
                        wrapped = self._traced_enum(method, tracer)
                    else:
                        layer = "exec.batch" if attr == "check_batch" else "exec.call"
                        wrapped = tracer.wrap(method, layer, "exec")
                    setattr(owner, attr, wrapped)

    @staticmethod
    def _traced_enum(method, tracer):
        def enum_st(fuel, ins):
            tracer.begin("exec.call", "exec")
            try:
                it = method(fuel, ins)
            finally:
                tracer.end()
            return tracer.wrap_iter(it, "exec.next", "exec")
        return enum_st

    # -- the closed loop -----------------------------------------------------

    def _done(self, idx: int, t0: float, out: Outcome, sem, fut) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("deliver", "harness")
        r = fut.result()
        kind = self.kinds[idx]
        if tracer is None:
            lat = time.perf_counter() - t0
            self.latencies[-1].append(lat)
            self.kind_latencies[kind].append(lat)
            parts = self.parts
            parts["queue"] += r.queue_seconds
            parts["service"] += r.elapsed_seconds
            parts["n"] += 1
        if not matches(kind, r.status, r.value, self.expected[idx]):
            out.fail(f"{r.query}: {r.status} {r.value!r} {r.error or ''}")
        if tracer is not None:
            tracer.end()
        if sem is not None:
            sem.release()

    def step(self, i: int, out: Outcome) -> int:
        n = self.chunk
        base = i * n
        out.attempted += n
        self.latencies.append(array("d"))
        if self.outstanding == 1:
            elapsed = self._serial(base, n, out)
        else:
            elapsed = self._batch(base, n, out)
        if self.tracer is None:
            self.rates.append(n / elapsed)
        return n

    def _serial(self, base: int, n: int, out: Outcome) -> float:
        submit = self.engine.submit
        tracer = self.tracer
        queries = self.queries
        now = time.perf_counter
        submit_s = 0.0
        start = now()
        for j in range(n):
            idx = (base + j) % STREAM
            if tracer is None:
                t0 = now()
                fut = submit(queries[idx])
                submit_s += now() - t0
                fut.result()
            else:
                tracer.rid = base + j
                t0 = now()
                with tracer.span("submit", "serve.submit", rid=base + j):
                    fut = submit(queries[idx])
                with tracer.span("wait", "serve.wait", rid=base + j):
                    fut.result()
            self._done(idx, t0, out, None, fut)
        self.parts["submit"] += submit_s
        return now() - start

    def _batch(self, base: int, n: int, out: Outcome) -> float:
        submit = self.engine.submit
        tracer = self.tracer
        queries = self.queries
        now = time.perf_counter
        sem = threading.Semaphore(self.outstanding)
        submit_s = 0.0
        start = now()
        for j in range(n):
            idx = (base + j) % STREAM
            if tracer is None:
                sem.acquire()
                t0 = now()
                fut = submit(queries[idx])
                submit_s += now() - t0
            else:
                with tracer.span("wait", "serve.wait"):
                    sem.acquire()
                t0 = now()
                with tracer.span("submit", "serve.submit", rid=base + j):
                    fut = submit(queries[idx])
            fut.add_done_callback(partial(self._done, idx, t0, out, sem))
        for _ in range(self.outstanding):  # drain the window
            if tracer is None:
                sem.acquire()
            else:
                with tracer.span("wait", "serve.wait"):
                    sem.acquire()
        elapsed = now() - start
        for _ in range(self.outstanding):
            sem.release()
        self.parts["submit"] += submit_s
        return elapsed

    # -- reports -------------------------------------------------------------

    def verify(self, out: Outcome) -> None:
        """The engine's own accounting, and the two direct paths the
        traced report compares the engine with."""
        head = list(range(min(STREAM, self.chunk)))
        self._direct(head, False, out)
        self._direct(head, True, out)
        stats = self.engine.stats()
        errors = sum(w["errors"] for w in stats["per_worker"])
        shed = sum(stats["shed"].values())
        if errors or shed or stats["crashes"]:
            out.fail(f"engine: {errors} errors, {shed} shed, "
                     f"{stats['crashes']} crashes")
        self.engine_stats = stats

    def _direct(self, indices, compiled: bool, out: "Outcome | None") -> float:
        """Serve *indices* of the stream without the engine, through the
        instances the engine calls (interpreter) or their compiled
        twins, grouped as the engine groups them; returns seconds."""
        from repro.derive.api import derive_checker, derive_enumerator, derive_generator
        from repro.derive.instances import CHECKER, ENUM, GEN
        from repro.producers.option_bool import SOME_TRUE
        from repro.producers.outcome import OUT_OF_FUEL

        ctx = self.ctx
        if compiled:
            check = {rel: self.compiled[(CHECKER, rel)] for rel in ("le", "add")}
            batch = {rel: fn.__batch__ for rel, fn in check.items()}
            enum = self.compiled.get((ENUM, "le"))
            gen = self.compiled.get((GEN, "add"))
        else:
            owners = {rel: derive_checker(ctx, rel) for rel in ("le", "add")}
            check = {rel: o.check for rel, o in owners.items()}
            batch = {rel: o.check_batch for rel, o in owners.items()}
            if self.mode == "serial":
                enum = derive_enumerator(ctx, "le", "io").enum_st
                gen = derive_generator(ctx, "add", "iio").gen_st
        queries, kinds = self.queries, self.kinds
        answers = {}
        t0 = time.perf_counter()
        if self.outstanding > 1:
            for lo in range(0, len(indices), self.outstanding):
                groups: dict = {}
                for idx in indices[lo:lo + self.outstanding]:
                    q = queries[idx]
                    groups.setdefault((q.rel, q.fuel), []).append(idx)
                for (rel, fuel), idxs in groups.items():
                    res = batch[rel](fuel, [queries[i].args for i in idxs])
                    for i, r in zip(idxs, res):
                        answers[i] = r is SOME_TRUE
        else:
            for idx in indices:
                q = queries[idx]
                kind = kinds[idx]
                if kind == "check":
                    answers[idx] = check[q.rel](q.fuel, q.args) is SOME_TRUE
                elif kind == "enum":
                    values = []
                    for x in enum(q.fuel, q.ins):
                        if x is OUT_OF_FUEL:
                            continue
                        values.append(x)
                        if len(values) >= q.max_values:
                            break
                    answers[idx] = values
                else:
                    answers[idx] = gen(q.fuel, q.ins, random.Random(q.seed))
        elapsed = time.perf_counter() - t0
        if out is not None:
            for idx, value in answers.items():
                out.attempted += 1
                if not matches(kinds[idx], "ok", value, self.expected[idx]):
                    out.fail(f"direct {'compiled' if compiled else 'dispatch'} "
                             f"{queries[idx]}: {value!r}")
        return elapsed

    def sample(self, out: Outcome) -> Sample:
        """The stream's first 1,000 queries through the engine's own
        instances, directly, under the profiler."""
        from repro.derive.trace import profile

        total = Sample()
        indices = list(range(1000 if not self.quick else 100))
        with profile(self.ctx) as trace:
            self._direct(indices, compiled=False, out=None)
        total.add_trace(trace)
        total.ops = total.calls = len(indices)
        return total

    def end_to_end(self, factors: list[float]) -> tuple[dict, dict]:
        lat = latency_summary(
            [[x / f for x in step] for step, f in zip(self.latencies, factors)]
        )
        parts = self.parts
        n = max(1, parts["n"])
        mean_lat = sum(map(sum, self.latencies)) / max(1, lat["n"])
        submit, queue, service = (parts[k] / n for k in ("submit", "queue", "service"))
        e2e = {
            "ops_per_s": median([r * f for r, f in zip(self.rates, factors)]),
            "latency_p50_us": lat["p50_us"],
            "latency_p99_us": lat["p99_us"],
        }
        stats = self.engine_stats["per_worker"]
        # The split of a query's time, as measured (not scaled).
        detail = {
            "latency": lat,
            "latency_by_kind": {
                k: latency_summary([v]) for k, v in self.kind_latencies.items() if len(v)
            },
            "serve.submit_us": submit * 1e6,
            "serve.queue_us": queue * 1e6,
            "serve.service_us": service * 1e6,
            "serve.deliver_us": (mean_lat - submit - queue - service) * 1e6,
            "serve.batched_share": sum(w["batched"] for w in stats)
            / max(1, sum(w["queries"] for w in stats)),
        }
        return e2e, detail

    def counts(self) -> dict:
        from .derivation import artifact_counts

        return artifact_counts([self.ctx])

    def trace_detail(self, tracer, ops: int, out: Outcome) -> dict:
        """The engine beside the work it dispatches: one slice of the
        stream served through the engine (``serve.engine_us``), directly
        through the interpreter instances the engine calls
        (``serve.dispatch_us``) and through their compiled twins
        (``serve.compiled_us``), each the best of three passes."""
        n = min(STREAM, 4 * self.chunk)
        indices = list(range(n))
        serve = self._serial if self.outstanding == 1 else self._batch
        engine = []
        for _ in range(3):
            self.latencies.append(array("d"))
            engine.append(serve(0, n, out))
        engine = min(engine) / n
        dispatch = min(self._direct(indices, False, out) for _ in range(3)) / n
        compiled = min(self._direct(indices, True, out) for _ in range(3)) / n
        layers = tracer.layers()
        return {
            "serve.submit_us": layers.get("serve.submit", 0.0)
            / max(1, tracer.count("submit")) * 1e6,
            "serve.engine_us": engine * 1e6,
            "serve.dispatch_us": dispatch * 1e6,
            "serve.compiled_us": compiled * 1e6,
            "serve.overhead_x": engine / dispatch,
        }

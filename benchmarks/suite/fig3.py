"""Figure 3: the ``fig3_check`` and ``fig3_gen`` workloads.

``fig3_check`` (Figure 3, left): the case study's handwritten generator
feeds the compiled derived checker through ``quick_check``, with the
correct implementation under test.  ``fig3_gen`` (Figure 3, right):
the compiled derived generator feeds the handwritten checker.  Each
runs the three case studies — BST, STLC, IFC — round-robin in
fixed-size chunks; a chunk is one ``quick_check`` call whose seed
derives from the run's seed, the case and the chunk's index, so the
same seed replays the same inputs.

A case's throughput is the median of its chunk rates, and a test's
latency is the time between two of ``quick_check``'s progress
callbacks.  The end-to-end numbers are geometric means over the three
cases; every case is also reported on its own row.

Correctness: every chunk must pass all its tests, and the first chunk
of every case is replayed with each derived call checked against the
handwritten reference — the handwritten checker's verdict for a
derived checker, the handwritten checker's acceptance of every value
a derived generator produces.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass

from .derivation import artifact_counts, full_args
from .harness import Outcome, geomean, latency_summary, median
from .workload import Sample, Workload


@dataclass(frozen=True)
class Case:
    name: str
    module: str
    workload: str
    rel: str
    gen_mode: str
    hand_gen: str
    hand_check: str
    impl: str
    #: tests per chunk (roughly a tenth of a second each), per side
    check_chunk: int
    gen_chunk: int
    #: ``property_fn`` keyword arguments on the generator side
    gen_kwargs: tuple = ()


# STLC's derived generator runs at fuel 4 rather than the property's
# default 6.  Its cost per test is heavy-tailed at every fuel (the
# coefficient of variation is near 2: a few draws backtrack for a
# hundred times the median), so only the number of tests in a run pins
# its rate down from one seed to the next.  At 6 a test costs ~12 ms
# and a run holds a few hundred; at 4 it costs ~1.6 ms, still 34x the
# handwritten generator and dominated by the same blind choices, and
# its chunks are longer than the other cases' so that STLC gets about
# half of the run.
CASES = (
    Case("bst", "bst", "BstWorkload", "bst", "iio", "handwritten_bst_gen",
         "handwritten_bst_check", "insert", check_chunk=2000, gen_chunk=500),
    Case("stlc", "stlc", "StlcWorkload", "typing", "ioi",
         "handwritten_typing_gen", "handwritten_typing_check", "subst",
         check_chunk=1000, gen_chunk=200, gen_kwargs=(("fuel", 4),)),
    Case("ifc", "ifc", "IfcWorkload", "indist_list", "io",
         "handwritten_indist_gen", "handwritten_indist_check", "CORRECT_STEP",
         check_chunk=1000, gen_chunk=1000),
)


def chunk_seed(seed: int, case_index: int, k: int) -> int:
    return (seed * 1_000_003 + case_index) * 100_003 + k


class Cell:
    """One case of one side, set up: its context, derived instance and
    the pieces its property is made of."""

    def __init__(self, case: Case, side: str, phases, scale: int) -> None:
        from repro.derive.instances import CHECKER, GEN

        mod = importlib.import_module(f"repro.casestudies.{case.module}")
        self.case = case
        self.side = side
        self.ctx, _ = phases.context(mod.DECLARATIONS)
        self.workload = getattr(mod, case.workload)(self.ctx)
        self.hand_gen = getattr(mod, case.hand_gen)
        self.hand_check = getattr(mod, case.hand_check)
        self.impl = getattr(mod, case.impl)
        if side == "check":
            self.derived = phases.derive(self.ctx, CHECKER, case.rel)
            self.tests = max(1, case.check_chunk // scale)
        else:
            self.derived = phases.derive(self.ctx, GEN, case.rel, case.gen_mode)
            self.tests = max(1, case.gen_chunk // scale)

    def prop(self, derived=None, run_wrapper=None):
        """The Figure-3 property with *derived* (default: the derived
        instance) in the derived role; *run_wrapper* wraps each test."""
        from repro.quickchick import Property, for_all

        derived = self.derived if derived is None else derived
        if self.side == "check":
            gen, pred = self.workload.property_fn(self.hand_gen, derived, self.impl)
        else:
            gen, pred = self.workload.property_fn(
                derived, self.hand_check, self.impl, **dict(self.case.gen_kwargs)
            )
        prop = for_all(gen, pred, name=f"fig3_{self.side}_{self.case.name}")
        if run_wrapper is not None:
            prop = Property(run_wrapper(prop.run), prop.name)
        return prop

    def reference_checked(self, out: Outcome):
        """The derived instance with every call checked against the
        handwritten reference."""
        from repro.producers.option_bool import SOME_TRUE
        from repro.producers.outcome import is_value

        derived, hand_check, name = self.derived, self.hand_check, self.case.name
        if self.side == "check":
            def checked(fuel, args):
                got = derived(fuel, args)
                out.attempted += 1
                if got is not hand_check(fuel, args):
                    out.fail(f"{name}: derived checker says {got} on {args}")
                return got
            return checked
        mode = self.case.gen_mode

        def checked_gen(fuel, ins, rng):
            got = derived(fuel, ins, rng)
            if is_value(got):
                out.attempted += 1
                if hand_check(fuel, full_args(mode, ins, got)) is not SOME_TRUE:
                    out.fail(f"{name}: derived generator produced {got} for {ins}")
            return got
        return checked_gen


def run_chunk(prop, seed: int, n: int, out: "Outcome | None",
              latencies: "list | None" = None) -> float:
    """One ``quick_check`` call of *n* tests; returns its wall time.
    *latencies* gets each test's time, from one of ``quick_check``'s
    progress callbacks (or the start) to the next."""
    from repro.quickchick import quick_check

    progress = None
    if latencies is not None:
        stamps = [0.0]
        stamp = stamps.append
        now = time.perf_counter

        def progress(_report):
            stamp(now())
    t0 = time.perf_counter()
    if latencies is not None:
        stamps[0] = t0
    report = quick_check(prop, num_tests=n, size=5, seed=seed, progress=progress)
    elapsed = time.perf_counter() - t0
    if latencies is not None:
        latencies.extend(b - a for a, b in zip(stamps, stamps[1:]))
    if out is not None:
        out.attempted += report.tests_run
        if report.failed or report.gave_up or report.tests_run != n:
            out.fail(f"{prop.name} seed {seed}: {report}",
                     max(1, n - report.tests_run))
    return elapsed


def value_size(v) -> int:
    """Constructor nodes in a generated value."""
    n, todo = 0, [v]
    while todo:
        x = todo.pop()
        n += 1
        todo.extend(a for a in x.args if hasattr(a, "args"))
    return n


class Fig3(Workload):
    op = "test"
    host = "quickchick"

    def __init__(self, side: str, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.side = side
        self.scale = 10 if quick else 1
        if quick:
            self.setup_repeats = 2

    def setup(self, phases) -> None:
        self.cells = [Cell(case, self.side, phases, self.scale) for case in CASES]
        self.props = [c.prop() for c in self.cells]
        # per untraced step: its case, its rate, its tests' latencies
        self.step_case: list[int] = []
        self.step_rate: list[float] = []
        self.step_latencies: list[array] = []

    def instrument(self, tracer) -> None:
        super().instrument(tracer)
        if tracer is None:
            self.props = [c.prop() for c in self.cells]
            return
        self.traced_tests = [0] * len(self.cells)

        def traced_prop(ci: int, cell: Cell):
            layer = f"quickchick/{cell.case.name}"
            derived = tracer.wrap(cell.derived, "exec.call", f"exec/{cell.case.name}")

            def run_wrapper(run):
                def traced_run(size, rng):
                    self.traced_tests[ci] += 1
                    tracer.begin("test", layer, rid=(cell.case.name, self.traced_tests[ci]))
                    try:
                        return run(size, rng)
                    finally:
                        tracer.end()
                return traced_run
            return cell.prop(derived, run_wrapper)

        self.props = [traced_prop(ci, c) for ci, c in enumerate(self.cells)]

    def step(self, i: int, out: Outcome) -> int:
        ci, k = i % len(self.cells), i // len(self.cells)
        cell = self.cells[ci]
        seed = chunk_seed(self.seed, ci, k)
        if self.tracer is not None:
            # Stamped like an untraced step, so that the traced and
            # untraced passes differ by the spans alone.
            with self.tracer.span("quick_check", f"quickchick/{cell.case.name}"):
                run_chunk(self.props[ci], seed, cell.tests, out, [])
            return cell.tests
        latencies = array("d")
        elapsed = run_chunk(self.props[ci], seed, cell.tests, out, latencies)
        self.step_case.append(ci)
        self.step_rate.append(cell.tests / elapsed)
        self.step_latencies.append(latencies)
        return cell.tests

    def verify(self, out: Outcome) -> None:
        for ci, cell in enumerate(self.cells):
            run_chunk(cell.prop(cell.reference_checked(out)),
                      chunk_seed(self.seed, ci, 0), cell.tests, out)

    def sample(self, out: Outcome) -> Sample:
        """A fifth of every case's first chunk under the profiler, with
        derived calls and indefinite outcomes counted."""
        from repro.derive.trace import profile
        from repro.producers.option_bool import NONE_OB
        from repro.producers.outcome import is_value

        total = Sample()
        self.sample_rows = {}
        for ci, cell in enumerate(self.cells):
            row = Sample()

            def counted(*args, _derived=cell.derived, _row=row):
                got = _derived(*args)
                _row.calls += 1
                if self.side == "check":
                    _row.indefinite += got is NONE_OB
                elif is_value(got):
                    _row.size += sum(value_size(v) for v in got)
                else:
                    _row.indefinite += 1
                return got

            row.ops = max(1, cell.tests // 5)
            with profile(cell.ctx) as trace:
                run_chunk(cell.prop(counted), chunk_seed(self.seed, ci, 0), row.ops, out)
            row.add_trace(trace)
            self.sample_rows[cell.case.name] = row
            total.add(row)
        return total

    def end_to_end(self, factors: list[float]) -> tuple[dict, dict]:
        rows = {}
        for ci, cell in enumerate(self.cells):
            steps = [i for i, c in enumerate(self.step_case) if c == ci]
            rows[cell.case.name] = {
                "tests_per_s": median([self.step_rate[i] * factors[i] for i in steps]),
                "chunks": len(steps),
                "tests_per_chunk": cell.tests,
                "latency": latency_summary(
                    [[x / factors[i] for x in self.step_latencies[i]] for i in steps]
                ),
            }
        e2e = {
            "ops_per_s": geomean(r["tests_per_s"] for r in rows.values()),
            "latency_p50_us": geomean(r["latency"]["p50_us"] for r in rows.values()),
            "latency_p99_us": geomean(r["latency"]["p99_us"] for r in rows.values()),
        }
        return e2e, {"cases": rows}

    def counts(self) -> dict:
        return artifact_counts([c.ctx for c in self.cells])

    def trace_detail(self, tracer, ops: int, out: Outcome) -> dict:
        """The per-case rows: derived call cost and share of the test
        loop, indefinite outcomes, search effort, the rest of the loop,
        and the handwritten baseline's throughput (the paper's other
        column)."""
        layers = tracer.layers()
        role = self.side
        per = "call" if role == "check" else "value"
        cases = {}
        for ci, cell in enumerate(self.cells):
            name = cell.case.name
            row = self.sample_rows[name]
            exec_s = layers.get(f"exec/{name}", 0.0)
            rest_s = layers.get(f"quickchick/{name}", 0.0)
            calls = tracer.count("exec.call", f"exec/{name}")
            hand = cell.prop(cell.hand_check if self.side == "check" else cell.hand_gen)
            hand_wall = run_chunk(hand, chunk_seed(self.seed, ci, 0), cell.tests, None)
            cases[name] = {
                f"{role}.call_us": exec_s / max(1, calls) * 1e6,
                f"{role}.share": exec_s / (exec_s + rest_s),
                f"{role}.{'none' if role == 'check' else 'fail'}_share":
                    row.indefinite / max(1, row.calls),
                f"{role}.attempts_per_{per}": row.attempts / max(1, row.calls),
                f"{role}.backtracks_per_{per}": row.backtracks / max(1, row.calls),
                "harness.self_us": rest_s / max(1, self.traced_tests[ci]) * 1e6,
                "ref.hand_tests_per_s": cell.tests / hand_wall,
            }
            if role == "gen":
                cases[name]["gen.value_size"] = row.size / max(1, row.calls - row.indefinite)
        return {"cases": cases}

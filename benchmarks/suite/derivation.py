"""Derivation, phase by phase, and the ``derive_cold`` workload.

Every workload derives what it runs, and always the same way: build a
context and parse the declarations (``core.parse``), run the static
analysis gate (``analysis.gate``), build the schedule
(``derive.schedule``), lower it to a plan (``derive.lower``), and
construct the instance (``derive.codegen``: code generation plus
``exec`` of the generated source for the compiled backend; dependency
instances are derived inside this call too).  Each phase is one call
into a public function, timed from outside, and a span under a tracer.

``derive_cold`` repeats the whole pipeline from fresh contexts for the
16 Software Foundations chapters and the three case studies — 107 SF
checkers plus the case studies' checkers and generators, 113
derivations per round — taking the units in an order the seed
shuffles.  After each round every derived instance runs on probe
inputs whose answers were computed once, before timing, by an
independent executor: checkers against the plan interpreter
(``exec_core``, which shares no code with the code generator),
generators against the case study's handwritten checker.
"""

from __future__ import annotations

import gc
import importlib
import random
import time
from dataclasses import dataclass

from .harness import Outcome, latency_summary, median
from .workload import PHASE_LAYERS, Sample, Workload


class Phases:
    """Times the derivation pipeline call by call, recording spans when
    given a tracer."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = dict.fromkeys(PHASE_LAYERS, 0.0)

    def _call(self, layer: str, fn, *args):
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            with self.tracer.span(layer, layer):
                result = fn(*args)
        self.seconds[layer] += time.perf_counter() - t0
        return result

    def context(self, declarations: str, setup=None):
        """A fresh standard context with *declarations* parsed (and the
        chapter's *setup* applied first); returns ``(ctx, declared)``."""
        from repro.core.parser import parse_declarations
        from repro.stdlib import standard_context

        def build():
            ctx = standard_context()
            if setup is not None:
                setup(ctx)
            return ctx, parse_declarations(ctx, declarations)

        return self._call("core.parse", build)

    def derive(self, ctx, kind: str, rel: str, mode: "str | None" = None,
               backend: str = "compiled"):
        """Derive ``(kind, rel, mode)`` phase by phase on *backend*;
        returns the instance's callable."""
        from repro.analysis.gate import check_before_derive
        from repro.derive.instances import CHECKER, resolve, resolve_compiled
        from repro.derive.modes import Mode
        from repro.derive.plan import lower_schedule
        from repro.derive.scheduler import build_schedule

        if kind == CHECKER:
            m = Mode.checker(ctx.relations.get(rel).arity)
        else:
            m = Mode.from_string(mode)
        self._call("analysis.gate", check_before_derive, ctx, rel, m, kind)
        schedule = self._call("derive.schedule", build_schedule, ctx, rel, m)
        self._call("derive.lower", lower_schedule, ctx, schedule)
        if backend == "compiled":
            return self._call("derive.codegen", resolve_compiled, ctx, kind, rel, m)
        return self._call("derive.codegen", resolve, ctx, kind, rel, m).fn

    def metrics(self) -> dict:
        return {f"{layer}_ms": s * 1e3 for layer, s in self.seconds.items()}


#: Attributes of a compiled instance that hold a compiled fixpoint.
_FIXPOINTS = ("__wrapped_rec__", "__spec_rec__", "__spec_fast__",
              "__fast_rec__", "__spec_eval_rec__")


def artifact_counts(contexts) -> dict:
    """What derivation produced in *contexts*: instances registered,
    plan handlers lowered, compiled fixpoints, and generated source
    (every ``__*source__`` attribute, each distinct string once)."""
    instances = handlers = 0
    fixpoints: set = set()
    sources: dict = {}
    for ctx in contexts:
        instances += len(ctx.instances)
        handlers += sum(
            len(plan.handlers) for plan in ctx.artifacts.get("plans", {}).values()
        )
        for inst in ctx.instances.values():
            if inst.source != "compiled":
                continue
            fns = [inst.fn]
            for attr in _FIXPOINTS:
                f = getattr(inst.fn, attr, None)
                if f is not None:
                    fixpoints.add(id(f))
                    fns.append(f)
            for f in fns:
                for attr in dir(f):
                    if attr.startswith("__") and attr.endswith("source__"):
                        text = getattr(f, attr)
                        if isinstance(text, str):
                            sources[id(text)] = len(text)
    return {
        "derive.instances": instances,
        "plan.handlers": handlers,
        "codegen.fixpoints": len(fixpoints),
        "codegen.source_kb": sum(sources.values()) / 1024.0,
    }


def full_args(mode: str, ins: tuple, outs: tuple) -> tuple:
    """A relation's argument tuple from a producer's inputs and outputs."""
    it_in, it_out = iter(ins), iter(outs)
    return tuple(next(it_in) if c == "i" else next(it_out) for c in mode)


# -- derive_cold -------------------------------------------------------------

#: Probe inputs are kept only where the interpreter answers definitely
#: at _PROBE_FUEL within _PROBE_OPS steps: two true and two false at
#: most per checker.
_PROBE_FUEL = 8
_PROBE_OPS = 4000
_PROBES_EACH_WAY = 2
#: Generator probe fuel per case study (a probe checks soundness, so
#: small values suffice).
_GEN_FUEL = {"bst": 6, "stlc": 3, "ifc": 6}


@dataclass
class Unit:
    """One context's worth of derivations: an SF chapter or a case
    study (whose Figure-3 relation also gets a generator)."""

    name: str
    declarations: str
    setup: object = None
    generator: "tuple | None" = None  # (rel, mode)
    hand_check: object = None

    def requests(self, declared) -> list[tuple]:
        from repro.core.relations import Relation
        from repro.derive.instances import CHECKER, GEN

        if self.generator is None:  # SF chapter: every relation's checker
            return [(CHECKER, d.name, None) for d in declared
                    if isinstance(d, Relation)]
        rel, mode = self.generator
        return [(CHECKER, rel, None), (GEN, rel, mode)]


def corpus_units() -> list[Unit]:
    from repro.casestudies import bst, ifc, stlc
    from repro.sf.registry import CHAPTER_MODULES

    units = []
    for name in CHAPTER_MODULES:
        mod = importlib.import_module(name)
        units.append(Unit(name.rsplit(".", 1)[1], mod.DECLARATIONS,
                          getattr(mod, "setup", None)))
    return units + [
        Unit("bst", bst.DECLARATIONS, generator=("bst", "iio"),
             hand_check=bst.handwritten_bst_check),
        Unit("stlc", stlc.DECLARATIONS, generator=("typing", "ioi"),
             hand_check=stlc.handwritten_typing_check),
        Unit("ifc", ifc.DECLARATIONS, generator=("indist_list", "io"),
             hand_check=ifc.handwritten_indist_check),
    ]


def _gen_inputs(unit: Unit, rng: random.Random) -> list[tuple]:
    """Generator probe inputs: the Figure-3 properties' own inputs."""
    from repro.casestudies import ifc, stlc
    from repro.core.values import from_int

    if unit.name == "bst":
        return [(from_int(0), from_int(16))]
    if unit.name == "stlc":
        env = stlc.StlcWorkload(None).environment()
        return [(env, stlc.N), (env, stlc.arr(stlc.N, stlc.N))]
    mem = [(rng.randint(0, 4), "H" if rng.random() < 0.5 else "L")
           for _ in range(4)]
    return [(ifc.mem_to_value(mem),)]


def build_reference(units: list[Unit], seed: int) -> dict:
    """Probe inputs and expected answers per ``(unit, rel, mode)``.

    Checker probes are the validation layer's bounded-exhaustive and
    seeded random argument tuples, answered by the plan interpreter
    under an operation budget.  Generator probes are inputs; their
    reference is the handwritten checker, applied to the output.
    """
    from repro.derive.instances import CHECKER, resolve
    from repro.derive.modes import Mode
    from repro.producers.option_bool import NONE_OB, SOME_TRUE
    from repro.resilience.budget import budget_scope
    from repro.validation.domains import exhaustive_tuples, random_tuples
    from repro.validation.obligations import ValidationConfig

    exhaustive_cfg = ValidationConfig(domain_depth=2, max_tuples=12)
    random_cfg = ValidationConfig(domain_depth=2, seed=seed)
    rng = random.Random(seed)
    ref: dict = {}
    for unit in units:
        ctx, declared = Phases().context(unit.declarations, unit.setup)
        for kind, rel, mode in unit.requests(declared):
            if kind != CHECKER:
                ref[(unit.name, rel, mode)] = _gen_inputs(unit, rng)
                continue
            relation = ctx.relations.get(rel)
            interp = resolve(ctx, CHECKER, rel, Mode.checker(relation.arity)).fn
            kept: dict = {True: [], False: []}
            for args in (exhaustive_tuples(ctx, relation, exhaustive_cfg)
                         + random_tuples(ctx, relation, random_cfg, count=12)):
                with budget_scope(ctx, max_ops=_PROBE_OPS) as bud:
                    answer = interp(_PROBE_FUEL, args)
                if bud.exhausted is not None or answer is NONE_OB:
                    continue
                bucket = kept[answer is SOME_TRUE]
                if len(bucket) < _PROBES_EACH_WAY:
                    bucket.append((args, answer))
            ref[(unit.name, rel, None)] = kept[True] + kept[False]
    return ref


class DeriveCold(Workload):
    op = "derivation"
    host = "suite.probe"
    derives_in_setup = False
    #: a round takes a second: time the host more than once around it
    ticks_per_step = 10

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        if quick:
            self.setup_repeats = 2
        self.rates: list[float] = []
        #: per round: (unit, kind, rel) -> seconds to derive it
        self.latencies: list[dict] = []
        self.round_counts: "dict | None" = None
        self.derived: list = []

    def setup(self, phases: Phases) -> None:
        """Load the corpus: import every unit and build its context."""
        self.units = corpus_units()
        for unit in self.units:
            phases.context(unit.declarations, unit.setup)

    def prepare(self, out: Outcome) -> None:
        self.reference = build_reference(self.units, self.seed)

    def step(self, i: int, out: Outcome) -> int:
        """One round: derive everything from fresh contexts, the units
        in a seed-chosen order, then probe every derived instance."""
        # Free the previous round's contexts (cyclic garbage) here,
        # before timing, not in whichever round the collector would pick.
        self.derived = []
        gc.collect()
        rng = random.Random(self.seed * 7919 + i)
        units = list(self.units)
        rng.shuffle(units)
        phases = Phases(self.tracer)
        contexts, derived, latencies = [], [], {}
        start = time.perf_counter()
        for unit in units:
            ctx, declared = phases.context(unit.declarations, unit.setup)
            contexts.append(ctx)
            # Declaration order within a unit: which derivation pays for a
            # shared dependency stays the same from round to round.
            for kind, rel, mode in unit.requests(declared):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    fn = phases.derive(ctx, kind, rel, mode)
                except Exception as e:  # a failed derivation is a failed op
                    out.fail(f"derive {unit.name}.{rel}: {e!r}")
                    continue
                latencies[(unit.name, kind, rel)] = time.perf_counter() - t0
                derived.append((unit, kind, rel, mode, fn, ctx))
        elapsed = time.perf_counter() - start
        if self.tracer is None:
            self.rates.append(len(derived) / elapsed)
            self.latencies.append(latencies)
        else:
            self.phase_rows.append(phases.metrics())
        counts = artifact_counts(contexts)
        if self.round_counts is None:
            self.round_counts = counts
        elif counts != self.round_counts:
            out.fail(f"round {i} produced {counts}, round 0 {self.round_counts}")
        self.derived = derived
        self.probe(derived, out)
        return len(derived)

    def probe(self, derived: list, out: Outcome, sample: "Sample | None" = None) -> None:
        """Run every derived instance on its probes; compare with the
        reference."""
        from repro.derive.instances import CHECKER
        from repro.producers.option_bool import SOME_TRUE
        from repro.producers.outcome import is_value

        tracer = self.tracer
        for unit, kind, rel, mode, fn, _ctx in derived:
            probes = self.reference[(unit.name, rel, mode)]
            call = fn if tracer is None else tracer.wrap(fn, "exec.call", "exec")
            if tracer is not None:
                tracer.begin("probe", self.host)
            try:
                if kind == CHECKER:
                    for args, expected in probes:
                        out.attempted += 1
                        got = call(_PROBE_FUEL, args)
                        if sample is not None:
                            sample.calls += 1
                        if got is not expected:
                            out.fail(f"{unit.name}.{rel}{args}: {got}, "
                                     f"reference {expected}")
                    continue
                rng = random.Random(self.seed)
                for ins in probes:
                    for _ in range(2):
                        got = call(_GEN_FUEL[unit.name], ins, rng)
                        if sample is not None:
                            sample.calls += 1
                        if not is_value(got):
                            if sample is not None:
                                sample.indefinite += 1
                            continue
                        out.attempted += 1
                        if unit.hand_check(64, full_args(mode, ins, got)) is not SOME_TRUE:
                            out.fail(f"{unit.name}.{rel}[{mode}] generated {got}")
            finally:
                if tracer is not None:
                    tracer.end()

    def sample(self, out: Outcome) -> Sample:
        """The last round's probes under the profiler, one context at a
        time."""
        from repro.derive.trace import profile

        total = Sample()
        total.ops = len(self.derived)
        by_ctx: dict = {}
        for d in self.derived:
            by_ctx.setdefault(id(d[5]), (d[5], []))[1].append(d)
        for ctx, derived in by_ctx.values():
            with profile(ctx) as trace:
                self.probe(derived, out, total)
            total.add_trace(trace)
        return total

    def end_to_end(self, factors: list[float]) -> tuple[dict, dict]:
        """Latency per relation is the median of its rounds: a gen-2
        collection (up to 50 ms here) lands in a random derivation of
        each round, and the median over rounds keeps it out of the
        corpus-wide percentiles."""
        rounds = [{k: t / f for k, t in r.items()} for r, f in zip(self.latencies, factors)]
        per_relation = [median([r[k] for r in rounds if k in r]) for k in rounds[0]]
        lat = latency_summary([per_relation])
        e2e = {
            "ops_per_s": median([r * f for r, f in zip(self.rates, factors)]),
            "latency_p50_us": lat["p50_us"],
            "latency_p99_us": lat["p99_us"],
        }
        return e2e, {
            "rounds": len(self.rates),
            "derivations_per_round": len(self.derived),
            "latency": lat,
            "latency_all_rounds": latency_summary([list(r.values()) for r in rounds]),
            "artifacts_per_round": self.round_counts,
        }

    def counts(self) -> dict:
        return self.round_counts

"""Observation sessions: wiring spans + metrics into the executors.

The executors (:mod:`repro.derive.exec_core` and the compiled twins
from :mod:`repro.derive.codegen`) look up ``caches.get(OBSERVE_KEY)``
once per fixpoint level; when it returns an :class:`Observation` they
call exactly four duck-typed hooks::

    span = obs.spans.begin(kind, rel, mode, size, top)
    obs.end_checker(span, option_bool)
    obs.end_enum(span, n_values, saw_fuel)
    obs.end_gen(span, result, attempts)

Everything else — outcome encoding, histogram updates, coverage — is
derived here, on the observe side, so the derive package never imports
this one and the hook sites stay one dict read + ``is not None`` when
observation is off.

:func:`observe` installs the session.  It also installs the session's
:class:`ObserveTrace` at ``TRACE_KEY`` (a
:class:`~repro.derive.trace.DeriveTrace` that additionally attributes
handler attempts to the innermost open span) and a
:class:`~repro.derive.stats.DeriveStats` if none is active — so an
``Observation`` always implies an active trace, which the coverage
layer reads.  The outcome encodings:

=========  =======================================================
kind       outcomes
=========  =======================================================
checker    ``true`` / ``false`` / ``fuel`` (indefinite ``None``)
enum       ``{n}v`` (n values, complete) / ``{n}v+fuel``
gen        ``value`` / ``fail`` / ``fuel``
any        ``abandoned`` (ancestor ended first) / ``open``
           (session closed first)
=========  =======================================================
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core.context import Context
from ..core.values import Value
from ..derive.stats import STATS_KEY, install_stats, remove_stats
from ..derive.trace import OBSERVE_KEY, TRACE_KEY, DeriveTrace
from ..producers.option_bool import NONE_OB, SOME_TRUE
from ..producers.outcome import FAIL, OUT_OF_FUEL
from .coverage import RuleCoverage
from .metrics import Metrics
from .spans import DEFAULT_CAP, SpanRecorder


class ObserveTrace(DeriveTrace):
    """The per-handler trace of an observation session: the ordinary
    :class:`~repro.derive.trace.DeriveTrace` counters, plus attempt
    attribution to the innermost open span.  (An attempt recorded
    while an abandoned-but-unclosed enumerator span is innermost
    attributes to that span — both backends leave the stack in the
    same state, so attribution is backend-identical too.)"""

    __slots__ = ("_spans",)

    def __init__(self, spans: SpanRecorder) -> None:
        super().__init__()
        self._spans = spans

    def record4(self, key: tuple, success: bool, fuel: bool) -> None:
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = [0, 0, 0, 0]
        entry[0] += 1
        if success:
            entry[1] += 1
        else:
            entry[2] += 1
        if fuel:
            entry[3] += 1
        stack = self._spans.stack
        if stack:
            stack[-1].attempts += 1


class Observation:
    """One observability session: spans + metrics + trace, with the
    hook methods the executors call."""

    __slots__ = ("spans", "metrics", "trace")

    def __init__(self, span_cap: "int | None" = DEFAULT_CAP) -> None:
        self.spans = SpanRecorder(span_cap)
        self.metrics = Metrics()
        self.trace = ObserveTrace(self.spans)

    # -- executor hooks ------------------------------------------------------

    def end_checker(self, span, result) -> None:
        if result is SOME_TRUE:
            outcome = "true"
        elif result is NONE_OB:
            outcome = "fuel"
        else:
            outcome = "false"
        self.spans.end(span, outcome)
        if span.size == span.top and result is not NONE_OB:
            # Entry-level call with a definite answer: how much fuel
            # head-room it had (fuel in minus subtree height).
            self.metrics.histogram("checker.fuel_at_answer").observe(
                max(span.size - span.consumed, 0)
            )

    def end_enum(self, span, values: int, saw_fuel: bool) -> None:
        outcome = f"{values}v+fuel" if saw_fuel else f"{values}v"
        self.spans.end(span, outcome)
        self.metrics.histogram("enum.slice_depth").observe(
            span.top - span.size
        )

    def end_gen(self, span, result, attempts: int) -> None:
        if result is OUT_OF_FUEL:
            outcome = "fuel"
        elif result is FAIL:
            outcome = "fail"
        else:
            outcome = "value"
        self.spans.end(span, outcome)
        self.metrics.histogram("gen.retries").observe(attempts)
        if outcome == "value" and span.size == span.top:
            # Entry-level samples only: sub-results would double-count.
            for v in result:
                if isinstance(v, Value):
                    self.metrics.histogram("gen.value_size").observe(
                        v.size()
                    )

    # -- session lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Force-close any spans still open (outcome ``open``)."""
        self.spans.close()

    # -- read side -----------------------------------------------------------

    def coverage(self) -> RuleCoverage:
        """Dynamic rule coverage, derived from the trace."""
        return RuleCoverage.from_trace(self.trace)

    def coverage_diffs(self, ctx: Context) -> list:
        """Static-vs-dynamic :func:`~repro.observe.coverage.coverage_diff`
        for every ``(relation, mode, kind)`` group this session
        exercised.  Groups the linter cannot analyze (polymorphic,
        unschedulable) are skipped; what remains is exactly the set of
        verdicts a dump can re-check offline, which is how stale REL004
        verdicts get caught by ``python -m repro.observe`` in CI."""
        from ..core.errors import ReproError
        from .coverage import coverage_diff

        cov = self.coverage()
        out = []
        for rel, mode, kind in cov.groups():
            if rel not in ctx.relations:
                continue
            try:
                out.append(coverage_diff(ctx, cov, rel, mode, kind=kind))
            except ReproError:
                continue
        return out

    def report(
        self, top: "int | None" = 10, relation: "str | None" = None
    ) -> str:
        """The full text report (top spans, coverage, histograms)."""
        from .report import render_observation

        return render_observation(self, top=top, relation=relation)

    def export_jsonl(self, path, *, ctx: "Context | None" = None) -> None:
        """Write the JSONL dump; with *ctx* it also carries the
        coverage-vs-linter diff lines (see :meth:`coverage_diffs`), so
        the report CLI can flag contradictions without the context."""
        from .export import write_jsonl

        write_jsonl(self, path, ctx=ctx)

    def export_chrome_trace(self, path) -> None:
        from .export import write_chrome_trace

        write_chrome_trace(self, path)

    def __repr__(self) -> str:
        return (
            f"Observation({len(self.spans)} spans, "
            f"{len(self.trace.entries)} handlers, {self.metrics!r})"
        )


@contextmanager
def observe(ctx: Context, *, span_cap: "int | None" = DEFAULT_CAP):
    """Enable full observation for the dynamic extent of the ``with``
    block; yields the :class:`Observation` being filled.

    Installs the observation at ``OBSERVE_KEY``, its
    :class:`ObserveTrace` at ``TRACE_KEY`` (replacing — and restoring
    on exit — any :func:`~repro.derive.trace.profile` trace), and a
    :class:`~repro.derive.stats.DeriveStats` if none is active, bound
    into the metrics registry.  On exit every still-open span is
    force-closed, so the yielded object is complete and stable after
    the block.

    Overhead contract: inside the block every fixpoint level pays for
    span bookkeeping (roughly profiling cost plus one object per
    level); outside, the interpreter's ``caches.get`` probes are the
    only trace left, and the compiled entry wrappers run hook-free
    fast twins.
    """
    caches = ctx.caches
    obs = Observation(span_cap)
    prev_obs = caches.get(OBSERVE_KEY)
    prev_trace = caches.get(TRACE_KEY)
    caches[OBSERVE_KEY] = obs
    caches[TRACE_KEY] = obs.trace
    installed_stats = caches.get(STATS_KEY) is None
    if installed_stats:
        install_stats(ctx)
    obs.metrics.bind_stats(caches.get(STATS_KEY))
    try:
        yield obs
    finally:
        obs.close()
        if prev_obs is None:
            caches.pop(OBSERVE_KEY, None)
        else:
            caches[OBSERVE_KEY] = prev_obs
        if prev_trace is None:
            caches.pop(TRACE_KEY, None)
        else:
            caches[TRACE_KEY] = prev_trace
        if installed_stats:
            remove_stats(ctx)

"""``repro.observe``: observability for derived computations.

The derive layer answers *what* (checkers decide, enumerators stream,
generators sample); this package answers *how it went*: the recursive
call tree as hierarchical spans, distributions as histograms, dynamic
rule coverage diffed against the static linter, all exportable as
JSON lines or Chrome trace events and renderable with
``python -m repro.observe``.

Everything hangs off one contextmanager::

    from repro.observe import observe

    with observe(ctx) as obs:
        checker.decide(args)
    print(obs.report())
    obs.export_jsonl("run.jsonl")

The hook sites live in :mod:`repro.derive.exec_core` and the compiled
twins from :mod:`repro.derive.codegen`; with no observation installed
they cost the interpreter one dict read per fixpoint level, and the
compiled entry wrappers run fast twins that carry no hook site.
All four backends (three interpreters + compiled) feed identical span
trees and coverage — the timing-stripped views
(:meth:`~repro.observe.spans.Span.identity`,
:class:`~repro.observe.coverage.RuleCoverage`) compare equal across
them.
"""

from ..derive.trace import OBSERVE_KEY
from .coverage import CoverageDiff, CoverageDiffRow, RuleCoverage, coverage_diff
from .export import (
    Dump,
    read_jsonl,
    render_prometheus,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_telemetry_jsonl,
)
from .merge import merge_metrics, merge_observations, merge_telemetry, merge_traces
from .metrics import Histogram, Metrics, TimeHistogram
from .report import render_dump, render_observation
from .session import Observation, ObserveTrace, observe
from .spans import DEFAULT_CAP, Span, SpanRecorder
from .telemetry import QueryEvent, Telemetry

__all__ = [
    "OBSERVE_KEY",
    "DEFAULT_CAP",
    "CoverageDiff",
    "CoverageDiffRow",
    "Dump",
    "Histogram",
    "Metrics",
    "Observation",
    "ObserveTrace",
    "QueryEvent",
    "RuleCoverage",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TimeHistogram",
    "coverage_diff",
    "merge_metrics",
    "merge_observations",
    "merge_telemetry",
    "merge_traces",
    "observe",
    "read_jsonl",
    "render_dump",
    "render_observation",
    "render_prometheus",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "write_telemetry_jsonl",
]

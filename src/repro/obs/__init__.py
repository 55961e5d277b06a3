"""Unified observability: pipeline tracing, simulator metrics, reports.

Public surface:

* :func:`span` / :func:`count` / :func:`tracing` /
  :class:`Tracer` -- pipeline span tracer
  (:mod:`repro.obs.tracer`); instrumentation is free when no tracer
  is active.
* :class:`SimMetrics` -- kernel counters plus the run's bus/arbiter
  folds (:mod:`repro.obs.simmetrics`), threaded through
  ``simulate(..., metrics=...)``.
* :mod:`repro.obs.export` -- JSON, Chrome ``trace_event`` and
  Prometheus text exporters.
* :mod:`repro.obs.report` -- the unified machine-readable run report.
* :class:`FlightRecorder` and :mod:`repro.obs.flight` -- causal
  transaction journal with exact clock attribution, threaded through
  ``simulate(..., recorder=...)`` and surfaced as ``repro-synth
  explain``.

See ``docs/observability.md`` for the metric catalogue and a
``repro-synth profile`` walkthrough.
"""

from repro.obs.flight import (
    FlightEvent,
    FlightRecorder,
    FlightTransaction,
)
from repro.obs.simmetrics import (
    Histogram,
    KernelMetrics,
    SimMetrics,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    activate,
    active_tracer,
    count,
    deactivate,
    span,
    tracing,
)

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "FlightTransaction",
    "Histogram",
    "KernelMetrics",
    "SimMetrics",
    "Span",
    "Tracer",
    "activate",
    "active_tracer",
    "count",
    "deactivate",
    "span",
    "tracing",
]

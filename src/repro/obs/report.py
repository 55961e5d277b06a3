"""Machine-readable run reports: pipeline + simulator, unified.

:func:`run_report` merges everything one synthesis/simulation run
produced into a single JSON-ready payload:

* ``pipeline`` -- the tracer's spans, counters and per-stage breakdown
  (:class:`~repro.obs.tracer.Tracer`);
* ``simulations`` -- one entry per simulated system: end clock,
  per-behavior clocks, and per-bus numbers that all come from the one
  fold of the run's logs, ``SimResult.buses`` / ``SimResult.arbiters``
  (:mod:`repro.sim.analysis`): ``bus_utilization``,
  ``arbitration_wait_clocks``, ``transaction_stats`` and the ``live``
  block of :class:`~repro.obs.simmetrics.SimMetrics` (kernel counters
  plus the same folds in the metrics layout).

The payload is what ``repro-synth synth --metrics-out`` and
``repro-synth profile`` write to disk, and what
:func:`repro.obs.export.to_prometheus` flattens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro import __version__
from repro.obs.simmetrics import SimMetrics
from repro.obs.tracer import Tracer
from repro.sim.analysis import BusStats

if TYPE_CHECKING:
    from repro.sim.runtime import SimResult


def bus_stats_dict(stats: BusStats) -> Dict[str, Any]:
    """JSON-ready form of :class:`~repro.sim.analysis.BusStats`."""
    return {
        "transactions": stats.transactions,
        "busy_clocks": stats.busy_clocks,
        "span_clocks": stats.span_clocks,
        "utilization": stats.utilization,
        "longest_idle_gap": stats.longest_idle_gap,
        "per_channel": {
            name: {
                "count": ch.count,
                "total_clocks": ch.total_clocks,
                "mean_clocks": ch.mean_clocks,
                "min_clocks": ch.min_clocks,
                "max_clocks": ch.max_clocks,
                "mean_interarrival": ch.mean_interarrival,
            }
            for name, ch in stats.per_channel.items()
        },
    }


def sim_section(system: str, result: "SimResult",
                metrics: Optional[SimMetrics] = None,
                recorder: Optional[Any] = None) -> Dict[str, Any]:
    """Report entry for one simulated system.

    With a :class:`~repro.obs.flight.FlightRecorder` that rode the run,
    the section gains an ``attribution`` block (see
    :func:`repro.obs.flight.summarize`).
    """
    section = {
        "system": system,
        "backend": result.backend,
        "fallbacks": dict(result.fallbacks),
        "end_clock": result.end_time,
        "behavior_clocks": dict(result.clocks),
        "bus_utilization": dict(result.utilization),
        "arbitration_wait_clocks": dict(result.arbitration_wait),
        "transaction_stats": {
            bus: bus_stats_dict(stats)
            for bus, stats in sorted(result.buses.items())
        },
        "faults": {
            "injected": len(result.fault_records),
            "records": [record.to_dict()
                        for record in result.fault_records],
        },
        "live": metrics.to_dict() if metrics is not None else None,
    }
    if recorder is not None:
        from repro.obs.flight import summarize
        section["attribution"] = summarize(recorder)
    return section


def run_report(meta: Mapping[str, Any],
               tracer: Optional[Tracer] = None,
               simulations: Optional[List[Dict[str, Any]]] = None,
               verification: Optional[Dict[str, Any]] = None,
               ) -> Dict[str, Any]:
    """The unified machine-readable run report.

    ``verification`` is the ``to_dict()`` payload of a temporal
    :class:`~repro.analysis.mc.checker.VerificationReport` when the run
    model-checked the design (``synth --vhdl`` / ``verify``).
    """
    payload = {
        "schema": "repro.obs/run-report/v1",
        "version": __version__,
        "meta": dict(meta),
        "pipeline": tracer.to_dict() if tracer is not None else None,
        "simulations": simulations or [],
    }
    if verification is not None:
        payload["verification"] = verification
    return payload

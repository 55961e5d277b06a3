"""The per-layer ledger: spans -> self time per layer, plus counts.

A traced run records two kinds of span, both on the
``time.perf_counter_ns`` clock:

* spans the benchmark opens around each call into a layer's public
  function (named after the layer, e.g. ``busgen``), and
* spans the program already emits when :func:`repro.obs.tracing` is on
  (``analysis.pass.absint``, ``sim.run``, ``explore.sim``, ...).

Every request gets a root ``request`` span.  :meth:`Ledger.add_request`
rebuilds the containment tree of one request's spans, computes each
span's exclusive time and charges it to the nearest enclosing span that
names a layer; time no layer encloses is ``other``.  A layer's ``calls``
count only its outermost spans, so a program span nested in the
benchmark's wrapper of the same layer is not counted twice.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

#: The layers, named after the program's modules.
LAYERS = (
    "frontend.parse",
    "partition",
    "busgen",
    "protogen.refine",
    "analysis.lint",
    "analysis.absint",
    "analysis.handshake",
    "analysis.temporal",
    "analysis.tv",
    "analysis.mc",
    "hdl.emit",
    "hdl.validate",
    "sim.elaborate",
    "sim.compile",
    "sim.validate",
    "sim.run",
    "obs.flight.explain",
    "explore.sweep",
    "explore.stage.partition",
    "explore.stage.busgen",
    "explore.stage.refine",
    "explore.stage.sim",
)

#: Program span names that are layers of their own (sub-layers of the
#: call the benchmark wrapped).  Program spans not listed here are
#: transparent: their time stays with the enclosing layer.
PROGRAM_SPANS = {
    "partition.cluster": "partition",
    "analysis.pass.absint": "analysis.absint",
    "analysis.pass.handshake": "analysis.handshake",
    "analysis.pass.temporal": "analysis.temporal",
    "sim.elaborate": "sim.elaborate",
    "sim.compile": "sim.compile",
    "sim.validate": "sim.validate",
    "sim.run": "sim.run",
    "explore.partition": "explore.stage.partition",
    "explore.busgen": "explore.stage.busgen",
    "explore.refine": "explore.stage.refine",
    "explore.sim": "explore.stage.sim",
}

#: Work counts every traced run reports (summed over measured requests).
COUNTS = (
    "sim.clocks",
    "sim.transactions",
    "sim.retries",
    "sim.faults_fired",
    "sim.fallbacks",
    "analysis.tv.refuted",
    "analysis.mc.refuted",
    "explore.cache.hits",
    "explore.cache.misses",
    "explore.cache.writes",
    "explore.cache.incidents",
    "busgen.widths_examined",
    "absint.widenings",
    "hdl.lines",
    "obs.flight.events",
)

#: Program counters (``repro.obs.count``) copied into the ledger.
PROGRAM_COUNTERS = ("busgen.widths_examined", "absint.widenings")

ROOT = "request"


def count_sim(counts: Counter, result: Any) -> None:
    """Tally one :class:`~repro.sim.runtime.SimResult`."""
    logs = result.transactions.values()
    counts["sim.clocks"] += result.end_time
    counts["sim.transactions"] += sum(len(log) for log in logs)
    counts["sim.retries"] += sum(t.retries for log in logs for t in log)
    counts["sim.faults_fired"] += len(result.fault_records)
    counts["sim.fallbacks"] += len(result.fallbacks)


def count_tv(counts: Counter, report: Any) -> None:
    """Tally a translation-validation report's refuted processes."""
    counts["analysis.tv.refuted"] += sum(
        1 for verdict in report.verdicts.values() if verdict.refuted)


def count_mc(counts: Counter, report: Any) -> None:
    """Tally a model-checking report's unproved properties."""
    counts["analysis.mc.refuted"] += sum(
        1 for verdict in report.verdicts if verdict.status != "PROVED")


def count_explore(counts: Counter, report: Dict[str, Any]) -> None:
    """Tally an explore run report: cache statistics, the program
    counters of every point, and the simulations actually run (a point
    whose sim stage came from the cache simulated nothing)."""
    for name, value in report["cache"]["stats"].items():
        counts[f"explore.cache.{name}"] += value
    for result in report["results"]:
        counts.update(result["spans"]["counters"])
        sim = result["sim"]
        if sim is not None and not result["stages"][-1]["cached"]:
            counts["sim.clocks"] += sim["end_clock"]
            counts["sim.transactions"] += sum(
                len(log) for log in sim["transactions"].values())
            counts["sim.fallbacks"] += len(sim["fallbacks"])


def layer_of(name: str) -> Optional[str]:
    if name in LAYERS:
        return name
    return PROGRAM_SPANS.get(name)


@dataclass
class RawSpan:
    name: str
    start_ns: int
    end_ns: int
    args: Dict[str, Any] = field(default_factory=dict)


def spans_from_tracer(spans: Iterable[Any]) -> List[RawSpan]:
    """Closed spans of a :class:`repro.obs.Tracer` (objects or their
    ``to_dict`` form) as :class:`RawSpan`."""
    out = []
    for span in spans:
        if isinstance(span, dict):
            start = span["start_ns"]
            out.append(RawSpan(span["name"], start,
                               start + span["duration_ns"]))
        elif span.end_ns is not None:
            out.append(RawSpan(span.name, span.start_ns, span.end_ns))
    return out


class Ledger:
    """Self time, calls and counts per layer over a traced run."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.requests = 0
        self.request_ns = 0
        self.events: List[Dict[str, Any]] = []

    def add_request(self, request_id: int, spans: List[RawSpan]) -> None:
        """Account one request; ``spans`` must include its root span."""
        ordered = sorted(spans, key=lambda s: (s.start_ns, -s.end_ns))
        parent: List[Optional[int]] = []
        stack: List[int] = []
        for index, span in enumerate(ordered):
            while stack and ordered[stack[-1]].end_ns <= span.start_ns:
                stack.pop()
            parent.append(stack[-1] if stack else None)
            stack.append(index)

        child_ns = [0] * len(ordered)
        for index, span in enumerate(ordered):
            if parent[index] is not None:
                child_ns[parent[index]] += span.end_ns - span.start_ns

        owner: List[Optional[str]] = []
        for index, span in enumerate(ordered):
            up = parent[index]
            inherited = owner[up] if up is not None else None
            mine = layer_of(span.name)
            if mine is not None and mine != inherited:
                self.calls[mine] += 1
            owner.append(mine or inherited)
            exclusive = span.end_ns - span.start_ns - child_ns[index]
            self.self_ns[owner[index] or "other"] += exclusive
            self.events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": span.start_ns / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "cat": owner[index] or "other",
                "args": dict(span.args, req=request_id,
                             parent=(ordered[up].name if up is not None
                                     else None)),
            })
            if span.name == ROOT:
                self.requests += 1
                self.request_ns += span.end_ns - span.start_ns

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics: ``<layer>.calls``, ``.ms_per_req`` and
        ``.share`` for every layer, every count, and ``other.share``."""
        requests = max(self.requests, 1)
        total = max(self.request_ns, 1)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.ms_per_req"] = self.self_ns[layer] / 1e6 / requests
            out[f"{layer}.share"] = self.self_ns[layer] / total
        for name in COUNTS:
            out[name] = self.counts[name]
        lookups = self.counts["explore.cache.hits"] + \
            self.counts["explore.cache.misses"]
        out["explore.cache.hit_ratio"] = (
            self.counts["explore.cache.hits"] / lookups if lookups else 0.0)
        out["other.share"] = self.self_ns["other"] / total
        return out

    def table(self) -> List[str]:
        """Self-time table, largest share first."""
        total = max(self.request_ns, 1)
        requests = max(self.requests, 1)
        rows = [(self.self_ns[name], name)
                for name in (*LAYERS, "other") if self.self_ns[name]]
        lines = [f"  {'layer':<26} {'calls':>7} {'self ms/req':>12} "
                 f"{'share':>7}"]
        for ns, name in sorted(rows, reverse=True):
            lines.append(f"  {name:<26} {self.calls[name]:>7} "
                         f"{ns / 1e6 / requests:>12.3f} {ns / total:>7.1%}")
        return lines

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome ``trace_event`` JSON (chrome://tracing, Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, handle)

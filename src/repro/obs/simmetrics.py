"""Simulator metrics: kernel counters plus the per-bus traffic folds.

:class:`SimMetrics` is the per-run container a caller passes to
``simulate(..., metrics=SimMetrics())``:

* :class:`KernelMetrics` hooks :class:`~repro.sim.kernel.Simulator` --
  delta passes, per-process step counts and, at every clock advance,
  how long each unfinished process sat blocked on a predicate
  (handshake wait) versus sleeping on a timer.  These scheduler
  counters are in no log, so they are the only live hooks; the kernel
  guards each call with ``if metrics is not None``.
* ``buses`` / ``arbiters`` are the run's
  :class:`~repro.sim.analysis.BusStats` and
  :class:`~repro.sim.analysis.ArbiterStats`, folded from the
  transaction and grant logs after the run -- the very records
  ``SimResult.buses`` / ``SimResult.arbiters`` hold.

``to_dict`` renders all of it for the exporters in
:mod:`repro.obs.export`; the run report in :mod:`repro.obs.report`
embeds it as the ``live`` block (the name predates the folds and is
kept for schema stability).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.sim.analysis import ArbiterStats, BusStats
    from repro.sim.runtime import SimResult

#: Histogram bucket upper bounds, in clocks.
LATENCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative ``le``)."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[int] = LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)   # last = +Inf
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; past the last bound is +Inf.
        self.counts[bisect_left(self.bounds, value)] += 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Histogram) and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]  # mutable

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> List[Dict[str, Any]]:
        """Cumulative ``[{le, count}]`` rows ending with ``+Inf``."""
        rows: List[Dict[str, Any]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            rows.append({"le": bound, "count": running})
        rows.append({"le": "+Inf", "count": running + self.counts[-1]})
        return rows

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the winning bucket, exactly like
        Prometheus's ``histogram_quantile``, but clamped to the
        observed ``[min, max]`` so a wide bucket cannot report a value
        outside the data.  The overflow bucket reports ``max``.
        Returns None for an empty histogram.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        running = 0
        for index, bound in enumerate(self.bounds):
            previous = running
            running += self.counts[index]
            if running >= rank and self.counts[index]:
                lower = self.bounds[index - 1] if index else 0
                fraction = ((rank - previous) / self.counts[index]
                            if self.counts[index] else 0.0)
                value = lower + (bound - lower) * fraction
                return float(min(max(value, self.min), self.max))
        return float(self.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": self.cumulative(),
        }


class _ProcessCounters:
    __slots__ = ("steps", "blocked_clocks", "timer_clocks")

    def __init__(self) -> None:
        self.steps = 0
        #: Clocks spent waiting on a WaitOn predicate (handshakes,
        #: schedule dependencies, arbitration).
        self.blocked_clocks = 0
        #: Clocks spent sleeping on a Wait timer (doing "work").
        self.timer_clocks = 0


class KernelMetrics:
    """Scheduler-level counters, fed by the simulation kernel."""

    def __init__(self) -> None:
        self.end_clock = 0
        self.clock_jumps = 0
        self.passes = 0
        self.steps = 0
        #: Event-kernel counters, filled by ``on_run_end``: how many
        #: wait predicates were evaluated, how many processes the
        #: EventBus woke, and how many timer-heap wakeups were served.
        self.predicate_evals = 0
        self.signal_wakeups = 0
        self.timer_pops = 0
        self._processes: Dict[str, _ProcessCounters] = {}

    def _process(self, name: str) -> _ProcessCounters:
        counters = self._processes.get(name)
        if counters is None:
            counters = self._processes[name] = _ProcessCounters()
        return counters

    # -- kernel hooks ------------------------------------------------------

    def on_step(self, name: str) -> None:
        self.steps += 1
        self._process(name).steps += 1

    def on_pass(self) -> None:
        self.passes += 1

    def on_advance(self, now: int, next_time: int,
                   processes: Iterable[Any]) -> None:
        """Called once per clock jump with the kernel's process list."""
        delta = next_time - now
        self.clock_jumps += 1
        self.end_clock = next_time
        for process in processes:
            if process.finished:
                continue
            counters = self._process(process.name)
            if process.predicate is not None:
                counters.blocked_clocks += delta
            else:
                counters.timer_clocks += delta

    def on_run_end(self, predicate_evals: int = 0, signal_wakeups: int = 0,
                   timer_pops: int = 0) -> None:
        """Called once when the kernel's run loop completes."""
        self.predicate_evals = predicate_evals
        self.signal_wakeups = signal_wakeups
        self.timer_pops = timer_pops

    def to_dict(self) -> Dict[str, Any]:
        return {
            "end_clock": self.end_clock,
            "clock_jumps": self.clock_jumps,
            "passes": self.passes,
            "steps": self.steps,
            "predicate_evals": self.predicate_evals,
            "signal_wakeups": self.signal_wakeups,
            "timer_pops": self.timer_pops,
            "processes": {
                name: {
                    "steps": c.steps,
                    "blocked_clocks": c.blocked_clocks,
                    "timer_clocks": c.timer_clocks,
                }
                for name, c in sorted(self._processes.items())
            },
        }


def bus_dict(stats: "BusStats", faults_injected: int) -> Dict[str, Any]:
    """The run report's ``live.buses`` entry for one bus fold."""
    return {
        "transactions": stats.transactions,
        "words": stats.words,
        "busy_clocks": stats.busy_clocks,
        "utilization": stats.utilization,
        "reads": stats.reads,
        "writes": stats.writes,
        "retries": stats.retries,
        "faults_injected": faults_injected,
        "per_channel": {name: channel.count
                        for name, channel in stats.per_channel.items()},
        "latency_clocks": stats.latency.to_dict(),
    }


def arbiter_dict(stats: "ArbiterStats") -> Dict[str, Any]:
    """The run report's ``live.arbiters`` entry for one arbiter fold."""
    return {
        "requests": stats.requests,
        "grants": dict(stats.grants),
        "max_queue_depth": stats.max_queue_depth,
        "mean_queue_depth": stats.mean_queue_depth,
        "wait_clocks": stats.wait.to_dict(),
    }


class SimMetrics:
    """Kernel counters plus the bus/arbiter folds of one run."""

    def __init__(self) -> None:
        self.kernel = KernelMetrics()
        self.buses: Dict[str, "BusStats"] = {}
        self.arbiters: Dict[str, "ArbiterStats"] = {}
        #: Faults the injector fired, per bus.
        self.faults_injected: Dict[str, int] = {}

    def on_run_end(self, result: "SimResult") -> None:
        """Adopt the folds of a finished run (called by the runtime)."""
        self.buses = result.buses
        self.arbiters = result.arbiters
        self.faults_injected = Counter(
            record.bus for record in result.fault_records)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel.to_dict(),
            "buses": {name: bus_dict(bus, self.faults_injected.get(name, 0))
                      for name, bus in sorted(self.buses.items())},
            "arbiters": {name: arbiter_dict(arb)
                         for name, arb in sorted(self.arbiters.items())},
        }

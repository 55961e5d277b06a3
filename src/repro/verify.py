"""Refinement verification: the paper's raison d'être, as an API.

"First, the refined specification is simulatable and the design
functionality after insertion of buses and communication protocols can
be verified" (Section 6).  :func:`verify_refinement` automates that
verification:

1. run the *original* specification in the golden direct-access
   interpreter,
2. simulate the *refined* specification clock-accurately over its
   generated buses,
3. compare -- final values of every shared variable, and, channel by
   channel, the exact sequence of (address, value) pairs that crossed
   each bus against the golden access trace,
4. optionally cross-check measured process clocks against the
   analytical performance estimator: under proven trip bounds each
   process's clocks lie in an interval, a point on branch- and
   ``While``-free processes (contention-free, sequential schedules).

The result is a :class:`VerificationReport` that either attests
equivalence or pinpoints the first divergence per channel/variable --
which is what a designer debugging a protocol actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.estimate.perf import process_clocks
from repro.protogen.refine import RefinedSpec
from repro.sim.runtime import SimResult, Stage, simulate
from repro.spec.interp import InterpResult, run_reference
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType


@dataclass(frozen=True)
class ValueMismatch:
    """A shared variable whose final value diverged."""

    variable: str
    #: For arrays: the first differing element index; None for scalars.
    index: Optional[int]
    golden: int
    refined: int


@dataclass(frozen=True)
class SequenceMismatch:
    """A channel whose transfer sequence diverged from the golden
    access trace."""

    channel: str
    #: Position of the first divergence (or the shorter length).
    position: int
    golden: Optional[Tuple[Optional[int], int]]
    refined: Optional[Tuple[Optional[int], int]]


@dataclass(frozen=True)
class ClockMismatch:
    """A behavior whose measured clocks fall outside the estimated
    interval ``[low, high]`` (``high is None``: no ceiling)."""

    behavior: str
    low: int
    high: Optional[int]
    measured: int


@dataclass
class VerificationReport:
    """Outcome of verifying one refinement."""

    value_mismatches: List[ValueMismatch] = field(default_factory=list)
    sequence_mismatches: List[SequenceMismatch] = field(default_factory=list)
    clock_mismatches: List[ClockMismatch] = field(default_factory=list)
    #: The underlying runs, for further inspection.
    golden: Optional[InterpResult] = None
    refined: Optional[SimResult] = None

    @property
    def passed(self) -> bool:
        return not (self.value_mismatches or self.sequence_mismatches
                    or self.clock_mismatches)

    def describe(self) -> str:
        if self.passed:
            checked = len(self.golden.final_values) if self.golden else 0
            return (f"verification PASSED: {checked} shared variables "
                    "equivalent, all channel sequences match")
        lines = ["verification FAILED:"]
        for m in self.value_mismatches:
            where = f"{m.variable}" + \
                (f"[{m.index}]" if m.index is not None else "")
            lines.append(f"  value    {where}: golden {m.golden}, "
                         f"refined {m.refined}")
        for m in self.sequence_mismatches:
            lines.append(f"  sequence {m.channel} @ {m.position}: "
                         f"golden {m.golden}, refined {m.refined}")
        for m in self.clock_mismatches:
            high = "inf" if m.high is None else m.high
            lines.append(f"  clocks   {m.behavior}: estimated "
                         f"[{m.low}, {high}], measured {m.measured}")
        return "\n".join(lines)


def _decode(channel, raw: int) -> int:
    dtype = channel.variable.dtype
    if isinstance(dtype, ArrayType):
        dtype = dtype.element
    if isinstance(dtype, IntType):
        return dtype.decode(raw)
    return raw


def _compare_values(golden: InterpResult, refined: SimResult,
                    report: VerificationReport) -> None:
    for name, expected in golden.final_values.items():
        actual = refined.final_values.get(name)
        if expected == actual:
            continue
        if isinstance(expected, list) and isinstance(actual, list):
            for index, (a, b) in enumerate(zip(expected, actual)):
                if a != b:
                    report.value_mismatches.append(
                        ValueMismatch(name, index, a, b))
                    break
        else:
            report.value_mismatches.append(
                ValueMismatch(name, None, expected, actual))


def _compare_sequences(spec: RefinedSpec, golden: InterpResult,
                       refined: SimResult,
                       report: VerificationReport) -> None:
    for bus in spec.buses:
        log = refined.transactions.get(bus.name, [])
        for channel in bus.group:
            expected = [
                (event.index, event.value)
                for event in golden.trace
                if event.variable == channel.variable.name
                and event.direction is channel.direction
                and event.behavior == channel.accessor.name
            ]
            measured = [
                (t.address, _decode(channel, t.data))
                for t in log if t.channel == channel.name
            ]
            if measured == expected:
                continue
            limit = max(len(expected), len(measured))
            for position in range(limit):
                g = expected[position] if position < len(expected) else None
                r = measured[position] if position < len(measured) else None
                if g != r:
                    report.sequence_mismatches.append(SequenceMismatch(
                        channel.name, position, g, r))
                    break


def _compare_clocks(spec: RefinedSpec, refined: SimResult,
                    report: VerificationReport) -> None:
    # Imported lazily: the analysis package is heavy for ``import repro``.
    from repro.analysis.absint.engine import analyze_behavior

    for behavior in spec.original.behaviors:
        measured = refined.clocks.get(behavior.name)
        if measured is None:
            continue
        trips = analyze_behavior(behavior).trip_bounds
        low, high = process_clocks(spec, behavior, trips).total
        if measured < low or (high is not None and measured > high):
            report.clock_mismatches.append(
                ClockMismatch(behavior.name, low, high, measured))


def verify_refinement(system: SystemSpec, refined_spec: RefinedSpec,
                      schedule: Optional[Sequence[Stage]] = None,
                      check_clocks: bool = True,
                      max_clocks: int = 10_000_000) -> VerificationReport:
    """Verify a refinement against the original specification.

    ``schedule`` sequences the behaviors in both worlds; the golden
    interpreter flattens it to its sequential order.  ``check_clocks``
    additionally cross-checks the estimator (only meaningful for
    sequential schedules -- contention makes measured clocks legally
    exceed estimates, so pass ``False`` for concurrent schedules).
    """
    flat_order: Optional[List[str]] = None
    if schedule is not None:
        flat_order = []
        for stage in schedule:
            if isinstance(stage, str):
                flat_order.append(stage)
            else:
                flat_order.extend(stage)

    golden = run_reference(system, order=flat_order)
    refined = simulate(refined_spec, schedule=schedule,
                       max_clocks=max_clocks)

    report = VerificationReport(golden=golden, refined=refined)
    _compare_values(golden, refined, report)
    _compare_sequences(refined_spec, golden, refined, report)
    if check_clocks:
        _compare_clocks(refined_spec, refined, report)
    return report

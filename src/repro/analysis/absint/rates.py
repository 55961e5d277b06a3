"""Statically proven channel access-count, bit-volume and rate bounds.

:mod:`repro.spec.access` counts accesses with *concrete* loop trip
counts (``For`` bounds are constant; ``While`` trusts its declared
``trip_count`` hint).  This module re-derives the same counts as sound
**intervals** ``[lo, hi]`` using trip bounds proven by the
abstract-interpretation engine:

* ``For`` trip counts are exact (constant bounds) -- ``lo == hi``;
* ``While`` trips come from :class:`~repro.analysis.absint.engine
  .TripBounds` (``hi is None`` = no finite bound proven);
* both arms of an ``If`` contribute ``[0, hi]`` -- either may be
  skipped, so only the upper bound survives.

Two counting front-ends are provided.  :func:`static_group_bounds`
counts direct accesses in the *original* behaviors (the busgen-side
view, mirroring :func:`repro.spec.access.analyze_behavior` site by site
so tight bounds reproduce the measured counts exactly).
:func:`refined_channel_bounds` counts generated accessor-procedure calls
in a *refined* spec (the view the simulator realizes one transaction per
call, which is what the soundness gate cross-validates).

:class:`StaticRateModel` turns bit-volume bounds into **rate bounds**:
``rate_bounds(channel, width) -> (lo, hi)`` bits/time-unit, where the
upper rate divides the maximum bit volume by the *shortest* provable
accessor lifetime and vice versa.  ``demand_bounds`` sums them into a
proven bracket around the Equation-1 demand, which bus generation's
``--rates static`` mode checks against the bus rate.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.absint.engine import (
    TripBounds,
    ValueAnalysis,
    analyze_behavior,
    analyze_refined_values,
)
from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.estimate.perf import PerformanceEstimator
from repro.protocols import Protocol
from repro.spec.access import Direction
from repro.spec.behavior import Behavior
from repro.spec.stmt import Assign, Call, For, If, Stmt, While
from repro.spec.variable import Variable


@dataclass(frozen=True)
class ChannelStaticBounds:
    """Proven access-count and bit-volume bounds of one channel."""

    channel_name: str
    accesses_lo: int
    #: ``None`` when no finite bound could be proven (unbounded loop).
    accesses_hi: Optional[int]
    message_bits: int

    @property
    def bounded(self) -> bool:
        return self.accesses_hi is not None

    @property
    def bits_lo(self) -> int:
        return self.accesses_lo * self.message_bits

    @property
    def bits_hi(self) -> Optional[int]:
        if self.accesses_hi is None:
            return None
        return self.accesses_hi * self.message_bits

    def contains_accesses(self, count: int) -> bool:
        """Soundness predicate: a measured access count is in bounds."""
        if count < self.accesses_lo:
            return False
        return self.accesses_hi is None or count <= self.accesses_hi

    def contains_bits(self, bits: int) -> bool:
        """Soundness predicate: a measured bit volume is in bounds."""
        if bits < self.bits_lo:
            return False
        return self.bits_hi is None or bits <= self.bits_hi

    def __str__(self) -> str:
        hi = "inf" if self.accesses_hi is None else str(self.accesses_hi)
        return (f"{self.channel_name}: accesses [{self.accesses_lo}, {hi}]"
                f" x {self.message_bits} bits")


def _mul_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Upper-bound product where ``None`` means unbounded (0 absorbs)."""
    if a == 0 or b == 0:
        return 0
    if a is None or b is None:
        return None
    return a * b


@dataclass(frozen=True)
class _Site:
    variable: Variable
    direction: Direction
    lo: int
    hi: Optional[int]


TripLookup = Callable[[While], TripBounds]


def _iter_interval_sites(body: Sequence[Stmt], lo: int, hi: Optional[int],
                         trips: TripLookup) -> Iterator[_Site]:
    """Interval-counted access sites; mirrors ``access._iter_sites``."""
    for stmt in body:
        if isinstance(stmt, While):
            bounds = trips(stmt)
            # Condition evaluated once per iteration plus the final
            # failing test: trips + 1 times.
            for read in stmt.cond.reads():
                yield _Site(read.variable, Direction.READ,
                            lo * (bounds.lo + 1),
                            _mul_hi(hi, None if bounds.hi is None
                                    else bounds.hi + 1))
            yield from _iter_interval_sites(
                stmt.body, lo * bounds.lo, _mul_hi(hi, bounds.hi), trips)
            continue
        if isinstance(stmt, Assign):
            yield _Site(stmt.target.variable, Direction.WRITE, lo, hi)
        if isinstance(stmt, Call):
            for result in stmt.results:
                yield _Site(result.variable, Direction.WRITE, lo, hi)
        for read in stmt.reads():
            yield _Site(read.variable, Direction.READ, lo, hi)
        if isinstance(stmt, If):
            # Either arm may be skipped at runtime: lower bound 0.
            yield from _iter_interval_sites(stmt.then_body, 0, hi, trips)
            yield from _iter_interval_sites(stmt.else_body, 0, hi, trips)
        elif isinstance(stmt, For):
            yield from _iter_interval_sites(
                stmt.body, lo * stmt.trip_count,
                _mul_hi(hi, stmt.trip_count), trips)


def _trip_lookup(analysis: ValueAnalysis) -> TripLookup:
    return analysis.trip_bounds


def static_channel_bounds(channel: Channel,
                          analysis: Optional[ValueAnalysis] = None,
                          ) -> ChannelStaticBounds:
    """Bounds of one channel from its accessor's original body."""
    if analysis is None:
        analysis = analyze_behavior(channel.accessor)
    lo_total = 0
    hi_total: Optional[int] = 0
    for site in _iter_interval_sites(channel.accessor.body, 1, 1,
                                     _trip_lookup(analysis)):
        if site.variable is not channel.variable:
            continue
        if site.direction is not channel.direction:
            continue
        lo_total += site.lo
        hi_total = None if (hi_total is None or site.hi is None) \
            else hi_total + site.hi
    return ChannelStaticBounds(
        channel_name=channel.name,
        accesses_lo=lo_total,
        accesses_hi=hi_total,
        message_bits=channel.message_bits,
    )


def static_group_bounds(group: ChannelGroup,
                        ) -> Dict[str, ChannelStaticBounds]:
    """Bounds of every member channel, keyed by channel name.

    Behavior analyses are shared across channels of the same accessor.
    """
    analyses: Dict[int, ValueAnalysis] = {}
    out: Dict[str, ChannelStaticBounds] = {}
    for channel in group:
        key = id(channel.accessor)
        if key not in analyses:
            analyses[key] = analyze_behavior(channel.accessor)
        out[channel.name] = static_channel_bounds(channel, analyses[key])
    return out


def _iter_call_counts(body: Sequence[Stmt], lo: int, hi: Optional[int],
                      trips: TripLookup,
                      ) -> Iterator[Tuple[Channel, int, Optional[int]]]:
    """Interval-counted accessor-procedure calls in a refined body."""
    for stmt in body:
        if isinstance(stmt, Call):
            procedure = stmt.procedure
            channel = getattr(procedure, "channel", None)
            role = getattr(getattr(procedure, "role", None), "value", None)
            if channel is not None and role == "accessor":
                yield channel, lo, hi
        elif isinstance(stmt, If):
            yield from _iter_call_counts(stmt.then_body, 0, hi, trips)
            yield from _iter_call_counts(stmt.else_body, 0, hi, trips)
        elif isinstance(stmt, For):
            yield from _iter_call_counts(
                stmt.body, lo * stmt.trip_count,
                _mul_hi(hi, stmt.trip_count), trips)
        elif isinstance(stmt, While):
            bounds = trips(stmt)
            yield from _iter_call_counts(
                stmt.body, lo * bounds.lo, _mul_hi(hi, bounds.hi), trips)


def refined_channel_bounds(spec) -> Dict[str, ChannelStaticBounds]:
    """Bounds on generated-procedure calls per channel of a refined spec.

    One accessor call is one bus transaction, so these bounds are what
    the simulator's transaction log must fall inside (the soundness
    gate).  Trip bounds come from the spec's memoized value analysis;
    the bounds are memoized on the spec as well.
    """
    return spec.memoized("bounds", lambda: _refined_channel_bounds(spec))


def _refined_channel_bounds(spec) -> Dict[str, ChannelStaticBounds]:
    analysis = analyze_refined_values(spec)
    totals: Dict[str, Tuple[int, Optional[int]]] = {}
    channels: Dict[str, Channel] = {}
    for bus in spec.buses:
        for channel in bus.group:
            channels[channel.name] = channel
            totals[channel.name] = (0, 0)
    for behavior in spec.behaviors:
        for channel, lo, hi in _iter_call_counts(
                behavior.body, 1, 1, _trip_lookup(analysis)):
            current = totals.get(channel.name)
            if current is None:
                channels[channel.name] = channel
                current = (0, 0)
            total_lo, total_hi = current
            totals[channel.name] = (
                total_lo + lo,
                None if (total_hi is None or hi is None) else total_hi + hi,
            )
    return {
        name: ChannelStaticBounds(
            channel_name=name,
            accesses_lo=lo,
            accesses_hi=hi,
            message_bits=channels[name].message_bits,
        )
        for name, (lo, hi) in sorted(totals.items())
    }


class StaticRateModel:
    """Proven rate brackets per channel and width (Equation-1 inputs).

    The average-rate denominator -- the accessor lifetime -- itself
    depends on access counts, so the model evaluates it at both ends of
    the proven count intervals: the *upper* rate bound divides maximum
    bits by the minimum lifetime, the *lower* bound minimum bits by the
    maximum lifetime (``0.0`` when some sibling channel is unbounded and
    the lifetime has no finite ceiling).
    """

    def __init__(self, group: ChannelGroup, protocol: Protocol,
                 estimator: Optional[PerformanceEstimator] = None,
                 bounds: Optional[Dict[str, ChannelStaticBounds]] = None):
        self.group = group
        self.protocol = protocol
        self.estimator = estimator or PerformanceEstimator()
        self.bounds = bounds if bounds is not None \
            else static_group_bounds(group)

    def channel_bounds(self, channel: Channel) -> ChannelStaticBounds:
        bounds = self.bounds.get(channel.name)
        if bounds is None:
            # Unknown channel: only the trivial bound is sound.
            bounds = ChannelStaticBounds(channel.name, 0, None,
                                         channel.message_bits)
        return bounds

    def _patched_siblings(self, accessor: Behavior,
                          end: str) -> Optional[List[Channel]]:
        """Sibling channels with accesses pinned to one interval end;
        ``None`` when pinning to an unbounded upper end."""
        patched: List[Channel] = []
        for sibling in self.group.channels_of(accessor):
            bounds = self.channel_bounds(sibling)
            count = bounds.accesses_lo if end == "lo" else bounds.accesses_hi
            if count is None:
                return None
            clone = copy.copy(sibling)
            clone.accesses = count
            patched.append(clone)
        return patched

    def lifetime_bounds(self, channel: Channel,
                        width: int) -> Tuple[int, Optional[int]]:
        """Provable ``[lo, hi]`` accessor lifetime in clocks."""
        low_traffic = self._patched_siblings(channel.accessor, "lo")
        high_traffic = self._patched_siblings(channel.accessor, "hi")
        assert low_traffic is not None  # lower counts are always finite
        lifetime_lo = self.estimator.lifetime_clocks(
            channel.accessor, low_traffic, width, self.protocol)
        lifetime_hi = None if high_traffic is None \
            else self.estimator.lifetime_clocks(
                channel.accessor, high_traffic, width, self.protocol)
        return lifetime_lo, lifetime_hi

    def rate_bounds(self, channel: Channel,
                    width: int) -> Tuple[float, float]:
        """Proven ``(lo, hi)`` average rate in bits/time-unit.

        ``hi`` is ``math.inf`` when the channel's bit volume has no
        finite bound; ``lo`` is ``0.0`` when the lifetime has none.
        """
        bounds = self.channel_bounds(channel)
        lifetime_lo, lifetime_hi = self.lifetime_bounds(channel, width)
        period = self.group.clock_period
        if bounds.bits_hi is None:
            rate_hi = math.inf
        else:
            # A process always runs at least one clock; guard the
            # degenerate zero-lifetime corner.
            rate_hi = bounds.bits_hi / (max(lifetime_lo, 1) * period)
        if lifetime_hi is None or lifetime_hi <= 0:
            rate_lo = 0.0
        else:
            rate_lo = bounds.bits_lo / (lifetime_hi * period)
        return rate_lo, rate_hi

    def demand_bounds(self, width: int) -> Tuple[float, float]:
        """Proven bracket around the Equation-1 demand at one width."""
        demand_lo = 0.0
        demand_hi = 0.0
        for channel in self.group:
            rate_lo, rate_hi = self.rate_bounds(channel, width)
            demand_lo += rate_lo
            demand_hi += rate_hi
        return demand_lo, demand_hi

    def bus_rate_at(self, width: int) -> float:
        return self.protocol.bus_rate(width, self.group.clock_period)

    def is_provably_feasible(self, width: int) -> bool:
        """Equation 1 holds under the proven *worst-case* demand."""
        return self.bus_rate_at(width) >= self.demand_bounds(width)[1]

    def is_provably_infeasible(self, width: int) -> bool:
        """Equation 1 is violated even under the proven *best-case*
        demand: no measured workload can make this width work."""
        return self.bus_rate_at(width) < self.demand_bounds(width)[0] \
            * (1.0 - 1e-9)

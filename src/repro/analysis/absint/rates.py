"""Statically proven channel access-count, bit-volume and rate bounds.

Every count and clock here comes from :func:`repro.spec.access.fold`,
the one cost model behind channel extraction and the performance
estimator, run under the trip bounds the abstract-interpretation engine
proves instead of the ``--@ trips`` pragma:

* ``For`` trip counts are exact (constant bounds) -- ``lo == hi``;
* ``While`` trips come from :class:`~repro.analysis.absint.engine
  .TripBounds` (``hi is None`` = no finite bound proven);
* either arm of an ``If`` may be skipped: its sites count ``[0, hi]``
  and it costs 1 plus its shorter arm at the low end, 1 plus its longer
  arm at the high end.

Two front-ends differ only in the fold's site kind.
:func:`static_group_bounds` counts direct accesses in the *original*
behaviors (the busgen-side view; tight bounds reproduce the measured
counts exactly).  :func:`refined_channel_bounds` counts generated
accessor-procedure calls in a *refined* spec (the simulator realizes one
transaction per call, which is what the soundness gate cross-validates).
Each channel's bounds also carry its accessor's clocks outside the
channel's own bus: computation, plus transfers on any other bus; a
refined channel's also carry the bits its layout moves per access.

:class:`StaticRateModel` turns them into **rate bounds**:
``rate_bounds(channel, width) -> (lo, hi)`` bits/time-unit, where the
upper rate divides the maximum bit volume by the *shortest* provable
accessor lifetime and vice versa.  ``demand_bounds`` sums them into a
proven bracket around the Equation-1 demand, which bus generation's
``--rates static`` mode checks against the bus rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.absint.engine import (
    analyze_behavior,
    analyze_refined_values,
)
from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.estimate.perf import transfer_clocks
from repro.protocols import Protocol
from repro.spec.access import (
    Cost,
    Interval,
    accessor_calls,
    add_hi,
    fold,
    mul_hi,
    variable_sites,
)


@dataclass(frozen=True)
class ChannelStaticBounds:
    """Proven access-count and bit-volume bounds of one channel."""

    channel_name: str
    accesses_lo: int
    #: ``None`` when no finite bound could be proven (unbounded loop).
    accesses_hi: Optional[int]
    message_bits: int
    #: Clocks the channel's accessor spends outside transfers on the
    #: channel's own bus: its lifetime less that bus's traffic.
    accessor_clocks: Interval = (0, None)
    #: Bits one access moves on the bus, the layout a refined spec built
    #: (``None``: the declared ``message_bits``): they set its clocks.
    layout_bits: Optional[int] = None

    @property
    def bounded(self) -> bool:
        return self.accesses_hi is not None

    @property
    def bits_lo(self) -> int:
        return self.accesses_lo * self.message_bits

    @property
    def bits_hi(self) -> Optional[int]:
        return mul_hi(self.accesses_hi, self.message_bits)

    @property
    def transfer_bits(self) -> int:
        return self.message_bits if self.layout_bits is None \
            else self.layout_bits

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


def static_group_bounds(group: ChannelGroup,
                        ) -> Dict[str, ChannelStaticBounds]:
    """Bounds of every member channel, keyed by channel name: one fold
    per accessor, under the trip bounds of its modular value analysis
    (shared variables havocked, as nothing else is known before
    refinement)."""
    costs: Dict[int, Cost] = {}
    out: Dict[str, ChannelStaticBounds] = {}
    for channel in group:
        accessor = channel.accessor
        cost = costs.get(id(accessor))
        if cost is None:
            remote = frozenset(sibling.variable
                               for sibling in group.channels_of(accessor))
            cost = fold(accessor.body,
                        analyze_behavior(accessor).trip_bounds,
                        variable_sites, remote)
            costs[id(accessor)] = cost
        out[channel.name] = ChannelStaticBounds(
            channel.name, *cost.accesses(channel.variable, channel.direction),
            channel.message_bits, cost.clocks)
    return out


def refined_channel_bounds(spec) -> Dict[str, ChannelStaticBounds]:
    """Bounds on generated-procedure calls per channel of a refined spec.

    One accessor call is one bus transaction, so these bounds are what
    the simulator's transaction log must fall inside (the soundness
    gate).  Trip bounds come from the spec's memoized value analysis;
    the bounds are memoized on the spec as well.
    """
    return spec.memoized("bounds", lambda: _refined_channel_bounds(spec))


def _refined_channel_bounds(spec) -> Dict[str, ChannelStaticBounds]:
    trips = analyze_refined_values(spec).trip_bounds
    costs = {behavior.name: fold(behavior.body, trips, accessor_calls)
             for behavior in spec.behaviors}
    # Per channel: its bus, its call interval and the clocks of those
    # calls as built.
    rows = []
    for bus in spec.buses:
        for channel in bus.group:
            lo, hi = costs[channel.accessor.name].counts.get(channel.name,
                                                             (0, 0))
            per_message = transfer_clocks(
                bus.procedures[channel.name].layout.total_bits,
                bus.structure.width, bus.structure.protocol)
            rows.append((bus, channel, (lo, hi),
                         (lo * per_message, mul_hi(hi, per_message))))
    out: Dict[str, ChannelStaticBounds] = {}
    for bus, channel, calls, _ in rows:
        lo, hi = costs[channel.accessor.name].clocks
        for other_bus, other, _, (traffic_lo, traffic_hi) in rows:
            if other.accessor.name == channel.accessor.name \
                    and other_bus is not bus:
                lo, hi = lo + traffic_lo, add_hi(hi, traffic_hi)
        out[channel.name] = ChannelStaticBounds(
            channel.name, *calls, channel.message_bits, (lo, hi),
            bus.procedures[channel.name].layout.total_bits)
    return dict(sorted(out.items()))


class StaticRateModel:
    """Proven rate brackets per channel and width (Equation-1 inputs).

    The average-rate denominator -- the accessor lifetime -- itself
    depends on access counts, so the model evaluates it at both ends of
    the proven count intervals: the *upper* rate bound divides maximum
    bits by the minimum lifetime, the *lower* bound minimum bits by the
    maximum lifetime (``0.0`` when the lifetime has no finite ceiling:
    an unbounded loop in the accessor).
    """

    def __init__(self, group: ChannelGroup, protocol: Protocol,
                 bounds: Optional[Dict[str, ChannelStaticBounds]] = None):
        self.group = group
        self.protocol = protocol
        self.bounds = bounds if bounds is not None \
            else static_group_bounds(group)

    def channel_bounds(self, channel: Channel) -> ChannelStaticBounds:
        bounds = self.bounds.get(channel.name)
        if bounds is None:
            # Unknown channel: only the trivial bound is sound.
            bounds = ChannelStaticBounds(channel.name, 0, None,
                                         channel.message_bits)
        return bounds

    def lifetime_bounds(self, channel: Channel,
                        width: int) -> Tuple[int, Optional[int]]:
        """Provable ``[lo, hi]`` accessor lifetime in clocks: its clocks
        outside this bus plus every sibling channel's transfers."""
        lo, hi = self.channel_bounds(channel).accessor_clocks
        for sibling in self.group.channels_of(channel.accessor):
            bounds = self.channel_bounds(sibling)
            per_message = transfer_clocks(bounds.transfer_bits, width,
                                          self.protocol)
            lo += bounds.accesses_lo * per_message
            hi = add_hi(hi, mul_hi(bounds.accesses_hi, per_message))
        return lo, hi

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
        """Proven bracket around the Equation-1 demand at one width.  A
        message weighs its declared bits, or fewer if its layout moves
        fewer (a tightened field); check bits only add transfer clocks."""
        demand_lo = 0.0
        demand_hi = 0.0
        for channel in self.group:
            rate_lo, rate_hi = self.rate_bounds(channel, width)
            bounds = self.channel_bounds(channel)
            if bounds.transfer_bits < bounds.message_bits:
                scale = bounds.transfer_bits / bounds.message_bits
                rate_lo, rate_hi = rate_lo * scale, rate_hi * scale
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

"""Channel rate computation (Section 2 of the paper).

The **channel average rate** ``AveRate(C)`` is "the rate at which data is
sent over channel C over the lifetime of the processes which communicate
over it": total message bits divided by the accessor process's lifetime.
The lifetime itself depends on the candidate buswidth (a narrower bus
stretches communication, lengthening the lifetime and *lowering* the
average rate), which is why bus generation re-estimates rates per width
(Section 3 step 3; the estimation method is the paper's ref [8]).

The **channel peak rate** is the rate sustained *during* a transfer:
useful bits per word divided by the protocol delay.  A 20-bit bus moving
23-bit messages under the 2-clock full handshake has a peak rate of
``20 / 2 = 10`` bits/clock -- the value constrained in Figure 8's design
A, which selects exactly width 20.

The **bus rate** (Equation 2) lives on :class:`repro.protocols.Protocol`.
Feasibility (Equation 1) requires ``BusRate >= sum of AveRates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.errors import ChannelError
from repro.estimate.perf import PerformanceEstimator, transfer_clocks
from repro.protocols import Protocol


@dataclass(frozen=True)
class ChannelRates:
    """Rates of one channel under one candidate bus implementation."""

    channel_name: str
    width: int
    #: bits per time unit (bits/clock when clock_period == 1).
    average_rate: float
    #: bits per time unit during an active transfer.
    peak_rate: float
    #: accessor process lifetime in clocks, the average-rate denominator.
    lifetime_clocks: int


def peak_rate(channel: Channel, width: int, protocol: Protocol,
              clock_period: float = 1.0) -> float:
    """Peak rate of a channel on a ``width``-bit bus.

    During a transfer, each protocol round moves one bus word.  The word
    carries ``min(width, message_bits)`` useful bits (a bus wider than
    the message cannot be filled).
    """
    return _peak_rate(channel.message_bits, width, protocol, clock_period)


def _peak_rate(message_bits: int, width: int, protocol: Protocol,
               clock_period: float) -> float:
    if width < 1:
        raise ChannelError(f"buswidth must be >= 1, got {width}")
    useful = min(width, message_bits)
    return useful / (protocol.delay_clocks * clock_period)


def average_rate(channel: Channel, siblings: Sequence[Channel], width: int,
                 protocol: Protocol, clock_period: float = 1.0,
                 estimator: Optional[PerformanceEstimator] = None) -> float:
    """Average rate of a channel on a ``width``-bit bus.

    ``siblings`` must contain every channel whose accessor is the same
    behavior as ``channel``'s (including ``channel`` itself): they all
    stretch the process lifetime.  Channels of other behaviors in the
    sequence are ignored.
    """
    estimator = estimator or PerformanceEstimator()
    lifetime = estimator.lifetime_clocks(
        channel.accessor, siblings, width, protocol)
    if lifetime <= 0:
        raise ChannelError(
            f"channel {channel.name}: accessor {channel.accessor.name} has "
            "zero lifetime; cannot define an average rate"
        )
    return channel.total_bits / (lifetime * clock_period)


class GroupRateModel:
    """Computes all member-channel rates of a group per candidate width.

    Everything that does not depend on the width is derived once, when
    the model is built: each member's message and total bits, and for
    each accessor its computation clocks and the ``(accesses,
    message_bits)`` traffic of every channel it drives.  A
    :meth:`rates_at` call then does only the width-dependent
    arithmetic, with the same integer and float expressions as
    :func:`average_rate` and :func:`peak_rate`.
    """

    def __init__(self, group: ChannelGroup, protocol: Protocol,
                 estimator: Optional[PerformanceEstimator] = None):
        self.group = group
        self.protocol = protocol
        self.estimator = estimator or PerformanceEstimator()
        #: Per member, in group order: (channel, message_bits,
        #: total_bits, accessor's computation clocks, accessor's
        #: [(accesses, message_bits)] over the channels it drives).
        self._members: List[Tuple[Channel, int, int, int,
                                  List[Tuple[int, int]]]] = []
        accessors: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        for channel in group:
            accessor = channel.accessor
            if id(accessor) not in accessors:
                siblings = group.channels_of(accessor)
                accessors[id(accessor)] = (
                    self.estimator.comp_clocks(accessor, siblings),
                    [(c.accesses, c.message_bits) for c in siblings])
            message_bits = channel.message_bits
            self._members.append((channel, message_bits,
                                  channel.accesses * message_bits,
                                  *accessors[id(accessor)]))

    def rates_at(self, width: int) -> Dict[str, ChannelRates]:
        """Rates of every member channel at one buswidth."""
        protocol = self.protocol
        clock_period = self.group.clock_period
        out: Dict[str, ChannelRates] = {}
        for channel, message_bits, total_bits, comp, traffic \
                in self._members:
            lifetime = comp + sum(
                accesses * transfer_clocks(bits, width, protocol)
                for accesses, bits in traffic)
            if lifetime <= 0:
                raise ChannelError(
                    f"channel {channel.name}: accessor "
                    f"{channel.accessor.name} has zero lifetime"
                )
            out[channel.name] = ChannelRates(
                channel_name=channel.name,
                width=width,
                average_rate=total_bits / (lifetime * clock_period),
                peak_rate=_peak_rate(message_bits, width, protocol,
                                     clock_period),
                lifetime_clocks=lifetime,
            )
        return out

    def demand_at(self, width: int) -> float:
        """Sum of member average rates: the right side of Equation 1."""
        return sum(r.average_rate for r in self.rates_at(width).values())

    def bus_rate_at(self, width: int) -> float:
        """Bus data rate at one width: the left side of Equation 1."""
        return self.protocol.bus_rate(width, self.group.clock_period)

    def is_feasible(self, width: int) -> bool:
        """Equation 1: the bus keeps up with all member channels."""
        return self.bus_rate_at(width) >= self.demand_at(width)

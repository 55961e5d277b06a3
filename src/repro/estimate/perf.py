"""Performance estimation (substrate for ref [10]).

The paper uses "a performance estimator [10]" to obtain process
execution times for each candidate buswidth (Figure 7).  This module
implements that estimator as a clock-accurate analytical model over the
statement IR:

``exec_clocks(P, w) = comp_clocks(P) + comm_clocks(P, w)``

* **Computation clocks** come from :func:`repro.spec.access.fold`, the
  one cost model shared with access counting and the static rate
  bounds: one control step per statement, loops pay one clock of
  overhead per iteration.  The point estimate takes each ``While``'s
  trip pragma and the longer arm of each ``If``, the standard
  conservative choice for constraint checking.
* **Communication clocks**: every access to a remote variable is one
  message of ``message_bits`` bits; a ``w``-bit bus moves it in
  ``ceil(message_bits / w)`` words of ``protocol.delay_clocks`` clocks
  each.  This is what produces the Figure 7 staircase: execution time
  decreases with width and plateaus once ``w >= message_bits`` (23 for
  the FLC channels -- "bus widths greater than 23 pins do not yield any
  further improvements").

:func:`process_clocks` bounds one process of a built design as an
interval, under either trip lookup: the point estimate under the
pragma (its upper end), and a range every execution falls in under the
abstract interpreter's proven trips.  The estimator is the *same model*
the simulator realizes, so on branch- and ``While``-free processes the
interval is a point and equals the measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence

from repro.errors import EstimationError
from repro.channels.channel import Channel
from repro.protocols import Protocol
from repro.spec.access import (
    Interval,
    TripLookup,
    add_hi,
    fold,
    mul_hi,
    pragma_trips,
    variable_sites,
)
from repro.spec.behavior import Behavior
from repro.spec.stmt import Stmt


def transfer_clocks(bits: int, width: int, protocol: Protocol) -> int:
    """Clocks to move one ``bits``-bit message over a ``width``-bit bus.

    ``ceil(bits / width)`` bus words at ``protocol.delay_clocks`` clocks
    per word (Figure 4's procedures loop ``for J in 1 to 2`` to push a
    16-bit message through an 8-bit bus, two handshakes of 2 clocks),
    plus the protocol's per-message setup (zero for the paper's
    protocols; the burst extension pays its handshake here).
    """
    if bits < 0:
        raise EstimationError(f"message bits must be >= 0, got {bits}")
    if width < 1:
        raise EstimationError(f"buswidth must be >= 1, got {width}")
    if bits == 0:
        return 0
    words = math.ceil(bits / width)
    return protocol.message_clocks(words)


def comp_clocks_body(body: Sequence[Stmt],
                     remote: frozenset = frozenset()) -> int:
    """Computation clocks of a statement list (communication excluded),
    under the trip pragma.

    ``remote`` holds the variables that live on another module.  An
    assignment *into* a remote variable is pure communication after
    refinement (``X <= 32`` becomes ``SendCH0(32)``), so it contributes
    no computation step of its own -- its cost is entirely the transfer
    counted by :meth:`PerformanceEstimator.comm_clocks`.  Remote *reads*
    inside an expression still leave the computation statement behind
    (``IR <= MEMtemp``), so those statements keep their clock.
    """
    return fold(body, pragma_trips, variable_sites, remote).clocks[1]


class ProcessClocks(NamedTuple):
    """Clock intervals of one process: computation and transfers."""

    comp: Interval
    comm: Interval

    @property
    def total(self) -> Interval:
        return self.comp[0] + self.comm[0], add_hi(self.comp[1],
                                                   self.comm[1])


def process_clocks(spec, behavior: Behavior,
                   trips: TripLookup) -> ProcessClocks:
    """Clocks of one original behavior as built in a refined spec: its
    computation interval, and per channel it accesses the count interval
    times :func:`transfer_clocks` of the message layout the bus actually
    moves (a ``--tighten-fields`` layout moves fewer bits than the
    channel's declared message)."""
    channels = [(channel, bus) for bus in spec.buses
                for channel in bus.group if channel.accessor is behavior]
    cost = fold(behavior.body, trips, variable_sites,
                frozenset(channel.variable for channel, _ in channels))
    comm_lo, comm_hi = 0, 0
    for channel, bus in channels:
        count_lo, count_hi = cost.accesses(channel.variable,
                                           channel.direction)
        per_message = transfer_clocks(
            bus.procedures[channel.name].layout.total_bits,
            bus.structure.width, bus.structure.protocol)
        comm_lo += count_lo * per_message
        comm_hi = add_hi(comm_hi, mul_hi(count_hi, per_message))
    return ProcessClocks(cost.clocks, (comm_lo, comm_hi))


@dataclass(frozen=True)
class ProcessEstimate:
    """Execution-time breakdown of one process at one buswidth."""

    behavior_name: str
    width: int
    comp_clocks: int
    comm_clocks: int

    @property
    def exec_clocks(self) -> int:
        return self.comp_clocks + self.comm_clocks


class PerformanceEstimator:
    """Estimates process execution times under a bus implementation.

    Computation clocks are cached per behavior (they do not depend on
    the bus); communication clocks are recomputed per width/protocol.
    """

    def __init__(self) -> None:
        self._comp_cache: Dict[tuple, int] = {}

    def comp_clocks(self, behavior: Behavior,
                    channels: Sequence[Channel] = ()) -> int:
        """Computation clocks of ``behavior``.

        When ``channels`` is given, variables the behavior reaches over
        a channel are treated as remote: assignments into them are pure
        communication and carry no computation clock (see
        :func:`comp_clocks_body`).
        """
        remote = frozenset(
            c.variable for c in channels if c.accessor is behavior
        )
        key = (id(behavior), frozenset(v.name for v in remote))
        if key not in self._comp_cache:
            self._comp_cache[key] = comp_clocks_body(behavior.body, remote)
        return self._comp_cache[key]

    def comm_clocks(self, behavior: Behavior, channels: Sequence[Channel],
                    width: int, protocol: Protocol) -> int:
        """Communication clocks of ``behavior`` over its channels.

        ``channels`` may contain channels of other behaviors; only those
        whose accessor is ``behavior`` contribute.
        """
        total = 0
        for channel in channels:
            if channel.accessor is behavior:
                total += channel.accesses * transfer_clocks(
                    channel.message_bits, width, protocol)
        return total

    def estimate(self, behavior: Behavior, channels: Sequence[Channel],
                 width: int, protocol: Protocol) -> ProcessEstimate:
        """Full execution-time estimate of one process."""
        return ProcessEstimate(
            behavior_name=behavior.name,
            width=width,
            comp_clocks=self.comp_clocks(behavior, channels),
            comm_clocks=self.comm_clocks(behavior, channels, width, protocol),
        )

    def lifetime_clocks(self, behavior: Behavior,
                        channels: Sequence[Channel], width: int,
                        protocol: Protocol) -> int:
        """Process lifetime in clocks: the denominator of the channel
        average rate (Section 2)."""
        estimate = self.estimate(behavior, channels, width, protocol)
        return estimate.exec_clocks


def sweep_widths(behavior: Behavior, channels: Sequence[Channel],
                 widths: Sequence[int], protocol: Protocol,
                 estimator: Optional[PerformanceEstimator] = None,
                 ) -> Dict[int, ProcessEstimate]:
    """Estimate a process at several buswidths (the Figure 7 sweep)."""
    estimator = estimator or PerformanceEstimator()
    return {
        width: estimator.estimate(behavior, channels, width, protocol)
        for width in widths
    }

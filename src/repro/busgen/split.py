"""Channel-group splitting: the fallback when no single bus is feasible.

Section 3, step 5: "If there were no feasible solutions ... an
implementation for the group of channels is not possible. ... One
solution to this problem would be to split the group of channels further
to be implemented by more than one bus."  Section 6 lists the study of
such multi-bus implementations as future work; we implement the natural
algorithm:

1. Try the whole group as one bus.
2. On :class:`~repro.errors.InfeasibleBusError`, increase the bus count
   ``k`` and distribute channels over ``k`` sub-groups by longest-
   processing-time (LPT) balancing of their standalone demand (average
   rate at the widest candidate width), which evens the load.
3. Repeat until every sub-group is feasible or each channel sits on its
   own bus and still fails (then the spec itself over-constrains the
   technology and we re-raise).

:func:`plan_buses` is the flow's front door to bus generation: one bus
per channel group, splitting only the groups no single bus can carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.busgen.algorithm import BusDesign, generate_bus
from repro.busgen.constraints import ConstraintSet
from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.channels.rates import GroupRateModel
from repro.errors import InfeasibleBusError
from repro.estimate.perf import PerformanceEstimator
from repro.obs.tracer import span as obs_span
from repro.protocols import FULL_HANDSHAKE, Protocol


@dataclass
class SplitResult:
    """Outcome of implementing a channel group on one or more buses."""

    original_group: ChannelGroup
    designs: List[BusDesign]

    @property
    def bus_count(self) -> int:
        return len(self.designs)

    @property
    def total_width(self) -> int:
        """Total data pins across all buses of the implementation."""
        return sum(d.width for d in self.designs)

    @property
    def was_split(self) -> bool:
        return len(self.designs) > 1

    def describe(self) -> str:
        lines = [f"group {self.original_group.name}: "
                 f"{self.bus_count} bus(es), {self.total_width} data pins"]
        lines.extend(f"  {d.describe()}" for d in self.designs)
        return "\n".join(lines)


def _standalone_demand(channel: Channel, group: ChannelGroup,
                       protocol: Protocol,
                       estimator: PerformanceEstimator) -> float:
    """Average rate of one channel at the group's widest width, used as
    the LPT balancing weight."""
    model = GroupRateModel(group, protocol, estimator)
    rates = model.rates_at(group.max_message_bits)
    return rates[channel.name].average_rate


def _lpt_partition(channels: Sequence[Channel], weights: Sequence[float],
                   k: int) -> List[List[Channel]]:
    """Longest-processing-time assignment of channels to ``k`` bins."""
    bins: List[List[Channel]] = [[] for _ in range(k)]
    loads = [0.0] * k
    order = sorted(range(len(channels)),
                   key=lambda i: (-weights[i], channels[i].name))
    for i in order:
        target = min(range(k), key=lambda b: (loads[b], b))
        bins[target].append(channels[i])
        loads[target] += weights[i]
    return [b for b in bins if b]


def split_group(group: ChannelGroup,
                protocol: Protocol = FULL_HANDSHAKE,
                constraints: Optional[ConstraintSet] = None,
                max_buses: Optional[int] = None,
                estimator: Optional[PerformanceEstimator] = None,
                ) -> SplitResult:
    """Implement a channel group on as few buses as feasibility allows.

    Constraints are applied to every sub-bus: width constraints directly,
    rate constraints only on sub-buses containing the referenced channel.

    Raises :class:`InfeasibleBusError` when even one-channel-per-bus is
    infeasible (a single channel's demand exceeds its own maximal bus
    rate, which only happens with pathological computation-free
    accessors).
    """
    estimator = estimator or PerformanceEstimator()
    constraints = constraints or ConstraintSet()
    limit = max_buses if max_buses is not None else len(group)
    limit = min(limit, len(group))
    if limit < 1:
        raise InfeasibleBusError(
            f"group {group.name}: max_buses must allow at least one bus"
        )

    weights = [_standalone_demand(c, group, protocol, estimator)
               for c in group.channels]

    last_error: Optional[InfeasibleBusError] = None
    with obs_span("busgen.split_group", group=group.name,
                  channels=len(group)) as sp:
        for k in range(1, limit + 1):
            if k == 1:
                sub_channel_sets = [list(group.channels)]
            else:
                sub_channel_sets = _lpt_partition(group.channels, weights, k)
            designs: List[BusDesign] = []
            try:
                for index, sub_channels in enumerate(sub_channel_sets):
                    name = group.name if k == 1 \
                        else f"{group.name}_part{index}"
                    sub_group = ChannelGroup(name, sub_channels,
                                             clock_period=group.clock_period)
                    sub_constraints = _restrict_constraints(
                        constraints, {c.name for c in sub_channels})
                    designs.append(generate_bus(
                        sub_group, protocol, sub_constraints,
                        estimator=estimator))
            except InfeasibleBusError as error:
                last_error = error
                continue
            sp.set(buses=len(designs))
            return SplitResult(original_group=group, designs=designs)

    assert last_error is not None
    raise InfeasibleBusError(
        f"group {group.name}: infeasible even with one channel per bus "
        f"({last_error})",
        demand=last_error.demand,
        best_rate=last_error.best_rate,
    )


def plan_buses(groups: Sequence[ChannelGroup],
               protocol: Protocol = FULL_HANDSHAKE,
               widths: Optional[Sequence[int]] = None,
               on_note: Optional[Callable[[str], None]] = None,
               ) -> List[BusDesign]:
    """Generate one bus per channel group; split infeasible groups.

    A group no single bus can carry is split across several buses
    (Section 3 step 5) and the split is described to ``on_note``.  A
    designer-specified ``widths`` range that violates Equation 1 is
    the designer's problem to resolve, so its error is re-raised.
    """
    designs: List[BusDesign] = []
    for group in groups:
        try:
            designs.append(generate_bus(group, protocol, widths=widths))
        except InfeasibleBusError:
            if widths is not None:
                raise
            result = split_group(group, protocol=protocol)
            if on_note is not None:
                on_note(f"note: {result.describe()}")
            designs.extend(result.designs)
    return designs


def _restrict_constraints(constraints: ConstraintSet,
                          channel_names: set) -> ConstraintSet:
    """Keep width constraints and rate constraints whose channel is in
    the sub-group."""
    kept = [c for c in constraints
            if c.channel is None or c.channel in channel_names]
    return ConstraintSet(kept)

"""Channel extraction: turning cross-module accesses into channels.

After partitioning, "variables ... mapped to a different module" are
accessed "over channels" (Figure 1).  Extraction walks every behavior's
static access summaries and creates one :class:`~repro.channels.Channel`
per (behavior, remote variable, direction) with an access site -- even
one whose estimated count is 0 (a loop whose trip pragma says 0 may
still run, and refinement rewrites every site into a channel call).

Channels are named ``ch0, ch1, ...`` in deterministic order (behavior
declaration order, then variable name, then direction) so repeated runs
and generated code are stable.  :func:`default_bus_groups` then groups
channels by the unordered pair of modules they connect -- the natural
"minimize interconnect at the module boundary" grouping the paper
describes -- yielding one bus candidate per module pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.errors import PartitionError
from repro.partition.partitioner import Partition
from repro.spec.access import analyze_behavior


def extract_channels(partition: Partition, prefix: str = "ch",
                     start_index: int = 0) -> List[Channel]:
    """Derive all cross-module channels of a validated partition."""
    partition.validate()
    channels: List[Channel] = []
    index = start_index
    for behavior in partition.system.behaviors:
        behavior_module = partition.module_of(behavior)
        for summary in analyze_behavior(behavior):
            variable_module = partition.module_of(summary.variable)
            if variable_module is behavior_module:
                continue
            channels.append(Channel.from_access(
                name=f"{prefix}{index}",
                summary=summary,
                accessor_module=behavior_module.name,
                variable_module=variable_module.name,
            ))
            index += 1
    return channels


def default_bus_groups(partition: Partition,
                       clock_period: float = 1.0,
                       channels: Optional[List[Channel]] = None,
                       ) -> List[ChannelGroup]:
    """Group extracted channels into one bus candidate per module pair.

    Returns groups named ``bus_<moduleA>_<moduleB>`` (names sorted), in
    deterministic order.
    """
    if channels is None:
        channels = extract_channels(partition)
    by_pair: Dict[Tuple[str, str], List[Channel]] = {}
    for channel in channels:
        if channel.accessor_module is None or channel.variable_module is None:
            raise PartitionError(
                f"channel {channel.name} lacks module annotations; extract "
                "it via extract_channels()"
            )
        pair = tuple(sorted((channel.accessor_module,
                             channel.variable_module)))
        by_pair.setdefault(pair, []).append(channel)

    groups: List[ChannelGroup] = []
    for pair in sorted(by_pair):
        group_name = f"bus_{pair[0]}_{pair[1]}"
        groups.append(ChannelGroup(group_name, by_pair[pair],
                                   clock_period=clock_period))
    return groups

"""Discrete-event simulation of refined specifications.

Substrate #10-11 of the reproduction: the kernel, live buses, arbiters
and the runtime that executes refined specs end to end.
See DESIGN.md section 3.
"""

from repro.sim.analysis import (
    ArbiterStats,
    BusStats,
    ChannelStats,
    analyze_arbiter,
    analyze_bus,
    channel_stats,
    format_bus_stats,
    occupancy_timeline,
    overlap_clocks,
)
from repro.sim.arbiter import (
    Arbiter,
    ImmediateArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
)
from repro.sim.bus import SimBus, StorageAdapter, Transaction
from repro.sim.kernel import (
    Delta,
    EventBus,
    ProcessStats,
    SimStats,
    Simulator,
    Wait,
    WaitOn,
)
from repro.sim.runtime import RefinedSimulation, SimResult, simulate
from repro.sim.signals import DataLines, Signal
from repro.sim.trace import (
    bus_signals,
    format_transactions,
    write_bus_vcd,
    write_vcd,
)

__all__ = [
    "Arbiter",
    "ArbiterStats",
    "BusStats",
    "ChannelStats",
    "analyze_arbiter",
    "analyze_bus",
    "channel_stats",
    "format_bus_stats",
    "occupancy_timeline",
    "overlap_clocks",
    "DataLines",
    "Delta",
    "EventBus",
    "ImmediateArbiter",
    "PriorityArbiter",
    "ProcessStats",
    "RefinedSimulation",
    "RoundRobinArbiter",
    "Signal",
    "SimBus",
    "SimResult",
    "SimStats",
    "Simulator",
    "StorageAdapter",
    "TdmaArbiter",
    "Transaction",
    "Wait",
    "WaitOn",
    "bus_signals",
    "format_transactions",
    "simulate",
    "write_bus_vcd",
    "write_vcd",
]

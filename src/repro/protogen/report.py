"""Synthesis reports: the human-readable datasheet of a refined design.

Collects everything a designer reviews after interface synthesis --
channels and their IDs, the bus structure, generated procedures and
their controller sizes, per-process performance estimates and the
interface area -- into one plain-text report.  Used by the CLI's
``--report`` flag and handy in notebooks/tests.
"""

from __future__ import annotations

from typing import List

from repro.estimate.area import estimate_bus_area
from repro.estimate.perf import process_clocks
from repro.protogen.refine import RefinedBus, RefinedSpec
from repro.spec.access import pragma_trips


def _rule(width: int = 72) -> str:
    return "-" * width


def bus_report(bus: RefinedBus) -> str:
    """Report one generated bus."""
    structure = bus.structure
    group = bus.group
    lines: List[str] = []
    lines.append(_rule())
    lines.append(f"BUS {structure.name}")
    lines.append(_rule())
    lines.append(f"protocol        : {structure.protocol.name} "
                 f"({structure.protocol.delay_clocks} clk/word"
                 + (f", {structure.protocol.setup_clocks} clk setup"
                    if structure.protocol.setup_clocks else "") + ")")
    lines.append(f"wires           : {structure.width} data + "
                 f"{structure.id_lines} id + "
                 f"{len(structure.control_lines)} control "
                 f"({', '.join(structure.control_lines) or 'none'}) "
                 f"= {structure.total_pins} pins")
    if bus.design is not None:
        lines.append(f"bus rate        : {bus.design.bus_rate:g} bits/clock "
                     f"(demand {bus.design.demand:.3f})")
        lines.append(f"interconnect    : "
                     f"{bus.design.interconnect_reduction_percent:.0f}% "
                     f"reduction vs {bus.design.separate_pins} "
                     "separate pins")

    lines.append("")
    lines.append("channels:")
    header = (f"  {'name':<10} {'id':<4} {'direction':<18} "
              f"{'message':>8} {'accesses':>9} {'words':>6} "
              f"{'clk/msg':>8}")
    lines.append(header)
    lines.append("  " + _rule(len(header) - 2))
    for channel in group:
        pair = bus.procedures[channel.name]
        words = pair.layout.word_count(structure.width)
        code = structure.ids.code_bits(channel.name) or "-"
        arrow = (f"{channel.accessor.name} "
                 f"{'>' if channel.is_write else '<'} "
                 f"{channel.variable.name}")
        lines.append(
            f"  {channel.name:<10} {code:<4} {arrow:<18} "
            f"{channel.message_bits:>8} {channel.accesses:>9} "
            f"{words:>6} {pair.accessor.transfer_clocks(structure.width):>8}"
        )

    # The area estimate synthesizes every controller; its state counts
    # feed the procedure listing too.
    area = estimate_bus_area(bus)
    fsm_states = {p.procedure_name: p.fsm_states for p in area.procedures}
    lines.append("")
    lines.append("generated procedures (controller FSM states):")
    for channel in group:
        pair = bus.procedures[channel.name]
        lines.append(
            f"  {channel.name}: {pair.accessor.name} "
            f"({fsm_states[pair.accessor.name]} states) / "
            f"{pair.server.name} ({fsm_states[pair.server.name]} states)"
        )

    lines.append("")
    lines.append("variable processes:")
    for vproc in bus.variable_processes:
        served = ", ".join(s.channel.name for s in vproc.services)
        lines.append(f"  {vproc.name}: serves [{served}]")

    lines.append("")
    lines.append(f"interface area  : {area.wires} wires, "
                 f"{area.controller_gates} controller gates + "
                 f"{area.decoder_gates} decoder gates = "
                 f"{area.total_gates} gate-equivalents")
    return "\n".join(lines)


def performance_report(spec: RefinedSpec) -> str:
    """Per-process execution estimates across all of the spec's buses:
    the trip-pragma point of :func:`repro.estimate.perf.process_clocks`."""
    lines = [_rule(), "PROCESS PERFORMANCE (estimated)", _rule()]
    header = (f"  {'process':<16} {'comp clk':>9} {'comm clk':>9} "
              f"{'total':>9}")
    lines.append(header)
    lines.append("  " + _rule(len(header) - 2))
    for behavior in spec.original.behaviors:
        clocks = process_clocks(spec, behavior, pragma_trips)
        comp, comm = clocks.comp[1], clocks.comm[1]
        if comm == 0 and comp == 0:
            continue
        lines.append(f"  {behavior.name:<16} {comp:>9} {comm:>9} "
                     f"{comp + comm:>9}")
    return "\n".join(lines)


def synthesis_report(spec: RefinedSpec) -> str:
    """The full datasheet of a refined specification."""
    parts = [
        _rule(),
        f"INTERFACE SYNTHESIS REPORT -- {spec.name}",
        f"system: {spec.original.name} "
        f"({len(spec.original.behaviors)} behaviors, "
        f"{len(spec.original.variables)} shared variables)",
    ]
    for bus in spec.buses:
        parts.append("")
        parts.append(bus_report(bus))
    parts.append("")
    parts.append(performance_report(spec))
    parts.append(_rule())
    return "\n".join(parts)

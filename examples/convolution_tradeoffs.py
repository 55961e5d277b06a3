#!/usr/bin/env python3
"""Width/protocol trade-offs on a read-heavy image-convolution system.

The convolution accelerator (``repro.apps.convolution``) performs nine
frame-buffer reads per output pixel -- the workload where interface
choices dominate run time.  This example sweeps protocols and widths,
measures everything with the clock-accurate simulator, and uses the
transaction-analysis module to report bus occupancy.

Run:  python examples/convolution_tradeoffs.py
"""

from repro import (
    BURST_HANDSHAKE,
    FULL_HANDSHAKE,
    HALF_HANDSHAKE,
    refine_system,
    simulate,
    split_group,
)
from repro.apps.convolution import (
    build_convolution,
    reference_checksum,
)
from repro.sim.analysis import format_bus_stats


def main() -> None:
    model = build_convolution()
    print(f"system: {model.system}")
    print(f"bus candidate: {len(model.bus)} channels, "
          f"{model.bus.total_message_pins} separate pins")
    filter_reads = next(c for c in model.channels
                        if c.accessor.name == "FILTER" and c.is_read)
    print(f"hot channel: {filter_reads.describe()}")

    # ------------------------------------------------------------------
    # Protocol x width sweep, fully simulated.
    # ------------------------------------------------------------------
    print("\n=== measured FILTER run time (clocks) ===")
    widths = (4, 8, 16)
    protocols = (FULL_HANDSHAKE, HALF_HANDSHAKE, BURST_HANDSHAKE)
    print(f"{'protocol':<16} " + " ".join(f"w={w:>2}".rjust(8)
                                          for w in widths))
    oracle = reference_checksum()
    for protocol in protocols:
        cells = []
        for width in widths:
            refined = refine_system(model.system,
                                    [(model.bus, width, protocol)])
            result = simulate(refined, schedule=model.schedule)
            assert result.final_values["out_checksum"] == oracle
            cells.append(f"{result.clocks['FILTER']:>8}")
        print(f"{protocol.name:<16} " + " ".join(cells))

    # ------------------------------------------------------------------
    # Bus occupancy analysis of one run.
    # ------------------------------------------------------------------
    print("\n=== bus analysis (full handshake, width 8) ===")
    refined = refine_system(model.system, [(model.bus, 8)])
    result = simulate(refined, schedule=model.schedule)
    print(format_bus_stats(result.buses[model.bus.name]))

    # ------------------------------------------------------------------
    # The generated (split) implementation the algorithm would pick.
    # ------------------------------------------------------------------
    print("\n=== algorithmic implementation (Equation 1 honored) ===")
    split = split_group(model.bus)
    print(split.describe())
    refined = refine_system(model.system, list(split.designs))
    result = simulate(refined, schedule=model.schedule)
    print(f"checksum over generated buses: "
          f"{result.final_values['out_checksum']} "
          f"({'OK' if result.final_values['out_checksum'] == oracle else 'FAIL'})")


if __name__ == "__main__":
    main()

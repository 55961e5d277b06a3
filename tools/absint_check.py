#!/usr/bin/env python
"""Soundness gate: static channel bounds vs. simulated transaction logs.

For every built-in system this script refines the design, computes the
abstract-interpretation access/bit bounds per channel
(:func:`repro.analysis.absint.refined_channel_bounds`), runs the
event-driven simulator, and checks that the *observed* transaction
count and bit volume of every channel fall inside the proven bounds.

A violation means the abstract interpreter claimed an execution bound
the concrete semantics do not respect -- a soundness bug, so the script
exits non-zero and CI fails the build.

Usage::

    PYTHONPATH=src python tools/absint_check.py [system ...]
"""

from __future__ import annotations

import sys

from repro.analysis.absint import (
    StaticRateModel,
    analyze_refined_values,
    refined_channel_bounds,
)
from repro.busgen.split import plan_buses
from repro.errors import ReproError
from repro.explore.systems import BUILTIN_SYSTEMS, load_system
from repro.protogen.refine import refine_system
from repro.sim.runtime import simulate


def check_system(name: str) -> int:
    """Prints the bound-vs-observed table; returns violation count."""
    loaded = load_system(name)
    designs = plan_buses(loaded.groups)
    refined = refine_system(loaded.system, designs)
    analysis = analyze_refined_values(refined)
    bounds = refined_channel_bounds(refined)
    result = simulate(refined, schedule=loaded.schedule)

    widths = ", ".join(str(design.width) for design in designs)
    print(f"\n{name}: width {widths}, "
          f"{len(bounds)} channel(s), analysis converged in "
          f"{analysis.passes} pass(es)")
    header = (f"  {'channel':<12} {'static accesses':>16} "
              f"{'simulated':>10} {'static bits':>16} "
              f"{'sim bits':>10}  verdict")
    print(header)

    violations = 0
    for bus_name, stats in sorted(result.buses.items()):
        for channel_name in sorted(stats.per_channel):
            observed = stats.per_channel[channel_name].count
            bound = bounds.get(channel_name)
            if bound is None:
                print(f"  {channel_name:<12} -- no static bound "
                      "computed: VIOLATION")
                violations += 1
                continue
            observed_bits = observed * bound.message_bits
            ok = (bound.contains_accesses(observed)
                  and bound.contains_bits(observed_bits))
            lo, hi = bound.accesses_lo, bound.accesses_hi
            hi_text = "inf" if hi is None else str(hi)
            bits_hi = ("inf" if bound.bits_hi is None
                       else str(bound.bits_hi))
            print(f"  {channel_name:<12} "
                  f"{f'[{lo}, {hi_text}]':>16} {observed:>10} "
                  f"{f'[{bound.bits_lo}, {bits_hi}]':>16} "
                  f"{observed_bits:>10}  "
                  f"{'ok' if ok else 'VIOLATION'}")
            if not ok:
                violations += 1

    for design in designs:
        model = StaticRateModel(design.group, design.protocol)
        if not model.is_provably_feasible(design.width):
            print(f"  chosen width {design.width} is not provably "
                  "feasible under the static bounds: VIOLATION")
            violations += 1
    return violations


def main(argv) -> int:
    names = argv or list(BUILTIN_SYSTEMS)
    total = 0
    try:
        for name in names:
            total += check_system(name)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if total:
        print(f"\nabsint-check: {total} soundness violation(s)")
        return 1
    print(f"\nabsint-check: all static bounds sound on "
          f"{', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``--emit-sim-source``: dump generated per-process Python to disk.

One ``<spec>__<behavior>.py`` file per compiled behavior, each headed
by a comment naming the spec, the behavior, and every bus it may
transfer on (protocol, word width, protection), plus a
``<spec>__MANIFEST.txt`` listing interpreter fallbacks and per-channel
transfer tiers.  The files are inspection artifacts, not importable
modules: the generated ``run()`` closes over live simulation objects
bound at compile time.
"""

from __future__ import annotations

import os
from typing import List

from repro.sim.compiled.codegen import CompiledProgram


def _bus_lines(spec) -> List[str]:
    lines = []
    for refined_bus in spec.buses:
        structure = refined_bus.structure
        protection = structure.protection
        guarded = protection.protection.name if protection is not None \
            else "none"
        lines.append(f"#   bus {refined_bus.name}: "
                     f"protocol={structure.protocol.name} "
                     f"width={structure.width} protection={guarded}")
    return lines


def emit_sources(program: CompiledProgram, spec, directory: str) -> List[str]:
    """Write every generated source into ``directory``; returns the
    paths written (manifest last)."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    bus_lines = _bus_lines(spec)
    for name in sorted(program.sources):
        header = "\n".join(
            [f"# generated by the compiled simulation backend",
             f"# spec: {spec.name}",
             f"# behavior: {name}",
             *bus_lines,
             "# not importable: run() closes over live simulation "
             "objects", ""])
        path = os.path.join(directory, f"{spec.name}__{name}.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n" + program.sources[name])
        written.append(path)
    manifest = os.path.join(directory, f"{spec.name}__MANIFEST.txt")
    with open(manifest, "w", encoding="utf-8") as handle:
        for line in program.describe():
            handle.write(line + "\n")
    written.append(manifest)
    return written

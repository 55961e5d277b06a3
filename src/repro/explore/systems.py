"""The single system loader of the pipeline.

The one place that turns a system argument -- ``flc``,
``answering-machine``, ``ethernet``, a ``.spec`` file path, or the
test-sized ``_demo`` system -- into what every pipeline stage needs:
the spec, its channel groups (always a list), the canonical schedule
and the oracle values (when the system has reference outputs).  The
CLI, the explorer, the CI tools under ``tools/`` and the benches all
load through :func:`load_system`; an unknown system raises
:class:`~repro.errors.ExploreError`.

Worker processes call :func:`load_system` once per grid point;
:func:`cached_load` memoizes the built models per process so a sweep
of hundreds of points over one system pays the build cost once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExploreError


#: The paper's three case studies, loadable by name.
BUILTIN_SYSTEMS = ("flc", "answering-machine", "ethernet")


@dataclass
class LoadedSystem:
    """A system ready for the pipeline stages."""

    arg: str
    system: Any
    groups: List[Any]
    schedule: Optional[Sequence[Any]]
    oracle: Optional[Dict[str, Any]]

    def oracle_ok(self, final_values: Dict[str, Any]) -> Optional[bool]:
        """Whether a run's final values match the reference outputs
        (``None`` when the system has none)."""
        if not self.oracle:
            return None
        return all(final_values[k] == v for k, v in self.oracle.items())


def build_demo():
    """A deliberately tiny two-behavior system (the paper's Figure 3
    shape) for fast explorer tests and the defect-scenario corpus."""
    from repro.partition.channels import default_bus_groups, extract_channels
    from repro.partition.partitioner import Partition
    from repro.spec.behavior import Behavior
    from repro.spec.expr import Ref
    from repro.spec.stmt import Assign
    from repro.spec.system import SystemSpec
    from repro.spec.types import ArrayType, IntType
    from repro.spec.variable import Variable

    X = Variable("X", IntType(16))
    MEM = Variable("MEM", ArrayType(IntType(16), 64))
    AD = Variable("AD", IntType(16), init=5)
    COUNT = Variable("COUNT", IntType(16), init=42)
    Xt = Variable("Xt", IntType(16))

    P = Behavior("P", [
        Assign(X, 32),
        Assign(Xt, Ref(X)),
        Assign((MEM, Ref(AD)), Ref(Xt) + 7),
    ], local_variables=[AD, Xt])
    Q = Behavior("Q", [
        Assign((MEM, 60), Ref(COUNT)),
    ], local_variables=[COUNT])

    system = SystemSpec("demo", [P, Q], [X, MEM])
    partition = Partition(system)
    module1 = partition.add_module("module1")
    module2 = partition.add_module("module2")
    partition.assign(P, module1)
    partition.assign(Q, module1)
    partition.assign(X, module2)
    partition.assign(MEM, module2)
    partition.validate()
    channels = extract_channels(partition)
    groups = default_bus_groups(partition, channels=channels)
    return system, groups, ["P", "Q"], {"X": 32}


def load_system(name: str,
                on_note: Optional[Callable[[str], None]] = None
                ) -> LoadedSystem:
    """Load a system by name or ``.spec`` path.

    ``on_note`` receives informational messages (e.g. automatic
    clustering of an unpartitioned spec file).
    """
    if os.path.exists(name):
        from repro.frontend.parser import parse_spec_file
        from repro.partition.channels import default_bus_groups
        from repro.partition.partitioner import cluster_partition

        parsed = parse_spec_file(name)
        partition = parsed.partition
        if partition is None:
            if on_note is not None:
                on_note("note: no partition block; clustering into "
                        "2 modules")
            partition = cluster_partition(parsed.system, 2)
        groups = default_bus_groups(partition)
        if not groups:
            raise ExploreError(
                f"{name}: the partition produces no cross-module "
                "channels")
        return LoadedSystem(name, parsed.system, groups,
                            parsed.behavior_order, None)
    if name == "flc":
        from repro.apps.flc import build_flc, reference_ctrl_output
        model = build_flc()
        return LoadedSystem(name, model.system, [model.bus_b],
                            model.schedule,
                            {"ctrl_out": reference_ctrl_output(250, 180)})
    if name == "answering-machine":
        from repro.apps.answering_machine import (
            build_answering_machine,
            reference_state,
        )
        model = build_answering_machine()
        return LoadedSystem(name, model.system, [model.bus],
                            model.schedule, reference_state())
    if name == "ethernet":
        from repro.apps.ethernet import build_ethernet, reference_state
        model = build_ethernet()
        return LoadedSystem(name, model.system, [model.bus],
                            model.schedule, reference_state())
    if name == "_demo":
        system, groups, schedule, oracle = build_demo()
        return LoadedSystem(name, system, groups, schedule, oracle)
    raise ExploreError(
        f"unknown system {name!r}; choose flc, answering-machine, "
        "ethernet, or a path to a .spec file")


@lru_cache(maxsize=8)
def cached_load(name: str) -> LoadedSystem:
    """Per-process memoized :func:`load_system` (pool workers sweep
    many points of one system; the model is read-only input)."""
    return load_system(name)

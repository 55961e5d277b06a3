"""Stage compute functions: the explorer's view of the pipeline.

The memoized task graph covers four stages per grid point::

    partition ──> busgen ──> refine ──> sim

Each stage is a pure function of its declared inputs: the system
fingerprint, the stage parameters and the *payload* of its upstream
stage.  That purity is what makes the content-addressed cache honest:
a cached busgen payload feeds refine exactly the values a fresh
busgen run would have (the differential checker in
:mod:`repro.explore.diffcheck` re-proves this byte-for-byte).

Payloads are canonical-JSON values (never pickles): deterministic
across processes -- the pool workers and the inline runner must
produce identical bytes -- and safe to inspect in the cache directory.

A stage that cannot build its design point (Equation-1 infeasibility,
protection on a protocol without an acknowledge, a TDMA requester
without a slot) reports a structured ``error`` payload, which is
cached like any other result: a warm sweep skips the failing compute
too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.busgen.split import plan_buses
from repro.channels.group import ChannelGroup
from repro.errors import ExploreError, ReproError
from repro.estimate.area import estimate_bus_area
from repro.explore.grid import WIDTH_AUTO, GridPoint
from repro.explore.keys import Keyer, TaskSpec, fingerprint_system
from repro.explore.systems import LoadedSystem
from repro.fifo import FifoTable
from repro.protocols import get_protocol
from repro.protogen.refine import refine_system
from repro.sim.arbiter import PriorityArbiter, RoundRobinArbiter, TdmaArbiter
from repro.sim.runtime import simulate

#: Stage names, in pipeline order.
STAGES = ("partition", "busgen", "refine", "sim")

#: Refined specs a :class:`PointContext` keeps, first in first out,
#: for the sim stages that need them after their refine stage.  Each
#: spec carries its memoized analyses and compiled lowerings, so an
#: unbounded memo grows with every point a long-lived process sweeps;
#: an evicted spec is rebuilt from the cached busgen payload,
#: identically.  The bound trades memory for rebuilds.  In the
#: ``explore-sweep`` benchmark workload a context builds about 75 specs
#: in 100 requests and later sweeps reuse specs of every age; at 48 a
#: run rebuilds 7-11 specs and peaks below the RSS of an unbounded memo
#: of specs without lowerings.
REFINED_MEMO_LIMIT = 48

#: Deterministic TDMA slot length for the ``tdma`` arbitration axis.
TDMA_SLOT_CLOCKS = 8


def _priority(sim, members):
    return PriorityArbiter(
        sim, {name: index for index, name in enumerate(members)})


def _round_robin(sim, members):
    return RoundRobinArbiter(sim, members)


def _tdma(sim, members):
    return TdmaArbiter(sim, members, slot_clocks=TDMA_SLOT_CLOCKS)


#: The arbiter factory of each arbitration axis value (``None`` keeps
#: the runtime's zero-delay FIFO default).
ARBITERS = {"fifo": None, "priority": _priority, "rr": _round_robin,
            "tdma": _tdma}


class _EveryBus(dict):
    """``arbiter_factories`` mapping that gives every bus one factory."""

    def __init__(self, factory):
        super().__init__()
        self.factory = factory

    def get(self, _name, _default=None):
        return self.factory


def arbiter_factories(arbitration: str):
    """``arbiter_factories`` argument for :func:`simulate` (``None``
    keeps the runtime's zero-delay FIFO default)."""
    if arbitration not in ARBITERS:
        raise ExploreError(f"unknown arbitration {arbitration!r}")
    factory = ARBITERS[arbitration]
    return None if factory is None else _EveryBus(factory)


def build_point_tasks(t_partition: TaskSpec, point: GridPoint,
                      backend: str) -> List[TaskSpec]:
    """The task chain of one grid point below its system's partition
    task, dependency-linked so shared parameter prefixes share keys
    (and therefore cache entries)."""
    t_busgen = TaskSpec(
        "busgen",
        {"protocol": point.protocol, "width": point.width},
        (t_partition,))
    t_refine = TaskSpec(
        "refine",
        {"protocol": point.protocol, "width": point.width,
         "protection": point.protection},
        (t_busgen,))
    t_sim = TaskSpec(
        "sim",
        {"protocol": point.protocol, "width": point.width,
         "protection": point.protection,
         "arbitration": point.arbitration, "backend": backend},
        (t_refine,))
    return [t_partition, t_busgen, t_refine, t_sim]


def _error_payload(stage: str, error: ReproError) -> Dict[str, Any]:
    return {"error": {"stage": stage, "type": type(error).__name__,
                      "message": str(error)}}


class PointContext:
    """Per-process working state for stage computes.

    Holds the loaded system and memoizes the in-memory artifacts
    (refined specs) that link a computed stage to the next one.  The
    memo keys are the *cache keys* of the producing task, so a refined
    spec is only ever reused for the exact inputs that built it.
    """

    def __init__(self, loaded: LoadedSystem):
        self.loaded = loaded
        self._partition: Optional[TaskSpec] = None
        self._refined = FifoTable(REFINED_MEMO_LIMIT)

    @property
    def partition(self) -> TaskSpec:
        """The system's partition task, built once: every point's chain
        shares it, and with it its memoized key."""
        if self._partition is None:
            self._partition = TaskSpec("partition", {
                "system": fingerprint_system(
                    self.loaded.arg, self.loaded.system,
                    self.loaded.groups, self.loaded.schedule)})
        return self._partition

    def group_named(self, name: str) -> ChannelGroup:
        for group in self.loaded.groups:
            if group.name == name:
                return group
        raise ExploreError(f"no channel group named {name!r}")

    def rebuild_group(self, plan: Dict[str, Any]) -> ChannelGroup:
        """Materialize the channel group a busgen plan names.

        Split plans carry their member channel names; the group is
        rebuilt from the parent group's channel objects, which keeps
        the refine stage a function of the *cached* busgen payload.
        """
        parent = self.group_named(plan["group"])
        if plan["channels"] == [c.name for c in parent.channels]:
            return parent
        members = [parent.channel(name) for name in plan["channels"]]
        return ChannelGroup(plan["bus"], members,
                            clock_period=parent.clock_period)

    # -- stage computes ----------------------------------------------------

    def compute_partition(self, _params: Dict[str, Any]) -> Dict[str, Any]:
        loaded = self.loaded
        return {
            "system": loaded.system.name,
            "groups": [
                {"name": group.name,
                 "channels": [c.name for c in group.channels],
                 "max_message_bits": group.max_message_bits,
                 "separate_pins": group.total_message_pins}
                for group in loaded.groups
            ],
            "schedule": self.partition.params["system"]["schedule"],
        }

    def compute_busgen(self, params: Dict[str, Any],
                       _partition: Dict[str, Any]) -> Dict[str, Any]:
        protocol = get_protocol(params["protocol"])
        width = params["width"]
        plans: List[Dict[str, Any]] = []
        for group in self.loaded.groups:
            if width != WIDTH_AUTO:
                # Designer-specified width: refine at that width even
                # when Equation 1 is infeasible (``synth --force``
                # semantics -- the sweep wants the measured cost).
                plans.append({
                    "group": group.name, "bus": group.name,
                    "channels": [c.name for c in group.channels],
                    "width": int(width), "forced": True,
                })
                continue
            for design in plan_buses([group], protocol):
                plans.append({
                    "group": group.name, "bus": design.group.name,
                    "channels": [c.name for c in design.group.channels],
                    "width": design.width, "forced": False,
                    "bus_rate": design.bus_rate,
                    "demand": design.demand,
                    "cost": design.cost,
                })
        return {"protocol": protocol.name, "plans": plans}

    def compute_refine(self, params: Dict[str, Any],
                       busgen: Dict[str, Any],
                       refine_key: str) -> Dict[str, Any]:
        protocol = get_protocol(params["protocol"])
        plans = [
            (self.rebuild_group(plan), plan["width"], protocol)
            for plan in busgen["plans"]
        ]
        refined = refine_system(self.loaded.system, plans, protocol=protocol,
                                protection=params["protection"])
        self._refined.put(refine_key, refined)

        buses = []
        for bus in refined.buses:
            area = estimate_bus_area(bus)
            buses.append({
                "name": bus.name,
                "width": bus.structure.width,
                "wires": area.wires,
                "gates": area.total_gates,
                "channels": {
                    name: {
                        "message_bits": pair.layout.total_bits,
                        "words": pair.layout.word_count(
                            bus.structure.width),
                    }
                    for name, pair in sorted(bus.procedures.items())
                },
            })
        return {
            "buses": buses,
            "pins": sum(b["wires"] for b in buses),
            "area_gates": sum(b["gates"] for b in buses),
        }

    def refined_for(self, refine_task: TaskSpec, refine_key: str,
                    busgen_payload: Dict[str, Any]) -> Any:
        """The in-memory refined spec for a refine task, rebuilding it
        when the payload came from the cache (cache hits store JSON,
        not objects)."""
        refined = self._refined.get(refine_key)
        if refined is None:
            self.compute_refine(refine_task.params, busgen_payload,
                                refine_key)
            refined = self._refined.get(refine_key)
        return refined

    def compute_sim(self, params: Dict[str, Any], refined: Any
                    ) -> Dict[str, Any]:
        factories = arbiter_factories(params["arbitration"])
        result = simulate(refined, schedule=self.loaded.schedule,
                          arbiter_factories=factories,
                          backend=params["backend"])
        return {
            "backend": result.backend,
            "end_clock": result.end_time,
            "behavior_clocks": dict(sorted(result.clocks.items())),
            "final_values": {
                name: (list(value) if isinstance(value, list) else value)
                for name, value in sorted(result.final_values.items())
            },
            "transactions": {
                bus: [[t.start_time, t.end_time, t.channel,
                       t.direction.name, t.address, t.data, t.initiator,
                       t.retries] for t in log]
                for bus, log in sorted(result.transactions.items())
            },
            "utilization": dict(sorted(result.utilization.items())),
            "arbitration_wait": dict(sorted(
                result.arbitration_wait.items())),
            "fallbacks": dict(sorted(result.fallbacks.items())),
            "oracle_ok": self.loaded.oracle_ok(result.final_values),
        }


def execute_task(ctx: PointContext, task: TaskSpec,
                 payloads: Dict[str, Dict[str, Any]],
                 keyer: Keyer) -> Dict[str, Any]:
    """Run one stage compute; pipeline failures become ``error``
    payloads (cached like results, so warm sweeps skip them too).

    ``payloads`` maps the already-resolved upstream stages of this
    point's chain to their payloads; the refine task's cache key (from
    ``keyer``) indexes the in-memory refined-spec memo, so a spec is
    only reused for the exact inputs that built it.
    """
    try:
        if task.stage == "partition":
            return ctx.compute_partition(task.params)
        if task.stage == "busgen":
            return ctx.compute_busgen(task.params, payloads["partition"])
        if task.stage == "refine":
            return ctx.compute_refine(task.params, payloads["busgen"],
                                      keyer.key(task))
        if task.stage == "sim":
            refine = task.deps[0]
            refined = ctx.refined_for(refine, keyer.key(refine),
                                      payloads["busgen"])
            return ctx.compute_sim(task.params, refined)
        raise ExploreError(f"unknown stage {task.stage!r}")
    except ReproError as error:
        return _error_payload(task.stage, error)

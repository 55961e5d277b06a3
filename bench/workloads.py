"""The four benchmark workloads.

Each workload is one closed-loop client: the worker calls
:meth:`Workload.prepare` (untimed: builds the request's models),
:meth:`Workload.execute` (timed: the request itself) and
:meth:`Workload.check` (untimed: verifies the outputs against oracles
and tallies work counts), and sends the next request only after that.

A request runs every step even when an earlier one fails, so fixing a
failure does not change the work done; a failed step is recorded in
:attr:`Outcome.errors` and fails the request.

Calls into each layer's public function are wrapped in a span named
after the layer (:func:`layer`).  With no tracer active the wrapper
costs one global read, so untraced and traced runs execute the same
code.  ``bench/README.md`` records why each workload exists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import analyze_refined
from repro.analysis.diagnostics import Severity
from repro.analysis.mc import verify_refined
from repro.analysis.mc.passes import SEVERITIES
from repro.analysis.tv import validate_refined
from repro.busgen.algorithm import generate_bus
from repro.busgen.split import split_group
from repro.errors import InfeasibleBusError
from repro.explore import canonical_report, explore
from repro.explore.grid import ARBITRATIONS, GridPoint
from repro.explore.tasks import arbiter_factories
from repro.frontend.parser import parse_spec
from repro.hdl.validate import validate_vhdl
from repro.hdl.vhdl import emit_refined_spec
from repro.obs import FlightRecorder, SimMetrics
from repro.obs.flight import explain_payload
from repro.partition.channels import default_bus_groups
from repro.protocols import get_protocol
from repro.protogen.refine import refine_system
from repro.sim.faults import FaultPlan
from repro.sim.runtime import simulate

from bench import inputs
from bench.inputs import Design, StreamShape, StreamValues
from bench.ledger import (
    RawSpan,
    count_explore,
    count_mc,
    count_sim,
    count_tv,
    spans_from_tracer,
)


@dataclass
class Request:
    """One request: its design tuple and workload-specific fields."""

    #: Identifies the design point (and run parameters) the request
    #: exercises; equal keys mean a repeated design.
    key: Tuple[Any, ...]
    fields: Dict[str, Any]
    #: The request's class: its index in the round's class list.
    slot: int = 0


@dataclass
class Outcome:
    """What one request produced, for :meth:`Workload.check`."""

    errors: List[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: Spans recorded outside the worker's active tracer (explore's
    #: per-point tracers), merged in traced runs.
    spans: List[RawSpan] = field(default_factory=list)
    value: Dict[str, Any] = field(default_factory=dict)


def layer(out: Outcome, name: Optional[str], fn: Callable[..., Any],
          *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` inside a span named ``name`` (no span for ``None``).

    This is the boundary that keeps a request running: an exception
    from the layer is recorded as a failed step and ``None`` returned,
    so the remaining steps still run.
    """
    try:
        if name is None:
            return fn(*args, **kwargs)
        with obs.span(name, category="bench"):
            return fn(*args, **kwargs)
    except Exception as error:  # recorded: the request counts as failed
        out.errors.append(f"{name or fn.__name__}: "
                          f"{type(error).__name__}: {error}")
        return None


def mc_blocking(report: Any) -> List[str]:
    """Refuted model-checking verdicts at error severity."""
    return [f"{v.code} {v.bus}/{v.channel}: {v.message}"
            for v in report.verdicts
            if v.status != "PROVED" and v.code is not None
            and SEVERITIES.get(v.code) is Severity.ERROR]


def bus_plans(out: Outcome, groups: Sequence[Any], protocol: Any
              ) -> Optional[List[Any]]:
    """Bus generation for every group, splitting infeasible groups
    exactly as ``repro-synth synth`` does."""
    def generate() -> List[Any]:
        plans: List[Any] = []
        for group in groups:
            try:
                plans.append(generate_bus(group, protocol=protocol))
            except InfeasibleBusError:
                plans.extend(split_group(group, protocol=protocol).designs)
        return plans
    return layer(out, "busgen", generate)


def target_design(target: Any, values: Any) -> Design:
    """The design of a stream shape (with its values) or case study
    (with the FLC sensor inputs as ``values``)."""
    if isinstance(target, StreamShape):
        return inputs.spec_design(inputs.stream_source(target, values))
    return inputs.case_design(target, values)


def draw_target_values(target: Any, generator: Any) -> Any:
    """A stream's coefficients or FLC's sensor inputs; ``None`` for the
    case studies without free inputs."""
    if isinstance(target, StreamShape):
        return StreamValues.draw(target, generator)
    if target == "flc":
        return inputs.draw_flc_inputs(generator)
    return None


class Workload:
    """A seeded closed-loop request stream, drawn in rounds."""

    name = ""
    #: Requests per second of ``--seconds``, calibrated on a 2-core x86
    #: host; rounded to whole rounds it sets the nominal request count.
    per_second = 1.0
    #: Warm-up requests (:meth:`warmup_plan`).
    warmup = 4

    def __init__(self, root: Path, work: Path, seed: int,
                 traced: bool = False):
        self.root = root
        self.work = work
        self.seed = seed
        self.traced = traced

    def classes(self, round_index: int) -> Sequence[Any]:
        """The structural request classes of one round.

        Every workload has K classes with K = 5 (mod 10).  Sorted by
        settled latency, a run is K blocks of equal size, and the p50
        and p90 ranks (K/2 and 0.9 K blocks in) then fall mid-block: on
        a block edge a percentile would jump between two classes'
        latencies from run to run.
        """
        raise NotImplementedError

    def make(self, cls: Any, generator: Any) -> Request:
        """Draw one request of class ``cls``."""
        raise NotImplementedError

    def plan(self, stream: str, count: int) -> List[Request]:
        drawn = inputs.draw_rounds(
            self.classes, count, inputs.rng(self.name, stream, self.seed),
            self.make)
        for slot, request in drawn:
            request.slot = slot
        return [request for _, request in drawn]

    def warmup_plan(self) -> List[Request]:
        """The warm-up requests: ``warmup`` classes spread evenly over
        the class list, the same for every seed so that set-up does the
        same work, with values from their own seed stream."""
        classes = self.classes(0)
        generator = inputs.rng(self.name, inputs.WARMUP, self.seed)
        return [self.make(classes[k * len(classes) // self.warmup],
                          generator) for k in range(self.warmup)]

    def nominal_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.per_second
                            / len(self.classes(0))))

    def prepare(self, request: Request) -> None:
        """Build the request's models (untimed)."""

    def execute(self, request: Request) -> Outcome:
        """Run the request (timed)."""
        raise NotImplementedError

    def check(self, request: Request, outcome: Outcome) -> List[str]:
        """Verify ``outcome`` (untimed); returns the failures and adds
        the request's work counts to ``outcome.counts``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# design-flow
# ---------------------------------------------------------------------------

class DesignFlow(Workload):
    """One distinct design point per request through the whole flow:
    bus generation, refinement, every static analysis, translation
    validation, model checking, VHDL (unprotected single-bus points),
    then a compiled simulation checked against the reference oracle."""

    name = "design-flow"
    per_second = 28.0
    warmup = 12

    SHAPES = (StreamShape(12, 1), StreamShape(24, 1), StreamShape(16, 2),
              StreamShape(32, 2), StreamShape(24, 3), StreamShape(40, 3))
    EXAMPLES = ("fig3", "gcd_accelerator")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.examples = {name: inputs.example_source(self.root, name)
                         for name in self.EXAMPLES}

    def classes(self, round_index: int) -> Sequence[Any]:
        variants = inputs.VARIANTS
        out: List[Any] = [(shape, variant) for shape in self.SHAPES
                          for variant in variants]
        out += [("flc", variant) for variant in variants]
        # The fixed designs have no free inputs: three per round, with
        # the variant (and the example spec) rotating from round to
        # round so that repeats stay rare.
        fixed = ("answering-machine", "ethernet",
                 self.EXAMPLES[round_index % len(self.EXAMPLES)])
        out += [(name, variants[(round_index + k) % len(variants)])
                for k, name in enumerate(fixed)]
        return out

    def make(self, cls: Any, generator: Any) -> Request:
        target, (protocol, protection) = cls
        values = (None if target in self.examples
                  else draw_target_values(target, generator))
        return Request((target, values, protocol, protection),
                       {"target": target, "values": values,
                        "protocol": protocol, "protection": protection})

    def prepare(self, request: Request) -> None:
        fields = request.fields
        target = fields["target"]
        if isinstance(target, StreamShape):
            fields["source"] = inputs.stream_source(target, fields["values"])
        elif target in self.examples:
            fields["source"] = self.examples[target]
        else:
            fields["design"] = inputs.case_design(target, fields["values"])

    def execute(self, request: Request) -> Outcome:
        out = Outcome()
        fields = request.fields
        design: Optional[Design] = fields.get("design")
        if design is None:
            parsed = layer(out, "frontend.parse", parse_spec,
                           fields["source"])
            if parsed is None:
                return out
            groups = layer(out, "partition", default_bus_groups,
                           parsed.partition)
            if groups is None:
                return out
            design = Design(parsed.system, groups, parsed.behavior_order)
        out.value["design"] = design
        protocol = get_protocol(fields["protocol"])
        plans = bus_plans(out, design.groups, protocol)
        if plans is None:
            return out
        refined = layer(out, "protogen.refine", refine_system, design.system,
                        plans, protocol=protocol,
                        protection=fields["protection"])
        if refined is None:
            return out
        out.value["diagnostics"] = layer(out, "analysis.lint",
                                         analyze_refined, refined)
        out.value["tv"] = layer(out, "analysis.tv", validate_refined,
                                refined, schedule=design.schedule)
        out.value["mc"] = layer(out, "analysis.mc", verify_refined, refined)
        # VHDL for designs with more than one bus fails validation at
        # the baseline (README, known failures), so only single-bus
        # unprotected designs are emitted.
        if fields["protection"] is None and len(refined.buses) == 1:
            text = layer(out, "hdl.emit", emit_refined_spec, refined)
            if text is not None:
                out.value["vhdl_lines"] = text.count("\n") + 1
                out.value["vhdl"] = layer(
                    out, "hdl.validate", validate_vhdl, text,
                    structures=[bus.structure for bus in refined.buses])
        out.value["result"] = layer(out, None, simulate, refined,
                                    schedule=design.schedule,
                                    backend="compiled")
        return out

    def check(self, request: Request, outcome: Outcome) -> List[str]:
        problems = list(outcome.errors)
        value = outcome.value
        diagnostics = value.get("diagnostics")
        if diagnostics is not None and diagnostics.errors:
            problems.append(f"lint errors: {len(diagnostics.errors)}")
        tv = value.get("tv")
        if tv is not None:
            count_tv(outcome.counts, tv)
            if not tv.all_validated:
                problems.append("translation validation refuted a process")
        mc = value.get("mc")
        if mc is not None:
            count_mc(outcome.counts, mc)
            problems += mc_blocking(mc)
        report = value.get("vhdl")
        if report is not None:
            outcome.counts["hdl.lines"] += value["vhdl_lines"]
            if not report.ok:
                problems.append("VHDL: " + "; ".join(report.errors[:3]))
        result = value.get("result")
        if result is not None:
            count_sim(outcome.counts, result)
            if not inputs.oracle_matches(value["design"].expected(),
                                         result.final_values):
                problems.append("final values differ from the oracle")
        return problems


# ---------------------------------------------------------------------------
# sim-long
# ---------------------------------------------------------------------------

class SimLong(Workload):
    """Refine at a narrow width and simulate, observers detached:
    ``sim.run`` dominates and no static analysis runs."""

    name = "sim-long"
    per_second = 15.0
    warmup = 4

    WIDTHS = (1, 2, 3, 4, 5)
    INTERP_TARGETS: Tuple[Any, ...] = ("flc", "answering-machine",
                                       "ethernet", StreamShape(48, 2, 2))
    #: The compiled backend runs ~30x more clocks per host second, so
    #: its specs are ~30x longer; with three compiled targets to four
    #: interpreted ones, each backend takes about half the host time.
    COMPILED_TARGETS: Tuple[Any, ...] = (
        StreamShape(1536, 2, 2), StreamShape(1536, 3, 3),
        StreamShape(3072, 1, 1))

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: One draw of values per (target, round), shared by the
        #: target's widths: the golden-interpreter oracle of a long spec
        #: then runs once for five requests.
        self.values: Dict[Tuple[Any, int], Any] = {}
        self.oracles: Dict[Tuple[Any, Any], Dict[str, Any]] = {}

    def plan(self, stream: str, count: int) -> List[Request]:
        self.values.clear()
        return super().plan(stream, count)

    def classes(self, round_index: int) -> Sequence[Any]:
        out = []
        for backend, targets in (("interp", self.INTERP_TARGETS),
                                 ("compiled", self.COMPILED_TARGETS)):
            for t, target in enumerate(targets):
                for w, width in enumerate(self.WIDTHS):
                    arbitration = ARBITRATIONS[(t + w) % len(ARBITRATIONS)]
                    out.append((backend, target, width, arbitration,
                                round_index))
        return out

    def make(self, cls: Any, generator: Any) -> Request:
        backend, target, width, arbitration, round_index = cls
        if (target, round_index) not in self.values:
            self.values[(target, round_index)] = draw_target_values(
                target, generator)
        values = self.values[(target, round_index)]
        return Request((target, values, backend, width, arbitration),
                       {"target": target, "values": values,
                        "backend": backend, "width": width,
                        "arbitration": arbitration})

    def prepare(self, request: Request) -> None:
        fields = request.fields
        fields["design"] = target_design(fields["target"], fields["values"])

    def execute(self, request: Request) -> Outcome:
        out = Outcome()
        fields = request.fields
        design: Design = fields["design"]
        protocol = get_protocol("full_handshake")
        # A designer-specified width, refined even where Equation 1
        # says the bus is too slow (transfers simply delay processes).
        plans = [(group, fields["width"], protocol)
                 for group in design.groups]
        refined = layer(out, "protogen.refine", refine_system,
                        design.system, plans, protocol=protocol)
        if refined is not None:
            out.value["result"] = layer(
                out, None, simulate, refined, schedule=design.schedule,
                arbiter_factories=arbiter_factories(fields["arbitration"]),
                backend=fields["backend"])
        return out

    def check(self, request: Request, outcome: Outcome) -> List[str]:
        problems = list(outcome.errors)
        result = outcome.value.get("result")
        if result is not None:
            count_sim(outcome.counts, result)
            fields = request.fields
            key = (fields["target"], fields["values"])
            if key not in self.oracles:
                self.oracles[key] = fields["design"].expected()
            if not inputs.oracle_matches(self.oracles[key],
                                         result.final_values):
                problems.append("final values differ from the oracle")
        return problems


# ---------------------------------------------------------------------------
# explain-faults
# ---------------------------------------------------------------------------

class ExplainFaults(Workload):
    """Protected designs under seeded wire faults, simulated on both
    backends with the flight recorder and live metrics attached, each
    run explained: the observability tax and the recovery paths."""

    name = "explain-faults"
    per_second = 8.5
    warmup = 3

    TARGETS: Tuple[Any, ...] = ("flc", "answering-machine", "ethernet",
                                StreamShape(24, 2), StreamShape(16, 1, 2))
    #: (protection, faults per plan), within what each protection always
    #: detects: parity any single flipped bit, CRC-8 every 2-bit error.
    PLANS = (("parity", 1), ("crc8", 1), ("crc8", 2))

    def classes(self, round_index: int) -> Sequence[Any]:
        return [(target, plan) for target in self.TARGETS
                for plan in self.PLANS]

    def make(self, cls: Any, generator: Any) -> Request:
        target, (protection, faults) = cls
        values = draw_target_values(target, generator)
        bus_choice = generator.random()
        fault_seed = generator.randrange(1 << 30)
        return Request((target, values, protection, faults, bus_choice,
                        fault_seed),
                       {"target": target, "values": values,
                        "protection": protection, "faults": faults,
                        "bus_choice": bus_choice, "fault_seed": fault_seed})

    def prepare(self, request: Request) -> None:
        fields = request.fields
        design = target_design(fields["target"], fields["values"])
        protocol = get_protocol("full_handshake")
        plans = [generate_bus(group, protocol=protocol)
                 for group in design.groups]
        refined = refine_system(design.system, plans, protocol=protocol,
                                protection=fields["protection"])
        bus = refined.buses[int(fields["bus_choice"] * len(refined.buses))]
        fields.update(design=design, refined=refined, plan=FaultPlan.random(
            fields["fault_seed"], bus.name, bus.structure.width,
            count=fields["faults"]))

    def execute(self, request: Request) -> Outcome:
        out = Outcome()
        fields = request.fields
        runs = []
        for backend in ("interp", "compiled"):
            fields["plan"].reset()
            recorder = FlightRecorder()
            result = layer(out, None, simulate, fields["refined"],
                           schedule=fields["design"].schedule,
                           metrics=SimMetrics(), faults=fields["plan"],
                           recorder=recorder, backend=backend)
            payload = layer(out, "obs.flight.explain", explain_payload,
                            recorder, result, system=fields["refined"].name)
            runs.append((backend, result, recorder, payload))
        out.value["runs"] = runs
        return out

    def check(self, request: Request, outcome: Outcome) -> List[str]:
        problems = list(outcome.errors)
        oracle = request.fields["design"].expected()
        signatures = []
        for backend, result, recorder, payload in outcome.value["runs"]:
            outcome.counts["obs.flight.events"] += len(recorder.events)
            if result is None or payload is None:
                continue
            count_sim(outcome.counts, result)
            if not inputs.oracle_matches(oracle, result.final_values):
                problems.append(f"{backend}: final values differ from "
                                "the oracle")
            if not payload["attribution"]["exact"]:
                problems.append(f"{backend}: attribution buckets do not "
                                "sum to latency")
            if len(payload["faults"]) != len(result.fault_records):
                problems.append(f"{backend}: explained faults differ "
                                "from fired faults")
            signatures.append((
                result.end_time,
                {bus: [(t.start_time, t.end_time, t.channel, t.data,
                        t.retries) for t in log]
                 for bus, log in result.transactions.items()}))
        if len(signatures) == 2 and signatures[0] != signatures[1]:
            problems.append("backends disagree on clocks or transfers")
        return problems


# ---------------------------------------------------------------------------
# explore-sweep
# ---------------------------------------------------------------------------

class ExploreSweep(Workload):
    """Memoized 8-point sweeps against one stage cache: half of each
    sweep's points were swept before (cache reads), half are new
    (stage computes and cache writes)."""

    name = "explore-sweep"
    per_second = 33.0
    warmup = 5

    SYSTEMS = ("flc", "answering-machine", "ethernet",
               "examples/specs/fig3.spec",
               "examples/specs/gcd_accelerator.spec")
    POINTS = 8
    WIDTHS: Tuple[Any, ...] = ("auto",) + tuple(range(1, 33))

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.cache_dir = self.work / "explore-cache"
        self.cache_dir.mkdir(parents=True)
        pool = [GridPoint(width, protocol, protection or "none", arbitration)
                for width in self.WIDTHS
                for protocol, protection in inputs.VARIANTS
                for arbitration in ARBITRATIONS]
        self.fresh = {system: list(pool) for system in self.SYSTEMS}
        self.seen: Dict[str, List[GridPoint]] = {s: [] for s in self.SYSTEMS}
        #: Canonical projection of each point's first sweep: a repeat
        #: (served from the cache) must reproduce it exactly.
        self.first: Dict[Tuple[str, GridPoint], Dict[str, Any]] = {}
        self.oracles: Dict[str, Dict[str, Any]] = {}

    def classes(self, round_index: int) -> Sequence[Any]:
        return self.SYSTEMS

    def make(self, system: Any, generator: Any) -> Request:
        seen = self.seen[system]
        points = generator.sample(seen, min(len(seen), self.POINTS // 2))
        fresh = self.fresh[system]
        new = [fresh.pop(generator.randrange(len(fresh)))
               for _ in range(min(self.POINTS - len(points), len(fresh)))]
        # A run long enough to sweep every point tops up with repeats.
        points += generator.sample([p for p in seen if p not in points],
                                   self.POINTS - len(points) - len(new))
        seen.extend(new)
        points += new
        generator.shuffle(points)
        return Request((system, tuple(points)),
                       {"system": system, "points": points})

    def execute(self, request: Request) -> Outcome:
        out = Outcome()
        out.value["report"] = layer(
            out, "explore.sweep", explore, request.fields["system"],
            request.fields["points"], jobs=1, cache_dir=str(self.cache_dir),
            backend="compiled")
        return out

    def _oracle(self, system: str) -> Dict[str, Any]:
        if system not in self.oracles:
            self.oracles[system] = (
                inputs.spec_design((self.root / system).read_text(
                    encoding="utf-8")).expected()
                if system.endswith(".spec") else {})
        return self.oracles[system]

    def check(self, request: Request, outcome: Outcome) -> List[str]:
        problems = list(outcome.errors)
        report = outcome.value.get("report")
        if report is None:
            return problems
        system = request.fields["system"]
        count_explore(outcome.counts, report)
        if report["cache"]["incidents"]:
            problems.append(f"cache incidents: {report['cache']['incidents']}")
        oracle = self._oracle(system)
        canonical = canonical_report(report)["points"]
        for result, projection in zip(report["results"], canonical):
            if self.traced:
                outcome.spans += spans_from_tracer(result["spans"]["spans"])
            if result["status"] != "ok":
                problems.append(f"{result['label']}: {result['error']}")
                continue
            sim = result["sim"]
            if sim["oracle_ok"] is False or not inputs.oracle_matches(
                    oracle, sim["final_values"]):
                problems.append(f"{result['label']}: oracle mismatch")
            projection = dict(projection, index=None)
            first = self.first.setdefault(
                (system, GridPoint(**result["params"])), projection)
            if first != projection:
                problems.append(f"{result['label']}: cached result differs "
                                "from its first sweep")
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (DesignFlow, SimLong, ExplainFaults, ExploreSweep)
}

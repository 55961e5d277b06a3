"""Command-line interface: ``repro-synth``.

A small front end over the library for exploring the paper's flow
without writing Python:

.. code-block:: console

    $ repro-synth info                       # library + protocol summary
    $ repro-synth synth flc --width 20       # run the pipeline on a system
    $ repro-synth synth ethernet --vhdl out.vhd --simulate
    $ repro-synth fig7                       # the Figure 7 sweep table
    $ repro-synth fig8                       # the Figure 8 design table

Systems: ``flc`` (bus B of the fuzzy logic controller),
``answering-machine``, ``ethernet``, or the path of a ``.spec`` file
(``examples/specs/fig3.spec`` is the paper's running example).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence

from repro import __version__
from repro.busgen.algorithm import generate_bus
from repro.busgen.constraints import (
    ConstraintSet,
    max_buswidth,
    min_buswidth,
    min_peak_rate,
)
from repro.busgen.split import plan_buses, split_group
from repro.errors import (
    AnalysisError,
    InfeasibleBusError,
    ReproError,
    SimulationError,
)
from repro.estimate.area import estimate_bus_area
from repro.estimate.perf import PerformanceEstimator
from repro.hdl.validate import validate_vhdl
from repro.hdl.vhdl import emit_refined_spec
from repro.protocols import PROTECTIONS, PROTOCOLS, get_protocol
from repro.protogen.refine import refine_system
from repro.sim.runtime import BACKENDS, simulate


def _note(message: str) -> None:
    """Informational notes of the loader and the bus planner go to
    stderr, so stdout (and every ``--json`` payload) stays clean."""
    print(message, file=sys.stderr)


@contextmanager
def _user_path(path: str, action: str = "write") -> Iterator[None]:
    """Report an OSError on a user-supplied path as a
    :class:`ReproError` naming the path (``error: …``, exit 2)."""
    try:
        yield
    except OSError as error:
        raise ReproError(f"cannot {action} {path}: "
                         f"{error.strerror or error}") from None


def _at_least_one(text: str) -> int:
    """argparse type of the counts that are meaningless below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- interface synthesis "
          "(Narayan & Gajski, DAC 1994)")
    print("\nprotocols:")
    print(f"  {'name':<16} {'ctl lines':<12} {'clk/word':>8} "
          f"{'setup':>6} {'shareable':>10}")
    for protocol in PROTOCOLS.values():
        controls = ",".join(protocol.control_lines) or "-"
        print(f"  {protocol.name:<16} {controls:<12} "
              f"{protocol.delay_clocks:>8} {protocol.setup_clocks:>6} "
              f"{str(protocol.shareable):>10}")
    print("\nsystems for `synth`: flc, answering-machine, ethernet")
    return 0


def _write_observability(args: argparse.Namespace, tracer,
                         simulations, sim_runs,
                         verification=None) -> None:
    """Write --metrics-out / --trace-out files from a traced run."""
    from repro.obs import export as obs_export
    from repro.obs import report as obs_report

    if args.metrics_out:
        payload = obs_report.run_report(
            meta={"command": args.command, "system": args.system,
                  "protocol": args.protocol},
            tracer=tracer, simulations=simulations,
            verification=verification,
        )
        with _user_path(args.metrics_out):
            if args.metrics_format == "prom":
                with open(args.metrics_out, "w",
                          encoding="utf-8") as handle:
                    handle.write(obs_export.to_prometheus(payload))
            else:
                obs_export.write_json(payload, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        with _user_path(args.trace_out):
            obs_export.write_chrome_trace(tracer, args.trace_out,
                                          sim_runs=sim_runs)
        print(f"chrome trace written to {args.trace_out} "
              "(load in chrome://tracing or ui.perfetto.dev)")


def _check_output_paths(args: argparse.Namespace) -> None:
    """Fail before any work, not after it, when ``--trace-out`` or
    ``--metrics-out`` cannot be written.  A probe file the check
    creates is removed again."""
    for path in (args.trace_out, args.metrics_out):
        if not path:
            continue
        existed = os.path.exists(path)
        with _user_path(path):
            open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


#: synth's options that only the simulation reads (dest -> what the
#: option does there); each requires --simulate.
_SIMULATE_ONLY = {
    "faults": "--faults injects wire faults into the simulation",
    "sim_timeout_clocks": "--sim-timeout-clocks bounds the simulation",
    "emit_sim_source": "--emit-sim-source dumps the code generated for "
                       "the simulation",
}


def _check_simulate_options(args: argparse.Namespace) -> None:
    """Refuse, before the flow prints anything, a simulate-only option
    the run would ignore or the simulation would reject, and a
    ``--emit-sim-source`` directory that cannot be created."""
    if not args.simulate:
        given = [what for dest, what in _SIMULATE_ONLY.items()
                 if getattr(args, dest) is not None]
        if given:
            raise ReproError("; ".join(f"{what} and requires --simulate"
                                       for what in given))
    if args.sim_timeout_clocks is not None and args.sim_timeout_clocks < 1:
        raise SimulationError(f"--sim-timeout-clocks must be >= 1, got "
                              f"{args.sim_timeout_clocks}")
    if args.emit_sim_source is not None and args.backend != "compiled":
        raise SimulationError(
            "emit_sim_source dumps generated code and requires "
            f"backend='compiled', got backend={args.backend!r}")
    if args.emit_sim_source is not None:
        with _user_path(args.emit_sim_source):
            os.makedirs(args.emit_sim_source, exist_ok=True)


def _fault_plan(path: Optional[str], show: bool):
    """The fault plan at ``path`` (``None`` without one), described on
    stdout when ``show``."""
    if not path:
        return None
    from repro.sim.faults import FaultPlan

    plan = FaultPlan.load(path)
    if show:
        print(plan.describe())
    return plan


@dataclass
class _SynthRun:
    """What the steps of one ``synth`` run share; ``--metrics-out`` and
    ``--trace-out`` read the simulation and the temporal verdicts from
    it, also when a later step fails."""

    args: argparse.Namespace
    sim_metrics: Any = None
    loaded: Any = None
    plans: List[Any] = field(default_factory=list)
    refined: Any = None
    result: Any = None
    verification: Optional[dict] = None


def cmd_synth(args: argparse.Namespace) -> int:
    _check_output_paths(args)
    _check_simulate_options(args)
    run = _SynthRun(args)
    if not (args.trace_out or args.metrics_out):
        return _synth_flow(run)

    from repro import obs
    from repro.obs import report as obs_report

    tracer = obs.Tracer()
    run.sim_metrics = obs.SimMetrics()

    def write() -> None:
        runs = [] if run.result is None else [run.result]
        _write_observability(
            args, tracer,
            [obs_report.sim_section(args.system, result, run.sim_metrics)
             for result in runs],
            [(args.system, result.transactions, result.fault_records)
             for result in runs],
            verification=run.verification)

    try:
        with obs.tracing(tracer):
            code = _synth_flow(run)
    except BaseException:
        # The flow's own error wins; a failed write only adds a note.
        try:
            write()
        except ReproError as error:
            _note(f"note: {error}")
        raise
    write()
    return code


def _synth_flow(run: _SynthRun) -> int:
    for option, step in _SYNTH_STEPS:
        if option is None or getattr(run.args, option):
            code = step(run)
            if code is not None:
                return code
    return 0


def _plan_buses(run: _SynthRun) -> None:
    """Load the system and design one bus per channel group under the
    designer's constraints (splitting a group no width can carry)."""
    from repro.explore.systems import load_system

    args = run.args
    run.loaded = load_system(args.system, on_note=_note)
    if len(run.loaded.groups) > 1:
        print(f"{len(run.loaded.groups)} module-pair buses to synthesize")
    protocol = get_protocol(args.protocol)
    for group in run.loaded.groups:
        print(group.describe())
        constraints = ConstraintSet()
        if args.min_width is not None:
            constraints.add(min_buswidth(args.min_width, weight=5))
        if args.max_width is not None:
            constraints.add(max_buswidth(args.max_width, weight=5))
        if args.min_peak is not None:
            channel = group.channels[-1].name
            constraints.add(min_peak_rate(channel, args.min_peak,
                                          weight=10))
        try:
            design = _generate_bus(
                group, args.rates, protocol=protocol, constraints=constraints,
                widths=None if args.width is None else [args.width])
        except InfeasibleBusError as error:
            print(f"\n{error}")
            if args.force and args.width is not None:
                # Section 4: the number of data lines "can be specified
                # by the system designer" -- proceed regardless of
                # Equation 1 (transfers simply delay the processes).
                print(f"--force: proceeding with designer width "
                      f"{args.width}")
                run.plans.append((group, args.width, protocol))
            else:
                # Section 3 step 5: split the group across several
                # buses and continue the flow with all of them.
                result = split_group(group, protocol=protocol,
                                     constraints=constraints)
                print(result.describe())
                run.plans.extend(result.designs)
            continue
        print(f"\n{design.describe()}")
        if design.rate_mode == "static":
            chosen = next(e for e in design.evaluations
                          if e.width == design.width)
            print(f"  statically proven demand bound "
                  f"{chosen.demand_static:g} <= bus rate {chosen.bus_rate:g} "
                  f"(width {design.width} feasible for every execution)")
        run.plans.append(design)


def _generate_bus(group, rates: str, **options):
    if rates == "static":
        try:
            return generate_bus(group, rates="static", **options)
        except InfeasibleBusError as error:
            # The proven bounds are too loose (or genuinely
            # infeasible): report the gap and retry measured.
            print(f"\nstatic rates: {error}")
            print("falling back to measured rates")
    return generate_bus(group, **options)


def _refine(run: _SynthRun) -> None:
    protection = run.args.protection
    if protection != "none":
        print(f"protection: {protection} (check field + "
              "NACK/timeout/retry)")
    run.refined = refine_system(run.loaded.system, run.plans,
                                protection=protection)


def _tighten_fields(run: _SynthRun) -> None:
    """Re-refine with the statically proven value ranges, narrowing the
    data field of every message they bound."""
    from repro.analysis.absint import analyze_refined_values
    from repro.protogen.procedures import FieldKind

    ranges = analyze_refined_values(run.refined).finite_sent_ranges()
    if not ranges:
        print("tighten-fields: no finite value ranges proven; "
              "layouts unchanged")
        return
    before = {name: pair.layout.field(FieldKind.DATA).bits
              for bus in run.refined.buses
              for name, pair in bus.procedures.items()}
    run.refined = refine_system(run.loaded.system, run.plans,
                                value_ranges=ranges,
                                protection=run.args.protection)
    for bus in run.refined.buses:
        for name, pair in bus.procedures.items():
            data_field = pair.layout.field(FieldKind.DATA)
            if pair.layout.proven_range is None:
                continue
            lo, hi = pair.layout.proven_range
            print(f"tightened {name}: data field "
                  f"{before[name]} -> {data_field.bits} bit(s) "
                  f"(proven values [{lo}, {hi}])")


def _report_area(run: _SynthRun) -> None:
    for bus in run.refined.buses:
        print(bus.structure.describe())
        area = estimate_bus_area(bus)
        print(f"interface area: {area.wires} wires, "
              f"{area.total_gates} gate-equivalents")


def _simulate(run: _SynthRun) -> Optional[int]:
    """Simulate the refined spec (under the fault plan, if any) and
    check the system's reference outputs."""
    args = run.args
    plan = _fault_plan(args.faults, show=True)
    limit = {} if args.sim_timeout_clocks is None \
        else {"max_clocks": args.sim_timeout_clocks}
    run.result = result = simulate(
        run.refined, schedule=run.loaded.schedule, metrics=run.sim_metrics,
        faults=plan, backend=args.backend,
        emit_sim_source=args.emit_sim_source, **limit)
    buses = result.buses.values()
    print(f"\nsimulated {result.end_time} clocks; "
          f"{sum(bus.transactions for bus in buses)} bus transactions")
    if result.fault_records:
        print(f"faults injected: {len(result.fault_records)}; "
              f"message retries: {sum(b.retries for b in buses)}")
        for record in result.fault_records:
            print(f"  clock {record.clock}: {record.bus}."
                  f"{record.line} {record.detail}")
    ok = run.loaded.oracle_ok(result.final_values)
    if ok is None:
        return None
    print(f"oracle check: {'OK' if ok else 'MISMATCH'}")
    return None if ok else 1


def _verify(run: _SynthRun) -> Optional[int]:
    """Static analysis, then the refinement against the golden
    interpreter (values, channel sequences, clocks)."""
    from repro.analysis import analyze_refined
    from repro.verify import verify_refinement

    diagnostics = analyze_refined(run.refined)
    if not diagnostics.clean:
        print()
        print(diagnostics.render_text())
    if diagnostics.errors:
        print("static analysis failed; skipping simulation-based "
              "verification")
        return 1
    report = verify_refinement(run.loaded.system, run.refined,
                               schedule=run.loaded.schedule)
    print()
    print(report.describe())
    return None if report.passed else 1


def _report(run: _SynthRun) -> None:
    from repro.protogen.report import synthesis_report

    print()
    print(synthesis_report(run.refined))


def _emit_vhdl(run: _SynthRun) -> Optional[int]:
    """Write validated VHDL, unless the temporal proof refutes an
    error-severity property: that would hand a provably broken design
    to logic synthesis."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.mc import verify_refined as mc_verify

    path = run.args.vhdl
    verification = mc_verify(run.refined)
    run.verification = verification.to_dict()
    print()
    print("temporal verification:")
    print(verification.render_text())
    if _refuted_at(verification, Severity.ERROR):
        print("temporal verification refuted a liveness/race "
              "property; VHDL emission blocked")
        return 1
    text = emit_refined_spec(run.refined)
    structures = [bus.structure for bus in run.refined.buses]
    validate_vhdl(text, structures=structures).raise_if_failed()
    with _user_path(path), open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"VHDL written to {path} ({len(text.splitlines())} lines)")
    return None


#: The synth steps in order, each with the option that turns it on
#: (``None``: always run); a step that returns an exit code ends the run.
_SYNTH_STEPS = (
    (None, _plan_buses), (None, _refine),
    ("tighten_fields", _tighten_fields), (None, _report_area),
    ("simulate", _simulate), ("verify", _verify), ("report", _report),
    ("vhdl", _emit_vhdl))


def _refuted_at(report, threshold) -> bool:
    """True when a verdict that is not proved carries a code of at least
    ``threshold`` severity (P704 starvation is only a warning)."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.mc.passes import SEVERITIES

    return any(
        verdict.status != "PROVED" and verdict.code is not None
        and SEVERITIES.get(verdict.code, Severity.ERROR) >= threshold
        for verdict in report.verdicts)


def _build_refined(system_name: str, protocol: str,
                   width: Optional[int] = None,
                   protection: Optional[str] = None):
    """``(refined, loaded)``: the refined spec the flow would synthesize
    for a system, for ``lint``, ``verify``, ``explain`` and ``profile``.

    Plans one bus per group (splitting infeasible groups as ``synth``
    does; a designer ``width`` is never split) and refines at the
    requested protocol and protection.  The loaded system's schedule
    matters to analyses whose contention facts depend on which behaviors
    run concurrently, and its oracle to the simulating commands.
    """
    from repro.explore.systems import load_system

    loaded = load_system(system_name, on_note=_note)
    plans = plan_buses(loaded.groups, get_protocol(protocol),
                       widths=None if width is None else [width],
                       on_note=_note)
    return refine_system(loaded.system, plans,
                         protection=protection), loaded


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import Severity, analyze_refined
    from repro.analysis.tv import validate_refined

    refined, loaded = _build_refined(args.system, args.protocol,
                                     args.width)

    diagnostics = analyze_refined(refined)
    # Translation validation rides along: lint judges the exact
    # compiled sources the simulator would run, so a miscompile
    # surfaces here as a P8xx before anyone simulates.
    diagnostics.extend(
        validate_refined(refined, schedule=loaded.schedule).diagnostics())
    if args.json:
        print(diagnostics.render_json())
    else:
        print(diagnostics.render_text())

    threshold = Severity.parse(args.fail_on)
    return 1 if diagnostics.at_least(threshold) else 0


def _reject_ignored(option: str, reason: str, given) -> None:
    """Refuse the ``(name, value)`` options of ``given`` that were set
    explicitly and that ``option`` would silently ignore (exit 2)."""
    ignored = [name if value is True else f"{name} {value}"
               for name, value in given
               if value is not None and value is not False]
    if ignored:
        raise AnalysisError(f"{option} {reason}; drop {', '.join(ignored)}")


def cmd_verify(args: argparse.Namespace) -> int:
    """Temporal model checking: prove or refute the liveness/race
    properties of every generated channel, with replayable witnesses."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.mc import verify_refined

    # The design options default to None, so an explicit one is told
    # apart from an absent one.
    design = [("the system argument", args.system),
              ("--protocol", args.protocol),
              ("--protection", args.protection), ("--width", args.width)]
    if args.replay:
        _reject_ignored(f"--replay {args.replay}",
                        "rebuilds the design its witness records",
                        design + [("--json", args.json),
                                  ("--mutate", args.mutate),
                                  ("--witness-dir", args.witness_dir)])
        return _replay_witness_file(args.replay)

    meta = {}
    if args.mutate:
        _reject_ignored(f"--mutate {args.mutate}",
                        "verifies the design its seeded defect builds",
                        design)
        defect, refined = _mutated_spec(args.mutate)
        schedule = None
        meta["mutation"] = defect.name
        print(f"seeded defect {defect.name} [{defect.code}]: "
              f"{defect.description}")
    else:
        system = args.system or VERIFY_DEFAULTS["system"]
        refined, loaded = _build_refined(
            system, args.protocol or VERIFY_DEFAULTS["protocol"],
            args.width, args.protection or VERIFY_DEFAULTS["protection"])
        schedule = loaded.schedule
        # The loadable name (may differ from spec.name): lets --replay
        # rebuild the exact design later.
        meta["system_arg"] = system

    report = verify_refined(refined, witness_meta=meta)
    # Translation validation joins the verification gate: the compiled
    # lowering of every process must be proven clock- and
    # effect-equivalent (skipped for --mutate, which verifies seeded
    # FSM defects, not the production lowering).
    tv = None
    if not args.mutate:
        from repro.analysis.tv import validate_refined

        tv = validate_refined(refined, schedule=schedule)
    if args.json:
        payload = report.to_dict()
        if tv is not None:
            payload["translation_validation"] = {
                "verdicts": {name: verdict.describe() for name, verdict
                             in sorted(tv.verdicts.items())},
                "diagnostics": [d.to_dict() for d in tv.diagnostics()]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_text())
        if tv is not None:
            print()
            print(tv.render_text())

    if args.witness_dir:
        with _user_path(args.witness_dir, "create directory"):
            os.makedirs(args.witness_dir, exist_ok=True)
        for index, witness in enumerate(report.witnesses):
            path = os.path.join(
                args.witness_dir,
                f"witness_{index:02d}_{witness.code}_"
                f"{witness.channel}.json")
            with _user_path(path):
                witness.save(path)
            if not args.json:
                print(f"witness written to {path}")

    failed = (_refuted_at(report, Severity.parse(args.fail_on))
              or (tv is not None and not tv.all_validated))
    return 1 if failed else 0


def _mutated_spec(name: str):
    """``(defect, spec)`` of a named seeded defect of the analyzer
    corpus, the spec carrying the defect's controller models."""
    from repro.analysis.mutations import CORPUS

    defect = CORPUS.find(name)
    if defect is None:
        names = ", ".join(sorted(d.name for d in CORPUS.defects))
        raise AnalysisError(f"unknown mutation {name!r}; "
                            f"choose from: {names}")
    return defect, defect.build()


def _replay_witness_file(path: str) -> int:
    """Rebuild the witnessed controller pair and run the schedule
    through the event kernel.  Exit 0 when the violation reproduces, 2
    when the kernel run does not confirm it."""
    from repro.analysis.mc import Witness, replay_witness
    from repro.analysis.product import channel_models

    witness = Witness.load(path)
    mutation = witness.meta.get("mutation")
    if mutation:
        _, refined = _mutated_spec(mutation)
        print(f"rebuilding seeded defect {mutation}")
    else:
        name = witness.meta.get("system_arg", witness.system)
        refined, _ = _build_refined(name, witness.protocol,
                                    protection=witness.protection)
    model = channel_models(refined).get((witness.bus, witness.channel))
    if model is None:
        raise AnalysisError(
            f"witness names {witness.bus}/{witness.channel}, which the "
            f"rebuilt {refined.name} does not contain")
    result = replay_witness(witness, model.accessor, model.server,
                            width=refined.bus(witness.bus).structure.width)
    print(f"replaying {witness.property_id} [{witness.code}] on "
          f"{witness.bus}/{witness.channel} ({witness.kind})")
    print(result.render_text())
    return 0 if result.confirmed else 2


def cmd_explain(args: argparse.Namespace) -> int:
    """Simulate with the causal flight recorder attached and explain
    where every clock of every transaction went."""
    from repro.obs import SimMetrics
    from repro.obs import report as obs_report
    from repro.obs.flight import (FlightRecorder, explain_payload,
                                  render_explain_text, write_flight_trace)

    _check_output_paths(args)
    refined, loaded = _build_refined(args.system, args.protocol,
                                     args.width, args.protection)

    plan = _fault_plan(args.faults, show=not args.json)
    recorder = FlightRecorder()
    metrics = SimMetrics()
    aborted: Optional[str] = None
    result = None
    try:
        result = simulate(refined, schedule=loaded.schedule,
                          metrics=metrics, recorder=recorder,
                          faults=plan, backend=args.backend)
    except SimulationError as error:
        # Explain the run anyway -- a transfer that gave up is exactly
        # what the journal is for.  Seal the recorder at the last
        # journaled clock.
        aborted = str(error)
        last = max((event.clock for event in recorder.events),
                   default=0)
        recorder.finish(max(last, recorder.end_clock))

    payload = explain_payload(recorder, result, system=args.system)
    if aborted is not None:
        payload["aborted"] = aborted
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if aborted is not None:
            print(f"simulation aborted: {aborted}")
            print()
        print(render_explain_text(payload, top=args.top), end="")
    if args.trace_out:
        with _user_path(args.trace_out):
            write_flight_trace(args.trace_out, recorder,
                               label=args.system)
        if not args.json:
            print(f"flight trace written to {args.trace_out}")
    if args.metrics_out and result is not None:
        from repro.obs import export as obs_export
        report_payload = obs_report.run_report(
            meta={"command": "explain", "system": args.system,
                  "protocol": args.protocol},
            simulations=[obs_report.sim_section(
                args.system, result, metrics, recorder=recorder)],
        )
        with _user_path(args.metrics_out):
            obs_export.write_json(report_payload, args.metrics_out)
        if not args.json:
            print(f"run report written to {args.metrics_out}")
    return 2 if aborted is not None else 0


def _profile_once(args: argparse.Namespace, systems):
    """One instrumented synth+sim sweep over ``systems``.

    Returns ``(tracer, simulations, sim_runs, summary_rows, exit_code)``
    so ``cmd_profile`` can repeat the sweep and aggregate timings.
    """
    from repro import obs
    from repro.analysis import analyze_refined
    from repro.obs import report as obs_report

    tracer = obs.Tracer()
    simulations = []
    sim_runs = []
    summary_rows = []
    exit_code = 0
    with obs.tracing(tracer):
        for name in systems:
            with obs.span("profile.system", system=name):
                refined, loaded = _build_refined(name, args.protocol)
                analyze_refined(refined)
                text = emit_refined_spec(refined)
                validate_vhdl(
                    text,
                    structures=[b.structure for b in refined.buses],
                ).raise_if_failed()
                metrics = obs.SimMetrics()
                result = simulate(refined, schedule=loaded.schedule,
                                  metrics=metrics, backend=args.backend)
                ok = loaded.oracle_ok(result.final_values) is not False
                if not ok:
                    exit_code = 1
                simulations.append(
                    obs_report.sim_section(name, result, metrics))
                sim_runs.append((name, result.transactions))
                summary_rows.append(_profile_row(name, result, ok))
    return tracer, simulations, sim_runs, summary_rows, exit_code


def _profile_row(name: str, result, ok: bool) -> tuple:
    """One ``profile`` summary row: ``(system, clocks, transfers, bus
    util, oracle)``, where bus util is the busiest bus's
    :attr:`~repro.sim.analysis.BusStats.utilization`."""
    buses = result.buses.values()
    return (name, result.end_time, sum(bus.transactions for bus in buses),
            max((bus.utilization for bus in buses), default=0.0),
            "OK" if ok else "MISMATCH")


def cmd_profile(args: argparse.Namespace) -> int:
    """Instrumented synth+sim sweep with a stage-by-stage breakdown."""
    import statistics

    from repro.explore.systems import BUILTIN_SYSTEMS

    _check_output_paths(args)
    systems = list(BUILTIN_SYSTEMS) if args.system == "all" \
        else [args.system]
    stage_samples = {}
    stage_calls = {}
    for _ in range(args.repeat):
        (tracer, simulations, sim_runs,
         summary_rows, exit_code) = _profile_once(args, systems)
        for entry in tracer.breakdown():
            stage_calls.setdefault(entry["name"], entry["calls"])
            stage_samples.setdefault(entry["name"], []).append(
                entry["total_ms"])

    if args.repeat == 1:
        print("stage breakdown (wall time):")
        columns = {"total ms": min}
    else:
        print(f"stage breakdown (wall time over {args.repeat} runs):")
        columns = {"min ms": min, "median ms": statistics.median}
    print(f"  {'stage':<46} {'calls':>5}"
          + "".join(f" {column:>10}" for column in columns))
    for name, samples in stage_samples.items():
        print(f"  {name:<46} {stage_calls[name]:>5}"
              + "".join(f" {statistic(samples):>10.3f}"
                        for statistic in columns.values()))
    print(f"\nsimulation summary (backend: {args.backend}):")
    print(f"  {'system':<20} {'clocks':>8} {'transfers':>9} "
          f"{'bus util':>9}  oracle")
    for name, clocks, transfers, utilization, ok in summary_rows:
        print(f"  {name:<20} {clocks:>8} {transfers:>9} "
              f"{utilization:>9.3f}  {ok}")
    fallback_lines = [
        f"  {section['system']}.{process}: {reason}"
        for section in simulations
        for process, reason in sorted(
            section.get("fallbacks", {}).items())]
    if fallback_lines:
        print("\ninterpreter fallbacks (compile or validation):")
        print("\n".join(fallback_lines))

    _write_observability(args, tracer, simulations, sim_runs)
    return exit_code


def cmd_explore(args: argparse.Namespace) -> int:
    """Memoized design-space sweep with Pareto ranking."""
    from repro.explore import (
        ExploreCache,
        canonical_report,
        differential_check,
        expand_grid,
        explore,
        parse_grid,
        render_table,
    )

    points = expand_grid(parse_grid(args.grid or []))
    if args.cache:
        with _user_path(args.cache, "create cache directory"):
            os.makedirs(args.cache, exist_ok=True)
    report = explore(args.system, points, jobs=args.jobs,
                     cache_dir=args.cache, backend=args.backend)

    check_section = None
    if args.check:
        if not args.cache:
            raise ReproError("--check requires --cache DIR (there is "
                             "no cache to check otherwise)")
        cache = ExploreCache(args.cache)
        diff = differential_check(args.system, points, cache,
                                  backend=args.backend)
        check_section = {
            "checked": diff["checked"],
            "skipped_gated": diff["skipped_gated"],
            "incidents": [i.to_dict() for i in diff["incidents"]],
        }
        report["differential"] = check_section
    failed = (report["cache"]["incidents"]
              or (check_section is not None and check_section["incidents"])
              or all(r["status"] == "error" for r in report["results"]))
    exit_code = 1 if failed else 0

    if args.report_out:
        with _user_path(args.report_out), \
                open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(canonical_report(report), indent=2,
                         sort_keys=True))
        return exit_code

    stats = report["cache"]["stats"]
    print(f"explore {args.system}: {len(points)} points, "
          f"backend {args.backend}, jobs {args.jobs}")
    print(f"  cache: {args.cache or '(none)'}  "
          f"hits {stats['hits']}  misses {stats['misses']}  "
          f"writes {stats['writes']}")
    print()
    for line in render_table(report["results"], report["pareto"]):
        print(f"  {line}")
    errors = [r for r in report["results"] if r["status"] == "error"]
    if errors:
        print()
        for result in errors:
            error = result["error"]
            print(f"  {result['label']}: {error['type']} at "
                  f"{error['stage']}: {error['message']}")
    for incident in report["cache"]["incidents"]:
        print(f"  cache incident [{incident['code']}] "
              f"{incident['stage']}/{incident['key'][:12]}: "
              f"{incident['detail']}")
    if check_section is not None:
        verdict = ("CLEAN" if not check_section["incidents"]
                   else f"{len(check_section['incidents'])} mismatches")
        print(f"\n  differential check: {check_section['checked']} "
              f"entries vs fresh compute -> {verdict}")
        for incident in check_section["incidents"]:
            print(f"    [{incident['code']}] {incident['stage']}/"
                  f"{incident['key'][:12]}: {incident['detail']}")
    print(f"\n  wall: {report['wall_seconds']:.2f}s")
    return exit_code


def cmd_fig7(_args: argparse.Namespace) -> int:
    from repro.apps.flc import build_flc
    from repro.protocols import FULL_HANDSHAKE

    model = build_flc()
    estimator = PerformanceEstimator()
    print("Figure 7: FLC execution time (clocks) vs buswidth")
    print(f"{'width':>5} {'EVAL_R3':>9} {'CONV_R2':>9}")
    for width in range(1, 33):
        row = [width]
        for name in ("EVAL_R3", "CONV_R2"):
            estimate = estimator.estimate(
                model.system.behavior(name), model.bus_b.channels,
                width, FULL_HANDSHAKE)
            row.append(estimate.exec_clocks)
        print(f"{row[0]:>5} {row[1]:>9} {row[2]:>9}")
    return 0


def cmd_fig8(_args: argparse.Namespace) -> int:
    from repro.apps.flc import build_flc

    model = build_flc()
    designs = {
        "A": ConstraintSet([min_peak_rate("ch2", 10, weight=10)]),
        "B": ConstraintSet([min_peak_rate("ch2", 10, weight=2),
                            min_buswidth(14, weight=1),
                            max_buswidth(18, weight=5)]),
        "C": ConstraintSet([min_peak_rate("ch2", 10, weight=1),
                            min_buswidth(16, weight=5),
                            max_buswidth(16, weight=5)]),
    }
    print("Figure 8: constraint-driven designs for {ch1, ch2} "
          f"({model.bus_b.total_message_pins} separate pins)")
    for name, constraints in designs.items():
        design = generate_bus(model.bus_b, constraints=constraints)
        print(f"  design {name}: width {design.width:>2}, rate "
              f"{design.bus_rate:g} b/clk, reduction "
              f"{design.interconnect_reduction_percent:.0f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="Interface synthesis: bus & protocol generation "
                    "(Narayan & Gajski, DAC 1994 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="library and protocol summary") \
        .set_defaults(func=cmd_info)

    synth = sub.add_parser("synth", help="run the synthesis pipeline")
    synth.set_defaults(func=cmd_synth)
    _add_system_options(synth, "--protocol", "--width", "--protection",
                        "--backend")
    add = synth.add_argument
    add("--min-width", type=int)
    add("--max-width", type=int)
    add("--min-peak", type=float,
        help="min peak rate (bits/clock) on the last channel of the group")
    add("--force", action="store_true",
        help="with --width: refine at the designer width even if "
             "Equation 1 is infeasible")
    add("--rates", default="measured", choices=["measured", "static"],
        help="Equation-1 feasibility inputs: estimator rates (measured) or "
             "statically proven worst-case bounds (static); static falls "
             "back to measured with a bound-gap report when nothing is "
             "provably feasible")
    add("--tighten-fields", action="store_true",
        help="re-refine with statically proven value ranges to narrow "
             "message data fields")
    _shared(synth, "--faults")
    add("--sim-timeout-clocks", type=int, metavar="N",
        help="abort --simulate with an error after N clocks instead of "
             "spinning (guards against faulty designs that hang; requires "
             "--simulate)")
    add("--emit-sim-source", metavar="DIR",
        help="with --backend compiled, dump the generated per-process "
             "Python into DIR (requires --simulate)")
    add("--simulate", action="store_true",
        help="simulate the refined spec and check oracle values")
    add("--verify", action="store_true",
        help="verify the refinement against the golden interpreter "
             "(values, channel sequences, clocks)")
    add("--report", action="store_true",
        help="print the full synthesis report (channels, procedures, "
             "FSMs, area)")
    add("--vhdl", metavar="FILE", help="emit validated VHDL to FILE")
    _shared(synth, "--trace-out", "--metrics-out", "--metrics-format")

    lint = sub.add_parser(
        "lint",
        help="static protocol analysis: deadlock, contention, width "
             "and dead-code checks without simulating")
    lint.set_defaults(func=cmd_lint)
    _add_system_options(lint, "--protocol", "--width", "--json",
                        "--fail-on")

    verify = sub.add_parser(
        "verify",
        help="temporal model checking: prove response, retry "
             "termination, race- and starvation-freedom for every "
             "generated channel; refutations carry replayable "
             "witnesses")
    _add_system_options(verify, "--protocol", "--protection", "--width",
                        "--json", default=VERIFY_DEFAULTS["system"])
    # The design options default to None so that --mutate and --replay
    # can tell an explicit value from an absent one; cmd_verify fills
    # them in.
    verify.set_defaults(func=cmd_verify, **dict.fromkeys(VERIFY_DEFAULTS))
    add = verify.add_argument
    add("--witness-dir", metavar="DIR",
        help="write each refutation's witness schedule as replayable JSON "
             "into DIR")
    add("--mutate", metavar="NAME",
        help="verify a named seeded defect of the mutation corpus instead; "
             "the corpus builds its own FLC design, so the system "
             "argument, --protocol, --protection and --width are rejected "
             "with it")
    add("--replay", metavar="WITNESS.json",
        help="re-synthesize the witnessed controller pair and run the "
             "schedule through the event kernel; exit 0 iff the violation "
             "reproduces concretely (2 otherwise); every other option but "
             "--fail-on is rejected with it")
    _shared(verify, "--fail-on")

    profile = sub.add_parser(
        "profile",
        help="run synth+sim fully instrumented and report a "
             "stage-by-stage time/cycle breakdown ('all': the three "
             "built-in systems)")
    profile.set_defaults(func=cmd_profile)
    _add_system_options(profile, "--protocol", "--backend", default="all")
    profile.add_argument(
        "--repeat", type=_at_least_one, default=1, metavar="N",
        help="run the sweep N times and report min/median stage timings; "
             "observability outputs come from the last run (default: 1)")
    _shared(profile, "--trace-out", "--metrics-out", "--metrics-format")

    explain = sub.add_parser(
        "explain",
        help="simulate with the causal flight recorder attached and "
             "explain where every clock went: attribution buckets, "
             "critical path, anomalies")
    explain.set_defaults(func=cmd_explain)
    _add_system_options(explain, "--protocol", "--width", "--protection",
                        "--backend", "--faults", "--json")
    explain.add_argument(
        "--top", type=_at_least_one, default=5, metavar="N",
        help="slowest transactions / faults to list in the text report "
             "(default: 5)")
    _shared(explain, "--trace-out", "--metrics-out")

    explore = sub.add_parser(
        "explore",
        help="memoized design-space sweep: expand a parameter grid, "
             "run every point through a content-addressed stage "
             "cache, rank the Pareto front (clocks/pins/area)")
    explore.set_defaults(func=cmd_explore)
    _add_system_options(explore, "--backend")
    add = explore.add_argument
    add("--grid", nargs="+", metavar="AXIS=V1,V2",
        help="grid axes: width=4,8,auto protocol=... "
             "protection=none,parity,crc8 arbitration=fifo,priority,rr,tdma "
             "(unmentioned axes take their default)")
    add("--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: inline, deterministic)")
    add("--cache", metavar="DIR",
        help="content-addressed stage cache directory (omit to recompute "
             "everything)")
    add("--check", action="store_true",
        help="differentially verify every cache entry against a fresh "
             "compute (byte-identical or EX104)")
    _shared(explore, "--json")
    add("--report-out", metavar="FILE",
        help="write the full run report (spans, cache stats, per-point "
             "payloads)")

    sub.add_parser("fig7", help="print the Figure 7 sweep") \
        .set_defaults(func=cmd_fig7)
    sub.add_parser("fig8", help="print the Figure 8 designs") \
        .set_defaults(func=cmd_fig8)
    return parser


#: The options several subcommands share, each declared once (flag ->
#: ``add_argument`` keywords) and attached by name by :func:`_shared`.
SHARED_OPTIONS = {
    "--protocol": dict(default="full_handshake", choices=sorted(PROTOCOLS),
                       help="protocol of every generated bus "
                            "(default: full_handshake)"),
    "--width": dict(type=int, help="designer-specified buswidth "
                                   "(default: run bus generation)"),
    "--protection": dict(default="none", choices=list(PROTECTIONS),
                         help="fault-tolerant protocol variant: a check "
                              "field plus NACK/timeout/retry on every "
                              "full-handshake bus (default: none)"),
    "--backend": dict(default="interp", choices=list(BACKENDS),
                      help="simulation backend: the reference "
                           "interpreter or the compiled backend, which "
                           "lowers the refined spec to specialized "
                           "Python (default: interp)"),
    "--faults": dict(metavar="PLAN.json",
                     help="inject wire faults from a JSON fault plan "
                          "into the simulation (synth: requires "
                          "--simulate)"),
    "--json": dict(action="store_true",
                   help="machine-readable output on stdout (explain: "
                        "repro.obs/explain/v1; explore: the canonical "
                        "repro.explore/report/v1 projection)"),
    "--fail-on": dict(default="error", choices=["warning", "error"],
                      help="exit non-zero when a diagnostic or a refuted "
                           "property reaches this severity (default: "
                           "error; P704 starvation is a warning)"),
    "--trace-out": dict(metavar="FILE",
                        help="write a Chrome trace_event JSON file "
                             "(chrome://tracing / Perfetto; explain's is "
                             "on the simulated-clock timeline)"),
    "--metrics-out": dict(metavar="FILE",
                          help="write the machine-readable run report"),
    "--metrics-format": dict(choices=["json", "prom"], default="json",
                             help="run-report format for --metrics-out: "
                                  "unified JSON (default) or a flat "
                                  "Prometheus-style text dump"),
}


#: ``verify``'s design options when not given (see its parser defaults).
VERIFY_DEFAULTS = {
    "system": "flc",
    "protocol": SHARED_OPTIONS["--protocol"]["default"],
    "protection": SHARED_OPTIONS["--protection"]["default"],
}


def _add_system_options(parser: argparse.ArgumentParser, *options: str,
                        default: Optional[str] = None) -> None:
    """Attach the positional ``system`` (optional when it has a
    ``default``) and the named :data:`SHARED_OPTIONS` to a subcommand."""
    help_text = "flc, answering-machine, ethernet, or a path to a .spec file"
    if default is None:
        parser.add_argument("system", help=help_text)
    else:
        parser.add_argument("system", nargs="?", default=default,
                            help=f"{help_text} (default: {default})")
    _shared(parser, *options)


def _shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Attach the named :data:`SHARED_OPTIONS` to a subcommand."""
    for flag in flags:
        parser.add_argument(flag, **SHARED_OPTIONS[flag])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: ``repro-synth``.

A small front end over the library for exploring the paper's flow
without writing Python:

.. code-block:: console

    $ repro-synth info                       # library + protocol summary
    $ repro-synth synth flc --width 20       # run the pipeline on a system
    $ repro-synth synth ethernet --vhdl out.vhd --simulate
    $ repro-synth fig7                       # the Figure 7 sweep table
    $ repro-synth fig8                       # the Figure 8 design table

Systems available to ``synth``: ``fig3`` (the running example), ``flc``
(bus B of the fuzzy logic controller), ``answering-machine`` and
``ethernet``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

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
from repro.protocols import PROTOCOLS, get_protocol
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


def _observability_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_out", None) or
                getattr(args, "metrics_out", None))


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
    for path in (getattr(args, "trace_out", None),
                 getattr(args, "metrics_out", None)):
        if not path:
            continue
        existed = os.path.exists(path)
        with _user_path(path):
            open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def cmd_synth(args: argparse.Namespace) -> int:
    if not _observability_requested(args):
        return _synth_flow(args, sim_metrics=None, captured=None)

    from repro import obs
    from repro.obs import report as obs_report

    _check_output_paths(args)
    tracer = obs.Tracer()
    sim_metrics = obs.SimMetrics()
    captured: dict = {}

    def write() -> None:
        simulations = []
        sim_runs = []
        if "result" in captured:
            simulations.append(obs_report.sim_section(
                args.system, captured["result"], sim_metrics))
            sim_runs.append((args.system, captured["result"].transactions,
                             captured["result"].fault_records))
        _write_observability(args, tracer, simulations, sim_runs,
                             verification=captured.get("verification"))

    try:
        with obs.tracing(tracer):
            code = _synth_flow(args, sim_metrics, captured)
    except BaseException:
        # The flow's own error wins; a failed write only adds a note.
        try:
            write()
        except ReproError as error:
            _note(f"note: {error}")
        raise
    write()
    return code


def _synth_flow(args: argparse.Namespace, sim_metrics, captured) -> int:
    if getattr(args, "emit_sim_source", None) and not args.simulate:
        print("error: --emit-sim-source dumps the code generated for "
              "the simulation and requires --simulate", file=sys.stderr)
        return 2
    from repro.explore.systems import load_system

    loaded = load_system(args.system, on_note=_note)
    system, schedule = loaded.system, loaded.schedule
    if len(loaded.groups) > 1:
        print(f"{len(loaded.groups)} module-pair buses to synthesize")
    protocol = get_protocol(args.protocol)

    plans = []
    for group in loaded.groups:
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

        if args.width is not None:
            widths: Optional[List[int]] = [args.width]
        else:
            widths = None
        rate_mode = getattr(args, "rates", "measured")
        try:
            if rate_mode == "static":
                try:
                    design = generate_bus(group, protocol=protocol,
                                          constraints=constraints,
                                          widths=widths, rates="static")
                except InfeasibleBusError as error:
                    # The proven bounds are too loose (or genuinely
                    # infeasible): report the gap and retry measured.
                    print(f"\nstatic rates: {error}")
                    print("falling back to measured rates")
                    design = generate_bus(group, protocol=protocol,
                                          constraints=constraints,
                                          widths=widths)
            else:
                design = generate_bus(group, protocol=protocol,
                                      constraints=constraints,
                                      widths=widths)
            print(f"\n{design.describe()}")
            if design.rate_mode == "static":
                chosen = next(e for e in design.evaluations
                              if e.width == design.width)
                print(f"  statically proven demand bound "
                      f"{chosen.demand_static:g} <= bus rate "
                      f"{chosen.bus_rate:g} (width {design.width} "
                      "feasible for every execution)")
            plans.append(design)
        except InfeasibleBusError as error:
            print(f"\n{error}")
            if args.force and args.width is not None:
                # Section 4: the number of data lines "can be specified
                # by the system designer" -- proceed regardless of
                # Equation 1 (transfers simply delay the processes).
                print(f"--force: proceeding with designer width "
                      f"{args.width}")
                plans.append((group, args.width, protocol))
            else:
                # Section 3 step 5: split the group across several
                # buses and continue the flow with all of them.
                result = split_group(group, protocol=protocol,
                                     constraints=constraints)
                print(result.describe())
                plans.extend(result.designs)

    protection = getattr(args, "protection", "none")
    if protection == "none":
        protection = None
    elif protection is not None:
        print(f"protection: {protection} (check field + "
              "NACK/timeout/retry)")
    refined = refine_system(system, plans, protection=protection)

    if getattr(args, "tighten_fields", False):
        from repro.analysis.absint import analyze_refined_values
        from repro.protogen.procedures import FieldKind

        ranges = analyze_refined_values(refined).finite_sent_ranges()
        if ranges:
            before = {
                name: pair.layout.field(FieldKind.DATA).bits
                for bus in refined.buses
                for name, pair in bus.procedures.items()
            }
            refined = refine_system(system, plans, value_ranges=ranges,
                                    protection=protection)
            for bus in refined.buses:
                for name, pair in bus.procedures.items():
                    field = pair.layout.field(FieldKind.DATA)
                    if pair.layout.proven_range is None:
                        continue
                    lo, hi = pair.layout.proven_range
                    print(f"tightened {name}: data field "
                          f"{before[name]} -> {field.bits} bit(s) "
                          f"(proven values [{lo}, {hi}])")
        else:
            print("tighten-fields: no finite value ranges proven; "
                  "layouts unchanged")

    for bus in refined.buses:
        print(bus.structure.describe())
        area = estimate_bus_area(bus)
        print(f"interface area: {area.wires} wires, "
              f"{area.total_gates} gate-equivalents")

    if args.simulate:
        sim_kwargs = {}
        faults_path = getattr(args, "faults", None)
        if faults_path:
            from repro.sim.faults import FaultPlan
            plan = FaultPlan.load(faults_path)
            print(plan.describe())
            sim_kwargs["faults"] = plan
        timeout_clocks = getattr(args, "sim_timeout_clocks", None)
        if timeout_clocks is not None:
            if timeout_clocks < 1:
                raise SimulationError(
                    f"--sim-timeout-clocks must be >= 1, got "
                    f"{timeout_clocks}")
            sim_kwargs["max_clocks"] = timeout_clocks
        emit_dir = getattr(args, "emit_sim_source", None)
        if emit_dir:
            sim_kwargs["emit_sim_source"] = emit_dir
        result = simulate(refined, schedule=schedule, metrics=sim_metrics,
                          backend=getattr(args, "backend", "interp"),
                          **sim_kwargs)
        if captured is not None:
            captured["result"] = result
        buses = result.buses.values()
        print(f"\nsimulated {result.end_time} clocks; "
              f"{sum(bus.transactions for bus in buses)} "
              "bus transactions")
        if result.fault_records:
            print(f"faults injected: {len(result.fault_records)}; "
                  f"message retries: {sum(b.retries for b in buses)}")
            for record in result.fault_records:
                print(f"  clock {record.clock}: {record.bus}."
                      f"{record.line} {record.detail}")
        if loaded.oracle:
            ok = all(result.final_values[k] == v
                     for k, v in loaded.oracle.items())
            print(f"oracle check: {'OK' if ok else 'MISMATCH'}")
            if not ok:
                return 1

    if args.verify:
        from repro.analysis import analyze_refined
        from repro.verify import verify_refinement

        diagnostics = analyze_refined(refined)
        if not diagnostics.clean:
            print()
            print(diagnostics.render_text())
        if diagnostics.errors:
            print("static analysis failed; skipping simulation-based "
                  "verification")
            return 1
        report = verify_refinement(system, refined, schedule=schedule)
        print()
        print(report.describe())
        if not report.passed:
            return 1

    if args.report:
        from repro.protogen.report import synthesis_report
        print()
        print(synthesis_report(refined))

    if args.vhdl:
        # Temporal proof gate: refuted response/retry/race properties
        # mean the controllers are wrong -- emitting HDL for them would
        # hand a provably broken design to logic synthesis.
        from repro.analysis.mc import verify_refined as mc_verify

        verification = mc_verify(refined)
        if captured is not None:
            captured["verification"] = verification.to_dict()
        print()
        print("temporal verification:")
        print(verification.render_text())
        if _verification_blocks(verification):
            print("temporal verification refuted a liveness/race "
                  "property; VHDL emission blocked")
            return 1
        text = emit_refined_spec(refined)
        structures = [bus.structure for bus in refined.buses]
        validate_vhdl(text, structures=structures).raise_if_failed()
        with _user_path(args.vhdl), \
                open(args.vhdl, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"VHDL written to {args.vhdl} "
              f"({len(text.splitlines())} lines)")
    return 0


def _verification_blocks(report) -> bool:
    """True when a verdict refutes at error severity (P704 starvation
    is a warning and does not block emission)."""
    from repro.analysis.diagnostics import Severity
    from repro.analysis.mc.passes import SEVERITIES

    return any(
        verdict.status != "PROVED" and verdict.code is not None
        and SEVERITIES.get(verdict.code) is Severity.ERROR
        for verdict in report.verdicts)


def _build_refined(system_name: str, protocol: str,
                   width: Optional[int] = None,
                   protection: Optional[str] = None):
    """Build the refined spec the flow would synthesize for a system.

    Shared by ``lint``, ``verify``, ``explain`` and ``profile``: loads
    the system, plans one bus per group (splitting infeasible groups
    exactly as ``synth`` does; a designer ``width`` is never split) and
    refines at the requested protocol/protection (``"none"`` or
    ``None`` for none).  Returns ``(refined, loaded)`` -- the loaded
    system's schedule matters to analyses (translation validation among
    them) whose contention facts depend on which behaviors run
    concurrently, and its oracle to the simulating commands.
    """
    from repro.explore.systems import load_system

    loaded = load_system(system_name, on_note=_note)
    plans = plan_buses(loaded.groups, get_protocol(protocol),
                       widths=None if width is None else [width],
                       on_note=_note)
    refined = refine_system(
        loaded.system, plans,
        protection=None if protection == "none" else protection)
    return refined, loaded


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


def cmd_verify(args: argparse.Namespace) -> int:
    """Temporal model checking: prove or refute the liveness/race
    properties of every generated channel, with replayable witnesses."""
    import json as json_module

    from repro.analysis.diagnostics import Severity
    from repro.analysis.mc import verify_refined
    from repro.analysis.mc.passes import SEVERITIES

    if args.replay:
        return _replay_witness_file(args.replay)

    meta = {}
    if args.mutate:
        # The corpus builds each defect's own design, so an explicit
        # design option would be silently ignored.
        ignored = [f"{name} {value}" for name, value in (
            ("the system argument", args.system),
            ("--protocol", args.protocol),
            ("--protection", args.protection), ("--width", args.width))
            if value is not None]
        if ignored:
            raise AnalysisError(
                f"--mutate {args.mutate} verifies the design its seeded "
                f"defect builds; drop {', '.join(ignored)}")
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
                "verdicts": {name: verdict.describe()
                             for name, verdict
                             in sorted(tv.verdicts.items())},
                "diagnostics": [d.to_dict()
                                for d in tv.diagnostics()],
            }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
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

    blocking = Severity.WARNING if args.fail_on == "warning" \
        else Severity.ERROR
    failed = any(
        v.status != "PROVED" and v.code is not None
        and SEVERITIES.get(v.code, Severity.ERROR) >= blocking
        for v in report.verdicts)
    if tv is not None and not tv.all_validated:
        failed = True
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
    import json as json_module

    from repro.obs import SimMetrics
    from repro.obs import report as obs_report
    from repro.obs.flight import (FlightRecorder, explain_payload,
                                  render_explain_text,
                                  write_flight_trace)

    _check_output_paths(args)
    refined, loaded = _build_refined(args.system, args.protocol,
                                     args.width, args.protection)

    sim_kwargs = {}
    if args.faults:
        from repro.sim.faults import FaultPlan
        plan = FaultPlan.load(args.faults)
        if not args.json:
            print(plan.describe())
        sim_kwargs["faults"] = plan

    recorder = FlightRecorder()
    metrics = SimMetrics()
    aborted: Optional[str] = None
    result = None
    try:
        result = simulate(refined, schedule=loaded.schedule,
                          metrics=metrics, recorder=recorder,
                          backend=getattr(args, "backend", "interp"),
                          **sim_kwargs)
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
        print(json_module.dumps(payload, indent=2, sort_keys=True))
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
                                  metrics=metrics,
                                  backend=getattr(args, "backend",
                                                  "interp"))
                ok = True
                if loaded.oracle:
                    ok = all(result.final_values[k] == v
                             for k, v in loaded.oracle.items())
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
    repeat = args.repeat

    stage_order: List[str] = []
    stage_samples = {}
    stage_calls = {}
    for _ in range(repeat):
        (tracer, simulations, sim_runs,
         summary_rows, exit_code) = _profile_once(args, systems)
        for entry in tracer.breakdown():
            name = entry["name"]
            if name not in stage_samples:
                stage_order.append(name)
                stage_samples[name] = []
                stage_calls[name] = entry["calls"]
            stage_samples[name].append(entry["total_ms"])

    if repeat == 1:
        print("stage breakdown (wall time):")
        print(f"  {'stage':<46} {'calls':>5} {'total ms':>10}")
        for name in stage_order:
            print(f"  {name:<46} {stage_calls[name]:>5} "
                  f"{stage_samples[name][0]:>10.3f}")
    else:
        print(f"stage breakdown (wall time over {repeat} runs):")
        print(f"  {'stage':<46} {'calls':>5} {'min ms':>10} "
              f"{'median ms':>10}")
        for name in stage_order:
            samples = stage_samples[name]
            print(f"  {name:<46} {stage_calls[name]:>5} "
                  f"{min(samples):>10.3f} "
                  f"{statistics.median(samples):>10.3f}")
    backend = getattr(args, "backend", "interp")
    print(f"\nsimulation summary (backend: {backend}):")
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
    import json as json_mod

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

    exit_code = 0
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
        if diff["incidents"]:
            exit_code = 1
    if report["cache"]["incidents"]:
        exit_code = 1
    if all(r["status"] == "error" for r in report["results"]):
        exit_code = 1

    if args.report_out:
        with _user_path(args.report_out), \
                open(args.report_out, "w", encoding="utf-8") as handle:
            json_mod.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json_mod.dumps(canonical_report(report), indent=2,
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
    failed = [r for r in report["results"] if r["status"] == "error"]
    if failed:
        print()
        for result in failed:
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
    _add_system_options(synth, "--protocol", "--width", "--protection",
                        "--backend")
    synth.add_argument("--min-width", type=int)
    synth.add_argument("--max-width", type=int)
    synth.add_argument("--min-peak", type=float,
                       help="min peak rate (bits/clock) on the last "
                            "channel of the group")
    synth.add_argument("--force", action="store_true",
                       help="with --width: refine at the designer "
                            "width even if Equation 1 is infeasible")
    synth.add_argument("--rates", default="measured",
                       choices=["measured", "static"],
                       help="Equation-1 feasibility inputs: estimator "
                            "rates (measured) or statically proven "
                            "worst-case bounds (static); static falls "
                            "back to measured with a bound-gap report "
                            "when nothing is provably feasible")
    synth.add_argument("--tighten-fields", action="store_true",
                       help="re-refine with statically proven value "
                            "ranges to narrow message data fields")
    synth.add_argument("--faults", metavar="PLAN.json",
                       help="inject wire faults from a JSON fault plan "
                            "during --simulate")
    synth.add_argument("--sim-timeout-clocks", type=int, metavar="N",
                       help="abort --simulate with an error after N "
                            "clocks instead of spinning (guards "
                            "against faulty designs that hang)")
    synth.add_argument("--emit-sim-source", metavar="DIR",
                       help="with --backend compiled, dump the "
                            "generated per-process Python into DIR "
                            "(requires --simulate)")
    synth.add_argument("--simulate", action="store_true",
                       help="simulate the refined spec and check "
                            "oracle values")
    synth.add_argument("--verify", action="store_true",
                       help="verify the refinement against the golden "
                            "interpreter (values, channel sequences, "
                            "clocks)")
    synth.add_argument("--report", action="store_true",
                       help="print the full synthesis report "
                            "(channels, procedures, FSMs, area)")
    synth.add_argument("--vhdl", metavar="FILE",
                       help="emit validated VHDL to FILE")
    _add_observability_flags(synth)
    synth.set_defaults(func=cmd_synth)

    lint = sub.add_parser(
        "lint",
        help="static protocol analysis: deadlock, contention, width "
             "and dead-code checks without simulating")
    _add_system_options(lint, "--protocol", "--width")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable diagnostics on stdout")
    lint.add_argument("--fail-on", default="error",
                      choices=["warning", "error"],
                      help="exit non-zero when a diagnostic at or "
                           "above this severity is reported "
                           "(default: error)")
    lint.set_defaults(func=cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="temporal model checking: prove response, retry "
             "termination, race- and starvation-freedom for every "
             "generated channel; refutations carry replayable "
             "witnesses")
    _add_system_options(verify, "--protocol", "--protection", "--width",
                        default=VERIFY_DEFAULTS["system"])
    verify.add_argument("--json", action="store_true",
                        help="machine-readable verdicts on stdout")
    verify.add_argument("--witness-dir", metavar="DIR",
                        help="write each refutation's witness schedule "
                             "as replayable JSON into DIR")
    verify.add_argument("--mutate", metavar="NAME",
                        help="verify a named seeded defect of the "
                             "mutation corpus instead; the corpus "
                             "builds its own FLC design, so the system "
                             "argument, --protocol, --protection and "
                             "--width are rejected with it")
    verify.add_argument("--replay", metavar="WITNESS.json",
                        help="re-synthesize the witnessed controller "
                             "pair and run the schedule through the "
                             "event kernel; exit 0 iff the violation "
                             "reproduces concretely (2 otherwise)")
    verify.add_argument("--fail-on", default="error",
                        choices=["warning", "error"],
                        help="exit non-zero when a property refutes at "
                             "or above this severity (default: error; "
                             "P704 starvation is a warning)")
    # The design options default to None so that --mutate can tell an
    # explicit value from an absent one; cmd_verify fills them in.
    verify.set_defaults(func=cmd_verify,
                        **dict.fromkeys(VERIFY_DEFAULTS))

    profile = sub.add_parser(
        "profile",
        help="run synth+sim fully instrumented and report a "
             "stage-by-stage time/cycle breakdown ('all': the three "
             "built-in systems)")
    _add_system_options(profile, "--protocol", "--backend", default="all")
    profile.add_argument("--repeat", type=_at_least_one, default=1,
                         metavar="N",
                         help="run the sweep N times and report "
                              "min/median stage timings; observability "
                              "outputs come from the last run "
                              "(default: 1)")
    _add_observability_flags(profile)
    profile.set_defaults(func=cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="simulate with the causal flight recorder attached and "
             "explain where every clock went: attribution buckets, "
             "critical path, anomalies")
    _add_system_options(explain, "--protocol", "--width", "--protection",
                        "--backend")
    explain.add_argument("--faults", metavar="PLAN.json",
                         help="inject wire faults from a JSON fault "
                              "plan and attribute their cost")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable explanation "
                              "(repro.obs/explain/v1) on stdout")
    explain.add_argument("--top", type=_at_least_one, default=5,
                         metavar="N",
                         help="slowest transactions / faults to list "
                              "in the text report (default: 5)")
    explain.add_argument("--trace-out", metavar="FILE",
                         help="write a Perfetto/Chrome trace of the "
                              "run on the simulated-clock timeline")
    explain.add_argument("--metrics-out", metavar="FILE",
                         help="write the unified run report including "
                              "the attribution section")
    explain.set_defaults(func=cmd_explain)

    explore = sub.add_parser(
        "explore",
        help="memoized design-space sweep: expand a parameter grid, "
             "run every point through a content-addressed stage "
             "cache, rank the Pareto front (clocks/pins/area)")
    _add_system_options(explore, "--backend")
    explore.add_argument("--grid", nargs="+", metavar="AXIS=V1,V2",
                         help="grid axes: width=4,8,auto "
                              "protocol=... protection=none,parity,"
                              "crc8 arbitration=fifo,priority,rr,tdma "
                              "(unmentioned axes take their default)")
    explore.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1: inline, "
                              "deterministic)")
    explore.add_argument("--cache", metavar="DIR",
                         help="content-addressed stage cache directory "
                              "(omit to recompute everything)")
    explore.add_argument("--check", action="store_true",
                         help="differentially verify every cache "
                              "entry against a fresh compute "
                              "(byte-identical or EX104)")
    explore.add_argument("--json", action="store_true",
                         help="canonical machine-readable report "
                              "(repro.explore/report/v1 projection) "
                              "on stdout")
    explore.add_argument("--report-out", metavar="FILE",
                         help="write the full run report (spans, "
                              "cache stats, per-point payloads)")
    explore.set_defaults(func=cmd_explore)

    sub.add_parser("fig7", help="print the Figure 7 sweep") \
        .set_defaults(func=cmd_fig7)
    sub.add_parser("fig8", help="print the Figure 8 designs") \
        .set_defaults(func=cmd_fig8)
    return parser


#: The options several subcommands share, each declared once (flag ->
#: ``add_argument`` keywords) and attached by :func:`_add_system_options`.
SHARED_OPTIONS = {
    "--protocol": dict(default="full_handshake", choices=sorted(PROTOCOLS),
                       help="protocol of every generated bus "
                            "(default: full_handshake)"),
    "--width": dict(type=int, help="designer-specified buswidth "
                                   "(default: run bus generation)"),
    "--protection": dict(default="none", choices=["none", "parity", "crc8"],
                         help="fault-tolerant protocol variant: a check "
                              "field plus NACK/timeout/retry on every "
                              "full-handshake bus (default: none)"),
    "--backend": dict(default="interp", choices=list(BACKENDS),
                      help="simulation backend: the reference "
                           "interpreter or the compiled backend, which "
                           "lowers the refined spec to specialized "
                           "Python (default: interp)"),
}


#: ``verify``'s design options when not given (see its set_defaults).
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
    for option in options:
        parser.add_argument(option, **SHARED_OPTIONS[option])


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace_event JSON file "
                             "(chrome://tracing / Perfetto)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the machine-readable run report")
    parser.add_argument("--metrics-format", choices=["json", "prom"],
                        default="json",
                        help="run-report format for --metrics-out: "
                             "unified JSON (default) or a flat "
                             "Prometheus-style text dump")


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

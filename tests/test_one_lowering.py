"""One lowering per (spec, plan), and TV obligations built, not parsed.

Validating a refined spec and then simulating it on the compiled
backend under the same plan lowers it once: the second runtime only
rebinds namespaces and runs the very units translation validation
judged.  A different plan -- a flight recorder, signal tracing, a fault
plan, another schedule or another arbiter -- gets a lowering of its
own.  Each generated source is parsed once; the validator judges that
tree, builds every obligation as ``ast`` nodes, and the code object is
compiled from the same tree.
"""

from __future__ import annotations

import ast
import gc
import weakref

import pytest

from repro import obs
from repro.analysis.tv import validate_program, validate_refined
from repro.analysis.tv.mutations import CORPUS
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.fifo import FifoTable
from repro.obs.flight import FlightRecorder
from repro.protocols import get_protocol
from repro.protogen.refine import refine_system
from repro.sim.arbiter import TdmaArbiter
from repro.sim.compiled import codegen, source_transform
from repro.sim.faults import Fault, FaultKind, FaultPlan
from repro.sim.runtime import RefinedSimulation, simulate
from tests.test_compiled_backend import _assert_results_agree


def _refined(name="flc", protection=None):
    loaded = load_system(name)
    return (refine_system(loaded.system, plan_buses(loaded.groups),
                          protection=protection), loaded.schedule)


@pytest.mark.parametrize("name", ["flc", "answering-machine", "ethernet"])
def test_validate_then_simulate_lowers_once(name):
    spec, schedule = _refined(name)
    with obs.tracing() as tracer:
        report = validate_refined(spec, schedule=schedule)
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled")
        result = sim.run()
    assert len(tracer.spans_named("sim.compile")) == 1
    assert report.all_validated
    assert sim.tv_report.verdicts == report.verdicts
    lowering = sim.compiled.lowering
    assert sim.compiled.sources
    for behavior, source in sim.compiled.sources.items():
        unit, _ = lowering.units[behavior]
        assert source is unit.source
        assert report.verdicts[behavior] is unit.verdict
    assert result.fallbacks == {}
    _assert_results_agree(simulate(spec, schedule=schedule), result)


def _bus(spec):
    return spec.buses[0].name


PLANS = {
    "recorder": lambda spec, schedule: dict(
        schedule=schedule, recorder=FlightRecorder()),
    "trace": lambda spec, schedule: dict(schedule=schedule, trace=True),
    "faults": lambda spec, schedule: dict(
        schedule=schedule,
        faults=FaultPlan([Fault(kind=FaultKind.DROP, bus=_bus(spec),
                                line="DONE")])),
    "unscheduled": lambda spec, schedule: dict(schedule=None),
    "tdma": lambda spec, schedule: dict(
        schedule=schedule, arbiter_factories={
            _bus(spec): lambda sim, members: TdmaArbiter(
                sim, members, slot_clocks=8)}),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_each_plan_gets_its_own_lowering(plan):
    spec, schedule = _refined("flc", protection="parity")
    validate_refined(spec, schedule=schedule)
    plain = RefinedSimulation(spec, schedule=schedule, backend="compiled")
    with obs.tracing() as tracer:
        compiled = RefinedSimulation(spec, backend="compiled",
                                     **PLANS[plan](spec, schedule))
    assert len(tracer.spans_named("sim.compile")) == 1
    assert compiled.compiled.lowering is not plain.compiled.lowering
    assert compiled.tv_report.all_validated
    interp = simulate(spec, **PLANS[plan](spec, schedule))
    _assert_results_agree(interp, compiled.run())
    # The plan's lowering is memoized in turn.
    with obs.tracing() as tracer:
        again = RefinedSimulation(spec, backend="compiled",
                                  **PLANS[plan](spec, schedule))
    assert not tracer.spans_named("sim.compile")
    assert again.compiled.lowering is compiled.compiled.lowering


def test_a_source_transform_lowers_afresh():
    spec, schedule = _refined("flc")
    validate_refined(spec, schedule=schedule)
    stored = dict(codegen.UNITS._entries)
    with source_transform(lambda name, source: source):
        with obs.tracing() as tracer:
            sim = RefinedSimulation(spec, schedule=schedule,
                                    backend="compiled")
    assert len(tracer.spans_named("sim.compile")) == 1
    assert len(tracer.spans_named("sim.validate")) == 1
    assert sim.tv_report.all_validated
    assert codegen.UNITS._entries == stored
    for unit, _ in sim.compiled.lowering.units.values():
        assert all(unit is not kept for kept in stored.values())


def test_the_lowering_keeps_no_runtime_alive():
    spec, schedule = _refined("flc")
    sim = RefinedSimulation(spec, schedule=schedule, backend="compiled")
    lowering = sim.compiled.lowering
    runtime = weakref.ref(sim)
    del sim
    gc.collect()
    assert runtime() is None
    assert lowering.units
    assert all(unit.verdict.validated
               for unit, _ in lowering.units.values())


def _count_parses(monkeypatch):
    calls = []
    parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("source"))
        return parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return calls


@pytest.mark.parametrize("name", ["flc", "answering-machine", "ethernet"])
def test_validation_parses_each_generated_source_once(monkeypatch, name):
    """Construction plus validation parse each source once, and every
    code object is compiled from a parsed tree, never from text."""
    spec, schedule = _refined(name, protection="parity")
    monkeypatch.setattr(codegen, "UNITS", FifoTable(codegen.UNITS.limit))
    calls = _count_parses(monkeypatch)
    compiled = []

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting_compile,
                        raising=False)
    sim = RefinedSimulation(spec, schedule=schedule, backend="compiled")
    report = validate_program(sim)
    assert report.all_validated and report.obligations()
    assert sorted(calls) == sorted(sim.compiled.sources.values())
    assert len(compiled) == len(calls)
    assert all(isinstance(tree, ast.Module) for tree in compiled)


#: (code, message, line) of the corpus refutations as parsed
#: obligations produced them.
CORPUS_REFUTATIONS = {
    "chunk_flush_off_by_one": [(
        "P801", "P: chunk flush threshold 8 differs from the contract "
        "(4096)", "line 10")],
    "clock_tamper": [(
        "P801", "P: the assignment costs 1 clock(s) but generated code "
        "accumulates 2", "line 8")],
    "reordered_store": [(
        "P802", "P: Assign touching contested storage with 6 pending "
        "clock(s) unflushed: the effect would run at a stale simulated "
        "clock", "line 5")],
    "dropped_loop_wrap": [(
        "P803", "P: loop-variable wrap of li omits the dtype wrap and no "
        "range certificate covers the stored value", "line 22")],
    "stale_virtual_grant": [(
        "P804", "P: deferred transfer on bus_chip_memory.ch0 does not "
        "forward the live pending batch as its virtual-grant timestamp",
        "line 34")],
    "extra_yield": [(
        "P805", "P: expected a lowered `while True:`, found "
        "`yield W(1)`", "line 9")],
    "misfolded_constant": [(
        "P806", "P: assignment to P_acc: lowered expression `_l_P_acc = "
        "(1235 + 32768 & 65535) - 32768` is not alpha-equivalent to the "
        "interpreter's evaluation", "line 7")],
    "wrap_bias": [(
        "P806", "P: loop-variable wrap of li: lowered expression `_l_li "
        "= (_f1 + 128 & 255) - 127` is not alpha-equivalent to the "
        "interpreter's evaluation", "line 22")],
}


def test_corpus_refutations_are_unchanged(monkeypatch):
    """Code, message and line of every P801-P806 refutation of the
    codegen defect corpus, with no obligation parsed from text."""
    from repro.analysis.tv.mutations import _validate_build

    seen = {}
    for defect in CORPUS.defects:
        spec, schedule, transform = defect.build()
        calls = _count_parses(monkeypatch)
        report, _ = _validate_build(spec, schedule, transform)
        monkeypatch.undo()
        assert len(calls) == sum(v.status != "fallback"
                                 for v in report.verdicts.values())
        seen[defect.name] = [
            (d.code, d.message, d.location.detail)
            for verdict in report.refutations()
            for d in verdict.diagnostics]
    assert seen == CORPUS_REFUTATIONS


#: The differential test's design points: each protocol unprotected,
#: and full handshake under each protection.
UNIT_POINTS = [(protocol, None) for protocol in (
    "full_handshake", "half_handshake", "fixed_delay", "burst_handshake")
] + [("full_handshake", protection) for protection in ("parity", "crc8")]

#: Its plans: plain, each observer and a fault plan, plus a schedule
#: and an arbiter change, which alter the contested set and the
#: deferral of fused channels.
UNIT_PLANS = {
    "plain": lambda spec, schedule: dict(schedule=schedule),
    "bit_flip": lambda spec, schedule: dict(
        schedule=schedule,
        faults=FaultPlan([Fault(kind=FaultKind.BIT_FLIP, bus=_bus(spec))])),
    **{name: PLANS[name] for name in
       ("recorder", "trace", "unscheduled", "tdma")},
}


@pytest.mark.parametrize("name", ["flc", "answering-machine", "ethernet"])
def test_a_served_unit_equals_a_fresh_build(monkeypatch, name):
    """Over every design point and plan of a system, sharing one unit
    table, each unit a runtime gets -- served or built -- equals the
    one an empty table builds for that runtime: source, binding recipe,
    verdict and code."""
    monkeypatch.setattr(codegen, "UNITS", FifoTable(codegen.UNITS.limit))
    loaded = load_system(name)
    seen, served = set(), 0
    for protocol, protection in UNIT_POINTS:
        spec = refine_system(
            loaded.system,
            plan_buses(loaded.groups, get_protocol(protocol)),
            protection=protection)
        for plan in UNIT_PLANS.values():
            sim = RefinedSimulation(spec, backend="compiled",
                                    **plan(spec, loaded.schedule))
            units = sim.compiled.lowering.units
            with monkeypatch.context() as fresh_table:
                fresh_table.setattr(codegen, "UNITS", FifoTable(1))
                fresh = codegen._lower(sim, {}).units
            assert units.keys() == fresh.keys()
            for behavior, (unit, _) in units.items():
                other = fresh[behavior][0]
                assert unit.source == other.source
                assert unit.recipe == other.recipe
                assert unit.verdict == other.verdict
                assert unit.code == other.code
                served += id(unit) in seen
                seen.add(id(unit))
    assert served

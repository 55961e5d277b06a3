"""The compiled simulation backend is an optimization, not a second
semantics: for every observable -- transaction logs, final values,
per-behavior clocks, fault records -- it must agree with the reference
interpreter byte for byte.

Three layers of evidence:

* **Golden byte-invariance**: every committed golden under
  ``tests/data/`` replayed on the compiled backend produces the exact
  seed record, except the ``kernel`` counters section (the compiled
  backend batches statement clocks into single kernel waits, so steps
  and clock jumps legitimately differ while simulated time does not).

* **Differential fuzzing**: randomly generated two-behavior systems
  (with While loops, WaitClocks and contested shared state) and random
  fault plans on the protected FLC run on both backends and must agree
  on every :class:`SimResult` field.

* **Unit pins**: fallback reasons, ``--emit-sim-source`` output,
  backend validation, and the CLI/report plumbing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import FIXED_DELAY, FULL_HANDSHAKE, HALF_HANDSHAKE
from repro.protogen.refine import generate_protocol
from repro.sim.runtime import BACKENDS, RefinedSimulation, simulate
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Index, Ref
from repro.spec.stmt import Assign, For, If, WaitClocks, While
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

from tests.golden_util import (
    GOLDEN_SYSTEMS,
    GOLDEN_VARIANTS,
    capture_system,
    capture_variant,
    dump,
    load_golden,
)

ARRAY_LEN = 6


def _strip_kernel(record):
    """Drop the kernel counters -- the one section batching may change."""
    record = dict(record)
    record.pop("kernel")
    return record


# ---------------------------------------------------------------------------
# Golden byte-invariance


@pytest.mark.parametrize("slug", GOLDEN_SYSTEMS)
def test_compiled_backend_reproduces_golden(slug):
    golden = load_golden(slug)
    record = capture_system(slug, backend="compiled")
    assert dump(_strip_kernel(record)) == dump(_strip_kernel(golden))


@pytest.mark.parametrize("slug", sorted(GOLDEN_VARIANTS))
def test_compiled_backend_reproduces_variant_golden(slug):
    golden = load_golden(slug)
    record = capture_variant(slug, backend="compiled")
    assert dump(_strip_kernel(record)) == dump(_strip_kernel(golden))


@pytest.mark.parametrize("slug", GOLDEN_SYSTEMS)
def test_transaction_logs_byte_identical(slug):
    """The headline oracle, stated directly: the serialized transaction
    log of the compiled run equals the committed golden's bytes."""
    golden = load_golden(slug)
    record = capture_system(slug, backend="compiled")
    assert (json.dumps(record["transactions"], sort_keys=True)
            == json.dumps(golden["transactions"], sort_keys=True))


# ---------------------------------------------------------------------------
# Differential fuzzing: random systems on both backends


def _assert_results_agree(interp, compiled):
    """Every SimResult observable, not just final values."""
    assert compiled.final_values == interp.final_values
    assert compiled.transactions == interp.transactions
    assert compiled.clocks == interp.clocks
    assert compiled.end_time == interp.end_time
    # Whole per-bus and per-arbiter folds: words, latency histogram,
    # per-channel stats, grant counts and queue depths, not just the
    # utilization and wait totals derived from them.
    assert compiled.buses == interp.buses
    assert compiled.arbiters == interp.arbiters
    assert ([r.to_dict() for r in compiled.fault_records]
            == [r.to_dict() for r in interp.fault_records])
    assert set(compiled.stats.processes) == set(interp.stats.processes)
    for name, got in compiled.stats.processes.items():
        want = interp.stats.processes[name]
        assert (got.daemon, got.finished, got.start_time,
                got.finish_time) == (want.daemon, want.finished,
                                     want.start_time, want.finish_time), name
    assert compiled.backend == "compiled"
    assert interp.backend == "interp"


@st.composite
def expressions(draw, scalars, array, depth=0):
    kind = draw(st.sampled_from(
        ["const", "scalar", "binop", "index"] if depth < 2
        else ["const", "scalar"]))
    if kind == "const":
        return draw(st.integers(-80, 80))
    if kind == "scalar":
        return Ref(draw(st.sampled_from(scalars)))
    if kind == "index":
        return Index(array, draw(st.integers(0, ARRAY_LEN - 1)))
    from repro.spec.expr import as_expr
    lhs = as_expr(draw(expressions(scalars, array, depth + 1)))
    rhs = as_expr(draw(expressions(scalars, array, depth + 1)))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "=", "<",
                               "and", "or"]))
    return BinOp(op, lhs, rhs)


@st.composite
def statements(draw, scalars, locals_, array, counter, depth=0):
    """Random statement; While loops count down ``counter`` so they
    always terminate while still exercising the chunked-flush path."""
    kinds = ["assign_local", "assign_remote", "assign_element", "wait"]
    if depth < 1:
        kinds += ["if", "for", "while"]
    kind = draw(st.sampled_from(kinds))
    from repro.spec.expr import as_expr
    expr = as_expr(draw(expressions(scalars + locals_, array)))
    if kind == "assign_local":
        return Assign(draw(st.sampled_from(locals_)), expr)
    if kind == "assign_remote":
        return Assign(draw(st.sampled_from(scalars)), expr)
    if kind == "assign_element":
        return Assign((array, draw(st.integers(0, ARRAY_LEN - 1))), expr)
    if kind == "wait":
        return WaitClocks(draw(st.integers(1, 5)))
    body = draw(st.lists(
        statements(scalars, locals_, array, counter, depth + 1),
        min_size=1, max_size=2))
    if kind == "if":
        cond = as_expr(draw(expressions(scalars + locals_, array)))
        else_body = draw(st.lists(
            statements(scalars, locals_, array, counter, depth + 1),
            min_size=0, max_size=2))
        return If(cond, body, else_body)
    if kind == "while":
        bound = draw(st.integers(1, 4))
        return While(BinOp("<", Ref(counter), bound),
                     body + [Assign(counter, BinOp("+", Ref(counter), 1))])
    loop_var = Variable(f"loop{draw(st.integers(0, 10**6))}", IntType(16))
    return For(loop_var, 0, draw(st.integers(0, 3)), body)


@st.composite
def systems(draw):
    """Two behaviors sharing a scalar and an array through one bus.

    The shared scalar is contested (both behaviors touch it), locals
    are not -- so the generated code exercises both the flushed
    environment path and the native-local fast path, plus 16-bit
    wrap-around via multiplication.
    """
    x = Variable("X", IntType(16), init=draw(st.integers(-40, 40)))
    arr = Variable("ARR", ArrayType(IntType(16), ARRAY_LEN))
    behaviors = []
    for name in ("P", "Q"):
        locals_ = [Variable(f"{name}_l{k}", IntType(16),
                            init=draw(st.integers(-10, 10)))
                   for k in range(2)]
        counter = Variable(f"{name}_ctr", IntType(16), init=0)
        body = draw(st.lists(
            statements([x], locals_, arr, counter),
            min_size=1, max_size=4))
        behaviors.append(Behavior(name, body,
                                  local_variables=locals_ + [counter]))
    return SystemSpec("fuzz", behaviors, [x, arr])


def _refine(system, protocol, width):
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in system.behaviors:
        partition.assign(behavior, chip)
    for variable in system.variables:
        partition.assign(variable, memory)
    channels = extract_channels(partition)
    if not channels:
        return None
    group = default_bus_groups(partition, channels=channels)[0]
    return generate_protocol(system, group, width=width,
                             protocol=protocol)


@given(systems(),
       st.sampled_from([FULL_HANDSHAKE, HALF_HANDSHAKE, FIXED_DELAY]),
       st.integers(min_value=1, max_value=20),
       st.sampled_from([["P", "Q"], [["P"], ["Q"]], None]))
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_random_systems(system, protocol, width,
                                          schedule):
    refined = _refine(system, protocol, width)
    if refined is None:
        return
    interp = simulate(refined, schedule=schedule, backend="interp")
    compiled = simulate(refined, schedule=schedule, backend="compiled")
    _assert_results_agree(interp, compiled)


@given(protection=st.sampled_from(["parity", "crc8"]),
       transaction=st.integers(0, 40),
       flip_mask=st.integers(1, 0b111))
@settings(max_examples=8, deadline=None)
def test_backends_agree_under_random_faults(protection, transaction,
                                            flip_mask):
    """Random bit-flip faults on the protected FLC: retries, recovery
    and fault records must match across backends (fault injection
    forces bus transfers onto the exact-clock interpreter tier, but
    behavior bodies stay compiled)."""
    from repro.apps.flc import build_flc
    from repro.busgen.algorithm import generate_bus
    from repro.protogen.refine import refine_system
    from repro.sim.faults import Fault, FaultKind, FaultPlan

    model = build_flc(250, 180)
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design], protection=protection)

    results = []
    for backend in BACKENDS:
        plan = FaultPlan(faults=[Fault(
            kind=FaultKind.BIT_FLIP, bus="B", flip_mask=flip_mask,
            transaction=transaction, word=0)])
        results.append(simulate(refined, schedule=model.schedule,
                                faults=plan, backend=backend))
    interp, compiled = results
    _assert_results_agree(interp, compiled)
    assert compiled.fault_records, "fault plan never fired"


# ---------------------------------------------------------------------------
# Observed runs: a flight recorder or fault injector sends every compiled
# transfer through the bus's own word loop, so both backends must write
# the same journal, event for event.

#: Case study -> its bus (the target of its fault plan).
OBSERVED_SYSTEMS = {"flc": "B", "answering-machine": "AM_BUS",
                    "ethernet": "ETH_BUS"}
OBSERVED_PROTOCOLS = ("full_handshake", "half_handshake", "fixed_delay",
                      "burst_handshake")


def _observed_runs(name, protocol, fault_plan=None):
    """Both backends' ``(result, recorder)`` with a recorder attached;
    ``fault_plan()`` builds a fresh plan for each run."""
    from repro.busgen.split import plan_buses
    from repro.explore.systems import load_system
    from repro.obs.flight import FlightRecorder
    from repro.protocols import get_protocol
    from repro.protogen.refine import refine_system

    loaded = load_system(name)
    refined = refine_system(loaded.system, plan_buses(
        loaded.groups, protocol=get_protocol(protocol)))
    runs = []
    for backend in BACKENDS:
        recorder = FlightRecorder()
        result = simulate(refined, schedule=loaded.schedule,
                          recorder=recorder, backend=backend,
                          faults=fault_plan() if fault_plan else None)
        runs.append((result, recorder))
    return runs


def _assert_journals_agree(name, runs):
    from repro.obs.flight import explain_payload

    (interp, interp_rec), (compiled, compiled_rec) = runs
    _assert_results_agree(interp, compiled)
    assert ([e.to_dict() for e in compiled_rec.events]
            == [e.to_dict() for e in interp_rec.events])
    assert (explain_payload(compiled_rec, compiled, system=name)
            == explain_payload(interp_rec, interp, system=name))


@pytest.mark.parametrize("protocol", OBSERVED_PROTOCOLS)
@pytest.mark.parametrize("name", sorted(OBSERVED_SYSTEMS))
def test_observed_runs_agree_across_backends(name, protocol):
    runs = _observed_runs(name, protocol)
    _assert_journals_agree(name, runs)
    assert runs[0][1].events, "recorder journalled nothing"


@pytest.mark.parametrize("name", sorted(OBSERVED_SYSTEMS))
def test_observed_faulty_runs_agree_across_backends(name):
    """One bit flip on an unprotected bus: nothing retries, but the
    injector and the recorder both watch every word."""
    from repro.sim.faults import Fault, FaultKind, FaultPlan

    def fault_plan():
        return FaultPlan(faults=[Fault(
            kind=FaultKind.BIT_FLIP, bus=OBSERVED_SYSTEMS[name],
            flip_mask=1, transaction=2, word=0)])

    runs = _observed_runs(name, "full_handshake", fault_plan)
    _assert_journals_agree(name, runs)
    assert runs[1][0].fault_records, "fault plan never fired"


# ---------------------------------------------------------------------------
# Unit pins


def _flc_refined():
    from repro.apps.flc import build_flc
    from repro.busgen.algorithm import generate_bus
    from repro.protogen.refine import refine_system

    model = build_flc(250, 180)
    design = generate_bus(model.bus_b)
    return model, refine_system(model.system, [design])


def test_flc_compiles_fully():
    model, refined = _flc_refined()
    sim = RefinedSimulation(refined, schedule=model.schedule,
                            backend="compiled")
    program = sim.compiled
    assert program is not None
    assert program.fallbacks == {}
    assert program.compiled_count == program.total_count


def test_whole_array_read_falls_back_with_reason():
    """A lazily-raising construct in dead code must not change behavior:
    the whole behavior stays on the interpreter, with the reason
    recorded, and both backends still agree."""
    x = Variable("X", IntType(16), init=3)
    arr = Variable("P_arr", ArrayType(IntType(16), 4))
    local = Variable("P_t", IntType(16), init=0)
    poisoned = Behavior("P", [
        Assign(x, BinOp("+", Ref(x), 1)),
        If(0, [Assign(local, Ref(arr))], []),  # dead whole-array read
    ], local_variables=[local, arr])
    clean = Behavior("Q", [Assign(x, BinOp("*", Ref(x), 2))])
    system = SystemSpec("fallback", [poisoned, clean], [x])
    refined = _refine(system, FULL_HANDSHAKE, 8)
    sim = RefinedSimulation(refined, schedule=["P", "Q"],
                            backend="compiled")
    assert "P" in sim.compiled.fallbacks
    assert "whole-array read" in sim.compiled.fallbacks["P"]
    assert "Q" not in sim.compiled.fallbacks
    interp = simulate(refined, schedule=["P", "Q"], backend="interp")
    compiled = simulate(refined, schedule=["P", "Q"], backend="compiled")
    _assert_results_agree(interp, compiled)


def test_emit_sim_source(tmp_path):
    model, refined = _flc_refined()
    simulate(refined, schedule=model.schedule, backend="compiled",
             emit_sim_source=str(tmp_path))
    sources = sorted(tmp_path.glob("*.py"))
    assert sources, "no generated sources written"
    text = sources[0].read_text()
    assert refined.name in text
    assert "protocol" in text and "width" in text
    manifests = list(tmp_path.glob("*MANIFEST.txt"))
    assert len(manifests) == 1
    # Every emitted file must be valid Python.
    for path in sources:
        compile(path.read_text(), str(path), "exec")


def test_emit_sim_source_requires_compiled_backend():
    model, refined = _flc_refined()
    with pytest.raises(SimulationError, match="backend='compiled'"):
        simulate(refined, schedule=model.schedule, backend="interp",
                 emit_sim_source="/tmp/nope")


def test_unknown_backend_rejected():
    model, refined = _flc_refined()
    with pytest.raises(SimulationError, match="interp.*compiled"):
        simulate(refined, schedule=model.schedule, backend="jit")


def test_result_records_backend():
    model, refined = _flc_refined()
    result = simulate(refined, schedule=model.schedule,
                      backend="compiled")
    assert result.backend == "compiled"
    from repro.obs.report import sim_section
    section = sim_section("flc", result)
    assert section["backend"] == "compiled"


class TestCli:
    def test_synth_backend_compiled(self, capsys):
        from repro.cli import main
        assert main(["synth", "answering-machine", "--simulate",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "oracle check: OK" in out

    def test_emit_sim_source_flag(self, tmp_path, capsys):
        from repro.cli import main
        out_dir = tmp_path / "src"
        assert main(["synth", "flc", "--simulate", "--backend",
                     "compiled", "--emit-sim-source", str(out_dir)]) == 0
        assert list(out_dir.glob("*.py"))

    def test_emit_sim_source_names_the_protection(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        out_dir = tmp_path / "src"
        assert main(["synth", "flc", "--protection", "parity",
                     "--simulate", "--backend", "compiled",
                     "--emit-sim-source", str(out_dir)]) == 0
        sources = sorted(out_dir.glob("*.py"))
        assert sources
        for path in sources:
            header = path.read_text().split("\ndef run", 1)[0]
            assert "protection=parity" in header
            assert "protection=none" not in header

    def test_emit_sim_source_requires_simulate(self, capsys):
        from repro.cli import main
        assert main(["synth", "flc",
                     "--emit-sim-source", "/tmp/nope"]) == 2
        err = capsys.readouterr().err
        assert "--simulate" in err

    def test_profile_reports_backend(self, capsys):
        from repro.cli import main
        assert main(["profile", "answering-machine", "--backend",
                     "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend: compiled" in out


# ---------------------------------------------------------------------------
# Codegen unit table


class TestSourceMemo:
    """Re-elaborating an equal design point reuses the lowered unit
    from the unit table (only the namespace is rebound to the new
    runtime) and still matches the interpreter observable-for-
    observable."""

    @staticmethod
    def _refined():
        from repro.apps.flc import build_flc
        from repro.protogen.refine import refine_system

        model = build_flc()
        return (refine_system(model.system, [(model.bus_b, 8)]),
                model.schedule)

    def test_reelaboration_reuses_memoized_sources(self):
        spec1, schedule = self._refined()
        spec2, _ = self._refined()
        sim1 = RefinedSimulation(spec1, schedule=schedule,
                                 backend="compiled")
        sim2 = RefinedSimulation(spec2, schedule=schedule,
                                 backend="compiled")
        assert sim1.compiled.sources
        for name, source in sim1.compiled.sources.items():
            # The very same string object: the memo hit, emission
            # was skipped.
            assert sim2.compiled.sources[name] is source
        spec3, _ = self._refined()
        interp = simulate(spec3, schedule=schedule, backend="interp")
        _assert_results_agree(interp, sim2.run())

    def test_memoized_program_passes_translation_validation(self):
        from repro.analysis.tv import validate_refined

        spec, schedule = self._refined()
        report = validate_refined(spec, schedule=schedule)
        assert report.all_validated, report.render_text()

"""Translation validation of the compiled simulation backend.

Four directions of evidence:

* **Soundness on clean builds**: every process of every built-in
  system validates at every protection level -- no spurious P8xx, no
  silent interpreter demotion -- and the gated compiled run agrees
  with the interpreter.
* **Refutability**: the seeded codegen-defect corpus
  (:mod:`repro.analysis.tv.mutations`) covers every P8xx code; each
  defect's exactness is checked with every other corpus in
  ``tests/test_mutations.py``.
* **The gate**: ``simulate(..., backend="compiled")`` demotes refuted
  processes to the interpreter (recorded on ``SimResult.fallbacks``,
  the run report, and the emitted MANIFEST) so a miscompile can cost
  speed, never correctness.
* **Obligation edges**: wrap-elision boundaries under hypothesis, a
  forced-unsound elision that must be refuted P803, and div/mod error
  parity between the backends.
"""

import ast
import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tv import (pyparse, replay_backend_divergence,
                               validate_refined)
from repro.analysis.tv.mutations import CORPUS, _counter_spec, _validate_build
from repro.analysis.tv.pyparse import Renamer, alpha_equal
from repro.busgen.split import plan_buses
from repro.errors import DIAGNOSTIC_CODES, SimulationError
from repro.explore.systems import load_system
from repro.fifo import FifoTable
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import FIXED_DELAY, get_protocol
from repro.protogen.refine import generate_protocol, refine_system
from repro.sim.compiled import codegen, source_transform
from repro.sim.runtime import RefinedSimulation, simulate
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Ref
from repro.spec.stmt import Assign, For, WaitClocks
from repro.spec.system import SystemSpec
from repro.spec.types import IntType
from repro.spec.variable import Variable

P8XX = ("P801", "P802", "P803", "P804", "P805", "P806")


def _single_behavior_refined(body, locals_, shared, protocol=FIXED_DELAY):
    """Refine a one-behavior system: behavior on chip, ``shared`` on
    memory (so the spec has a channel), everything else local."""
    behavior = Behavior("P", body, local_variables=locals_)
    system = SystemSpec("tv_test", [behavior], [shared])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    partition.assign(behavior, chip)
    partition.assign(shared, memory)
    channels = extract_channels(partition)
    group = default_bus_groups(partition, channels=channels)[0]
    return generate_protocol(system, group, width=8, protocol=protocol)


# ---------------------------------------------------------------------------
# Soundness on clean builds


@pytest.mark.parametrize("system_name",
                         ["flc", "answering-machine", "ethernet"])
@pytest.mark.parametrize("protection", [None, "parity", "crc8"])
def test_every_builtin_process_validates(system_name, protection):
    """No spurious refutation, no silent demotion, on any system at
    any protection level."""
    loaded = load_system(system_name)
    refined = refine_system(loaded.system, plan_buses(loaded.groups),
                            protection=protection)
    report = validate_refined(refined, schedule=loaded.schedule)
    assert report.all_validated, report.render_text()
    assert not report.diagnostics()
    for verdict in report.verdicts.values():
        assert verdict.status == "validated"
        assert verdict.obligations > 0


def test_gated_compiled_run_agrees_with_interpreter():
    loaded = load_system("flc")
    refined = refine_system(loaded.system, plan_buses(loaded.groups))
    interp = simulate(refined, schedule=loaded.schedule, backend="interp")
    compiled = simulate(refined, schedule=loaded.schedule,
                        backend="compiled")
    assert compiled.fallbacks == {}
    assert compiled.final_values == interp.final_values
    assert compiled.end_time == interp.end_time
    assert compiled.clocks == interp.clocks
    assert compiled.transactions == interp.transactions


def test_verdicts_are_cached_across_validations():
    """Same IR facts + same source text -> the cached ProcessVerdict
    object itself, not a re-proof."""
    spec, schedule = _counter_spec()
    first = validate_refined(spec, schedule=schedule)
    second = validate_refined(spec, schedule=schedule)
    for name, verdict in first.verdicts.items():
        assert second.verdicts[name] is verdict


def test_replay_on_clean_spec_is_not_confirmed():
    spec, schedule = _counter_spec()
    result = replay_backend_divergence(spec, schedule=schedule)
    assert not result.confirmed
    assert "identical" in result.detail


# ---------------------------------------------------------------------------
# Refutability: the seeded defect corpus


def test_corpus_covers_every_code():
    assert {d.code for d in CORPUS.defects} == set(P8XX)
    assert len(CORPUS.defects) >= 6


def test_refutation_diagnostic_carries_line_and_replay_hint():
    spec, schedule, transform = CORPUS.find("misfolded_constant").build()
    with source_transform(transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled",
                                validate_compiled=False)
    from repro.analysis.tv import validate_program

    report = validate_program(sim)
    diags = report.diagnostics()
    assert diags
    for diag in diags:
        assert diag.code == "P806"
        assert diag.location is not None
        assert re.search(r"line \d+", diag.location.detail)
        assert "replay_backend_divergence" in diag.hint


def test_p8xx_codes_registered():
    for code in P8XX:
        assert code in DIAGNOSTIC_CODES


# ---------------------------------------------------------------------------
# The gate: refuted processes never run compiled


def test_gate_demotes_refuted_process_and_stays_correct():
    spec, schedule, transform = CORPUS.find("misfolded_constant").build()
    interp = simulate(spec, schedule=schedule, backend="interp")
    with source_transform(transform):
        gated = simulate(spec, schedule=schedule, backend="compiled")
    # The miscompiled process fell back to the interpreter...
    assert "P" in gated.fallbacks
    assert gated.fallbacks["P"].startswith(
        "translation validation refuted: P806")
    # ...so the gated run is still exactly right.
    assert gated.final_values == interp.final_values
    assert gated.end_time == interp.end_time
    assert gated.clocks == interp.clocks
    # Without the gate the same program is observably wrong.
    with source_transform(transform):
        ungated = simulate(spec, schedule=schedule, backend="compiled",
                           validate_compiled=False)
    assert ungated.final_values != interp.final_values


def test_fallbacks_are_deterministically_sorted():
    spec, schedule, transform = CORPUS.find("misfolded_constant").build()
    with source_transform(transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled")
    keys = list(sim.compiled.fallbacks)
    assert keys == sorted(keys)
    result = sim.run()
    assert list(result.fallbacks) == sorted(result.fallbacks)


def test_manifest_and_verdicts_record_the_outcome(tmp_path):
    spec, schedule, transform = CORPUS.find("misfolded_constant").build()
    with source_transform(transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled",
                                emit_sim_source=str(tmp_path))
    assert "REFUTED" in sim.compiled.verdicts["P"]
    manifest = tmp_path / f"{spec.name}__MANIFEST.txt"
    text = manifest.read_text(encoding="utf-8")
    assert "REFUTED" in text
    # A clean build's manifest records the proof instead.
    clean_dir = tmp_path / "clean"
    RefinedSimulation(spec, schedule=schedule, backend="compiled",
                      emit_sim_source=str(clean_dir))
    clean = (clean_dir / f"{spec.name}__MANIFEST.txt").read_text(
        encoding="utf-8")
    assert "validated (" in clean


def test_sim_section_surfaces_fallbacks():
    from repro.obs.report import sim_section

    spec, schedule, transform = CORPUS.find("misfolded_constant").build()
    with source_transform(transform):
        result = simulate(spec, schedule=schedule, backend="compiled")
    section = sim_section("tv_counter", result)
    assert section["fallbacks"] == result.fallbacks
    assert section["fallbacks"]["P"].startswith(
        "translation validation refuted")
    interp = simulate(spec, schedule=schedule, backend="interp")
    assert sim_section("tv_counter", interp)["fallbacks"] == {}


# ---------------------------------------------------------------------------
# Obligation edges


def _loop_spec(bits, signed, hi):
    """One For loop accumulating its (possibly wrapping) loop variable
    into a 16-bit total that is then shipped over the bus."""
    shared = Variable("OUT", IntType(16), init=0)
    total = Variable("P_total", IntType(16), init=0)
    loop = Variable("li", IntType(bits, signed=signed))
    body = [
        For(loop, 0, hi,
            [Assign(total, BinOp("+", Ref(total), Ref(loop)))]),
        Assign(shared, Ref(total)),
    ]
    return _single_behavior_refined(body, [total], shared)


@given(bits=st.sampled_from([4, 8]), signed=st.booleans(),
       hi=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_wrap_elision_boundary(bits, signed, hi):
    """Across the elision boundary (hi inside vs. outside the dtype's
    range) the lowering must both validate and agree with the
    interpreter -- elided exactly when the certificate covers it."""
    refined = _loop_spec(bits, signed, hi)
    report = validate_refined(refined)
    assert report.all_validated, report.render_text()
    interp = simulate(refined, backend="interp")
    compiled = simulate(refined, backend="compiled")
    assert compiled.fallbacks == {}
    assert compiled.final_values == interp.final_values
    assert compiled.end_time == interp.end_time


def test_forced_unsound_elision_is_refuted_p803(monkeypatch):
    """Widen the codegen's range certificate so it (unsoundly) elides
    the wrap of an overflowing 8-bit loop variable: the validator must
    refute P803 and the counterexample must replay."""
    monkeypatch.setattr(codegen, "_scalar_bounds",
                        lambda dtype: (-10**9, 10**9))
    refined = _loop_spec(8, True, 200)
    report = validate_refined(refined)
    assert not report.all_validated
    codes = {d.code for d in report.diagnostics()}
    assert codes == {"P803"}
    replay = replay_backend_divergence(refined)
    assert replay.confirmed, replay.render_text()


@pytest.mark.parametrize("op", ["/", "mod"])
def test_div_mod_by_zero_error_parity(op):
    """Both backends raise the same error, naming the same process at
    the same clock, when a lowered expression divides by zero."""
    shared = Variable("OUT", IntType(16), init=0)
    zero = Variable("P_zero", IntType(16), init=0)
    body = [
        WaitClocks(3),
        Assign(shared, BinOp(op, 10, Ref(zero))),
    ]
    refined = _single_behavior_refined(body, [zero], shared)
    errors = {}
    for backend in ("interp", "compiled"):
        with pytest.raises(SimulationError) as excinfo:
            simulate(refined, backend=backend)
        errors[backend] = str(excinfo.value)
    assert errors["interp"] == errors["compiled"]
    assert "at clock" in errors["interp"]


# ---------------------------------------------------------------------------
# Lockstep alpha-equivalence == renamed-dump equality


def _dump_renamed(node, renamer):
    """The reference judgment: rename every ``Name`` of a copy of
    ``node`` in ``ast.walk`` order, then dump it."""
    node = copy.deepcopy(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            sub.id = renamer.rename(sub.id)
    return ast.dump(node, annotate_fields=False)


def _copy_renamer(renamer):
    copied = Renamer()
    copied.restore(renamer.snapshot())
    return copied


def _assert_agrees_with_dump(actual, expected, ren_a, ren_e, judge):
    """``judge`` (alpha_equal) decides like the dump comparison, leaves
    both trees untouched, and on equal fragments leaves both renamers
    where the dumps left them."""
    ref_a, ref_e = _copy_renamer(ren_a), _copy_renamer(ren_e)
    want = _dump_renamed(actual, ref_a) == _dump_renamed(expected, ref_e)
    before = ast.dump(actual), ast.dump(expected)
    got = judge(actual, expected, ren_a, ren_e)
    assert got == want
    assert (ast.dump(actual), ast.dump(expected)) == before
    if got:
        assert ren_a.snapshot() == ref_a.snapshot()
        assert ren_e.snapshot() == ref_e.snapshot()
    return got


@pytest.fixture
def recorded_alpha_equal(monkeypatch):
    """Route every checker comparison through the dump cross-check,
    with the unit table emptied so every process is really proven.
    Yields the running ``[unequal pairs, equal pairs]`` tally."""
    tally = [0, 0]

    def checked(actual, expected, ren_a, ren_e):
        got = _assert_agrees_with_dump(actual, expected, ren_a, ren_e,
                                       alpha_equal)
        tally[got] += 1
        return got

    monkeypatch.setattr(codegen, "UNITS", FifoTable(codegen.UNITS.limit))
    monkeypatch.setattr(pyparse, "alpha_equal", checked)
    yield tally


#: Every design point TV meets on the case studies: each shareable
#: protocol unprotected, and full_handshake under each protection.
TV_DESIGN_POINTS = [
    (system, protocol, None)
    for system in ("flc", "answering-machine", "ethernet")
    for protocol in ("full_handshake", "half_handshake", "fixed_delay",
                     "burst_handshake")
] + [
    (system, "full_handshake", protection)
    for system in ("flc", "answering-machine", "ethernet")
    for protection in ("parity", "crc8")
]


@pytest.mark.parametrize("system_name,protocol,protection",
                         TV_DESIGN_POINTS)
def test_alpha_equal_matches_dump_on_case_studies(
        recorded_alpha_equal, system_name, protocol, protection):
    loaded = load_system(system_name)
    refined = refine_system(
        loaded.system, plan_buses(loaded.groups, get_protocol(protocol)),
        protection=protection)
    report = validate_refined(refined, schedule=loaded.schedule)
    assert report.all_validated
    assert recorded_alpha_equal[1] > 0


def test_alpha_equal_matches_dump_on_codegen_corpus(recorded_alpha_equal):
    for entry in CORPUS.defects + CORPUS.controls:
        spec, schedule, transform = entry.build()
        _validate_build(spec, schedule)
        if transform is not None:
            _validate_build(spec, schedule, transform)
    # Clean builds match; seeded miscompiles make some pairs differ.
    assert recorded_alpha_equal[0] > 0 and recorded_alpha_equal[1] > 0


@pytest.mark.parametrize("actual,expected,equal", [
    ("1", "True", False),
    ("1", "1.0", False),
    ("x[1:]", "x[1:2]", False),
    ("return", "return x", False),
    ("_t3 + y", "_w0 + y", True),
    ("_t3 + y", "x + y", False),
    ("x + _t3", "x + y", False),
    ("_t1 + _t1", "_w0 + _w0", True),
    ("_t1 + _t2", "_w0 + _w0", False),
    ("_b4_env_read(_t1)", "env_read(_w0)", True),
    ("f(a=1)", "f(b=1)", False),
    ("x.a", "x.b", False),
])
def test_alpha_equal_edge_cases(actual, expected, equal):
    assert _assert_agrees_with_dump(
        ast.parse(actual).body[0], ast.parse(expected).body[0],
        Renamer(), Renamer(), alpha_equal) is equal


def test_alpha_equal_temps_keep_first_occurrence_order():
    ren_a, ren_e = Renamer(), Renamer()
    # The first fragment binds _t7 -> _x0 and _t2 -> _x1 on the actual
    # side; the second must consume them in that order.
    assert alpha_equal(ast.parse("_t7 = _t2").body[0],
                       ast.parse("_w0 = _w1").body[0], ren_a, ren_e)
    assert ren_a.snapshot() == {"_t7": "_x0", "_t2": "_x1"}
    assert not alpha_equal(ast.parse("y = _t2 + _t7").body[0],
                           ast.parse("y = _w0 + _w1").body[0],
                           _copy_renamer(ren_a), _copy_renamer(ren_e))

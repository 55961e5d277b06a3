"""Exactness of absint's selective re-run fixpoint.

:func:`~repro.analysis.absint.engine.analyze_behaviors` re-runs a
behavior only when a store value it read has changed.  The reference
here is the plain fixpoint it replaced -- every pass re-runs every
behavior, and the converging pass reports -- kept in the test suite
only.  Both must give an equal :class:`ValueAnalysis`, field by field,
on generated systems under every protocol point, the three case
studies and every seeded-defect corpus entry.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.absint import engine
from repro.analysis.absint.domain import AbsVal
from repro.analysis.absint.engine import (
    MAX_GLOBAL_PASSES,
    WIDEN_AFTER,
    ValueAnalysis,
    _init_absval,
    _Interpreter,
    analyze_behaviors,
)
from repro.busgen.split import plan_buses
from repro.corpus import all_corpora
from repro.explore.systems import load_system
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protogen.refine import RefinedSpec, generate_protocol, \
    refine_system
from tests.test_properties_sim import systems
from tests.test_shared_proofs import PROTOCOL_POINTS

CASE_STUDIES = ("flc", "answering-machine", "ethernet")


def reference_fixpoint(behaviors, store,
                       max_passes: int = MAX_GLOBAL_PASSES) -> ValueAnalysis:
    """Every pass re-runs every behavior; the pass that leaves the
    store unchanged reports (or, without one, a last sweep does)."""
    store = dict(store)
    passes = 0
    converged = False
    for global_pass in range(max_passes):
        passes += 1
        snapshot = dict(store)
        reporter = _Interpreter(store)
        for behavior in behaviors:
            reporter.run_behavior(behavior)
        if store == snapshot:
            converged = True
            break
        if global_pass >= WIDEN_AFTER - 1:
            for variable, value in store.items():
                previous = snapshot.get(variable)
                if previous is not None and previous != value:
                    store[variable] = previous.widen(value).meet(
                        AbsVal.of_type(variable.dtype))
    if not converged:
        reporter = _Interpreter(store)
        for behavior in behaviors:
            reporter.run_behavior(behavior)
    return ValueAnalysis(store=store, while_trips=reporter.while_trips,
                         findings=list(reporter.findings.values()),
                         sent_ranges=reporter.sent_ranges, passes=passes,
                         converged=converged)


def assert_exact(behaviors, store, max_passes=MAX_GLOBAL_PASSES):
    got = analyze_behaviors(behaviors, store=store, max_passes=max_passes)
    want = reference_fixpoint(behaviors, store, max_passes)
    assert got.passes == want.passes
    assert got.converged == want.converged
    assert list(got.store.items()) == list(want.store.items())
    assert got.findings == want.findings
    assert [str(f) for f in got.findings] == \
        [str(f) for f in want.findings]
    assert list(got.while_trips.items()) == list(want.while_trips.items())
    assert list(got.sent_ranges.items()) == list(want.sent_ranges.items())
    assert {k: str(v) for k, v in got.sent_ranges.items()} == \
        {k: str(v) for k, v in want.sent_ranges.items()}
    return got


def assert_spec_exact(spec: RefinedSpec):
    store = {variable: _init_absval(variable)
             for variable in spec.original.variables}
    return assert_exact(spec.behaviors, store)


def _refined(name, protection=None):
    loaded = load_system(name)
    return refine_system(loaded.system, plan_buses(loaded.groups),
                         protection=protection)


@pytest.mark.parametrize("name", CASE_STUDIES)
@pytest.mark.parametrize("protection", [None, "parity", "crc8"])
def test_case_studies_match_the_full_pass_fixpoint(name, protection):
    assert_spec_exact(_refined(name, protection))


@given(systems(), st.sampled_from(PROTOCOL_POINTS),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_generated_systems_match_the_full_pass_fixpoint(system, point,
                                                        width):
    protocol, protection = point
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in system.behaviors:
        partition.assign(behavior, chip)
    for variable in system.variables:
        partition.assign(variable, memory)
    channels = extract_channels(partition)
    if not channels:
        return
    group = default_bus_groups(partition, channels=channels)[0]
    assert_spec_exact(generate_protocol(system, group, width=width,
                                        protocol=protocol,
                                        protection=protection))


def _specs_of(artifact):
    if isinstance(artifact, RefinedSpec):
        yield artifact
    elif isinstance(artifact, (tuple, list)):
        for item in artifact:
            yield from _specs_of(item)


def test_every_corpus_entry_matches_the_full_pass_fixpoint():
    checked = 0
    for corpus in all_corpora():
        for entry in corpus.entries:
            for spec in _specs_of(entry.build()):
                assert_spec_exact(spec)
                checked += 1
    assert checked


def test_modular_analysis_matches_the_full_pass_fixpoint():
    spec = _refined("ethernet", "parity")
    for behavior in spec.original.behaviors:
        store = {v: AbsVal.of_type(v.dtype)
                 for v in sorted(behavior.global_variables(),
                                 key=lambda v: v.name)}
        assert_exact([behavior], store, max_passes=2)


@pytest.mark.parametrize("name", CASE_STUDIES)
@pytest.mark.parametrize("protection", [None, "parity"])
def test_the_confirming_pass_reruns_only_self_fed_behaviors(
        monkeypatch, name, protection):
    """The pass that confirms the fixpoint re-runs no behavior whose
    reads were current, and none that only read what other behaviors
    write.  What it does re-run is a behavior that feeds its own reads
    (FLC's CONV_R0 accumulates into ``aggregate`` inside a loop,
    Ethernet's TXU into ``tx_fcs``): its last run saw a store value
    that its own writes, or the widening of them, have since
    outgrown, so only a run over the final store reports exactly."""
    spec = _refined(name, protection)
    writes = {}
    write = engine._Interpreter._write

    def recording_write(self, variable, value, env, element):
        if variable not in env:
            writes.setdefault(id(self), set()).add(variable)
        write(self, variable, value, env, element)

    passes = []
    sweep = engine._sweep

    def recording_sweep(behaviors, runs, store):
        stale = {i for i, run in enumerate(runs)
                 if run is not None and not run.is_current()}
        self_fed = {i for i, run in enumerate(runs)
                    if run is not None
                    and writes.get(id(run), set()) & set(run.reads)}
        ran = sweep(behaviors, runs, store)
        passes.append((stale, self_fed, ran))
        return ran

    monkeypatch.setattr(engine._Interpreter, "_write", recording_write)
    monkeypatch.setattr(engine, "_sweep", recording_sweep)
    store = {variable: _init_absval(variable)
             for variable in spec.original.variables}
    with obs.tracing() as tracer:
        analysis = analyze_behaviors(spec.behaviors, store=store)
    assert analysis.converged and len(passes) == analysis.passes >= 2
    stale, self_fed, ran = passes[-1]
    assert stale <= self_fed and ran == len(stale)
    assert ran < len(spec.behaviors)
    (span,) = tracer.spans_named("absint.analyze")
    assert span.args["behavior_runs"] == sum(r for _, _, r in passes)
    assert span.args["behavior_runs"] < \
        analysis.passes * len(spec.behaviors)

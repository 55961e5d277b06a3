"""Shared channel proofs: one model check per controller pair.

The handshake (P1xx) and temporal (P7xx) passes keep each clean proof
in the process-wide :data:`~repro.analysis.product.PROOFS` table under
:func:`~repro.analysis.product.proof_key`, and answer every later
channel whose controllers match up to ID codes from it.  These tests
hold the contract: a warm table changes no lint or verify result, a
consistent ID rename shares a proof while a server keyed to a code its
accessor never drives does not, and no table outgrows its limit.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import analyze_refined, product
from repro.analysis.mc import differential_proof_check, verify_refined
from repro.analysis.mutations import build_target
from repro.analysis.product import (
    PROOFS,
    ProofTable,
    channel_models,
    proof_key,
    with_fsm_transform,
)
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.fifo import FifoTable
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import (
    BURST_HANDSHAKE,
    FIXED_DELAY,
    FULL_HANDSHAKE,
    HALF_HANDSHAKE,
)
from repro.protogen.fsm import ProtocolFsm
from repro.protogen.procedures import Role
from repro.protogen.refine import generate_protocol, refine_system
from repro.sim.compiled import codegen
from tests.conftest import cold_proof_table
from tests.test_properties_sim import systems

_ID = re.compile(r'ID = "([01]+)"')


def results(spec):
    """Everything lint and verify say about ``spec``."""
    return (analyze_refined(spec).render_json(),
            verify_refined(spec).to_dict())


def flip_ids(fsm: ProtocolFsm, *, server_only: bool = False) -> ProtocolFsm:
    """``fsm`` with every ID bit inverted: a one-to-one renaming of the
    codes when applied to both sides, a server keyed to codes its
    accessor never drives when applied to the server alone."""
    if server_only and fsm.role is not Role.SERVER:
        return fsm

    def flip(text):
        if text is None:
            return text
        return _ID.sub(lambda m: 'ID = "%s"' % m.group(1).translate(
            str.maketrans("01", "10")), text)

    return replace(
        fsm,
        states=[replace(s, actions=tuple(flip(a) for a in s.actions))
                for s in fsm.states],
        transitions=[replace(t, guard=flip(t.guard))
                     for t in fsm.transitions])


# ---------------------------------------------------------------------------
# The key
# ---------------------------------------------------------------------------

def test_key_renames_ids_and_ignores_names():
    model = next(iter(channel_models(build_target()).values()))
    accessor, server = model.accessor, model.server
    assert _ID.search(str(accessor.states))  # the pair does use an ID
    renamed = proof_key(flip_ids(accessor), flip_ids(server))
    assert renamed == proof_key(accessor, server)
    assert proof_key(replace(accessor, name="Other", channel_name="x",
                             bus_name="y"), server) == renamed
    assert proof_key(accessor, flip_ids(server)) != renamed
    assert proof_key(replace(accessor, protocol_name="other"),
                     server) != renamed


def test_key_reads_unquoted_ids_as_the_parser_does():
    """``ID = 01`` and ``ID = "01"`` are one code to the product, so
    the key may not tell them apart -- nor merge two distinct codes."""
    model = next(iter(channel_models(build_target()).values()))
    code = _ID.search(" ".join(t.guard or "" for t in
                               model.server.transitions)).group(1)

    def server_guards(code_text):
        return replace(model.server, transitions=[
            replace(t, guard=t.guard.replace(f'"{code}"', code_text))
            if t.guard else t for t in model.server.transitions])

    key = proof_key(model.accessor, model.server)
    assert proof_key(model.accessor, server_guards(code)) == key
    other = code.translate(str.maketrans("01", "10"))
    assert proof_key(model.accessor, server_guards(other)) != key


# ---------------------------------------------------------------------------
# Sharing
# ---------------------------------------------------------------------------

def _explorations(monkeypatch):
    calls = []
    real = product._Explorer._moves

    def counting(self, state):
        calls.append(state)
        return real(self, state)
    monkeypatch.setattr(product._Explorer, "_moves", counting)
    return calls


@pytest.mark.parametrize("protection", [None, "parity"])
def test_consistent_id_rename_shares_the_proof(protection, monkeypatch,
                                               cold_proofs):
    clean = results(build_target(protection=protection))
    explored = _explorations(monkeypatch)
    renamed = with_fsm_transform(build_target(protection=protection),
                                 flip_ids)
    assert results(renamed) == clean
    assert explored == [], "a renamed pair was explored again"


def test_wrong_server_id_is_not_shared_and_still_reported(cold_proofs):
    results(build_target())  # warm every clean proof of the design
    wrong = with_fsm_transform(
        build_target(), lambda fsm: flip_ids(fsm, server_only=True))
    codes = set(analyze_refined(wrong).codes())
    assert {"P104", "P701"} <= codes
    assert any(v.code == "P701" and v.witness is not None
               for v in verify_refined(wrong).verdicts)


def test_refuted_proofs_are_never_kept(cold_proofs):
    wrong = with_fsm_transform(
        build_target(), lambda fsm: flip_ids(fsm, server_only=True))
    results(wrong)
    assert len(PROOFS.clean) == 0


def test_shared_verdicts_name_their_own_channel(cold_proofs):
    spec = build_target()
    report = verify_refined(spec)
    channels = {(bus.name, channel.name) for bus in spec.buses
                for channel in bus.group}
    named = {(v.bus, v.channel) for v in report.verdicts
             if v.channel is not None}
    assert named == channels


def test_tracing_changes_neither_results_nor_sharing():
    def run():
        with cold_proof_table():
            first = results(build_target(protection="parity"))
            again = results(build_target(protection="parity"))
            return first, again, len(PROOFS.clean)

    with obs.tracing():
        traced = run()
    assert run() == traced


def test_differential_check_is_clean_on_the_case_studies():
    for name in ("flc", "answering-machine", "ethernet"):
        loaded = load_system(name)
        for protection in (None, "parity", "crc8"):
            spec = refine_system(loaded.system, plan_buses(loaded.groups),
                                 protection=protection)
            assert not differential_proof_check(spec), (name, protection)


PROTOCOL_POINTS = [(FULL_HANDSHAKE, None), (FULL_HANDSHAKE, "parity"),
                   (FULL_HANDSHAKE, "crc8"), (HALF_HANDSHAKE, None),
                   (FIXED_DELAY, None), (BURST_HANDSHAKE, None)]


@given(systems(), st.sampled_from(PROTOCOL_POINTS),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_warm_table_changes_no_lint_or_verify_result(system, point, width):
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

    def refine():
        return generate_protocol(system, group, width=width,
                                 protocol=protocol, protection=protection)

    with cold_proof_table():
        cold = results(refine())
    # The process table, warm with every example before this one, then
    # with this example's own proofs.
    assert results(refine()) == cold
    assert results(refine()) == cold
    assert not differential_proof_check(refine())


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_fifo_table_evicts_oldest_first():
    table = FifoTable(3)
    for key in range(5):
        table.put(key, str(key))
        assert len(table) <= 3
    assert [k for k in range(5) if k in table] == [2, 3, 4]
    assert table.get(4) == "4" and table.get(0) is None
    table.put(2, "two")  # an update evicts nothing
    assert len(table) == 3 and table.get(2) == "two"
    with pytest.raises(ValueError):
        FifoTable(0)


def test_process_tables_keep_their_limits():
    assert PROOFS.clean.limit == product.PROOF_TABLE_LIMIT == 1024
    assert codegen.UNITS.limit == codegen.UNIT_TABLE_LIMIT == 1024


def test_proof_table_never_exceeds_its_limit():
    table = ProofTable(limit=2)
    loaded = load_system("answering-machine")
    for protection in (None, "parity", "crc8"):
        spec = refine_system(loaded.system, plan_buses(loaded.groups),
                             protection=protection)
        assert not differential_proof_check(spec, table)
        assert len(table.clean) == 2

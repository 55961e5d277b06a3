"""The simulated bus against the controllers P1xx/P7xx prove.

* **Protocol goldens** -- every protocol shape besides the full
  handshake (burst, half handshake, fixed delay on FLC and the
  answering machine, hardwired on a one-channel Figure 3 bus) has a
  committed interpreter record with its kernel counters and flight
  journal; the full-handshake and protected runs' journals are pinned
  beside their (detached) sim records.
* **Conformance** -- each transaction's flight-recorder events fold
  into a walk of its channel's synthesized accessor FSM: a committed
  transaction is an accepted run from the rest state back to it, and a
  failed attempt is a prefix of a run, closed by a retry edge or by a
  timeout abort.
* **Clock contract** -- over protocol x width x layout (protected
  layouts included), the accessor FSM's clean path has exactly
  ``protocol.message_clocks(words)`` clocked states, the fused tier's
  single ``Wait``, and one executor transfer takes exactly that long.
* **One definition, synthesized once** -- the simulator runs the
  controller pair memoized on the spec: a fully fused compiled run
  synthesizes none, an interpreter run one per procedure, and none
  after the analyzer already did.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_refined
from repro.analysis.product import channel_models
from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.obs.flight import FlightRecorder
from repro.obs.flight.recorder import (
    CHECK_FAIL,
    COMMIT,
    FAULT,
    GIVE_UP,
    GRANT,
    NACK,
    RELEASE,
    REQUEST,
    RETRY,
    SETUP,
    TRANSFER_START,
    WORD_DATA,
    WORD_DONE,
    WORD_START,
)
from repro.protocols import PROTECTIONS, PROTOCOLS, ProtectionPlan
from repro.protogen import fsm as fsm_module
from repro.protogen.fsm import FsmTransition, ProtocolFsm, synthesize_fsm
from repro.protogen.procedures import make_procedures
from repro.protogen.structure import make_structure
from repro.protogen.varproc import VariableProcess
from repro.sim.bus import SimBus, StorageAdapter
from repro.sim.compiled.transfer import FUSED, _fused_shape
from repro.sim.kernel import Simulator
from repro.sim.runtime import RefinedSimulation, simulate
from repro.spec.access import Direction
from repro.spec.behavior import Behavior
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable
from tests import golden_util

PROTOCOL_SLUGS = sorted(golden_util.PROTOCOL_GOLDENS)


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("slug", PROTOCOL_SLUGS)
def test_protocol_capture_matches_golden(slug):
    fresh = golden_util.capture_protocol(slug)
    golden = golden_util.load_golden(slug)
    assert golden_util.dump(fresh) == golden_util.dump(golden), (
        f"{slug}: the interpreter's record or flight journal drifted "
        "from the committed golden")
    assert golden["oracle_ok"] is True


def test_case_study_journals_match_golden():
    with open(golden_util.JOURNALS_PATH, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert golden_util.dump(golden_util.capture_journals()) == golden


# ---------------------------------------------------------------------------
# Conformance: journal -> accessor FSM walk
# ---------------------------------------------------------------------------

#: Events that close one clocked phase: the accessor took one edge.
_PHASE_EVENTS = (WORD_DATA, WORD_DONE, SETUP, RELEASE)
#: Events that say nothing about the controller's state.
_AMBIENT_EVENTS = (REQUEST, GRANT, FAULT, NACK, CHECK_FAIL)
#: Failure reasons of an attempt the timeout bounded (no edge fired).
_TIMEOUT_ABORT = re.compile(r"^DONE never (rose|fell) ")

#: A walk position: (state name, entered through a retry edge).
Position = Tuple[str, bool]


def _word_of(state: str) -> Optional[int]:
    match = re.match(r"W(\d+)(_|$)", state)
    return int(match.group(1)) if match else None


class _Walk:
    """The set of accessor states one transaction's events allow."""

    def __init__(self, fsm: ProtocolFsm):
        self.fsm = fsm
        self.initial = fsm.initial_state().name
        self.actionless = {s.name for s in fsm.states if not s.actions}
        self.out: Dict[str, List[FsmTransition]] = {}
        for transition in fsm.transitions:
            self.out.setdefault(transition.source, []).append(transition)
        self.starts: Set[Position] = {
            (t.target, False) for t in self.out[self.initial]
            if t.guard == "invoke"}

    def step(self, here: Set[Position]) -> Set[Position]:
        return {(t.target, t.is_retry) for state, _ in here
                for t in self.out.get(state, ()) if t.guard != "invoke"}

    def settle(self, here: Set[Position]) -> Set[Position]:
        """``here`` plus everything the actionless decision states
        (the verdict point) reach without a clock."""
        closed = set(here)
        frontier = list(here)
        while frontier:
            state, _ = frontier.pop()
            if state not in self.actionless:
                continue
            for t in self.out.get(state, ()):
                if t.guard is None and (t.target, t.is_retry) not in closed:
                    closed.add((t.target, t.is_retry))
                    frontier.append((t.target, t.is_retry))
        return closed


def _fold(walk: _Walk, events) -> str:
    """Fold one transaction's journal into ``walk``; returns its
    outcome (``committed``/``gave_up``, or ``incomplete`` when the run
    ended first), asserting every event is a move of the FSM."""
    here: Optional[Set[Position]] = None
    outcome = "incomplete"
    for event in events:
        kind = event.kind
        where = f"cid={event.correlation_id} t={event.clock} {kind}"
        if kind in _AMBIENT_EVENTS:
            continue
        if kind == TRANSFER_START:
            assert here is None, f"{where}: transfer restarted"
            here = set(walk.starts)
            continue
        assert here is not None, f"{where}: before TRANSFER_START"
        if kind == WORD_START:
            word = int(event.detail.split()[1])
            here = {p for p in here if _word_of(p[0]) == word}
            assert here, f"{where}: no accessor state moves word {word}"
        elif kind in _PHASE_EVENTS:
            here = walk.step(here)
            assert here, f"{where}: the accessor has no edge to take"
        elif kind == COMMIT:
            assert (walk.initial, False) in walk.settle(here), (
                f"{where}: committed outside the rest state "
                f"(accessor at {sorted(here)})")
            outcome = "committed"
            here = None
        elif kind in (RETRY, GIVE_UP):
            if not _TIMEOUT_ABORT.match(event.detail):
                assert any(retry for _, retry in walk.settle(here)), (
                    f"{where}: attempt failed ({event.detail}) without "
                    f"reaching a retry edge (accessor at {sorted(here)})")
            if kind == GIVE_UP:
                outcome = "gave_up"
                here = None
            else:
                here = set(walk.starts)
        else:
            raise AssertionError(f"{where}: unexpected journal event")
    return outcome


def _assert_conforms(refined, recorder: FlightRecorder) -> Dict[str, int]:
    """Fold every transaction of ``recorder`` into its channel's
    accessor FSM; returns the outcome counts."""
    models = channel_models(refined)
    walks: Dict[Tuple[str, str], _Walk] = {}
    outcomes: Dict[str, int] = {}
    for txn in recorder.transactions:
        assert txn.channel is not None
        key = (txn.bus, txn.channel)
        if key not in walks:
            walks[key] = _Walk(models[key].accessor)
        outcome = _fold(walks[key],
                        recorder.events_for(txn.correlation_id))
        assert outcome == txn.outcome, (
            f"cid={txn.correlation_id}: journal folds to {outcome}, "
            f"recorder closed it as {txn.outcome}")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return outcomes


@pytest.mark.parametrize("slug", PROTOCOL_SLUGS
                         + list(golden_util.GOLDEN_SYSTEMS))
def test_clean_runs_are_accepted_runs(slug):
    if slug in golden_util.PROTOCOL_GOLDENS:
        refined, schedule, _ = golden_util.protocol_design(slug)
    else:
        loaded, refined = golden_util.refined_system(slug)
        schedule = loaded.schedule
    recorder = FlightRecorder()
    simulate(refined, schedule=schedule, recorder=recorder)
    outcomes = _assert_conforms(refined, recorder)
    assert outcomes == {"committed": len(recorder.transactions)}


@pytest.mark.parametrize("slug", sorted(golden_util.GOLDEN_VARIANTS))
def test_protected_and_faulty_runs_conform(slug):
    base, protection, plan_factory = golden_util.GOLDEN_VARIANTS[slug]
    loaded, refined = golden_util.refined_system(base,
                                                 protection=protection)
    recorder = FlightRecorder()
    result = simulate(refined, schedule=loaded.schedule, recorder=recorder,
                      faults=plan_factory() if plan_factory else None)
    outcomes = _assert_conforms(refined, recorder)
    assert outcomes == {"committed": len(recorder.transactions)}
    if plan_factory is not None:
        assert sum(t.retries for log in result.transactions.values()
                   for t in log) >= 1


def test_exhausted_retry_budget_conforms():
    """A wire held broken for the whole run: every attempt fails on the
    timeout or the verdict, and the give-up closes a prefix."""
    from repro.errors import SimulationError
    from repro.sim.faults import Fault, FaultKind, FaultPlan

    loaded, refined = golden_util.refined_system("flc", protection="crc8")
    plan = FaultPlan(faults=[Fault(kind=FaultKind.STUCK, bus="B",
                                   line="DONE", stuck_value=0,
                                   start_clock=1, once=False)])
    recorder = FlightRecorder()
    with pytest.raises(SimulationError, match="gave up"):
        simulate(refined, schedule=loaded.schedule, recorder=recorder,
                 faults=plan)
    recorder.finish(0)
    outcomes = _assert_conforms(refined, recorder)
    assert outcomes.get("gave_up", 0) >= 1


# ---------------------------------------------------------------------------
# Clock contract: FSM path == fused Wait == executor clocks
# ---------------------------------------------------------------------------

def _clean_paths(fsm: ProtocolFsm) -> List[List[str]]:
    """Every path from rest back to rest that takes no retry edge."""
    initial = fsm.initial_state().name
    paths: List[List[str]] = []

    def walk(state: str, path: List[str]) -> None:
        for t in fsm.successors(state):
            if t.is_retry or t.target in path:
                continue
            if t.target == initial:
                paths.append(path)
            else:
                walk(t.target, path + [t.target])

    walk(initial, [])
    return paths


@settings(max_examples=80, deadline=None)
@given(protocol=st.sampled_from(sorted(PROTOCOLS)),
       protection=st.sampled_from([None, "parity", "crc8"]),
       width=st.integers(1, 24),
       data_bits=st.integers(1, 16),
       array=st.booleans(),
       write=st.booleans(),
       channels=st.integers(1, 3),
       seed=st.integers(0, 1 << 16))
def test_clean_path_is_the_message_clocks(protocol, protection, width,
                                          data_bits, array, write,
                                          channels, seed):
    protocol = PROTOCOLS[protocol]
    if protection is not None and protocol.name != "full_handshake":
        protection = None           # only the full handshake is protected
    if not protocol.shareable:
        channels = 1
    variable = Variable("v", ArrayType(IntType(data_bits), 16) if array
                        else IntType(data_bits))
    direction = Direction.WRITE if write else Direction.READ
    group = ChannelGroup("g", [Channel(f"ch{i}", Behavior(f"B{i}"),
                                       variable, direction, 1)
                               for i in range(channels)])
    plan = ProtectionPlan(PROTECTIONS[protection]) if protection else None
    pair = make_procedures(group.channels[0], protocol, protection=plan)
    if not protocol.shareable:
        width = max(width, pair.layout.total_bits)
    structure = make_structure("B", group, width, protocol,
                               protection=plan)
    accessor = synthesize_fsm(pair.accessor, structure)
    server = synthesize_fsm(pair.server, structure)

    paths = _clean_paths(accessor)
    assert len(paths) == 1, paths
    clocked = [name for name in paths[0] if accessor.state(name).actions]
    sim = Simulator()
    bus = SimBus(structure, sim, lambda name: (accessor, server))
    words, clocks, data_mask = _fused_shape(bus, pair.layout)
    assert clocks == protocol.message_clocks(words)
    assert len(clocked) == clocks, (clocked, words)
    for state in accessor.states + server.states:
        word = re.match(r"W(\d+)", state.name)
        assert state.word == (int(word.group(1)) if word else
                              words - 1 if state.name == "RETRY" else None)

    address = seed % 16 if array else None
    value = seed & data_mask
    stored = {address: 0 if write else value}
    storage = StorageAdapter(stored.__getitem__, stored.__setitem__)
    process = VariableProcess("vproc", variable, (pair,))
    sim.add_process("vproc", bus.variable_server(process, storage),
                    daemon=True)
    got = []

    def body():
        got.append((yield from bus.accessor_transfer(
            pair, "B0", address, value if write else None)))

    sim.add_process("B0", body())
    sim.run()
    (transaction,) = bus.transactions
    assert transaction.clocks == clocks
    assert stored[address] == value
    assert got == [None if write else value]


# ---------------------------------------------------------------------------
# One controller definition, synthesized once per procedure
# ---------------------------------------------------------------------------

@pytest.fixture
def synthesis_calls(monkeypatch):
    calls = []
    real = fsm_module.synthesize_fsm

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fsm_module, "synthesize_fsm", counting)
    return calls


@pytest.mark.parametrize("slug", golden_util.GOLDEN_SYSTEMS)
def test_simulator_synthesizes_each_controller_once(slug, synthesis_calls):
    loaded, refined = golden_util.refined_system(slug)
    procedures = sum(2 * len(list(bus.group)) for bus in refined.buses)

    fused = RefinedSimulation(refined, schedule=loaded.schedule,
                              backend="compiled")
    assert {mode for mode, _ in fused.compiled.channel_modes.values()} \
        == {FUSED}
    fused.run()
    assert synthesis_calls == []

    simulate(refined, schedule=loaded.schedule)
    assert len(synthesis_calls) == procedures

    _, analyzed = golden_util.refined_system(slug)
    analyze_refined(analyzed)
    before = len(synthesis_calls)
    simulate(analyzed, schedule=loaded.schedule)
    assert len(synthesis_calls) == before

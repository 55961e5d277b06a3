"""Protocol controller FSM synthesis.

The send/receive procedures of Section 4 are, in hardware, little
finite-state machines driving and sampling the bus wires -- the same
view the transducer-synthesis work the paper cites ([5], [6], [7])
takes.  This module makes those controllers explicit: given a generated
:class:`~repro.protogen.procedures.CommProcedure` and the bus structure,
:func:`synthesize_fsm` produces a Moore-style FSM whose

* **states** carry the signal actions (drive a word slice, raise START,
  latch DATA into a message register),
* **transitions** carry wire guards (``DONE = '1'``, a strobe edge) or
  fire unconditionally on the next clock.

Uses:

* the area estimator's state counts come from here (one source of
  truth with the simulator's timing: a full-handshake word is exactly
  two states, matching its two clocks),
* controllers export as Graphviz DOT or a text table for inspection
  and documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.protogen.procedures import CommProcedure, Role, WordSpec
from repro.protogen.structure import BusStructure


@dataclass(frozen=True)
class FsmState:
    """One controller state with its output actions."""

    name: str
    #: Human-readable signal actions performed in this state.
    actions: Tuple[str, ...] = ()
    is_initial: bool = False
    is_final: bool = False


@dataclass(frozen=True)
class FsmTransition:
    """A guarded transition; ``guard`` is None for plain clock ticks."""

    source: str
    target: str
    guard: Optional[str] = None
    #: True on retransmission back-edges (RETRY/VERIFY -> first word
    #: request).  The temporal verifier's finite counter abstraction
    #: budgets exactly these edges with the protection plan's retry
    #: allowance; synthesis never sets it on anything else.
    is_retry: bool = False

    def label(self) -> str:
        return self.guard if self.guard else "tick"


@dataclass
class ProtocolFsm:
    """A synthesized protocol controller.

    ``channel_name``, ``bus_name`` and ``protocol_name`` record where
    the controller came from; the static analyzer
    (:mod:`repro.analysis`) uses them to attach source locations to
    diagnostics.  They are presentation metadata only -- synthesis and
    simulation never read them.
    """

    name: str
    role: Role
    states: List[FsmState] = field(default_factory=list)
    transitions: List[FsmTransition] = field(default_factory=list)
    #: Channel this controller serves (None for hand-built FSMs).
    channel_name: Optional[str] = None
    #: Bus the controller drives (None for hand-built FSMs).
    bus_name: Optional[str] = None
    #: Protocol discipline the controller implements.
    protocol_name: Optional[str] = None

    @property
    def state_count(self) -> int:
        return len(self.states)

    def state(self, name: str) -> FsmState:
        for state in self.states:
            if state.name == name:
                return state
        raise ProtocolError(f"FSM {self.name} has no state {name!r}")

    def initial_state(self) -> FsmState:
        for state in self.states:
            if state.is_initial:
                return state
        raise ProtocolError(f"FSM {self.name} has no initial state")

    def successors(self, name: str) -> List[FsmTransition]:
        return [t for t in self.transitions if t.source == name]

    def validate(self) -> None:
        """Well-formedness: unique names, endpoints exist, every
        non-final state has a way out, all states reachable."""
        names = [s.name for s in self.states]
        if len(set(names)) != len(names):
            raise ProtocolError(f"FSM {self.name}: duplicate state names")
        # Outgoing targets per state, indexed once: one scan of the
        # transitions instead of one per state.
        targets: Dict[str, List[str]] = {name: [] for name in names}
        for transition in self.transitions:
            if transition.source not in targets:
                raise ProtocolError(
                    f"FSM {self.name}: transition from unknown state "
                    f"{transition.source!r}")
            if transition.target not in targets:
                raise ProtocolError(
                    f"FSM {self.name}: transition to unknown state "
                    f"{transition.target!r}")
            targets[transition.source].append(transition.target)
        for state in self.states:
            if not state.is_final and not targets[state.name]:
                raise ProtocolError(
                    f"FSM {self.name}: state {state.name} is a dead end")
        # Reachability from the initial state.
        frontier = [self.initial_state().name]
        reached = set(frontier)
        while frontier:
            for target in targets[frontier.pop()]:
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        unreachable = set(targets) - reached
        if unreachable:
            raise ProtocolError(
                f"FSM {self.name}: unreachable states {sorted(unreachable)}")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz DOT rendering."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for state in self.states:
            shape = "doublecircle" if state.is_final else "circle"
            label = state.name
            if state.actions:
                label += "\\n" + "\\n".join(state.actions)
            peripheries = ' style="bold"' if state.is_initial else ""
            lines.append(
                f'  "{state.name}" [shape={shape} label="{label}"'
                f'{peripheries}];')
        for transition in self.transitions:
            lines.append(
                f'  "{transition.source}" -> "{transition.target}" '
                f'[label="{transition.label()}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_table(self) -> str:
        """Plain-text state table."""
        lines = [f"FSM {self.name} ({self.role}, "
                 f"{self.state_count} states)"]
        for state in self.states:
            marks = ""
            if state.is_initial:
                marks += " <initial>"
            if state.is_final:
                marks += " <final>"
            lines.append(f"  {state.name}{marks}")
            for action in state.actions:
                lines.append(f"      do   {action}")
            for transition in self.successors(state.name):
                lines.append(
                    f"      on   {transition.label()} -> "
                    f"{transition.target}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _slice_actions(procedure: CommProcedure, word: WordSpec,
                   drive: bool) -> List[str]:
    """Signal actions for one word's slices, from this role's side."""
    actions: List[str] = []
    for word_slice in word.slices:
        mine = word_slice.field.driver is procedure.role
        hi = word_slice.word_offset + word_slice.bits - 1
        lo = word_slice.word_offset
        span = f"DATA({hi}:{lo})"
        field_name = str(word_slice.field.kind)
        if drive and mine:
            actions.append(f"drive {span} <= {field_name}")
        elif not drive and not mine:
            actions.append(f"latch {field_name} <= {span}")
    return actions


def synthesize_fsm(procedure: CommProcedure,
                   structure: BusStructure) -> ProtocolFsm:
    """Build the controller FSM of one generated procedure."""
    protocol = structure.protocol
    words = procedure.layout.words(structure.width)
    fsm = ProtocolFsm(name=procedure.name, role=procedure.role,
                      channel_name=procedure.channel.name,
                      bus_name=structure.name,
                      protocol_name=protocol.name)
    id_bits = structure.ids.code_bits(procedure.channel.name)
    id_guard = f'ID = "{id_bits}"' if id_bits else None

    if protocol.name == "full_handshake":
        _synth_handshake(fsm, procedure, words, id_guard,
                         protection=structure.protection)
    elif protocol.name == "burst_handshake":
        _synth_burst(fsm, procedure, words, id_guard)
    elif protocol.name in ("half_handshake", "fixed_delay", "hardwired"):
        _synth_strobed(fsm, procedure, words, id_guard,
                       has_req=("REQ" in protocol.control_lines))
    else:
        raise ProtocolError(
            f"no FSM synthesis for protocol {protocol.name!r}")

    fsm.validate()
    return fsm


def _synth_handshake(fsm: ProtocolFsm, procedure: CommProcedure,
                     words: List[WordSpec],
                     id_guard: Optional[str],
                     protection=None) -> None:
    """Two states per word: assert+wait-ack, then deassert+wait-idle.

    With ``protection`` (a :class:`~repro.protocols.ProtectionPlan`)
    the controller grows the NACK/retry discipline: a write accessor
    samples the NACK line with the final acknowledge and loops back
    through a RETRY state; a read accessor passes through a VERIFY
    state whose check-field comparison nondeterministically accepts or
    retransmits; a write server splits its final serve state into an
    accept and a NACK variant.
    """
    accessor = procedure.role is Role.ACCESSOR
    last = len(words) - 1
    is_write = procedure.channel.is_write
    nack = protection.nack_line if protection is not None else None
    if accessor:
        fsm.states.append(FsmState("IDLE", is_initial=True, is_final=True))
        fsm.transitions.append(FsmTransition("IDLE", "W0_REQ",
                                             guard="invoke"))
        for k, word in enumerate(words):
            request_actions = _slice_actions(procedure, word, drive=True)
            if k == 0 and id_guard:
                request_actions.insert(0, f'drive {id_guard}')
            request_actions.append("START <= '1'")
            fsm.states.append(FsmState(f"W{k}_REQ",
                                       actions=tuple(request_actions)))
            ack_actions = _slice_actions(procedure, word, drive=False)
            ack_actions.append("START <= '0'")
            fsm.states.append(FsmState(f"W{k}_ACK",
                                       actions=tuple(ack_actions)))
            if nack is not None and is_write and k == last:
                fsm.transitions.append(FsmTransition(
                    f"W{k}_REQ", f"W{k}_ACK",
                    guard=f"DONE = '1' and {nack} = '0'"))
                fsm.transitions.append(FsmTransition(
                    f"W{k}_REQ", "RETRY",
                    guard=f"DONE = '1' and {nack} = '1'"))
            else:
                fsm.transitions.append(FsmTransition(
                    f"W{k}_REQ", f"W{k}_ACK", guard="DONE = '1'"))
            if k == last:
                target = "VERIFY" if nack is not None and not is_write \
                    else "IDLE"
            else:
                target = f"W{k + 1}_REQ"
            fsm.transitions.append(FsmTransition(
                f"W{k}_ACK", target, guard="DONE = '0'"))
        if nack is not None and is_write:
            fsm.states.append(FsmState("RETRY", actions=("START <= '0'",)))
            fsm.transitions.append(FsmTransition("RETRY", "W0_REQ",
                                                 guard="DONE = '0'",
                                                 is_retry=True))
        if nack is not None and not is_write:
            # The check-field comparison is internal, so the two exits
            # are nondeterministic ticks at this abstraction level.
            fsm.states.append(FsmState("VERIFY"))
            fsm.transitions.append(FsmTransition("VERIFY", "IDLE"))
            fsm.transitions.append(FsmTransition("VERIFY", "W0_REQ",
                                                 is_retry=True))
    else:
        fsm.states.append(FsmState("WAIT", is_initial=True, is_final=True))
        guard = "START = '1'"
        if id_guard:
            guard += f" and {id_guard}"
        #: Transitions entering the next word's serve state(s).
        entries = [("WAIT", guard)]
        for k, word in enumerate(words):
            serve_actions = _slice_actions(procedure, word, drive=False)
            serve_actions += _slice_actions(procedure, word, drive=True)
            split = nack is not None and is_write and k == last
            if split:
                fsm.states.append(FsmState(
                    f"W{k}_SRV",
                    actions=tuple(serve_actions
                                  + ["DONE <= '1'", f"{nack} <= '0'"])))
                fsm.states.append(FsmState(
                    f"W{k}_NAK",
                    actions=tuple(serve_actions
                                  + ["DONE <= '1'", f"{nack} <= '1'"])))
            else:
                fsm.states.append(FsmState(
                    f"W{k}_SRV",
                    actions=tuple(serve_actions + ["DONE <= '1'"])))
            for source, entry_guard in entries:
                fsm.transitions.append(FsmTransition(
                    source, f"W{k}_SRV", guard=entry_guard))
                if split:
                    # Same guard both ways: accept vs NACK is decided
                    # by the internal check comparison.
                    fsm.transitions.append(FsmTransition(
                        source, f"W{k}_NAK", guard=entry_guard))
            drop_actions = ("DONE <= '0'", f"{nack} <= '0'") if split \
                else ("DONE <= '0'",)
            fsm.states.append(FsmState(f"W{k}_DROP", actions=drop_actions))
            fsm.transitions.append(FsmTransition(
                f"W{k}_SRV", f"W{k}_DROP", guard="START = '0'"))
            if split:
                fsm.transitions.append(FsmTransition(
                    f"W{k}_NAK", f"W{k}_DROP", guard="START = '0'"))
            if k == last:
                fsm.transitions.append(FsmTransition(f"W{k}_DROP", "WAIT"))
            else:
                entries = [(f"W{k}_DROP", guard)]


def _synth_strobed(fsm: ProtocolFsm, procedure: CommProcedure,
                   words: List[WordSpec], id_guard: Optional[str],
                   has_req: bool) -> None:
    """One state per word; the strobe (REQ toggle or schedule tick)
    advances."""
    accessor = procedure.role is Role.ACCESSOR
    strobe = "REQ toggle" if has_req else "schedule tick"
    idle_name = "IDLE" if accessor else "WAIT"
    fsm.states.append(FsmState(idle_name, is_initial=True, is_final=True))
    first_guard = "invoke" if accessor else _strobed_guard(strobe, id_guard)
    fsm.transitions.append(FsmTransition(idle_name, "W0", guard=first_guard))
    last = len(words) - 1
    for k, word in enumerate(words):
        actions = _slice_actions(procedure, word, drive=True) + \
            _slice_actions(procedure, word, drive=False)
        if accessor:
            if k == 0 and id_guard:
                actions.insert(0, f"drive {id_guard}")
            actions.append(strobe)
        fsm.states.append(FsmState(f"W{k}", actions=tuple(actions)))
        target = idle_name if k == last else f"W{k + 1}"
        guard = None if accessor else _strobed_guard(strobe, None)
        if k == last:
            fsm.transitions.append(FsmTransition(f"W{k}", target,
                                                 guard=None))
        else:
            fsm.transitions.append(FsmTransition(f"W{k}", target,
                                                 guard=guard))


def _strobed_guard(strobe: str, id_guard: Optional[str]) -> str:
    guard = strobe
    if id_guard:
        guard += f" and {id_guard}"
    return guard


def _synth_burst(fsm: ProtocolFsm, procedure: CommProcedure,
                 words: List[WordSpec], id_guard: Optional[str]) -> None:
    """Grant handshake, streamed words, release."""
    accessor = procedure.role is Role.ACCESSOR
    last = len(words) - 1
    if accessor:
        fsm.states.append(FsmState("IDLE", is_initial=True, is_final=True))
        grant_actions = ["START <= '1'"]
        if id_guard:
            grant_actions.insert(0, f"drive {id_guard}")
        fsm.states.append(FsmState("GRANT", actions=tuple(grant_actions)))
        fsm.transitions.append(FsmTransition("IDLE", "GRANT",
                                             guard="invoke"))
        fsm.transitions.append(FsmTransition("GRANT", "W0",
                                             guard="DONE = '1'"))
        for k, word in enumerate(words):
            actions = _slice_actions(procedure, word, drive=True) + \
                _slice_actions(procedure, word, drive=False)
            actions.append("strobe")
            fsm.states.append(FsmState(f"W{k}", actions=tuple(actions)))
            target = "RELEASE" if k == last else f"W{k + 1}"
            fsm.transitions.append(FsmTransition(f"W{k}", target))
        fsm.states.append(FsmState("RELEASE", actions=("START <= '0'",)))
        fsm.transitions.append(FsmTransition("RELEASE", "IDLE",
                                             guard="DONE = '0'"))
    else:
        fsm.states.append(FsmState("WAIT", is_initial=True, is_final=True))
        guard = "START = '1'"
        if id_guard:
            guard += f" and {id_guard}"
        fsm.states.append(FsmState("GRANT", actions=("DONE <= '1'",)))
        fsm.transitions.append(FsmTransition("WAIT", "GRANT", guard=guard))
        fsm.transitions.append(FsmTransition("GRANT", "W0",
                                             guard="strobe"))
        for k, word in enumerate(words):
            actions = _slice_actions(procedure, word, drive=False) + \
                _slice_actions(procedure, word, drive=True)
            fsm.states.append(FsmState(f"W{k}", actions=tuple(actions)))
            target = "RELEASE" if k == last else f"W{k + 1}"
            fsm.transitions.append(FsmTransition(
                f"W{k}", target,
                guard=None if k == last else "strobe"))
        fsm.states.append(FsmState(
            "RELEASE", actions=("DONE <= '0'", "commit/None")))
        fsm.transitions.append(FsmTransition("RELEASE", "WAIT",
                                             guard="START = '0'"))

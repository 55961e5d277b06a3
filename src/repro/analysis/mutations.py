"""Seeded-defect corpus validating the static analyzer.

Each defect builds a *fresh* FLC refinement, injects exactly one
defect, and declares the exact set of diagnostic codes the analyzer
reports for it (:mod:`repro.corpus` holds the runner and the contract).
Two injection styles:

* structural mutations edit the refined spec in place (frozen
  dataclasses are copied and patched via ``object.__setattr__`` --
  deliberately bypassing constructor validation, since the point is to
  produce the inconsistent designs the validators would reject);
* controller mutations rewrite the synthesized FSMs through
  :func:`~repro.analysis.product.with_fsm_transform`, so the handshake
  and temporal passes explore the defective controllers.

The controls are the unmutated FLC builds (unprotected, parity, crc8),
which must stay diagnostic-free.
"""

from __future__ import annotations

import copy
import re
from dataclasses import replace
from functools import partial
from typing import Optional

from repro.analysis.product import FsmTransform, with_fsm_transform
from repro.analysis.runner import analyze_refined
from repro.busgen.algorithm import generate_bus
from repro.corpus import Corpus, SeededDefect
from repro.protocols import (
    FULL_HANDSHAKE,
    HARDWIRED,
    Protocol,
    ProtectionLike,
    get_protocol,
)
from repro.protogen.fsm import FsmState, FsmTransition, ProtocolFsm
from repro.protogen.idassign import IdAssignment
from repro.protogen.procedures import FieldKind, Role
from repro.protogen.refine import RefinedSpec, refine_system
from repro.protogen.varproc import VariableProcess
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Ref
from repro.spec.stmt import Assign, If, Nop, While
from repro.spec.types import BitType, IntType
from repro.spec.variable import Variable


def build_target(protocol: Protocol = FULL_HANDSHAKE,
                 protection: ProtectionLike = None) -> RefinedSpec:
    """A fresh, defect-free FLC refinement to mutate."""
    from repro.apps.flc import build_flc

    model = build_flc()
    design = generate_bus(model.bus_b, protocol=protocol)
    return refine_system(model.system, [design], protocol=protocol,
                         protection=protection)


# ----------------------------------------------------------------------
# Structure patching helpers
# ----------------------------------------------------------------------

def _patch(frozen, **fields):
    """Copy a frozen dataclass and overwrite fields, skipping validation."""
    patched = copy.copy(frozen)
    for key, value in fields.items():
        object.__setattr__(patched, key, value)
    return patched


def _first_bus(spec: RefinedSpec):
    return spec.buses[0]


def _swap_behavior(spec: RefinedSpec, replacement: Behavior) -> None:
    spec.behaviors = [replacement if b.name == replacement.name else b
                      for b in spec.behaviors]


# ----------------------------------------------------------------------
# Controller (FSM) mutations
# ----------------------------------------------------------------------

def _mutated_controllers(transform: FsmTransform,
                         protection: ProtectionLike = None) -> RefinedSpec:
    """A fresh FLC refinement whose controller models are ``transform``'s
    rewrites of the synthesized FSMs."""
    return with_fsm_transform(build_target(protection=protection),
                              transform)


def _server_never_done(fsm: ProtocolFsm) -> ProtocolFsm:
    if fsm.role is not Role.SERVER:
        return fsm
    states = [replace(s, actions=tuple(a for a in s.actions
                                       if a != "DONE <= '1'"))
              for s in fsm.states]
    return replace(fsm, states=states)


def _accessor_ack_stuck(fsm: ProtocolFsm) -> ProtocolFsm:
    if fsm.role is not Role.ACCESSOR:
        return fsm
    transitions = [replace(t, guard="DONE = '1'")
                   if t.source.endswith("_ACK") and t.guard == "DONE = '0'"
                   else t
                   for t in fsm.transitions]
    return replace(fsm, transitions=transitions)


def _server_wrong_id(fsm: ProtocolFsm) -> ProtocolFsm:
    if fsm.role is not Role.SERVER:
        return fsm

    def flip(guard: Optional[str]) -> Optional[str]:
        if not guard:
            return guard
        match = re.search(r'ID = "([01]+)"', guard)
        if not match:
            return guard
        bits = match.group(1)
        flipped = "".join("1" if b == "0" else "0" for b in bits)
        return guard.replace(f'ID = "{bits}"', f'ID = "{flipped}"')

    transitions = [replace(t, guard=flip(t.guard)) for t in fsm.transitions]
    return replace(fsm, transitions=transitions)


def _accessor_skips_idle(fsm: ProtocolFsm) -> ProtocolFsm:
    if fsm.role is not Role.ACCESSOR:
        return fsm
    transitions = [replace(t, target="W0_REQ")
                   if t.target == "IDLE" and t.source != "IDLE"
                   else t
                   for t in fsm.transitions]
    return replace(fsm, transitions=transitions)


def _orphan_state(fsm: ProtocolFsm) -> ProtocolFsm:
    if fsm.role is not Role.ACCESSOR:
        return fsm
    states = list(fsm.states) + [FsmState("LIMBO")]
    transitions = list(fsm.transitions) + [FsmTransition("LIMBO", "LIMBO")]
    return replace(fsm, states=states, transitions=transitions)


# ----------------------------------------------------------------------
# Temporal (P7xx) controller mutations
# ----------------------------------------------------------------------

def _last_word(fsm: ProtocolFsm, suffix: str) -> Optional[int]:
    """Highest word index among ``W{k}{suffix}`` state names."""
    indices = [int(m.group(1)) for s in fsm.states
               if (m := re.match(rf"W(\d+){re.escape(suffix)}$", s.name))]
    return max(indices) if indices else None


def _ack_never_raised(fsm: ProtocolFsm) -> ProtocolFsm:
    # Only the *final* serve state forgets DONE: earlier words complete
    # normally, so the violation is a genuinely temporal "response never
    # arrives" rather than a wholesale dead handshake.
    if fsm.role is not Role.SERVER:
        return fsm
    last = _last_word(fsm, "_SRV")
    if last is None:
        return fsm
    name = f"W{last}_SRV"
    states = [replace(s, actions=tuple(a for a in s.actions
                                       if a != "DONE <= '1'"))
              if s.name == name else s
              for s in fsm.states]
    return replace(fsm, states=states)


def _retry_counter_reset(fsm: ProtocolFsm) -> ProtocolFsm:
    # The retransmission back-edges lose their budget marks, so the
    # counter abstraction can no longer prove the loop exhausts the
    # plan's retry allowance.
    if fsm.role is not Role.ACCESSOR:
        return fsm
    return replace(fsm, transitions=[replace(t, is_retry=False)
                                     for t in fsm.transitions])


def _double_driver_on_nack(fsm: ProtocolFsm) -> ProtocolFsm:
    # The accessor "helpfully" holds the NACK wire low while waiting
    # for the final acknowledge -- the exact state in which the
    # protected write server drives its accept/NACK verdict.
    if fsm.role is not Role.ACCESSOR:
        return fsm
    last = _last_word(fsm, "_REQ")
    if last is None:
        return fsm
    name = f"W{last}_REQ"
    states = [replace(s, actions=s.actions + ("NACK <= '0'",))
              if s.name == name else s
              for s in fsm.states]
    return replace(fsm, states=states)


def _server_stutter_loop(fsm: ProtocolFsm) -> ProtocolFsm:
    # The final serve state oscillates with an echo twin while START
    # stays high.  Every transition remains fireable and rest remains
    # reachable, but a scheduler that keeps picking the server spins
    # forever -- completion now *relies* on fairness.
    if fsm.role is not Role.SERVER:
        return fsm
    last = _last_word(fsm, "_SRV")
    if last is None:
        return fsm
    serve = fsm.state(f"W{last}_SRV")
    echo = FsmState(f"W{last}_SRV2", actions=serve.actions)
    transitions = list(fsm.transitions) + [
        FsmTransition(serve.name, echo.name, guard="START = '1'"),
        FsmTransition(echo.name, serve.name, guard="START = '1'"),
        FsmTransition(echo.name, f"W{last}_DROP", guard="START = '0'"),
    ]
    return replace(fsm, states=list(fsm.states) + [echo],
                   transitions=transitions)


def _retry_without_plan(fsm: ProtocolFsm) -> ProtocolFsm:
    # A hand-added retransmission loop on an *unprotected* bus: the
    # verifier has no plan to budget it, so the counter abstraction
    # cannot bound the loop at all.
    if fsm.role is not Role.ACCESSOR:
        return fsm
    last = _last_word(fsm, "_ACK")
    if last is None:
        return fsm
    transitions = list(fsm.transitions) + [
        FsmTransition(f"W{last}_ACK", "W0_REQ", guard="DONE = '1'"),
    ]
    return replace(fsm, transitions=transitions)


# ----------------------------------------------------------------------
# Structural mutations
# ----------------------------------------------------------------------

def _unarbitrated_bus() -> RefinedSpec:
    # Legitimate fixed-delay design: the analyzer still warns that two
    # accessors share control-line-free wires.
    return build_target(get_protocol("fixed_delay"))


def _hardwired_shared() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    bus.structure = _patch(bus.structure, protocol=HARDWIRED)
    return spec


def _bypass_access() -> RefinedSpec:
    spec = build_target()
    original = {b.name: b for b in spec.original.behaviors}
    accessor = _first_bus(spec).group.channels[0].accessor.name
    _swap_behavior(spec, original[accessor])
    return spec


def _double_server() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    first = bus.variable_processes[0]
    duplicate = VariableProcess(name=f"{first.name}_shadow",
                                variable=first.variable,
                                services=first.services)
    bus.variable_processes = list(bus.variable_processes) + [duplicate]
    return spec


def _duplicate_ids() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    ids = bus.structure.ids
    clones = IdAssignment(width=ids.width,
                          codes={name: 0 for name in ids.codes})
    bus.structure = _patch(bus.structure, ids=clones)
    return spec


def _truncated_field() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    layout = bus.procedures[bus.group.channels[0].name].layout
    layout.fields = tuple(
        replace(f, bits=f.bits - 4) if f.kind is FieldKind.DATA else f
        for f in layout.fields)
    return spec


def _overlapping_fields() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    layout = bus.procedures[bus.group.channels[0].name].layout
    layout.fields = tuple(
        replace(f, offset=max(0, f.offset - 4)) if f.kind is FieldKind.DATA
        else f
        for f in layout.fields)
    return spec


def _id_overflow() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    ids = bus.structure.ids
    codes = dict(ids.codes)
    victim = sorted(codes)[-1]
    codes[victim] = 1 << (ids.width + 2)
    bus.structure = _patch(bus.structure,
                           ids=IdAssignment(width=ids.width, codes=codes))
    return spec


def _id_capacity() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    # Declare fewer ID lines than clog2(N) channels require.
    bus.structure = _patch(bus.structure,
                           ids=IdAssignment(width=0, codes={
                               name: 0 for name in bus.structure.ids.codes}))
    return spec


def _narrow_hardwired() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    narrow = min(bus.group.max_message_bits - 1, bus.structure.width)
    bus.structure = _patch(bus.structure, protocol=HARDWIRED, width=narrow)
    return spec


def _dead_channel() -> RefinedSpec:
    spec = build_target()
    _first_bus(spec).group.channels[0].accesses = 0
    return spec


def _unused_variable() -> RefinedSpec:
    spec = build_target()
    spec.original.variables.append(
        Variable("forgotten_scratch", BitType(8)))
    return spec


def _constant_lines() -> RefinedSpec:
    spec = build_target()
    bus = _first_bus(spec)
    # Wider than the largest message, so its single word cannot reach
    # the top lines.
    bus.structure = _patch(bus.structure,
                           width=bus.group.max_message_bits + 4)
    return spec


def _uncalled_procedure() -> RefinedSpec:
    spec = build_target()
    accessor = _first_bus(spec).group.channels[0].accessor.name
    _swap_behavior(spec, Behavior(accessor, [Nop()]))
    return spec


# ----------------------------------------------------------------------
# Protection mutations (P6xx, fault tolerance)
# ----------------------------------------------------------------------

def _protection_plan(spec: RefinedSpec):
    plan = _first_bus(spec).structure.protection
    assert plan is not None
    return plan


def _patch_plan(spec: RefinedSpec, **fields) -> None:
    bus = _first_bus(spec)
    bus.structure = _patch(bus.structure,
                           protection=_patch(_protection_plan(spec),
                                             **fields))


def _check_field_ignored() -> RefinedSpec:
    # The plan promises parity, but the layout carries no check field:
    # the receiver has nothing to verify, so corruption sails through.
    spec = build_target(protection="parity")
    bus = _first_bus(spec)
    for pair in bus.procedures.values():
        layout = pair.layout
        layout.fields = tuple(f for f in layout.fields
                              if f.kind is not FieldKind.CHECK)
    return spec


def _retry_never_decrements() -> RefinedSpec:
    # A zero retry step leaves the budget untouched on every failure.
    spec = build_target(protection="crc8")
    _patch_plan(spec, retry_step=0)
    return spec


def _nack_on_done() -> RefinedSpec:
    # NACK wired onto DONE: the reject signal and the acknowledge are
    # one physical wire.
    spec = build_target(protection="parity")
    _patch_plan(spec, nack_line="DONE")
    return spec


def _zero_timeout() -> RefinedSpec:
    # Every bounded wait expires on the spot.
    spec = build_target(protection="crc8")
    _patch_plan(spec, timeout_clocks=0)
    return spec


# ----------------------------------------------------------------------
# Value-flow mutations (P5xx, abstract interpretation)
# ----------------------------------------------------------------------

def _original_vars(spec: RefinedSpec):
    return {v.name: v for v in spec.original.variables}


def _behavior(spec: RefinedSpec, name: str) -> Behavior:
    return next(b for b in spec.behaviors if b.name == name)


def _const_overflow() -> RefinedSpec:
    # 70000 is disjoint from int16's [-32768, 32767]: a *proven*
    # overflow, not a declared-width mismatch.
    spec = build_target()
    ctrl_out = _original_vars(spec)["ctrl_out"]
    old = _behavior(spec, "CONVERT_CTRL")
    _swap_behavior(spec, Behavior(
        old.name,
        list(old.body) + [Assign(ctrl_out, Const(70000))],
        local_variables=list(old.local_variables)))
    return spec


def _false_guard() -> RefinedSpec:
    # 0 > 1 is constant-false, so the then-arm is provably dead.
    spec = build_target()
    crisp_out = _original_vars(spec)["crisp_out"]
    old = _behavior(spec, "CENTROID")
    _swap_behavior(spec, Behavior(
        old.name,
        [If(BinOp(">", Const(0), Const(1)),
            [Assign(crisp_out, Const(1))], [])] + list(old.body),
        local_variables=list(old.local_variables)))
    return spec


def _while_never_runs() -> RefinedSpec:
    # flag is 0 and never written, so the loop guard is constant-false.
    spec = build_target()
    ctrl_out = _original_vars(spec)["ctrl_out"]
    flag = Variable("flag", IntType(16), init=0)
    old = _behavior(spec, "CONVERT_CTRL")
    _swap_behavior(spec, Behavior(
        old.name,
        list(old.body) + [While(BinOp("/=", Ref(flag), Const(0)),
                                [Assign(ctrl_out, Const(1))])],
        local_variables=list(old.local_variables) + [flag]))
    return spec


def _unbounded_send_loop() -> RefinedSpec:
    # spin stays 1 forever, so the rewritten accessor body -- channel
    # sends included -- repeats without any provable trip bound.
    spec = build_target()
    spin = Variable("spin", IntType(16), init=1)
    old = _behavior(spec, "EVAL_R3")
    _swap_behavior(spec, Behavior(
        old.name,
        [While(BinOp("/=", Ref(spin), Const(0)), list(old.body))],
        local_variables=list(old.local_variables) + [spin]))
    return spec


def _div_by_zero() -> RefinedSpec:
    # den2 is exactly [0, 0]: a certain division by zero.
    spec = build_target()
    crisp_out = _original_vars(spec)["crisp_out"]
    num2 = Variable("num2", IntType(16), init=5)
    den2 = Variable("den2", IntType(16), init=0)
    old = _behavior(spec, "CENTROID")
    _swap_behavior(spec, Behavior(
        old.name,
        [Assign(crisp_out, BinOp("/", Ref(num2), Ref(den2)))]
        + list(old.body),
        local_variables=list(old.local_variables) + [num2, den2]))
    return spec


def _infeasible_width() -> RefinedSpec:
    # A 1-line bus moves 0.5 bits/clock; the proven lower demand bound
    # of the FLC accessors already exceeds that, so Equation 1 is
    # violated on *every* execution.
    spec = build_target()
    bus = _first_bus(spec)
    bus.structure = _patch(bus.structure, width=1)
    return spec


_DEFECTS = (
    SeededDefect(
        "server_never_done", ("P101", "P103", "P104", "P701"),
        "server FSM never raises DONE, so the accessor waits forever",
        partial(_mutated_controllers, _server_never_done)),
    SeededDefect(
        "server_wrong_id", ("P101", "P103", "P104", "P701"),
        "server decodes the complement of its assigned ID code",
        partial(_mutated_controllers, _server_wrong_id)),
    SeededDefect(
        "accessor_skips_idle", ("P102", "P705"),
        "accessor's final transition re-enters the word cycle instead "
        "of IDLE, so the pair never returns to rest",
        partial(_mutated_controllers, _accessor_skips_idle)),
    SeededDefect(
        "orphan_state", ("P103",),
        "accessor FSM carries a state no transition ever reaches",
        partial(_mutated_controllers, _orphan_state)),
    SeededDefect(
        "accessor_ack_stuck", ("P104", "P101", "P103", "P701"),
        "accessor waits for DONE = '1' in the acknowledge state, a "
        "level the server has already dropped",
        partial(_mutated_controllers, _accessor_ack_stuck)),
    SeededDefect(
        "unarbitrated_bus", ("P201",),
        "two accessors share a fixed-delay bus with no control lines",
        _unarbitrated_bus),
    SeededDefect(
        "hardwired_shared", ("P201", "P304"),
        "two channels mapped onto a non-shareable hardwired port",
        _hardwired_shared),
    SeededDefect(
        "bypass_access", ("P202", "P404"),
        "an accessor behavior was restored to its unrewritten form and "
        "touches the remote variable directly",
        _bypass_access),
    SeededDefect(
        "double_server", ("P203",),
        "a second variable process claims an already-served variable",
        _double_server),
    SeededDefect(
        "duplicate_ids", ("P204", "P703"),
        "both channels of the bus share ID code 0",
        _duplicate_ids),
    SeededDefect(
        "truncated_field", ("P301",),
        "the DATA field is four bits narrower than the variable",
        _truncated_field),
    SeededDefect(
        "id_capacity", ("P302", "P204", "P703"),
        "the bus declares zero ID lines for two channels",
        _id_capacity),
    SeededDefect(
        "id_overflow", ("P302",),
        "one channel's ID code exceeds what the ID lines can encode",
        _id_overflow),
    SeededDefect(
        "overlapping_fields", ("P303",),
        "the DATA field is shifted onto the ADDRESS field, double-"
        "driving some message bits and losing others",
        _overlapping_fields),
    SeededDefect(
        "narrow_hardwired", ("P304", "P201"),
        "a hardwired port narrower than the largest message",
        _narrow_hardwired),
    SeededDefect(
        "dead_channel", ("P401",),
        "a channel's access count is forced to zero",
        _dead_channel),
    SeededDefect(
        "unused_variable", ("P402",),
        "a shared variable no behavior references",
        _unused_variable),
    SeededDefect(
        "constant_lines", ("P403",),
        "the bus is four lines wider than any word uses",
        _constant_lines),
    SeededDefect(
        "uncalled_procedure", ("P404",),
        "the accessor behavior is emptied so the generated procedure "
        "is never called",
        _uncalled_procedure),
    SeededDefect(
        "const_overflow", ("P501",),
        "a 16-bit signed output is assigned the constant 70000",
        _const_overflow),
    SeededDefect(
        "false_guard", ("P502",),
        "an if-arm guarded by the constant-false comparison 0 > 1",
        _false_guard),
    SeededDefect(
        "while_never_runs", ("P502",),
        "a while loop whose guard tests a flag proven to stay zero",
        _while_never_runs),
    SeededDefect(
        "unbounded_send_loop", ("P503",),
        "the channel-sending accessor body is wrapped in a loop with "
        "no provable trip bound",
        _unbounded_send_loop),
    SeededDefect(
        "div_by_zero", ("P504",),
        "a division whose divisor is the constant zero",
        _div_by_zero),
    SeededDefect(
        "infeasible_width", ("P505",),
        "the bus is narrowed to one line, below the proven worst-case "
        "channel demand",
        _infeasible_width),
    SeededDefect(
        "check_field_ignored", ("P601",),
        "a parity-protected bus whose message layouts carry no check "
        "field",
        _check_field_ignored),
    SeededDefect(
        "retry_never_decrements", ("P602", "P702"),
        "the protection plan's retry step is zeroed, so the retry "
        "budget never shrinks",
        _retry_never_decrements),
    SeededDefect(
        "nack_on_done", ("P603", "P101", "P103", "P104", "P701"),
        "the NACK line is wired onto the DONE control line",
        _nack_on_done),
    SeededDefect(
        "zero_timeout", ("P604",),
        "the protection timeout constant is zeroed",
        _zero_timeout),
    SeededDefect(
        "ack_never_raised", ("P701", "P101", "P103", "P104"),
        "the server's final serve state forgets to raise DONE, so the "
        "last word's request is never acknowledged",
        partial(_mutated_controllers, _ack_never_raised)),
    SeededDefect(
        "retry_counter_reset_in_loop", ("P702",),
        "the retransmission edges lose their retry-budget marks, so "
        "the loop provably never exhausts the plan's allowance",
        partial(_mutated_controllers, _retry_counter_reset,
                protection="crc8")),
    SeededDefect(
        "double_driver_on_nack", ("P703",),
        "the accessor drives the NACK wire in the same reachable state "
        "where the protected write server drives its verdict",
        partial(_mutated_controllers, _double_driver_on_nack,
                protection="crc8")),
    SeededDefect(
        "server_stutter_loop", ("P704",),
        "the final serve state oscillates with an echo twin while "
        "START is high: completion relies entirely on fair scheduling",
        partial(_mutated_controllers, _server_stutter_loop)),
    SeededDefect(
        "retry_without_plan", ("P705", "P101"),
        "a hand-added retransmission loop on an unprotected bus defeats "
        "the counter abstraction (no plan to budget it)",
        partial(_mutated_controllers, _retry_without_plan)),
)

_CONTROLS = (
    SeededDefect("flc_control", (), "the unmutated FLC refinement",
                 build_target),
    SeededDefect("flc_parity_control", (),
                 "the unmutated parity-protected FLC refinement",
                 partial(build_target, protection="parity")),
    SeededDefect("flc_crc8_control", (),
                 "the unmutated crc8-protected FLC refinement",
                 partial(build_target, protection="crc8")),
)


def _judge(spec: RefinedSpec):
    """Every code the analyzer reports; no run-level problems."""
    return analyze_refined(spec).codes(), ()


CORPUS = Corpus("analysis", _DEFECTS, _CONTROLS, _judge)

"""Concrete witness replay through the event kernel.

A refuted temporal property (:mod:`repro.analysis.mc`) carries a
:class:`~repro.analysis.mc.witness.Witness`: the exact schedule of
controller moves into the violation.  The model checker derived it
from the counter-extended product *graph*; this module closes the loop
by running the same schedule through the real simulation kernel
(:class:`~repro.sim.kernel.Simulator`) on real wires
(:class:`~repro.sim.signals.DataLines`), so every counterexample is
grounded in the machinery that executes production designs:

* control lines are per-role driven ``DataLines`` of width 1 -- the
  kernel's own multi-driver resolution raises
  :class:`~repro.errors.SimulationError` on a drive overlap, which is
  precisely the concrete confirmation a ``drive_race`` claim needs;
* every step fires on a clock edge (``Delta`` settle + ``Wait(1)``),
  so the replay's clock count is the schedule's real length;
* guard divergence is checked move by move against the modelled line
  levels -- a witness whose guards do not hold on replay is reported
  as unconfirmed, never papered over;
* lasso witnesses run their cycle twice and must reproduce the exact
  controller/line state at each cycle boundary without touching rest;
* ``deadlock`` claims are re-checked at the final state with the
  product explorer's own move enumeration on the replayed levels.

Control levels are registered outputs (a level persists until the
controller overwrites it), matching both the product semantics and the
VHDL the flow emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Delta, Simulator, Wait
from repro.sim.signals import DataLines


@dataclass
class ReplayResult:
    """Outcome of one concrete replay: a witness schedule through the
    kernel, or a backend-divergence probe
    (:func:`repro.analysis.tv.replay_backend_divergence`)."""

    #: True when the replay concretely reproduces the claimed violation.
    confirmed: bool
    #: The claim type that was checked ("deadlock", "drive_race", ...).
    claim: str
    detail: str = ""
    #: Clock edges the schedule consumed.
    clocks: int = 0
    #: Steps executed before the run ended (== schedule length unless a
    #: divergence or drive conflict cut it short).
    steps_run: int = 0
    #: First guard/state mismatch between witness and replay, if any.
    divergence: Optional[str] = None
    #: Chronological replay log, one line per event.
    log: List[str] = field(default_factory=list)
    #: Flight-recorder correlation id linking this replay's journal
    #: chain (None when no recorder was attached).
    correlation_id: Optional[int] = None

    def render_text(self) -> str:
        verdict = "CONFIRMED" if self.confirmed else "NOT CONFIRMED"
        lines = [f"{verdict}: {self.claim} after {self.steps_run} "
                 f"steps / {self.clocks} clocks"]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.divergence:
            lines.append(f"  divergence: {self.divergence}")
        return "\n".join(lines)


class _Bench:
    """The wire harness one channel pair drives during replay."""

    def __init__(self, accessor, server, width: int):
        from repro.protogen.fsm import parse_actions, parse_guard

        self.accessor = accessor
        self.server = server
        self.effects = {
            "accessor": {s.name: parse_actions(s.actions)
                         for s in accessor.states},
            "server": {s.name: parse_actions(s.actions)
                       for s in server.states},
        }
        names = set()
        for side in self.effects.values():
            for eff in side.values():
                names.update(line for line, _ in eff.drives)
        for fsm in (accessor, server):
            for t in fsm.transitions:
                names.update(line for line, _
                             in parse_guard(t.guard).levels)
        self.controls: Dict[str, DataLines] = {
            name: DataLines(name, width=1) for name in sorted(names)}
        self.data = DataLines("DATA", width=max(1, width))
        self.state = {"accessor": accessor.initial_state().name,
                      "server": server.initial_state().name}
        #: Modelled (sticky) line levels and ID, mirroring the product
        #: explorer's `_apply` so guard checks match the graph.
        self.lines: Dict[str, int] = {}
        self.id_code: Optional[str] = None

    def apply(self, side: str) -> None:
        """Put the side's current-state outputs on the wires.

        ``DataLines.drive`` replaces the role's previous contribution,
        so levels persist (registered outputs) and any cross-role
        overlap raises :class:`SimulationError` from the kernel layer.
        """
        eff = self.effects[side][self.state[side]]
        for line, level in eff.drives:
            self.controls[line].drive(side, level, 1)
            self.lines[line] = level
        if eff.id_code is not None:
            self.id_code = eff.id_code
        if eff.data_mask:
            self.data.drive(side, 0, eff.data_mask)
        else:
            # DATA is tristate, not registered: the runtime releases a
            # role's word before the next driver takes the bus
            # (`_clear_word` in repro.sim.bus), so a state with no
            # data action holds the bus released.
            self.data.release(side)

    def snapshot(self) -> Tuple:
        """Controller/wire state for lasso-repetition checks."""
        return (self.state["accessor"], self.state["server"],
                tuple(sorted(self.lines.items())), self.id_code,
                tuple(wire.value for wire in self.controls.values()))

    def at_rest(self) -> bool:
        return (self.state["accessor"]
                == self.accessor.initial_state().name
                and self.state["server"]
                == self.server.initial_state().name)


def _check_guard(bench: _Bench, side: str, guard_text: Optional[str],
                 ) -> Optional[str]:
    """None when the guard holds on the modelled levels, else why not."""
    from repro.protogen.fsm import parse_guard

    guard = parse_guard(guard_text)
    for line, level in guard.levels:
        if bench.lines.get(line, 0) != level:
            return (f"{side} guard wants {line}={level}, wires read "
                    f"{bench.lines.get(line, 0)}")
    if guard.id_code is not None and bench.id_code != guard.id_code:
        return (f"{side} guard wants ID={guard.id_code!r}, bus carries "
                f"{bench.id_code!r}")
    # Strobe and invoke atoms are scheduling events, synchronized by
    # construction of the witness schedule.
    return None


def _confirm_final(witness, bench: _Bench, result: ReplayResult) -> None:
    """Finite-witness claims: judge the state the schedule ended in."""
    claim = witness.claim.get("type", "")
    if claim == "deadlock":
        from repro.analysis.product import _Explorer

        explorer = _Explorer(bench.accessor, bench.server)
        base = (bench.state["accessor"], bench.state["server"],
                frozenset(bench.lines.items()), bench.id_code)
        moves = explorer._moves(base)
        if moves:
            result.detail = (f"{len(moves)} transitions still enabled "
                             "at the final state")
        else:
            result.confirmed = True
            result.detail = ("no transition of either controller is "
                             "enabled on the replayed line levels")
    elif claim == "nack_commit":
        line = witness.claim.get("line", "NACK")
        wire = bench.controls.get(line)
        level = wire.value if wire is not None else 0
        if level == 1:
            result.confirmed = True
            result.detail = (f"{line} reads 1 while the accessor "
                             f"occupies {bench.state['accessor']}")
        else:
            result.detail = f"{line} reads {level}, not asserted"
    elif claim == "no_completion":
        if not bench.at_rest():
            result.confirmed = True
            result.detail = ("schedule executed and left the pair "
                             "in-flight; unreachability of rest is the "
                             "checker's graph argument")
        else:
            result.detail = "replay returned to rest"
    elif claim == "drive_race":
        # Reaching the end without a kernel conflict means the claimed
        # overlap never materialized on real wires.
        result.detail = ("schedule completed without a drive conflict "
                         "on the kernel's multi-driver resolution")
    else:
        result.detail = f"unknown finite claim {claim!r}"


def replay_witness(witness, accessor, server,
                   width: Optional[int] = None,
                   recorder=None) -> ReplayResult:
    """Run a witness schedule through the event kernel.

    ``accessor``/``server`` are the (possibly mutated) controller pair
    the witness was checked against -- re-synthesize them the same way
    before calling.  Returns a :class:`ReplayResult`; ``confirmed``
    means the kernel-level run concretely exhibits the claimed
    violation.

    With a :class:`~repro.obs.flight.FlightRecorder` the replay gets
    its own correlation id (``ReplayResult.correlation_id``) and
    REPLAY_START/REPLAY_END journal entries, so witness replays join
    the same causal namespace as live transactions and faults.
    """
    claim = witness.claim.get("type", "?")
    width = width or int(witness.meta.get("width", 8) or 8)
    bench = _Bench(accessor, server, width)
    result = ReplayResult(confirmed=False, claim=claim)
    if recorder is None:
        return _run_replay(witness, bench, result, claim)
    result.correlation_id = recorder.on_replay_begin(witness)
    try:
        return _run_replay(witness, bench, result, claim)
    finally:
        recorder.on_replay_end(result.correlation_id, result.clocks,
                               result.confirmed, result.claim)


def _run_replay(witness, bench: _Bench, result: ReplayResult,
                claim: str) -> ReplayResult:
    schedule = list(witness.steps)
    boundaries: set = set()
    cycle_start: Optional[int] = None
    if witness.kind == "lasso":
        cycle = witness.cycle
        if not cycle:
            result.detail = "lasso witness carries an empty cycle"
            return result
        # Two full cycle passes: enough to demonstrate exact
        # repetition (pass two starts and ends in the same snapshot).
        cycle_start = len(witness.stem)
        boundaries = {cycle_start, cycle_start + len(cycle)}
        schedule = witness.stem + cycle + cycle

    snapshots: List[Tuple] = []
    cycle_visited_rest = False
    conflict: Optional[SimulationError] = None

    sim = Simulator(max_clocks=len(schedule) + 2)

    def body():
        nonlocal cycle_visited_rest, conflict
        try:
            bench.apply("accessor")
            bench.apply("server")
        except SimulationError as error:
            conflict = error
            return
        yield Delta()
        for index, step in enumerate(schedule):
            if index in boundaries:
                snapshots.append(bench.snapshot())
            for side, ref in (("accessor", step.accessor),
                              ("server", step.server)):
                if ref is None:
                    continue
                source, target, guard_text = ref
                if bench.state[side] != source:
                    result.divergence = (
                        f"step {index}: witness fires {side} from "
                        f"{source}, replay sits in {bench.state[side]}")
                    return
                mismatch = _check_guard(bench, side, guard_text)
                if mismatch is not None:
                    result.divergence = f"step {index}: {mismatch}"
                    return
            try:
                for side, ref in (("accessor", step.accessor),
                                  ("server", step.server)):
                    if ref is None:
                        continue
                    bench.state[side] = ref[1]
                    bench.apply(side)
            except SimulationError as error:
                conflict = error
                result.steps_run = index + 1
                return
            yield Delta()
            yield Wait(1)
            result.steps_run = index + 1
            result.log.append(
                f"t={sim.now} accessor@{bench.state['accessor']} "
                f"server@{bench.state['server']}")
            if cycle_start is not None and index >= cycle_start \
                    and bench.at_rest():
                cycle_visited_rest = True

    sim.add_process("replay", body())
    stats = sim.run()
    result.clocks = stats.end_time

    if result.divergence is not None:
        result.detail = "witness schedule diverged from the kernel run"
        return result

    if conflict is not None:
        if claim == "drive_race":
            result.confirmed = True
            result.detail = f"kernel drive conflict: {conflict}"
        else:
            result.detail = (f"unexpected kernel drive conflict: "
                             f"{conflict}")
        return result

    if witness.kind == "lasso":
        snapshots.append(bench.snapshot())
        repeated = len(set(snapshots[-3:])) == 1 if len(snapshots) >= 3 \
            else False
        if not repeated:
            result.detail = ("cycle does not reproduce the same "
                             "controller/wire state")
        elif cycle_visited_rest:
            result.detail = "cycle passes through rest; not a violation"
        elif claim in ("response_cycle", "unbounded_retry",
                       "starvation"):
            result.confirmed = True
            result.detail = (
                "cycle executed twice with identical controller and "
                "wire state at every boundary, never reaching rest: "
                "the schedule runs forever")
        else:
            result.detail = f"unknown lasso claim {claim!r}"
        return result

    _confirm_final(witness, bench, result)
    return result

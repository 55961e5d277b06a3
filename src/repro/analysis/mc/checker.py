"""Fair-liveness checking over the counter-extended product graph.

Properties checked per channel (CTL-with-fairness flavor, decided by
graph search because the structures are finite and tiny):

* **response** -- ``AG(in-flight -> AF rest)`` under weak fairness:
  every asserted request is eventually acknowledged and the pair
  returns to rest.  Refuted by a reachable in-flight state with no
  move (deadlock), an in-flight region from which rest is unreachable,
  or a *fair* in-flight cycle (each side either moves in the cycle or
  is disabled somewhere in it -- a weakly-fair scheduler can spin
  there forever).  Also covers the NACK-commit safety clause: no
  reachable state may latch/acknowledge a word while the server
  asserts the NACK line.
* **retry-termination** -- under the finite counter abstraction
  (:mod:`repro.analysis.mc.graph`) every budgeted retransmission loop
  unrolls, so a surviving fair cycle through a retry edge or through
  the attempt-start state means the budget provably never exhausts
  (P702).  When the loop cannot be budgeted at all the abstraction
  fails and the verdict is UNKNOWN (P705).  Proofs report the clock
  bound ``(max_retries + 1) x (timeout + handshake)``.
* **race-freedom** -- no reachable simultaneous drive overlap
  (:mod:`repro.analysis.mc.races`, P703).
* **starvation-freedom** -- no *unfair* in-flight cycle: a cycle where
  one side never moves although it stays enabled means completion
  relies entirely on the fairness of the scheduler (P704, warning).

A cycle is classified **fair** iff for every side: the side moves
somewhere in the cycle, or some cycle state leaves it with no enabled
move (weak fairness only obliges continuously-enabled processes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.mc.graph import (
    EdgeLabel,
    TemporalGraph,
    XState,
    build_temporal_graph,
)
from repro.analysis.mc.races import channel_races
from repro.analysis.mc.witness import Witness, WitnessStep
from repro.analysis.product import _Explorer, co_reachable
from repro.protocols import ProtectionPlan, Protocol
from repro.protogen.fsm import FsmTransition, ProtocolFsm

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"

PROP_RESPONSE = "response"
PROP_RETRY = "retry-termination"
PROP_RACE = "race-freedom"
PROP_STARVATION = "starvation-freedom"

PROPERTY_IDS = (PROP_RESPONSE, PROP_RETRY, PROP_RACE, PROP_STARVATION)


@dataclass
class PropertyVerdict:
    """Outcome of one property on one channel (or one whole bus)."""

    property_id: str
    bus: str
    channel: Optional[str]
    status: str
    #: Diagnostic code on refutation/unknown, None on proof.
    code: Optional[str] = None
    message: str = ""
    #: Proven worst-case clocks to completion (retry-termination).
    bound_clocks: Optional[int] = None
    witness: Optional[Witness] = None

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "property": self.property_id,
            "bus": self.bus,
            "channel": self.channel,
            "status": self.status,
            "message": self.message,
        }
        if self.code is not None:
            data["code"] = self.code
        if self.bound_clocks is not None:
            data["bound_clocks"] = self.bound_clocks
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data


@dataclass
class VerificationReport:
    """All verdicts of one ``repro-synth verify`` run."""

    system: str
    verdicts: List[PropertyVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.proved for v in self.verdicts)

    @property
    def refuted(self) -> List[PropertyVerdict]:
        return [v for v in self.verdicts if v.status != PROVED]

    @property
    def witnesses(self) -> List[Witness]:
        return [v.witness for v in self.verdicts if v.witness is not None]

    def counts(self) -> Dict[str, int]:
        out = {PROVED: 0, REFUTED: 0, UNKNOWN: 0}
        for verdict in self.verdicts:
            out[verdict.status] += 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.mc/verification/v1",
            "system": self.system,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render_text(self) -> str:
        lines = []
        width = max([len(v.property_id) for v in self.verdicts] + [8])
        for v in self.verdicts:
            where = v.bus if v.channel is None else \
                f"{v.bus}/{v.channel}"
            extra = ""
            if v.bound_clocks is not None:
                extra = f" (bound {v.bound_clocks} clocks)"
            if v.code:
                extra += f" [{v.code}]"
            lines.append(f"  {v.property_id:<{width}}  {where:<20} "
                         f"{v.status}{extra}")
            if v.status != PROVED and v.message:
                lines.append(f"      {v.message}")
        counts = self.counts()
        lines.append(
            f"{self.system}: {counts[PROVED]} proved, "
            f"{counts[REFUTED]} refuted, {counts[UNKNOWN]} unknown")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Graph analysis helpers
# ---------------------------------------------------------------------------

def _sccs(nodes: List[XState],
          edges: Dict[XState, List[Tuple[XState, EdgeLabel]]],
          members: Set[XState]) -> List[List[XState]]:
    """Iterative Tarjan over the subgraph induced by ``members``."""
    index: Dict[XState, int] = {}
    low: Dict[XState, int] = {}
    on_stack: Set[XState] = set()
    stack: List[XState] = []
    sccs: List[List[XState]] = []
    counter = [0]

    for root in nodes:
        if root in index or root not in members:
            continue
        work = [(root, iter([t for t, _ in edges.get(root, [])
                             if t in members]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for target in successors:
                if target not in index:
                    index[target] = low[target] = counter[0]
                    counter[0] += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(
                        [t for t, _ in edges.get(target, [])
                         if t in members])))
                    advanced = True
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _internal_edges(scc: List[XState],
                    edges: Dict[XState, List[Tuple[XState, EdgeLabel]]],
                    ) -> List[Tuple[XState, XState, EdgeLabel]]:
    members = set(scc)
    out = []
    for source in scc:
        for target, label in edges.get(source, []):
            if target in members:
                out.append((source, target, label))
    return out


def _enabled_sides(graph: TemporalGraph, xstate: XState) -> Set[str]:
    sides: Set[str] = set()
    for _, label in graph.edges.get(xstate, []):
        sides |= label.sides
    return sides


def _is_fair(graph: TemporalGraph, scc: List[XState],
             internal: List[Tuple[XState, XState, EdgeLabel]]) -> bool:
    moving: Set[str] = set()
    for _, _, label in internal:
        moving |= label.sides
    for side in ("accessor", "server"):
        if side in moving:
            continue
        # Weak fairness only obliges a *continuously enabled* side; a
        # cycle state where it is disabled excuses the whole cycle.
        if not any(side not in _enabled_sides(graph, member)
                   for member in scc):
            return False
    return True


def _cycle_labels(scc: List[XState],
                  internal: List[Tuple[XState, XState, EdgeLabel]],
                  entry: XState,
                  ) -> List[EdgeLabel]:
    """A concrete cycle through ``entry`` inside the SCC (BFS back to
    the entry over internal edges)."""
    outgoing: Dict[XState, List[Tuple[XState, EdgeLabel]]] = {}
    for source, target, label in internal:
        outgoing.setdefault(source, []).append((target, label))
    parents: Dict[XState, Tuple[XState, EdgeLabel]] = {}
    frontier = [entry]
    while frontier:
        node = frontier.pop(0)
        for target, label in outgoing.get(node, []):
            if target == entry:
                labels = [label]
                cursor = node
                while cursor != entry:
                    previous, step = parents[cursor]
                    labels.append(step)
                    cursor = previous
                labels.reverse()
                return labels
            if target not in parents:
                parents[target] = (node, label)
                frontier.append(target)
    return []


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------

def _step(label: EdgeLabel) -> WitnessStep:
    def ref(t: Optional[FsmTransition]):
        return None if t is None else (t.source, t.target, t.guard)
    return WitnessStep(accessor=ref(label.accessor),
                       server=ref(label.server))


def _make_witness(graph: TemporalGraph, *, system: str, bus: str,
                  channel: str, protocol: str,
                  protection: Optional[str], property_id: str,
                  code: str, kind: str, claim: Dict[str, Any],
                  stem: List[EdgeLabel],
                  cycle: Optional[List[EdgeLabel]] = None,
                  meta: Optional[Dict[str, Any]] = None) -> Witness:
    steps = [_step(label) for label in stem]
    loop_start = None
    if cycle:
        loop_start = len(steps)
        steps += [_step(label) for label in cycle]
    return Witness(system=system, bus=bus, channel=channel,
                   protocol=protocol, protection=protection,
                   property_id=property_id, code=code, kind=kind,
                   claim=claim, steps=steps, loop_start=loop_start,
                   meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# The channel checker
# ---------------------------------------------------------------------------

def termination_bound(plan: Optional[ProtectionPlan],
                      protocol: Protocol, words: int) -> int:
    """Proven worst-case clocks from invoke to completion.

    One attempt costs at most ``timeout + message_clocks`` (every wait
    is timeout-bounded under a plan; unprotected handshakes finish in
    the protocol's own message clocks); the counter abstraction limits
    the schedule to ``max_retries + 1`` attempts.
    """
    handshake = max(1, protocol.message_clocks(max(1, words)))
    if plan is None:
        return handshake
    attempts = plan.max_retries + 1
    return attempts * (max(1, plan.timeout_clocks) + handshake)


def check_channel(accessor: ProtocolFsm, server: ProtocolFsm, *,
                  plan: Optional[ProtectionPlan] = None,
                  protocol: Optional[Protocol] = None,
                  words: int = 1,
                  system: str = "design", bus_name: str = "?",
                  channel_name: str = "?",
                  witness_meta: Optional[Dict[str, Any]] = None,
                  model: Optional[_Explorer] = None,
                  ) -> List[PropertyVerdict]:
    """Run every temporal property over one controller pair (and its
    shared controller ``model``, if the caller has one)."""
    graph = build_temporal_graph(accessor, server, plan, model=model)
    protocol_name = accessor.protocol_name or (
        protocol.name if protocol is not None else "?")
    protection_name = plan.protection.name if plan is not None else None

    def witness(property_id, code, kind, claim, stem, cycle=None):
        return _make_witness(
            graph, system=system, bus=bus_name, channel=channel_name,
            protocol=protocol_name, protection=protection_name,
            property_id=property_id, code=code, kind=kind, claim=claim,
            stem=stem, cycle=cycle, meta=witness_meta)

    def verdict(property_id, status, **kw):
        return PropertyVerdict(property_id=property_id, bus=bus_name,
                               channel=channel_name, status=status, **kw)

    verdicts: List[PropertyVerdict] = []
    in_flight = [x for x in graph.states if not graph.is_rest(x)]
    in_flight_set = set(in_flight)

    # --- abstraction failure short-circuits the liveness family ------
    if graph.abstraction_failure is not None:
        verdicts.append(verdict(
            PROP_RETRY, UNKNOWN, code="P705",
            message=graph.abstraction_failure))
        verdicts.append(verdict(
            PROP_RESPONSE, UNKNOWN,
            message="not provable: retry loops unbudgeted (P705)"))
        verdicts.append(verdict(
            PROP_STARVATION, UNKNOWN,
            message="not provable: retry loops unbudgeted (P705)"))
        verdicts.extend(_race_verdicts(graph, verdict, witness))
        return verdicts

    # --- deadlocks / doomed regions ----------------------------------
    terminal = [x for x in in_flight if not graph.edges.get(x)]
    doomed = _doomed(graph, in_flight_set)

    # --- cycles ------------------------------------------------------
    attempt = graph.model.a.attempt_starts
    fair_plain: List[Tuple[List[XState], List[EdgeLabel]]] = []
    fair_retry: List[Tuple[List[XState], List[EdgeLabel]]] = []
    unfair: List[Tuple[List[XState], List[EdgeLabel], Set[str]]] = []
    for scc in _sccs(graph.states, graph.edges, in_flight_set):
        internal = _internal_edges(scc, graph.edges)
        if not internal:
            continue
        entry = min(scc, key=lambda x: len(graph.path_to(x)))
        cycle = _cycle_labels(scc, internal, entry)
        retry_flavor = any(label.retry for _, _, label in internal) or \
            any(base[0] in attempt for (base, _) in scc)
        if _is_fair(graph, scc, internal):
            (fair_retry if retry_flavor else fair_plain).append(
                ([entry] + scc, cycle))
        else:
            moving: Set[str] = set()
            for _, _, label in internal:
                moving |= label.sides
            starved = {"accessor", "server"} - moving
            unfair.append(([entry] + scc, cycle, starved))

    # --- NACK-commit safety ------------------------------------------
    nack_state = _nack_commit_state(graph, plan)

    # --- response -----------------------------------------------------
    if terminal:
        state = terminal[0]
        verdicts.append(verdict(
            PROP_RESPONSE, REFUTED, code="P701",
            message=f"request never acknowledged: no transition enabled "
                    f"at {graph.describe_state(state)}",
            witness=witness(PROP_RESPONSE, "P701", "finite",
                            {"type": "deadlock"},
                            graph.path_to(state))))
    elif nack_state is not None:
        verdicts.append(verdict(
            PROP_RESPONSE, REFUTED, code="P701",
            message=f"data committed under an asserted NACK at "
                    f"{graph.describe_state(nack_state)}",
            witness=witness(PROP_RESPONSE, "P701", "finite",
                            {"type": "nack_commit",
                             "line": plan.nack_line if plan else "NACK"},
                            graph.path_to(nack_state))))
    elif fair_plain:
        scc, cycle = fair_plain[0]
        entry = scc[0]
        verdicts.append(verdict(
            PROP_RESPONSE, REFUTED, code="P701",
            message=f"fair in-flight cycle never returns to rest "
                    f"(e.g. {graph.describe_state(entry)})",
            witness=witness(PROP_RESPONSE, "P701", "lasso",
                            {"type": "response_cycle"},
                            graph.path_to(entry), cycle)))
    elif doomed:
        state = doomed[0]
        verdicts.append(verdict(
            PROP_RESPONSE, REFUTED, code="P701",
            message=f"rest unreachable from "
                    f"{graph.describe_state(state)}",
            witness=witness(PROP_RESPONSE, "P701", "finite",
                            {"type": "no_completion"},
                            graph.path_to(state))))
    elif fair_retry:
        verdicts.append(verdict(
            PROP_RESPONSE, REFUTED,
            message="completion blocked by an unbounded retry loop "
                    "(see retry-termination)"))
    else:
        verdicts.append(verdict(
            PROP_RESPONSE, PROVED,
            message="every request reaches rest on all fair schedules"))

    # --- retry termination -------------------------------------------
    if fair_retry:
        scc, cycle = fair_retry[0]
        entry = scc[0]
        verdicts.append(verdict(
            PROP_RETRY, REFUTED, code="P702",
            message="retransmission loop re-enters the word cycle "
                    "without consuming retry budget "
                    f"(e.g. {graph.describe_state(entry)})",
            witness=witness(PROP_RETRY, "P702", "lasso",
                            {"type": "unbounded_retry"},
                            graph.path_to(entry), cycle)))
    else:
        bound = termination_bound(plan, protocol, words) \
            if protocol is not None else None
        verdicts.append(verdict(
            PROP_RETRY, PROVED, bound_clocks=bound,
            message="all retry loops exhaust their budget"
            if graph.has_retry else "no retry loops"))

    # --- starvation ---------------------------------------------------
    if unfair:
        scc, cycle, starved = unfair[0]
        entry = scc[0]
        side = sorted(starved)[0] if starved else "peer"
        verdicts.append(verdict(
            PROP_STARVATION, REFUTED, code="P704",
            message=f"completion relies on fairness: the {side} can "
                    f"starve while enabled in a cycle at "
                    f"{graph.describe_state(entry)}",
            witness=witness(PROP_STARVATION, "P704", "lasso",
                            {"type": "starvation", "starved": side},
                            graph.path_to(entry), cycle)))
    else:
        verdicts.append(verdict(
            PROP_STARVATION, PROVED,
            message="no schedule starves an enabled side"))

    verdicts.extend(_race_verdicts(graph, verdict, witness))
    return verdicts


def _race_verdicts(graph: TemporalGraph, verdict, witness,
                   ) -> List[PropertyVerdict]:
    races = channel_races(graph)
    if not races:
        return [verdict(PROP_RACE, PROVED,
                        message="drive sets disjoint in every "
                                "reachable state")]
    race = races[0]
    stem = graph.path_to(race.state) if race.state is not None else []
    return [verdict(
        PROP_RACE, REFUTED, code="P703",
        message=f"{race.drivers[0]} and {race.drivers[1]} both drive "
                f"{race.line}: {race.detail}"
                + (f" (+{len(races) - 1} more)" if len(races) > 1
                   else ""),
        witness=witness(PROP_RACE, "P703", "finite",
                        {"type": "drive_race", "line": race.line},
                        stem))]


def _doomed(graph: TemporalGraph,
            in_flight: Set[XState]) -> List[XState]:
    """In-flight states from which no rest state is reachable,
    excluding terminal states (those are deadlocks)."""
    edges = {x: [target for target, _ in out]
             for x, out in graph.edges.items()}
    alive = co_reachable(edges, [x for x in graph.states
                                 if graph.is_rest(x)])
    return [x for x in graph.states
            if x in in_flight and x not in alive and graph.edges.get(x)]


def _nack_commit_state(graph: TemporalGraph,
                       plan: Optional[ProtectionPlan],
                       ) -> Optional[XState]:
    """A reachable state where the server asserts NACK while the
    accessor sits in a commit (acknowledge/latch) state."""
    if plan is None:
        return None
    nack = plan.nack_line
    asserting = {name for name, effects in graph.model.s.effects.items()
                 if (nack, 1) in effects.drives}
    committing = set()
    for state in graph.model.accessor.states:
        latches = any(a.startswith("latch ") for a in state.actions)
        if latches or state.name.endswith("_ACK"):
            committing.add(state.name)
    for xstate in graph.states:
        base, _ = xstate
        if base[1] in asserting and base[0] in committing:
            lines = dict(base[2])
            if lines.get(nack, 0) == 1:
                return xstate
    return None

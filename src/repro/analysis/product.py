"""Sender x receiver product automaton over synthesized protocol FSMs.

The deadlock pass needs an execution model of one channel's two
controllers (:class:`~repro.protogen.fsm.ProtocolFsm` accessor/server
pair) *without* running the discrete-event simulator.  This module
builds that model: a finite product automaton whose states are

    (accessor state, server state, START level, DONE level, driven ID)

and whose moves follow the Moore-style reading of the synthesized
FSMs -- a state's actions set the control-line levels while the machine
sits in it, and a transition's guard is a conjunction of line-level
tests (``DONE = '1'``, ``ID = "01"``), the environment event
``invoke``, or a strobe event (``strobe`` / ``REQ toggle`` /
``schedule tick``).

Strobes synchronize: a strobe-guarded server transition can only fire
together with an accessor transition leaving a state that emits the
strobe (and is *forced* to, modelling the lockstep of the
one-clock-per-word protocols).  Everything else interleaves freely.

Exploration is a plain DFS; the product of two message-transfer
controllers is tiny (tens of states), and a hard cap guards against
pathological hand-built inputs.

Each channel of a refined spec has one **controller model**
(:func:`channel_models`, memoized on the spec): its synthesized pair
and one explorer that computes each product state's successors once,
shared by the handshake (P1xx) and temporal (P7xx) passes.

Across channels, a clean proof is shared: :func:`proof_key` names a
controller pair up to its ID codes, and the process-wide
:data:`PROOFS` table keeps each key's clean handshake and temporal
outcomes, so every later channel whose controllers match is answered
without exploring its product.  Refuted, unknown and raising outcomes
are never kept; they are always derived on the channel itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (Any, Callable, Dict, FrozenSet, Hashable, List,
                    Optional, Set, Tuple, TypeVar)

from repro.errors import AnalysisError
from repro.fifo import FifoTable
from repro.protocols import ProtectionPlan, Protocol
from repro.protogen.fsm import (ID_DRIVE, ID_GUARD, FsmTransition, Guard,
                                ProtocolFsm, StateEffects,
                                channel_controllers, parse_actions,
                                parse_guard, synthesize_fsm)
from repro.protogen.refine import RefinedSpec

#: Safety cap on explored product states.
MAX_PRODUCT_STATES = 20_000


# ---------------------------------------------------------------------------
# Product automaton
# ---------------------------------------------------------------------------

#: (accessor state, server state, frozen {line: level}, driven ID)
ProductState = Tuple[str, str, FrozenSet[Tuple[str, int]], Optional[str]]

#: A fired move: (accessor transition or None, server transition or None)
Move = Tuple[Optional[FsmTransition], Optional[FsmTransition]]

#: Hook applied to every synthesized FSM before analysis; the mutation
#: corpus uses it to seed controller-level defects.
FsmTransform = Callable[[ProtocolFsm], ProtocolFsm]


def describe_state(state: ProductState) -> str:
    """The one human-readable form of a product state (P1xx and P7xx
    messages)."""
    a_state, s_state, lines, id_code = state
    levels = ", ".join(f"{line}={value}" for line, value in sorted(lines))
    text = (f"accessor@{a_state}, server@{s_state}"
            + (f", {levels}" if levels else ""))
    if id_code is not None:
        text += f', ID="{id_code}"'
    return text


@dataclass
class ProductResult:
    """Outcome of exploring one channel's product automaton."""

    accessor: ProtocolFsm
    server: ProtocolFsm
    #: Every reachable product state (none on a clean result shared
    #: from :data:`PROOFS`).
    reachable: Set[ProductState] = field(default_factory=set)
    #: Reachable states with no enabled move (excluding the rest state).
    deadlocks: List[ProductState] = field(default_factory=list)
    #: Reachable states from which no rest state is reachable again.
    livelocked: List[ProductState] = field(default_factory=list)
    #: FSM states never visited, per side.
    unreachable_accessor: List[str] = field(default_factory=list)
    unreachable_server: List[str] = field(default_factory=list)
    #: Transitions that never fired although their source was visited.
    never_fired: List[Tuple[str, FsmTransition]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.deadlocks or self.livelocked
                    or self.unreachable_accessor or self.unreachable_server
                    or self.never_fired)


class _FsmIndex:
    """One FSM read once: initial state, per-state wire effects and
    outgoing transitions with parsed guards."""

    def __init__(self, fsm: ProtocolFsm):
        self.initial = fsm.initial_state().name
        self.effects = {s.name: parse_actions(s.actions)
                        for s in fsm.states}
        self.out: Dict[str, List[Tuple[FsmTransition, Guard]]] = {}
        for transition in fsm.transitions:
            self.out.setdefault(transition.source, []).append(
                (transition, parse_guard(transition.guard)))
        #: Targets of the environment's ``invoke`` transitions: the
        #: states where a fresh message attempt begins.
        self.attempt_starts = frozenset(
            t.target for t, guard in self.out.get(self.initial, ())
            if guard.invoke)


class _Explorer:
    """The controller model of one FSM pair: its product automaton,
    with each state's labelled successors computed once."""

    def __init__(self, accessor: ProtocolFsm, server: ProtocolFsm):
        self.accessor = accessor
        self.server = server
        self._successors: Dict[ProductState,
                               List[Tuple[Move, ProductState]]] = {}

    # The FSMs are indexed on first use: a channel whose proofs are
    # all shared (:data:`PROOFS`) never needs its guards parsed.

    @cached_property
    def a(self) -> _FsmIndex:
        return _FsmIndex(self.accessor)

    @cached_property
    def s(self) -> _FsmIndex:
        return _FsmIndex(self.server)

    @cached_property
    def proof_key(self) -> str:
        """:func:`proof_key` of the pair, computed once."""
        return proof_key(self.accessor, self.server)

    # -- state helpers ------------------------------------------------------

    @staticmethod
    def _apply(lines: Dict[str, int], id_code: Optional[str],
               effects: StateEffects) -> Optional[str]:
        """Drive ``effects`` onto ``lines`` in place; the new ID code."""
        lines.update(effects.drives)
        return id_code if effects.id_code is None else effects.id_code

    def _initial(self) -> ProductState:
        a0, s0 = self.a.initial, self.s.initial
        lines: Dict[str, int] = {}
        id_code = self._apply(lines, None, self.a.effects[a0])
        id_code = self._apply(lines, id_code, self.s.effects[s0])
        return (a0, s0, frozenset(lines.items()), id_code)

    def is_rest(self, state: ProductState) -> bool:
        return state[0] == self.a.initial and state[1] == self.s.initial

    def _satisfied(self, guard: Guard, lines: Dict[str, int],
                   id_code: Optional[str]) -> bool:
        """Level/ID atoms only; strobes are handled by synchronization
        and ``invoke`` by :meth:`_moves` (transaction gating)."""
        for line, value in guard.levels:
            if lines.get(line, 0) != value:
                return False
        if guard.id_code is not None and id_code != guard.id_code:
            return False
        return True

    # -- moves --------------------------------------------------------------

    def _moves(self, state: ProductState) -> List[Move]:
        a_state, s_state, frozen, id_code = state
        lines = dict(frozen)
        moves: List[Move] = []

        emitted = self.a.effects[a_state].strobes
        server_resting = s_state == self.s.initial
        s_out = self.s.out.get(s_state, ())
        for t_a, guard_a in self.a.out.get(a_state, ()):
            if guard_a.strobes or not self._satisfied(guard_a, lines,
                                                      id_code):
                continue
            if guard_a.invoke and not server_resting:
                # The bus arbiter serializes messages: a new invocation
                # only starts once the peer has returned to rest.
                continue
            # Forced synchronization with strobe-waiting server moves.
            syncs = []
            if emitted:
                for t_s, guard_s in s_out:
                    if not guard_s.strobes:
                        continue
                    if not set(guard_s.strobes) <= set(emitted):
                        continue
                    if self._satisfied(guard_s, lines, id_code):
                        syncs.append(t_s)
            if syncs:
                moves.extend((t_a, t_s) for t_s in syncs)
            else:
                moves.append((t_a, None))

        for t_s, guard_s in s_out:
            if guard_s.strobes:
                continue  # only fires through synchronization
            if self._satisfied(guard_s, lines, id_code):
                moves.append((None, t_s))
        return moves

    def _fire(self, state: ProductState, move: Move) -> ProductState:
        a_state, s_state, frozen, id_code = state
        lines = dict(frozen)
        t_a, t_s = move
        if t_a is not None:
            a_state = t_a.target
            id_code = self._apply(lines, id_code, self.a.effects[a_state])
        if t_s is not None:
            s_state = t_s.target
            id_code = self._apply(lines, id_code, self.s.effects[s_state])
        return (a_state, s_state, frozenset(lines.items()), id_code)

    def successors(self, state: ProductState,
                   ) -> List[Tuple[Move, ProductState]]:
        """``[(move, target)]`` of ``state``, computed on first use."""
        cached = self._successors.get(state)
        if cached is None:
            cached = [(move, self._fire(state, move))
                      for move in self._moves(state)]
            self._successors[state] = cached
        return cached

    # -- exploration --------------------------------------------------------

    def explore(self) -> ProductResult:
        result = ProductResult(self.accessor, self.server)
        initial = self._initial()
        frontier = [initial]
        result.reachable.add(initial)

        while frontier:
            state = frontier.pop()
            successors = self.successors(state)
            for _, target in successors:
                if target not in result.reachable:
                    if len(result.reachable) >= MAX_PRODUCT_STATES:
                        raise AnalysisError(
                            f"product automaton of {self.accessor.name} x "
                            f"{self.server.name} exceeds "
                            f"{MAX_PRODUCT_STATES} states")
                    result.reachable.add(target)
                    frontier.append(target)
            if not successors and not self.is_rest(state):
                result.deadlocks.append(state)

        self._find_livelocks(result)
        self._find_unvisited(result)
        return result

    def _find_livelocks(self, result: ProductResult) -> None:
        """States that can never again reach a rest (both-idle) state."""
        edges = {state: [target for _, target in self._successors[state]]
                 for state in result.reachable}
        # Seed with deadlock states too: a path doomed to deadlock is
        # already reported as P101, not a second time as livelock.
        seeds = [s for s in result.reachable if self.is_rest(s)]
        alive = co_reachable(edges, seeds + result.deadlocks)
        result.livelocked = sorted(
            (state for state in result.reachable if state not in alive),
            key=lambda s: (s[0], s[1]))

    def _find_unvisited(self, result: ProductResult) -> None:
        """P103/P104 from the plain-reachable states' moves only: the
        temporal checker also caches states outside the plain product."""
        seen_a = {state[0] for state in result.reachable}
        seen_s = {state[1] for state in result.reachable}
        fired = {id(transition)
                 for state in result.reachable
                 for move, _ in self._successors[state]
                 for transition in move if transition is not None}
        result.unreachable_accessor = sorted(
            s.name for s in self.accessor.states if s.name not in seen_a)
        result.unreachable_server = sorted(
            s.name for s in self.server.states if s.name not in seen_s)
        for side, fsm, seen in (("accessor", self.accessor, seen_a),
                                ("server", self.server, seen_s)):
            for transition in fsm.transitions:
                if id(transition) in fired:
                    continue
                if transition.source in seen:
                    result.never_fired.append((side, transition))


def co_reachable(edges: Dict[Any, List[Any]], seeds: List[Any]) -> Set[Any]:
    """Nodes of the graph ``edges`` from which some seed is reachable
    (every edge target must be a node)."""
    reverse: Dict[Any, List[Any]] = {node: [] for node in edges}
    for source, targets in edges.items():
        for target in targets:
            reverse[target].append(source)
    found = set(seeds)
    stack = list(found)
    while stack:
        for predecessor in reverse[stack.pop()]:
            if predecessor not in found:
                found.add(predecessor)
                stack.append(predecessor)
    return found


def product_model(accessor: ProtocolFsm, server: ProtocolFsm) -> _Explorer:
    """The controller model of one (hand-built or synthesized) pair."""
    return _Explorer(accessor, server)


def explore_product(accessor: ProtocolFsm,
                    server: ProtocolFsm) -> ProductResult:
    """Build and explore the product automaton of one channel pair."""
    return product_model(accessor, server).explore()


# ---------------------------------------------------------------------------
# Shared proofs
# ---------------------------------------------------------------------------

def proof_key(accessor: ProtocolFsm, server: ProtocolFsm) -> str:
    """What the P1xx and P7xx proofs of one controller pair depend on.

    Both FSMs' states (name, initial/final flags, actions), their
    transitions (source, target, guard, ``is_retry``) and their
    ``protocol_name``, in order.  ID bit strings are renamed
    consistently across the pair, in order of first appearance: the
    product only ever compares two codes for equality, so pairs that
    differ by a one-to-one renaming of their codes explore alike.  The
    FSM, channel and bus names are left out; they only appear in the
    messages of refuted outcomes, which are never shared.  The renaming
    reads ID atoms exactly as :func:`parse_guard` and
    :func:`parse_actions` do.
    """
    codes: Dict[str, str] = {}

    def renamed(code: str) -> str:
        return codes.setdefault(code.strip('"'), f"#{len(codes)}")

    def guard_key(guard: Optional[str]) -> Optional[str]:
        if guard is None or ID_GUARD not in guard:
            return guard
        atoms = guard.split(" and ")
        for k, raw in enumerate(atoms):
            atom = raw.strip()
            if atom.startswith(ID_GUARD):
                atoms[k] = ID_GUARD + renamed(atom[len(ID_GUARD):])
        return " and ".join(atoms)

    def action_key(action: str) -> str:
        if action.startswith(ID_DRIVE):
            return ID_DRIVE + renamed(action[len(ID_DRIVE):])
        return action

    def fsm_key(fsm: ProtocolFsm) -> Tuple:
        return (tuple([(state.name, state.is_initial, state.is_final,
                        tuple([action_key(a) for a in state.actions]))
                       for state in fsm.states]),
                tuple([(t.source, t.target, guard_key(t.guard), t.is_retry)
                       for t in fsm.transitions]),
                fsm.protocol_name)

    # One string, not the tuples: its hash is computed once, and a
    # table of keys holds no per-state objects.
    return repr((fsm_key(accessor), fsm_key(server)))


class ProofKeyer:
    """The proof-table key of each pass's proof of one channel."""

    def handshake(self, model: _Explorer) -> Hashable:
        """P1xx: the exploration depends on the pair alone."""
        return ("handshake", model.proof_key)

    def temporal(self, model: _Explorer, plan: Optional[ProtectionPlan],
                 protocol: Protocol, words: int) -> Hashable:
        """P7xx: the counter abstraction also reads the whole
        protection plan, and the proven clock bound the protocol and
        the message's word count."""
        return ("temporal", model.proof_key, plan, protocol, words)


#: Distinct clean proofs one :class:`ProofTable` keeps.
PROOF_TABLE_LIMIT = 1024

_Result = TypeVar("_Result")


class ProofTable:
    """Clean channel proofs, shared across channels with equal keys."""

    def __init__(self, keyer: Optional[ProofKeyer] = None,
                 limit: int = PROOF_TABLE_LIMIT):
        self.keyer = keyer if keyer is not None else ProofKeyer()
        self.clean = FifoTable(limit)

    def prove(self, key: Hashable, derive: Callable[[], _Result],
              keep: Callable[[_Result], Any],
              render: Callable[[Any], _Result]) -> _Result:
        """``render`` of the clean proof kept under ``key``, else
        ``derive()``.  A derived outcome is kept as ``keep(outcome)``,
        which is None for anything but a clean outcome: refutations
        and unknowns are always re-derived, so every diagnostic and
        witness comes from an exploration of its own channel."""
        shared = self.clean.get(key)
        if shared is not None:
            return render(shared)
        outcome = derive()
        kept = keep(outcome)
        if kept is not None:
            self.clean.put(key, kept)
        return outcome

    def product(self, model: _Explorer) -> ProductResult:
        """The explored product of ``model``.  A shared clean result
        is rendered for this pair with no reachable states: nothing
        reads them but the reports of defects, and it has none."""
        return self.prove(
            self.keyer.handshake(model), model.explore,
            keep=lambda result: True if result.ok else None,
            render=lambda _: ProductResult(model.accessor, model.server))


#: The process-wide proof table of the handshake and temporal passes.
PROOFS = ProofTable()


# ---------------------------------------------------------------------------
# One controller model per channel
# ---------------------------------------------------------------------------

#: ``RefinedSpec.analysis_memo`` key of the per-channel models.
_MODELS_KEY = "controller_models"

ChannelModels = Dict[Tuple[str, str], _Explorer]


def channel_models(spec: RefinedSpec) -> ChannelModels:
    """``{(bus, channel): model}`` for every channel of ``spec``,
    memoized on the spec."""
    return spec.memoized(_MODELS_KEY, lambda: _synthesize_models(spec))


def with_fsm_transform(spec: RefinedSpec,
                       fsm_transform: Optional[FsmTransform],
                       ) -> RefinedSpec:
    """``spec`` itself when ``fsm_transform`` is None, else a memo-less
    copy whose channel models hold the transformed controllers (they
    are not ``spec``'s design, so its memo is left alone)."""
    if fsm_transform is None:
        return spec
    copy = replace(spec)
    copy.analysis_memo[_MODELS_KEY] = _synthesize_models(copy,
                                                         fsm_transform)
    return copy


def _synthesize_models(spec: RefinedSpec,
                       fsm_transform: Optional[FsmTransform] = None,
                       ) -> ChannelModels:
    models: ChannelModels = {}
    for bus in spec.buses:
        for channel in bus.group:
            if fsm_transform is None:
                accessor, server = channel_controllers(spec, bus.name,
                                                       channel.name)
            else:
                pair = bus.procedures[channel.name]
                accessor = fsm_transform(synthesize_fsm(pair.accessor,
                                                        bus.structure))
                server = fsm_transform(synthesize_fsm(pair.server,
                                                      bus.structure))
            models[(bus.name, channel.name)] = product_model(accessor,
                                                             server)
    return models

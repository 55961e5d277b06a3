"""Counter-extended product graph: the model checker's Kripke structure.

The product automaton of :mod:`repro.analysis.product` answers
reachability questions, but the protected controllers of PR 5 contain
*legitimate* in-flight cycles: the RETRY / VERIFY retransmission loops.
Naive cycle detection would refute liveness for every protected design.

The classic fix is a **finite counter abstraction**: extend each
product state with a retry counter ``k`` and let the protection plan's
budget ``B = ceil(max_retries / retry_step)`` guard the retransmission
back-edges (the :attr:`~repro.protogen.fsm.FsmTransition.is_retry`
marks placed by FSM synthesis).  A retry edge fires normally while
``k < B`` and increments ``k``; once the budget is exhausted the
controller gives up and returns to rest, exactly like the simulator's
protected accessor raising after its last attempt.  Reaching the rest
state resets ``k``.  Under this abstraction every *budgeted* retry loop
unrolls into an acyclic ladder, so any in-flight cycle that survives in
the extended graph is a genuine temporal violation.

Edges that re-enter the attempt-start state (the target of the
``invoke`` transition) from an in-flight state are *retry-shaped* even
when unmarked; a retry-shaped edge with no plan to budget it means the
abstraction cannot bound the loop at all (P705).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.product import (
    MAX_PRODUCT_STATES,
    ProductState,
    _Explorer,
    _FsmIndex,
    describe_state,
    product_model,
)
from repro.errors import AnalysisError
from repro.protocols import ProtectionPlan
from repro.protogen.fsm import FsmTransition, ProtocolFsm

#: Hard cap on the retry counter: a budget beyond this would blow the
#: extended state space up instead of abstracting it (P705).
COUNTER_CAP = 64

#: An extended state: (base product state, retry counter).
XState = Tuple[ProductState, int]


# ---------------------------------------------------------------------------
# Retry structure
# ---------------------------------------------------------------------------

def attempt_starts(fsm: ProtocolFsm) -> FrozenSet[str]:
    """Targets of the environment's ``invoke`` transitions: the states
    where a fresh message attempt begins (W0_REQ / W0 / GRANT)."""
    return _FsmIndex(fsm).attempt_starts


def retry_budget(plan: Optional[ProtectionPlan]) -> Optional[int]:
    """Finite retry budget, or None when no finite bound exists."""
    if plan is None or plan.retry_step < 1:
        return None
    return -(-plan.max_retries // plan.retry_step)


# ---------------------------------------------------------------------------
# The extended graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeLabel:
    """Who moved on one product edge, and whether it was a retry."""

    accessor: Optional[FsmTransition]
    server: Optional[FsmTransition]
    #: True when the accessor edge is a (marked or retry-shaped)
    #: retransmission back-edge that fired un-redirected.
    retry: bool = False

    @property
    def sides(self) -> FrozenSet[str]:
        moved = set()
        if self.accessor is not None:
            moved.add("accessor")
        if self.server is not None:
            moved.add("server")
        return frozenset(moved)


@dataclass
class TemporalGraph:
    """The explored counter-extended product graph of one channel."""

    #: The pair's controller model, whose cached moves the graph unrolls.
    model: _Explorer
    plan: Optional[ProtectionPlan]
    budget: Optional[int]
    #: Reason the counter abstraction could not be built, or None.
    abstraction_failure: Optional[str]
    #: True when the accessor has marked or retry-shaped back-edges.
    has_retry: bool = False
    initial: XState = None  # type: ignore[assignment]
    states: List[XState] = field(default_factory=list)
    edges: Dict[XState, List[Tuple[XState, EdgeLabel]]] = \
        field(default_factory=dict)
    #: BFS tree: state -> (parent state, edge label), None at the root.
    parents: Dict[XState, Optional[Tuple[XState, EdgeLabel]]] = \
        field(default_factory=dict)

    def is_rest(self, xstate: XState) -> bool:
        return self.model.is_rest(xstate[0])

    def path_to(self, xstate: XState) -> List[EdgeLabel]:
        """Edge labels along the BFS tree from the initial state."""
        labels: List[EdgeLabel] = []
        cursor = xstate
        while True:
            parent = self.parents[cursor]
            if parent is None:
                break
            cursor, label = parent
            labels.append(label)
        labels.reverse()
        return labels

    def describe_state(self, xstate: XState) -> str:
        base, k = xstate
        text = describe_state(base)
        if k:
            text += f", retries={k}"
        return text


def build_temporal_graph(accessor: ProtocolFsm, server: ProtocolFsm,
                         plan: Optional[ProtectionPlan] = None,
                         model: Optional[_Explorer] = None,
                         ) -> TemporalGraph:
    """BFS the counter-extended product graph of one channel pair,
    unrolling the cached moves of its controller ``model`` (a fresh
    one for hand-built pairs)."""
    if model is None:
        model = product_model(accessor, server)
    a_rest = model.a.initial
    starts = model.a.attempt_starts
    # Retry-shaped edges: in-flight back-edges into an attempt-start
    # state, re-entering the word cycle without passing through rest
    # -- the structural signature of a retransmission loop, whether or
    # not synthesis marked them ``is_retry``.
    shaped = {(t.source, t.target, t.guard) for t in accessor.transitions
              if t.target in starts and t.source != a_rest}
    marked = any(t.is_retry for t in accessor.transitions)
    has_retry = marked or bool(shaped)

    budget = retry_budget(plan)
    failure: Optional[str] = None
    if has_retry and plan is None:
        failure = ("controller has retransmission back-edges but the bus "
                   "carries no protection plan to budget them")
    elif budget is not None and budget > COUNTER_CAP:
        failure = (f"retry budget {budget} exceeds the counter "
                   f"abstraction cap ({COUNTER_CAP})")
        budget = None

    graph = TemporalGraph(model=model, plan=plan, budget=budget,
                          abstraction_failure=failure, has_retry=has_retry)
    initial: XState = (model._initial(), 0)
    graph.initial = initial
    graph.states.append(initial)
    graph.parents[initial] = None
    seen = {initial}
    frontier = deque([initial])
    cap = MAX_PRODUCT_STATES

    while frontier:
        xstate = frontier.popleft()
        base, counter = xstate
        out: List[Tuple[XState, EdgeLabel]] = []
        for (t_a, t_s), plain_target in model.successors(base):
            # Only *marked* retry edges consume budget: synthesis
            # guarantees the mark, and a retry-shaped edge that lost it
            # bypasses the counter -- exactly the defect P702 reports.
            consumes = t_a is not None and t_a.is_retry
            is_retry_edge = consumes or (
                t_a is not None
                and (t_a.source, t_a.target, t_a.guard) in shaped)
            redirect = False
            next_counter = counter
            if consumes and budget is not None:
                if counter < budget:
                    next_counter = counter + 1
                else:
                    # Budget exhausted: the controller gives up and
                    # returns to rest (the simulator raises here).
                    redirect = True
                    next_counter = 0
            if redirect:
                # Give-up targets can lie outside the plain product.
                fired_a = replace(t_a, target=a_rest)
                next_base = model._fire(base, (fired_a, t_s))
            else:
                fired_a, next_base = t_a, plain_target
            if model.is_rest(next_base):
                next_counter = 0
            target: XState = (next_base, next_counter)
            # Witness steps record the transition that actually fired:
            # on give-up redirects that is the rest-bound edge, so a
            # replay can follow the schedule literally.
            label = EdgeLabel(accessor=fired_a, server=t_s,
                              retry=is_retry_edge and not redirect)
            out.append((target, label))
            if target not in seen:
                if len(seen) >= cap:
                    raise AnalysisError(
                        f"temporal graph of {accessor.name} x "
                        f"{server.name} exceeds {cap} states")
                seen.add(target)
                graph.states.append(target)
                graph.parents[target] = (xstate, label)
                frontier.append(target)
        graph.edges[xstate] = out
    return graph

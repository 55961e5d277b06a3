"""Handshake deadlock / livelock detection (P1xx).

For every channel of every generated bus, explore the product
automaton of the channel's controller model
(:func:`~repro.analysis.product.channel_models`: the accessor/server
pair synthesized once per spec, whose explored product the temporal
checker shares).  A pair whose :func:`~repro.analysis.product.proof_key`
already proved clean in this process is not explored again
(:data:`~repro.analysis.product.PROOFS`): it has nothing to report.
Four defect classes fall out of the exploration:

* **P101 deadlock** -- a reachable product state offers no move: each
  side waits on a line level the other will never produce (the classic
  dropped-DONE or crossed-polarity handshake bug).
* **P102 livelock** -- every move stays enabled but the pair can never
  return to its rest state, so the transfer never *completes* (e.g. a
  final transition looping back into the word cycle).
* **P103 unreachable state** -- an FSM state no interleaving visits.
* **P104 dead guard** -- a transition whose guard no peer behavior can
  ever satisfy although its source state is visited (e.g. a server
  keyed to an ID code the accessor never drives).
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.analysis.product import (
    PROOFS,
    ProductResult,
    channel_models,
    describe_state,
    explore_product,
)
from repro.protogen.fsm import ProtocolFsm
from repro.protogen.refine import RefinedSpec


def check_handshakes(spec: RefinedSpec, diagnostics: DiagnosticSet) -> None:
    """Run the product-automaton pass over every channel of the spec."""
    for (bus_name, channel_name), model in channel_models(spec).items():
        _report(bus_name, channel_name, PROOFS.product(model), diagnostics)


def check_fsm_pair(accessor: ProtocolFsm, server: ProtocolFsm,
                   diagnostics: DiagnosticSet,
                   bus_name: str = "?",
                   channel_name: str = "?") -> ProductResult:
    """Analyze one pre-synthesized controller pair directly."""
    result = explore_product(accessor, server)
    _report(bus_name, channel_name, result, diagnostics)
    return result


def _report(bus_name: str, channel_name: str, result: ProductResult,
            diagnostics: DiagnosticSet) -> None:
    location = SourceLocation("channel", channel_name,
                              detail=f"bus {bus_name}")
    if result.deadlocks:
        state = result.deadlocks[0]
        diagnostics.add(
            "P101", Severity.ERROR,
            f"handshake deadlock between {result.accessor.name} and "
            f"{result.server.name}: no transition enabled at "
            f"{describe_state(state)}"
            + (f" (+{len(result.deadlocks) - 1} more state(s))"
               if len(result.deadlocks) > 1 else ""),
            location,
            hint="check that each wait guard has a peer state driving "
                 "the awaited level",
        )
    if result.livelocked:
        state = result.livelocked[0]
        diagnostics.add(
            "P102", Severity.ERROR,
            f"livelock: {len(result.livelocked)} reachable state(s) of "
            f"{result.accessor.name} x {result.server.name} can never "
            f"return to rest, e.g. {describe_state(state)}",
            location,
            hint="the controllers cycle without reaching their "
                 "initial/final states again",
        )
    for side, names in (("accessor", result.unreachable_accessor),
                        ("server", result.unreachable_server)):
        if not names:
            continue
        fsm = result.accessor if side == "accessor" else result.server
        diagnostics.add(
            "P103", Severity.ERROR,
            f"{side} FSM {fsm.name}: state(s) {', '.join(names)} "
            "unreachable in any sender/receiver interleaving",
            location,
        )
    for side, transition in result.never_fired:
        fsm = result.accessor if side == "accessor" else result.server
        diagnostics.add(
            "P104", Severity.ERROR,
            f"{side} FSM {fsm.name}: guard {transition.label()!r} on "
            f"{transition.source} -> {transition.target} is never "
            "satisfiable by the peer",
            location,
            hint="the peer never drives the awaited level/ID while "
                 "this state is occupied",
        )

"""Exception hierarchy for the interface-synthesis library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the package
layout: specification problems, partitioning problems, bus-generation
problems, protocol-generation problems, HDL emission problems, static
analysis problems and simulation problems.

This module is also the single registry of static-analysis diagnostic
codes (``P101`` ...): every code the :mod:`repro.analysis` passes may
emit is declared in :data:`DIAGNOSTIC_CODES`, which keeps codes unique
and documented in one place (``docs/linting.md`` is generated-by-hand
from the same table).
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecError(ReproError):
    """A system specification is malformed or violates a model rule."""


class TypeSpecError(SpecError):
    """A data type is constructed with invalid parameters."""


class ExprError(SpecError):
    """An expression is malformed or cannot be evaluated."""


class StmtError(SpecError):
    """A statement is malformed (e.g. non-constant loop bounds where
    static trip counts are required)."""


class InterpError(SpecError):
    """The reference interpreter hit an unexecutable construct."""


class PartitionError(ReproError):
    """A partition is inconsistent (unassigned objects, empty modules,
    contradictory assignments)."""


class ChannelError(ReproError):
    """A channel or channel group is malformed."""


class EstimationError(ReproError):
    """The performance estimator cannot produce an estimate."""


class BusGenError(ReproError):
    """Bus generation failed."""


class InfeasibleBusError(BusGenError):
    """No buswidth in the examined range satisfies Equation 1.

    The paper (Section 3, step 5) prescribes splitting the channel group
    into more than one bus in this situation; see
    :mod:`repro.busgen.split`.
    """

    def __init__(self, message: str, demand: float = 0.0, best_rate: float = 0.0):
        super().__init__(message)
        #: Sum of channel average rates at the widest examined width.
        self.demand = demand
        #: Best achievable bus rate over the examined range.
        self.best_rate = best_rate


class ConstraintError(BusGenError):
    """A bus constraint is malformed (unknown kind, negative weight...)."""


class ProtocolError(ReproError):
    """Protocol generation failed or a protocol is used out of spec."""


class IdAssignmentError(ProtocolError):
    """Channel ID assignment failed (duplicate codes, width overflow)."""


class RefinementError(ProtocolError):
    """Specification refinement (steps 4-5 of protocol generation)
    failed."""


class HdlError(ReproError):
    """HDL emission produced (or was asked to validate) malformed code."""


class SimulationError(ReproError):
    """The discrete-event simulation failed."""


class DeadlockError(SimulationError):
    """All processes are blocked and no events remain."""


class ArbitrationError(SimulationError):
    """A bus-access conflict could not be resolved by the configured
    arbiter."""


class AnalysisError(ReproError):
    """A static-analysis pass was misused (unknown diagnostic code,
    malformed pass input).  Findings about the *design under analysis*
    are never raised -- they are reported as
    :class:`repro.analysis.diagnostics.Diagnostic` objects."""


class ExploreError(ReproError):
    """The design-space exploration service was misused (bad grid
    axis, unloadable system, dead worker pool) or its result cache is
    in a state it refuses to silently paper over."""


#: Registry of every diagnostic code the static analyzer may emit.
#: Families: P1xx handshake deadlock/livelock, P2xx bus contention,
#: P3xx width/capacity, P4xx dead code, P5xx value-flow (abstract
#: interpretation), P6xx fault-tolerance (protection plans), P7xx
#: temporal verification (fair-liveness, retry bounds, drive races),
#: P8xx translation validation (compiled-backend equivalence proofs).
#: Codes are stable: once published they are never renumbered or
#: reused.
DIAGNOSTIC_CODES: Dict[str, str] = {
    "P101": "handshake deadlock: sender/receiver product automaton "
            "reaches a state with no enabled transition",
    "P102": "livelock: a reachable product state can never return to "
            "the idle (rest) state, so the transfer never completes",
    "P103": "FSM state unreachable in any sender/receiver interleaving",
    "P104": "transition guard never satisfiable by any peer behavior",
    "P201": "bus contention: multiple accessors share a bus whose "
            "protocol has no arbitration (no handshake/request line)",
    "P202": "shared-variable access bypasses the generated "
            "variable-process server",
    "P203": "multiple variable processes drive the same variable "
            "storage",
    "P204": "duplicate channel ID code: two channels answer the same "
            "bus transaction",
    "P301": "width truncation: message field narrower or wider than "
            "the variable it carries",
    "P302": "ID field capacity: ID lines cannot encode every channel "
            "of the bus",
    "P303": "slice coverage: message bits not covered exactly once by "
            "the bus words",
    "P304": "bus narrower than a non-shareable protocol's full "
            "message width",
    "P401": "dead channel: zero accesses over the accessor's lifetime",
    "P402": "unused shared variable: referenced by no behavior and "
            "served by no variable process",
    "P403": "constant bus data line: driven by no word of any channel",
    "P404": "generated procedure never called by the refined behaviors",
    "P501": "proven range overflow: an expression's inferred value "
            "interval cannot fit the assignment target's declared type",
    "P502": "statically unsatisfiable guard: a branch or loop condition "
            "is proven constant, leaving a dead body or dead else arm",
    "P503": "unbounded loop feeding a channel: no finite trip-count "
            "bound could be proven for a loop performing bus transfers",
    "P504": "division or mod by zero: the divisor's inferred value "
            "interval contains zero",
    "P505": "statically proven rate-bound violation: the proven minimum "
            "channel demand exceeds the bus data rate (Equation 1 "
            "cannot hold)",
    "P601": "protection check field missing or mis-sized: a protected "
            "bus message layout does not carry the plan's check bits",
    "P602": "retry budget never shrinks: the protection plan's retry "
            "step is below 1, so a persistent fault loops forever",
    "P603": "NACK line collision: the protection plan's NACK line "
            "shadows a protocol control line of the same bus",
    "P604": "timeout too short: the protection plan's timeout cannot "
            "cover even a single handshake phase",
    "P701": "temporal response violation: an asserted request is never "
            "acknowledged along some fair schedule, or data is "
            "committed while the NACK line is asserted",
    "P702": "unbounded retry: a retransmission loop re-enters the word "
            "cycle without consuming retry budget, so no clock bound "
            "on message delivery exists",
    "P703": "signal drive race: two processes can drive the same "
            "control or data line in overlapping reachable windows",
    "P704": "unfair starvation: a transfer only completes because of "
            "the fairness assumption -- one side can be scheduled "
            "forever while the other stays enabled but never runs",
    "P705": "retry/timeout abstraction failure: the controller has "
            "retry-shaped loops no protection plan bounds, so the "
            "finite counter abstraction cannot prove termination",
    "P706": "shared-proof mismatch: a channel proof served from the "
            "process-wide proof table differs from a fresh proof of "
            "the same channel",
    "P801": "clock-count divergence: the compiled process's batched "
            "clock accumulation does not telescope to the "
            "interpreter's per-statement wait sum",
    "P802": "effect reorder across a contested access: a compiled "
            "read/write of a contested variable can run at a stale "
            "simulated clock (no flush proof) or an effect is missing "
            "or out of order",
    "P803": "unsound wrap elision: generated code omits a dtype wrap "
            "whose value-range certificate does not cover every "
            "iterate or assigned value",
    "P804": "fused-transfer timing mismatch: a deferred-arbitration "
            "transfer does not reproduce the virtual-grant clock "
            "formula (pending clocks not forwarded or not consumed)",
    "P805": "unproven fallback-eligibility: generated code contains a "
            "construct outside the validated trace algebra, so "
            "equivalence with the interpreter cannot be proven",
    "P806": "expression lowering not value-preserving: a lowered "
            "expression diverges from the interpreter's evaluation "
            "(mis-folded constant, short-circuit change, wrong "
            "operator contract)",
}


def diagnostic_summary(code: str) -> str:
    """The registered one-line summary of a diagnostic code."""
    try:
        return DIAGNOSTIC_CODES[code]
    except KeyError:
        raise AnalysisError(
            f"unknown diagnostic code {code!r}; register it in "
            "repro.errors.DIAGNOSTIC_CODES"
        ) from None

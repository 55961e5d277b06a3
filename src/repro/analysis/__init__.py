"""Static protocol analysis (linting) over refined designs.

This package checks a :class:`~repro.protogen.refine.RefinedSpec`
*without simulating it*: handshake deadlock/livelock via product
automata (P1xx), bus contention and multi-driver hazards (P2xx), width
and capacity arithmetic (P3xx), and dead-code warnings (P4xx).  The
error-code registry lives in :data:`repro.errors.DIAGNOSTIC_CODES`;
``docs/linting.md`` documents every code with a triggering example.

Distinct from :mod:`repro.sim.analysis`, which post-processes
*simulation traces*; this package never runs the design.
"""

from repro.analysis.contention import check_contention
from repro.analysis.deadcode import check_dead_code
from repro.analysis.deadlock import check_fsm_pair, check_handshakes
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.analysis.mc import (
    PropertyVerdict,
    VerificationReport,
    Witness,
    check_temporal,
    verify_refined,
)
from repro.analysis.product import (
    FsmTransform,
    ProductResult,
    explore_product,
)
from repro.analysis.runner import PASSES, analyze_refined
from repro.analysis.width import check_widths

__all__ = [
    "Diagnostic",
    "DiagnosticSet",
    "FsmTransform",
    "PASSES",
    "ProductResult",
    "PropertyVerdict",
    "Severity",
    "SourceLocation",
    "VerificationReport",
    "Witness",
    "analyze_refined",
    "check_contention",
    "check_dead_code",
    "check_fsm_pair",
    "check_handshakes",
    "check_temporal",
    "check_widths",
    "explore_product",
    "verify_refined",
]

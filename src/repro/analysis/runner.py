"""Entry point tying the static passes together.

:func:`analyze_refined` runs every registered pass over a
:class:`~repro.protogen.refine.RefinedSpec` and returns the combined
:class:`~repro.analysis.diagnostics.DiagnosticSet`.  Passes are pure
readers: none of them simulates, and none of them mutates the spec.

The abstract-interpretation pass runs first.  Its result is memoized
on the spec, so the width pass (proven P301 truncation instead of
declared-size pattern matching), the P505 rate check and the temporal
pass's drive windows share one analysis, and a later ``verify`` of the
spec reuses the temporal pass's report.  After all passes, identical
(code, location) findings are deduplicated -- first report wins -- and
JSON output is emitted in a stable sort order.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.analysis.absint.passes import check_value_flow
from repro.analysis.contention import check_contention
from repro.analysis.deadcode import check_dead_code
from repro.analysis.deadlock import check_handshakes
from repro.analysis.diagnostics import DiagnosticSet
from repro.analysis.mc.passes import check_temporal
from repro.analysis.protection import check_protection
from repro.analysis.width import check_widths
from repro.obs.tracer import span as obs_span
from repro.protogen.refine import RefinedSpec

Pass = Callable[[RefinedSpec, DiagnosticSet], None]

#: (name, pass) pairs in execution order.  The value-flow pass leads;
#: the remaining cheap arithmetic passes run before the
#: product-automaton exploration so a broken structure is reported even
#: when FSM synthesis itself would choke.
PASSES: List[Tuple[str, Pass]] = [
    ("absint", check_value_flow),
    ("width", check_widths),
    ("contention", check_contention),
    ("protection", check_protection),
    ("deadcode", check_dead_code),
    ("handshake", check_handshakes),
    ("temporal", check_temporal),
]


def analyze_refined(spec: RefinedSpec) -> DiagnosticSet:
    """Run all static passes over ``spec``."""
    diagnostics = DiagnosticSet(system=spec.name)
    with obs_span("analysis.analyze_refined", system=spec.name) as sp:
        for name, check in PASSES:
            with obs_span(f"analysis.pass.{name}", system=spec.name):
                check(spec, diagnostics)
        deduped = diagnostics.dedupe()
        sp.set(diagnostics=len(diagnostics), deduplicated=deduped)
    return diagnostics

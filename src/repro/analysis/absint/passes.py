"""Value-flow diagnostics (P5xx) from the abstract-interpretation engine.

Maps the engine's raw findings onto the standard diagnostics plumbing:

* **P501** range overflow (ERROR) -- an assigned expression's proven
  value interval is *disjoint* from the target's declared type range,
  so the stored value wraps on every execution.  A merely-overlapping
  interval is not reported: wrapping is then possible but unproven
  (must-analysis, no false positives on the clean systems).
* **P502** unsatisfiable guard (WARNING) -- a branch condition proven
  constant with a non-empty dead arm, or a loop proven to never run.
  A constant-*true* ``While`` is deliberately exempt: behaviors that
  conceptually run forever wrap their body in ``While(1)``.
* **P503** unbounded channel loop (WARNING) -- no finite trip bound
  was proven for a loop that performs bus transfers, making static
  rate bounds infinite.
* **P504** division by zero (ERROR when the divisor is proven zero,
  WARNING when zero merely lies inside its interval).
* **P505** proven rate-bound violation (ERROR) -- the *minimum* proven
  channel demand of a bus already exceeds its data rate, so Equation 1
  cannot hold under any execution consistent with the spec.
"""

from __future__ import annotations

from repro.analysis.absint.engine import analyze_refined_values
from repro.analysis.absint.rates import (
    StaticRateModel,
    refined_channel_bounds,
)
from repro.analysis.diagnostics import (
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.protogen.refine import RefinedSpec

#: Relative tolerance when comparing proven demand to the bus rate, so
#: exact-equality designs (demand == rate) stay feasible.
_RATE_SLACK = 1e-9

_HINTS = {
    "overflow": "widen the target's declared type or clamp the "
                "expression before assigning",
    "dead_guard": "delete the dead arm or fix the condition",
    "unbounded_loop": "bound the loop (constant trip count or a "
                      "provable counter) so channel rates are finite",
    "div_by_zero": "guard the division with a non-zero check the "
                   "analyzer can see (e.g. If divisor > 0)",
}


def check_value_flow(spec: RefinedSpec, diagnostics: DiagnosticSet) -> None:
    """Report P5xx diagnostics for one refined spec."""
    for finding in analyze_refined_values(spec).findings:
        location = SourceLocation("behavior", finding.behavior)
        if finding.kind == "overflow":
            diagnostics.add("P501", Severity.ERROR, finding.message,
                            location, hint=_HINTS["overflow"])
        elif finding.kind == "dead_guard":
            diagnostics.add("P502", Severity.WARNING, finding.message,
                            location, hint=_HINTS["dead_guard"])
        elif finding.kind == "unbounded_loop":
            diagnostics.add("P503", Severity.WARNING, finding.message,
                            location, hint=_HINTS["unbounded_loop"])
        elif finding.kind == "div_by_zero":
            severity = Severity.ERROR if finding.certain \
                else Severity.WARNING
            diagnostics.add("P504", severity, finding.message,
                            location, hint=_HINTS["div_by_zero"])
    _check_rate_bounds(spec, diagnostics)


def _check_rate_bounds(spec: RefinedSpec, diagnostics: DiagnosticSet) -> None:
    bounds = refined_channel_bounds(spec)
    for bus in spec.buses:
        group_bounds = {channel.name: bounds[channel.name]
                        for channel in bus.group
                        if channel.name in bounds}
        model = StaticRateModel(bus.group, bus.structure.protocol,
                                bounds=group_bounds)
        width = bus.structure.width
        demand_lo, _ = model.demand_bounds(width)
        bus_rate = model.bus_rate_at(width)
        if demand_lo <= bus_rate * (1.0 + _RATE_SLACK):
            continue
        diagnostics.add(
            "P505", Severity.ERROR,
            f"proven minimum demand {demand_lo:.4g} bits/time-unit "
            f"exceeds the bus rate {bus_rate:.4g} at width {width}: "
            "Equation 1 cannot hold for any execution",
            SourceLocation("bus", bus.name, detail=f"width {width}"),
            hint="widen the bus or split the channel group "
                 "(repro.busgen.split)",
        )

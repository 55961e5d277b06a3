"""Abstract interpretation over the spec language.

Interval + congruence domains (:mod:`~repro.analysis.absint.domain`), a
widening/narrowing fixpoint interpreter with loop trip-count bounds
(:mod:`~repro.analysis.absint.engine`), statically proven channel
access-count / bit-volume / rate bounds
(:mod:`~repro.analysis.absint.rates`) and the P5xx diagnostics pass
(:mod:`~repro.analysis.absint.passes`).
"""

from repro.analysis.absint.domain import AbsVal, Congruence, Interval
from repro.analysis.absint.engine import (
    Finding,
    TripBounds,
    ValueAnalysis,
    analyze_behavior,
    analyze_behaviors,
    analyze_refined_values,
)
from repro.analysis.absint.passes import check_value_flow
from repro.analysis.absint.rates import (
    ChannelStaticBounds,
    StaticRateModel,
    refined_channel_bounds,
    static_group_bounds,
)

__all__ = [
    "AbsVal",
    "ChannelStaticBounds",
    "Congruence",
    "Finding",
    "Interval",
    "StaticRateModel",
    "TripBounds",
    "ValueAnalysis",
    "analyze_behavior",
    "analyze_behaviors",
    "analyze_refined_values",
    "check_value_flow",
    "refined_channel_bounds",
    "static_group_bounds",
]

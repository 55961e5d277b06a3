"""The temporal verification pass and the ``verify`` engine.

:func:`verify_refined` runs the full property suite -- response,
retry-termination, race-freedom, starvation-freedom -- over every
channel of a refined spec and returns a
:class:`~repro.analysis.mc.checker.VerificationReport` (what
``repro-synth verify`` prints and the synth flow gates VHDL emission
on).  :func:`check_temporal` adapts the same engine to the lint
runner: refuted/unknown verdicts become P7xx diagnostics.

Reports are memoized on the spec per ``witness_meta``, so lint's
temporal pass and a later ``verify`` of it model-check once, and every
channel is checked on its shared controller model
(:func:`~repro.analysis.product.channel_models`), whose product the
handshake pass explores too.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis.absint import refined_channel_bounds
from repro.analysis.diagnostics import (
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.analysis.mc.checker import (
    PROP_RACE,
    PROVED,
    PropertyVerdict,
    REFUTED,
    VerificationReport,
    check_channel,
)
from repro.analysis.mc.races import bus_window_races
from repro.analysis.product import channel_models
from repro.protogen.refine import RefinedSpec

#: Diagnostic severity per P7xx code.  Starvation is a warning: the
#: transfer still completes on every fair schedule.
SEVERITIES = {
    "P701": Severity.ERROR,
    "P702": Severity.ERROR,
    "P703": Severity.ERROR,
    "P704": Severity.WARNING,
    "P705": Severity.ERROR,
}

HINTS = {
    "P701": "check that every request state has a peer path driving "
            "the acknowledge, and that commits are NACK-guarded",
    "P702": "make the retransmission back-edge consume retry budget "
            "(retry_step >= 1 and an is_retry-marked edge)",
    "P703": "separate the drive windows: distinct ID codes, disjoint "
            "word slices, or an explicit serializer",
    "P704": "the schedule only completes under fair arbitration; add "
            "a handshake so the starved side is forced to move",
    "P705": "retry-shaped loops need a protection plan with a finite "
            "budget for the counter abstraction to bound them",
}


def verify_refined(spec: RefinedSpec,
                   witness_meta: Optional[Dict[str, Any]] = None,
                   ) -> VerificationReport:
    """Model-check every channel of ``spec``; returns all verdicts."""
    key = ("verify", tuple(sorted((witness_meta or {}).items())))
    return spec.memoized(key, lambda: _verify(spec, witness_meta))


def _verify(spec: RefinedSpec,
            witness_meta: Optional[Dict[str, Any]]) -> VerificationReport:
    report = VerificationReport(system=spec.name)
    meta = dict(witness_meta or {})
    models = channel_models(spec)
    for bus in spec.buses:
        meta_bus = dict(meta, width=bus.structure.width)
        for channel in bus.group:
            model = models[(bus.name, channel.name)]
            pair = bus.procedures[channel.name]
            words = len(pair.layout.words(bus.structure.width))
            report.verdicts.extend(check_channel(
                model.accessor, model.server, model=model,
                plan=bus.structure.protection,
                protocol=bus.structure.protocol,
                words=words,
                system=spec.name,
                bus_name=bus.name,
                channel_name=channel.name,
                witness_meta=meta_bus))
        report.verdicts.extend(_bus_race_verdicts(spec, bus))
    return report


def _bus_race_verdicts(spec: RefinedSpec, bus):
    """Cross-channel drive-window race check for one bus."""
    if len(list(bus.group)) < 2:
        return []
    races = bus_window_races(bus, refined_channel_bounds(spec))
    if not races:
        return [PropertyVerdict(
            property_id=PROP_RACE, bus=bus.name, channel=None,
            status=PROVED,
            message="cross-channel drive windows serialized by "
                    "arbiter and ID decode")]
    race = races[0]
    return [PropertyVerdict(
        property_id=PROP_RACE, bus=bus.name, channel=None,
        status=REFUTED, code="P703",
        message=f"{race.drivers[0]} and {race.drivers[1]} can drive "
                f"{race.line} in overlapping windows: {race.detail}")]


def check_temporal(spec: RefinedSpec, diagnostics: DiagnosticSet) -> None:
    """Lint adapter: refuted/unknown verdicts become P7xx findings."""
    report = verify_refined(spec)
    for verdict in report.verdicts:
        if verdict.status == PROVED or verdict.code is None:
            continue
        if verdict.channel is not None:
            location = SourceLocation("channel", verdict.channel,
                                      detail=f"bus {verdict.bus}")
        else:
            location = SourceLocation("bus", verdict.bus)
        diagnostics.add(
            verdict.code, SEVERITIES[verdict.code],
            f"{verdict.property_id}: {verdict.message}",
            location, hint=HINTS.get(verdict.code))

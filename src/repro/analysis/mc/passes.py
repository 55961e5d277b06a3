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
handshake pass explores too.  Across specs, :func:`prove_channel`
model-checks each distinct controller pair, protection plan, protocol
and word count once per process: an all-PROVED verdict list is kept in
:data:`~repro.analysis.product.PROOFS` and re-rendered with the bus and
channel of every later channel with the same key.  Any other outcome
is model-checked on its own channel, so every refutation, UNKNOWN and
witness comes from a real exploration.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
from repro.analysis.product import (
    PROOFS,
    ProofTable,
    _Explorer,
    channel_models,
)
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
    for bus in spec.buses:
        for model, inputs in _channel_inputs(spec, bus, witness_meta):
            report.verdicts.extend(prove_channel(model, **inputs))
        report.verdicts.extend(_bus_race_verdicts(spec, bus))
    return report


def _channel_inputs(spec: RefinedSpec, bus,
                    witness_meta: Optional[Dict[str, Any]],
                    ) -> Iterator[Tuple[_Explorer, Dict[str, Any]]]:
    """Each channel of ``bus``: its controller model and the inputs of
    its temporal proof (:func:`prove_channel`'s keywords)."""
    models = channel_models(spec)
    meta = dict(witness_meta or {}, width=bus.structure.width)
    for channel in bus.group:
        pair = bus.procedures[channel.name]
        yield models[(bus.name, channel.name)], dict(
            plan=bus.structure.protection,
            protocol=bus.structure.protocol,
            words=len(pair.layout.words(bus.structure.width)),
            system=spec.name,
            bus_name=bus.name,
            channel_name=channel.name,
            witness_meta=meta)


def prove_channel(model: _Explorer, proofs: ProofTable = PROOFS,
                  **inputs: Any) -> List[PropertyVerdict]:
    """:func:`check_channel` of one channel's controller ``model`` and
    its ``inputs`` (:func:`_channel_inputs`), shared through ``proofs``:
    PROVED verdicts name neither the pair nor its ID codes, and their
    bound depends only on the key."""
    key = proofs.keyer.temporal(model, inputs["plan"], inputs["protocol"],
                                inputs["words"])
    return proofs.prove(
        key,
        lambda: check_channel(model.accessor, model.server, model=model,
                              **inputs),
        keep=_proved,
        render=lambda kept: [replace(verdict, bus=inputs["bus_name"],
                                     channel=inputs["channel_name"])
                             for verdict in kept])


def _proved(verdicts: List[PropertyVerdict]):
    """What the proof table keeps of a verdict list: all of it when
    every verdict is PROVED, else nothing."""
    if all(verdict.proved for verdict in verdicts):
        return tuple(verdicts)
    return None


def differential_proof_check(spec: RefinedSpec,
                             proofs: ProofTable = PROOFS) -> DiagnosticSet:
    """Every channel's proofs through ``proofs`` against fresh ones.

    The table's handshake answer must agree with a fresh exploration
    on whether the product is clean, and its temporal verdicts must
    equal a fresh :func:`check_channel` by ``to_dict``.  Each channel
    that differs is a P706 finding.
    """
    diagnostics = DiagnosticSet(system=spec.name)
    for bus in spec.buses:
        for model, inputs in _channel_inputs(spec, bus, None):
            fresh = check_channel(model.accessor, model.server,
                                  model=model, **inputs)
            shared = prove_channel(model, proofs=proofs, **inputs)
            differs = [name for name, same in (
                ("handshake",
                 proofs.product(model).ok == model.explore().ok),
                ("temporal", [v.to_dict() for v in shared]
                 == [v.to_dict() for v in fresh])) if not same]
            if differs:
                diagnostics.add(
                    "P706", Severity.ERROR,
                    f"{' and '.join(differs)} proof from the proof "
                    "table differs from a fresh proof of the channel",
                    SourceLocation("channel", inputs["channel_name"],
                                   detail=f"bus {bus.name}"),
                    hint="the proof key leaves out an input the proof "
                         "depends on")
    return diagnostics


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

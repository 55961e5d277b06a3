"""Temporal model checker over generated protocol FSMs (P7xx).

The package layers on top of the product-automaton engine of
:mod:`repro.analysis.product`:

* :mod:`repro.analysis.mc.graph` -- the counter-extended product graph
  (a Kripke structure whose states carry a retry-budget counter);
* :mod:`repro.analysis.mc.checker` -- fair-liveness / response checks,
  retry-termination proofs with clock bounds, NACK-commit safety;
* :mod:`repro.analysis.mc.races` -- the signal-race detector (reachable
  simultaneous drive sets per channel, symbolic drive windows from the
  abstract interpreter across channels);
* :mod:`repro.analysis.mc.witness` -- replayable JSON counterexample
  schedules;
* :mod:`repro.analysis.mc.replay` -- runs a witness schedule through
  the event kernel on real wires;
* :mod:`repro.analysis.mc.passes` -- the lint pass and the
  ``repro-synth verify`` engine, with each clean channel proof shared
  across channels whose controllers match, and the differential check
  of that sharing;
* :mod:`repro.analysis.mc.defects` -- the seeded proof-key defect that
  the differential check must catch.
"""

from repro.analysis.mc.checker import (
    PROPERTY_IDS,
    PropertyVerdict,
    VerificationReport,
    check_channel,
)
from repro.analysis.mc.graph import TemporalGraph, build_temporal_graph
from repro.analysis.mc.passes import (
    check_temporal,
    differential_proof_check,
    verify_refined,
)
from repro.analysis.mc.replay import ReplayResult, replay_witness
from repro.analysis.mc.witness import Witness, WitnessStep

__all__ = [
    "PROPERTY_IDS",
    "PropertyVerdict",
    "ReplayResult",
    "TemporalGraph",
    "VerificationReport",
    "Witness",
    "WitnessStep",
    "build_temporal_graph",
    "check_channel",
    "check_temporal",
    "differential_proof_check",
    "replay_witness",
    "verify_refined",
]

"""Replayable counterexample schedules.

Every refuted temporal property carries a :class:`Witness`: the move
schedule that drives the channel's controller pair from reset into the
violation.  The schedule is plain JSON so it can be written next to a
lint report and replayed later -- ``repro-synth verify --replay`` (and
:func:`repro.analysis.mc.replay_witness`) re-synthesizes the FSM pair,
steps the schedule through the event kernel on real
:class:`~repro.sim.signals.Signal` wires and confirms the claimed
violation concretely, mirroring the ``tools/absint_check.py``
soundness-gate idiom.

A ``finite`` witness ends in the violating state (deadlock, NACK
commit, drive race); a ``lasso`` witness is a stem plus a cycle
(``loop_start`` indexes the first step of the cycle) demonstrating a
non-terminating fair schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AnalysisError

SCHEMA = "repro.mc/witness/v1"

#: (source, target, guard) of one fired FSM transition.
TransitionRef = Tuple[str, str, Optional[str]]


def _ref_dict(ref: Optional[TransitionRef]) -> Optional[Dict[str, Any]]:
    if ref is None:
        return None
    source, target, guard = ref
    return {"source": source, "target": target, "guard": guard}


def _ref_from(data: Optional[Dict[str, Any]]) -> Optional[TransitionRef]:
    if data is None:
        return None
    return (data["source"], data["target"], data.get("guard"))


@dataclass(frozen=True)
class WitnessStep:
    """One synchronized move: which transition each side fired."""

    accessor: Optional[TransitionRef] = None
    server: Optional[TransitionRef] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"accessor": _ref_dict(self.accessor),
                "server": _ref_dict(self.server)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WitnessStep":
        return cls(accessor=_ref_from(data.get("accessor")),
                   server=_ref_from(data.get("server")))


@dataclass
class Witness:
    """A replayable counterexample schedule for one refuted property."""

    system: str
    bus: str
    channel: str
    protocol: str
    property_id: str
    code: str
    #: "finite" (ends in the violating state) or "lasso" (stem+cycle).
    kind: str
    #: What the final state / cycle violates, e.g.
    #: {"type": "deadlock"} or {"type": "drive_race", "line": "NACK"}.
    claim: Dict[str, Any] = field(default_factory=dict)
    steps: List[WitnessStep] = field(default_factory=list)
    #: Index of the first cycle step (lasso witnesses only).
    loop_start: Optional[int] = None
    #: Protection name ("parity", "crc8") or None.
    protection: Optional[str] = None
    #: Extra provenance (mutation name, bus width ...) for replay.
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "system": self.system,
            "bus": self.bus,
            "channel": self.channel,
            "protocol": self.protocol,
            "protection": self.protection,
            "property": self.property_id,
            "code": self.code,
            "kind": self.kind,
            "claim": self.claim,
            "loop_start": self.loop_start,
            "steps": [step.to_dict() for step in self.steps],
            "meta": self.meta,
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.render_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Any) -> "Witness":
        """Parse a witness; :class:`AnalysisError` if it is malformed."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SCHEMA:
            raise AnalysisError(
                f"not a {SCHEMA} witness: schema={schema!r}")
        try:
            return cls(
                system=data["system"],
                bus=data["bus"],
                channel=data["channel"],
                protocol=data["protocol"],
                protection=data.get("protection"),
                property_id=data["property"],
                code=data["code"],
                kind=data["kind"],
                claim=dict(data.get("claim") or {}),
                loop_start=data.get("loop_start"),
                steps=[WitnessStep.from_dict(s) for s in data["steps"]],
                meta=dict(data.get("meta") or {}),
            )
        except (KeyError, AttributeError, TypeError, ValueError) as error:
            raise AnalysisError(f"malformed {SCHEMA} witness: missing "
                                f"or invalid field {error}") from None

    @classmethod
    def load(cls, path) -> "Witness":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            raise AnalysisError(
                f"cannot load witness {path}: {error}") from None
        return cls.from_dict(data)

    @property
    def cycle(self) -> List[WitnessStep]:
        if self.loop_start is None:
            return []
        return self.steps[self.loop_start:]

    @property
    def stem(self) -> List[WitnessStep]:
        if self.loop_start is None:
            return list(self.steps)
        return self.steps[:self.loop_start]

"""Deterministic fault injection for simulated buses.

The paper's protocols assume perfectly reliable wires.  This module
models the ways a physical channel actually misbehaves, so the
fault-tolerant protocol variants (:mod:`repro.protocols`
``ProtectionPlan``) can be exercised and the unprotected ones shown to
*detect* (never silently absorb) corruption:

* **BIT_FLIP** -- XOR a mask onto one DATA-line drive;
* **DROP** -- swallow one control-line transition (a lost START/DONE
  edge);
* **DELAY** -- postpone one control-line transition by N clocks;
* **STUCK** -- hold a control line at a fixed value over a clock
  window.

Faults are *data*, collected in a :class:`FaultPlan` that is seedable
(:meth:`FaultPlan.random`) and JSON round-trippable (``--faults
plan.json`` on the CLI), so every faulty run is reproducible down to
the golden transaction log.  A fault targets one bus and is scheduled
by clock window (``start_clock``/``end_clock``) and/or by transaction
attempt and word index; retries count as fresh attempts, so a
single-shot fault is not re-injected into the retransmission.

The :class:`FaultInjector` wires a plan into a running simulation by
attaching per-signal hooks (``Signal.faults`` / ``DataLines.faults``)
only to the targeted wires -- an unfaulted run pays a single ``None``
test per signal update.  Every fault that actually perturbed a wire is
recorded as a :class:`FaultRecord` and surfaced through
``SimResult.fault_records``, the run report's per-bus
``faults_injected`` and the Chrome trace exporter.
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: The reserved line name addressing a bus's data wires.
DATA_LINES = "DATA"


class FaultKind(Enum):
    """What the injected fault does to its target wire(s)."""

    BIT_FLIP = "bit_flip"
    DROP = "drop"
    DELAY = "delay"
    STUCK = "stuck"

    def __str__(self) -> str:
        return self.value


@dataclass
class Fault:
    """One injectable fault.

    Targeting: ``bus`` names the bus; ``line`` is ``"DATA"`` for
    BIT_FLIP or a control-line name (``START``, ``DONE``, ``NACK``,
    ``REQ``) for the transition faults.  ``start_clock``/``end_clock``
    bound the active clock window (inclusive; ``None`` = open), and
    ``transaction``/``word`` restrict to one message attempt and word
    index on the bus (``None`` = any).  ``once`` (default) retires the
    fault after its first injection -- the single-fault model the
    protected protocols are proven against.
    """

    kind: FaultKind
    bus: str
    line: str = DATA_LINES
    #: BIT_FLIP: XOR mask applied to the driven word.
    flip_mask: int = 1
    #: STUCK: value the line is held at.
    stuck_value: int = 0
    #: DELAY: clocks the transition is postponed.
    delay_clocks: int = 1
    start_clock: Optional[int] = None
    end_clock: Optional[int] = None
    transaction: Optional[int] = None
    word: Optional[int] = None
    once: bool = True
    #: Runtime flag: True once a ``once`` fault has fired.
    consumed: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            self.kind = FaultKind(self.kind)
        if self.kind is FaultKind.BIT_FLIP:
            if self.line != DATA_LINES:
                raise SimulationError(
                    f"fault on bus {self.bus}: BIT_FLIP targets the "
                    f"DATA lines, not {self.line!r}"
                )
            if self.flip_mask < 1:
                raise SimulationError(
                    f"fault on bus {self.bus}: BIT_FLIP needs a "
                    f"non-zero flip_mask"
                )
        else:
            if self.line == DATA_LINES:
                raise SimulationError(
                    f"fault on bus {self.bus}: {self.kind} targets a "
                    "control line; DATA lines only take BIT_FLIP"
                )
        if self.kind is FaultKind.DELAY and self.delay_clocks < 1:
            raise SimulationError(
                f"fault on bus {self.bus}: DELAY needs delay_clocks "
                ">= 1"
            )
        if self.kind is FaultKind.STUCK:
            if self.start_clock is None or self.start_clock < 1:
                raise SimulationError(
                    f"fault on bus {self.bus}: STUCK needs a "
                    "start_clock >= 1 (the window is forced at its "
                    "first clock)"
                )
            if self.stuck_value not in (0, 1):
                raise SimulationError(
                    f"fault on bus {self.bus}: STUCK holds a control "
                    "line, stuck_value must be 0 or 1"
                )
        if (self.start_clock is not None and self.end_clock is not None
                and self.end_clock < self.start_clock):
            raise SimulationError(
                f"fault on bus {self.bus}: end_clock "
                f"{self.end_clock} precedes start_clock "
                f"{self.start_clock}"
            )

    # ------------------------------------------------------------------

    def in_window(self, clock: int) -> bool:
        if self.start_clock is not None and clock < self.start_clock:
            return False
        if self.end_clock is not None and clock > self.end_clock:
            return False
        return True

    def matches(self, clock: int, attempt: Optional[int],
                word: Optional[int]) -> bool:
        """Does the fault fire at this (clock, attempt, word) point?"""
        if self.consumed and self.once:
            return False
        if not self.in_window(clock):
            return False
        if self.transaction is not None and attempt != self.transaction:
            return False
        if self.word is not None and word != self.word:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind.value, "bus": self.bus, "line": self.line,
        }
        if self.kind is FaultKind.BIT_FLIP:
            payload["flip_mask"] = self.flip_mask
        if self.kind is FaultKind.STUCK:
            payload["stuck_value"] = self.stuck_value
        if self.kind is FaultKind.DELAY:
            payload["delay_clocks"] = self.delay_clocks
        for key in ("start_clock", "end_clock", "transaction", "word"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if not self.once:
            payload["once"] = False
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Fault":
        known = {"kind", "bus", "line", "flip_mask", "stuck_value",
                 "delay_clocks", "start_clock", "end_clock",
                 "transaction", "word", "once"}
        unknown = set(payload) - known
        if unknown:
            raise SimulationError(
                f"fault plan: unknown fault keys {sorted(unknown)}"
            )
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually perturbed a wire."""

    kind: FaultKind
    bus: str
    line: str
    clock: int
    transaction: Optional[int]
    word: Optional[int]
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind.value, "bus": self.bus, "line": self.line,
            "clock": self.clock, "transaction": self.transaction,
            "word": self.word, "detail": self.detail,
        }


class FaultPlan:
    """An ordered collection of faults for one simulation run."""

    def __init__(self, faults: Sequence[Fault] = (),
                 seed: Optional[int] = None):
        self.faults: List[Fault] = list(faults)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def buses(self) -> List[str]:
        seen: List[str] = []
        for fault in self.faults:
            if fault.bus not in seen:
                seen.append(fault.bus)
        return seen

    def reset(self) -> None:
        """Clear consumption state so the plan can drive a fresh run."""
        for fault in self.faults:
            fault.consumed = False

    # -- construction --------------------------------------------------

    @classmethod
    def random(cls, seed: int, bus: str, width: int,
               count: int = 1,
               kinds: Sequence[FaultKind] = (FaultKind.BIT_FLIP,
                                             FaultKind.DROP,
                                             FaultKind.DELAY),
               control_lines: Sequence[str] = ("START", "DONE"),
               max_transaction: int = 16,
               max_word: int = 1) -> "FaultPlan":
        """A deterministic plan of ``count`` single-shot faults.

        The same ``seed`` always yields the same plan; faults target
        random (transaction, word) points so repeated seeds sweep the
        fault space.
        """
        rng = _random.Random(seed)
        faults: List[Fault] = []
        for _ in range(count):
            kind = rng.choice(list(kinds))
            transaction = rng.randrange(max_transaction)
            if kind is FaultKind.BIT_FLIP:
                faults.append(Fault(
                    kind=kind, bus=bus,
                    flip_mask=1 << rng.randrange(width),
                    transaction=transaction,
                    word=rng.randrange(max_word + 1),
                ))
            elif kind is FaultKind.STUCK:
                start = rng.randrange(1, 200)
                faults.append(Fault(
                    kind=kind, bus=bus,
                    line=rng.choice(list(control_lines)),
                    stuck_value=rng.randrange(2),
                    start_clock=start,
                    end_clock=start + rng.randrange(1, 20),
                ))
            else:
                faults.append(Fault(
                    kind=kind, bus=bus,
                    line=rng.choice(list(control_lines)),
                    delay_clocks=rng.randrange(1, 4),
                    transaction=transaction,
                ))
        return cls(faults, seed=seed)

    # -- JSON round trip ----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "faults": [fault.to_dict() for fault in self.faults],
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if "faults" not in payload:
            raise SimulationError(
                "fault plan: missing the 'faults' list"
            )
        faults = [Fault.from_dict(dict(entry))
                  for entry in payload["faults"]]  # type: ignore[union-attr]
        return cls(faults, seed=payload.get("seed"))  # type: ignore[arg-type]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise SimulationError(
                f"fault plan {path}: {error.strerror or error}"
            ) from None
        except json.JSONDecodeError as error:
            raise SimulationError(
                f"fault plan {path}: invalid JSON ({error})"
            ) from None
        return cls.from_dict(payload)

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: empty"
        lines = [f"fault plan: {len(self.faults)} fault(s)"]
        for fault in self.faults:
            where = []
            if fault.transaction is not None:
                where.append(f"txn {fault.transaction}")
            if fault.word is not None:
                where.append(f"word {fault.word}")
            if fault.start_clock is not None or fault.end_clock is not None:
                where.append(f"clocks [{fault.start_clock}, "
                             f"{fault.end_clock}]")
            lines.append(f"  - {fault.kind} on {fault.bus}.{fault.line}"
                         + (f" at {', '.join(where)}" if where else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Injection machinery
# ---------------------------------------------------------------------------

class _DataHook:
    """``DataLines.faults`` hook: applies BIT_FLIP faults to drives."""

    __slots__ = ("injector", "bus", "faults")

    def __init__(self, injector: "FaultInjector", bus: str,
                 faults: List[Fault]):
        self.injector = injector
        self.bus = bus
        self.faults = faults

    def filter_drive(self, lines, role: str, value: int,
                     mask: int) -> int:
        injector = self.injector
        clock = injector.sim.now
        attempt, word = injector.context(self.bus)
        for fault in self.faults:
            if not fault.matches(clock, attempt, word):
                continue
            flip = fault.flip_mask & mask
            if not flip:
                continue        # fault targets wires this role not drive
            fault.consumed = True
            value ^= flip
            injector.record(fault, clock, attempt, word,
                            f"{role} word flipped by {flip:#x}")
        return value


class _ControlHook:
    """``Signal.faults`` hook: DROP / DELAY / STUCK on a control line."""

    __slots__ = ("injector", "bus", "faults")

    def __init__(self, injector: "FaultInjector", bus: str,
                 faults: List[Fault]):
        self.injector = injector
        self.bus = bus
        self.faults = faults

    def filter_set(self, signal, value: int) -> int:
        injector = self.injector
        clock = injector.sim.now
        attempt, word = injector.context(self.bus)
        for fault in self.faults:
            if fault.kind is FaultKind.STUCK:
                if fault.in_window(clock):
                    # Held: writes inside the window are overridden.
                    return fault.stuck_value
                continue
            if value == signal.value:
                continue        # not a transition; DROP/DELAY idle
            if not fault.matches(clock, attempt, word):
                continue
            fault.consumed = True
            if fault.kind is FaultKind.DROP:
                injector.record(fault, clock, attempt, word,
                                f"transition to {value} dropped")
                return signal.value
            # DELAY: suppress now, re-apply later via the kernel.
            injector.record(
                fault, clock, attempt, word,
                f"transition to {value} delayed "
                f"{fault.delay_clocks} clock(s)")
            injector.sim.call_at(
                clock + fault.delay_clocks,
                lambda sig=signal, val=value: sig.force(val))
            return signal.value
        return value


class FaultInjector:
    """Wires a :class:`FaultPlan` into a simulation.

    Created by :func:`repro.sim.runtime.simulate`; buses register
    themselves via :meth:`attach_bus` and report message-attempt /
    word progress via :meth:`begin_attempt` / :meth:`begin_word`, which
    is how transaction-indexed faults find their target.
    """

    def __init__(self, plan: FaultPlan, sim) -> None:
        self.plan = plan
        self.sim = sim
        self.records: List[FaultRecord] = []
        #: Optional flight recorder; every fired fault is forwarded so
        #: it correlates with the transfer it perturbed.
        self.recorder = None
        #: bus name -> (message attempt counter, current word index).
        self._context: Dict[str, Tuple[int, int]] = {}
        self._attached: List[str] = []
        plan.reset()

    # -- bus registration ---------------------------------------------

    def attach_bus(self, sim_bus) -> None:
        """Attach hooks for every fault targeting ``sim_bus``."""
        name = sim_bus.name
        data_faults = [f for f in self.plan
                       if f.bus == name and f.line == DATA_LINES]
        if data_faults:
            sim_bus.data.faults = _DataHook(self, name, data_faults)
        by_line: Dict[str, List[Fault]] = {}
        for fault in self.plan:
            if fault.bus == name and fault.line != DATA_LINES:
                by_line.setdefault(fault.line, []).append(fault)
        for line, faults in by_line.items():
            signal = sim_bus.controls.get(line)
            if signal is None:
                known = ", ".join(sorted(sim_bus.controls)) or "none"
                raise SimulationError(
                    f"fault plan: bus {name} has no control line "
                    f"{line!r} (known: {known})"
                )
            signal.faults = _ControlHook(self, name, faults)
            for fault in faults:
                if fault.kind is FaultKind.STUCK:
                    self._arm_stuck(fault, signal)
        if data_faults or by_line:
            # Only targeted buses report attempt/word context, so
            # unfaulted buses keep their plain (hook-free) hot path.
            sim_bus.injector = self
        self._context[name] = (-1, 0)
        self._attached.append(name)

    def _arm_stuck(self, fault: Fault, signal) -> None:
        """Force the line at the window start so a quiet wire is held
        too (filter_set only sees explicit writes)."""
        def force() -> None:
            self.record(fault, self.sim.now, None, None,
                        f"line held at {fault.stuck_value}"
                        + (f" until clock {fault.end_clock}"
                           if fault.end_clock is not None else ""))
            signal.force(fault.stuck_value)
        self.sim.call_at(fault.start_clock, force)

    def verify_attached(self) -> None:
        """Every fault's bus must exist in the simulated design."""
        missing = [f.bus for f in self.plan
                   if f.bus not in self._attached]
        if missing:
            known = ", ".join(sorted(self._attached)) or "none"
            raise SimulationError(
                f"fault plan targets unknown bus(es) "
                f"{sorted(set(missing))}; simulated buses: {known}"
            )

    # -- transfer context ---------------------------------------------

    def begin_attempt(self, bus: str) -> None:
        attempt, _ = self._context.get(bus, (-1, 0))
        self._context[bus] = (attempt + 1, 0)

    def begin_word(self, bus: str, word: int) -> None:
        attempt, _ = self._context.get(bus, (-1, 0))
        self._context[bus] = (attempt, word)

    def context(self, bus: str) -> Tuple[Optional[int], Optional[int]]:
        entry = self._context.get(bus)
        if entry is None:
            return None, None
        return entry

    # -- reporting -----------------------------------------------------

    def record(self, fault: Fault, clock: int, attempt: Optional[int],
               word: Optional[int], detail: str) -> None:
        self.records.append(FaultRecord(
            kind=fault.kind, bus=fault.bus, line=fault.line,
            clock=clock, transaction=attempt, word=word, detail=detail,
        ))
        if self.recorder is not None:
            self.recorder.on_fault(self.records[-1])

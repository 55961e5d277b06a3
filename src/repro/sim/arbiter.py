"""Bus arbiters.

The paper defers arbitration ("further work is needed to examine the
effect of bus arbitration delays on the performance of processes",
Section 6); the bus-generation model simply assumes transfers of
different channels never collide.  To *measure* that effect (benchmark
``abl-arb``) the simulator supports pluggable arbiters:

* :class:`ImmediateArbiter` -- zero-delay, FIFO among waiters; the
  baseline matching the paper's model when processes do not overlap.
* :class:`PriorityArbiter` -- fixed priorities, optional per-grant
  delay.
* :class:`RoundRobinArbiter` -- rotating grant order, optional
  per-grant delay.
* :class:`TdmaArbiter` -- fixed time slots; a requester waits for its
  slot even on an idle bus.

An arbiter serializes whole *messages* (all words of a transaction),
matching the paper's observation that merged channels may delay
individual transfers while preserving total traffic (Figure 2).

Usage inside a process coroutine::

    yield from arbiter.acquire("EVAL_R3")
    ... perform the transaction ...
    arbiter.release("EVAL_R3")
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import ArbitrationError
from repro.sim.kernel import Simulator, Wait, WaitOn
from repro.sim.signals import Signal


class Arbiter:
    """Base class: FIFO grant, optional fixed grant delay."""

    def __init__(self, sim: Simulator, grant_delay: int = 0):
        if grant_delay < 0:
            raise ArbitrationError(
                f"grant delay must be >= 0, got {grant_delay}"
            )
        self.sim = sim
        self.grant_delay = grant_delay
        self._owner: Optional[str] = None
        #: Internal event wire: bumped whenever ownership changes, so
        #: waiters sleep on a sensitivity list instead of polling.  It
        #: is not a counted bus wire.
        self._grant_event = Signal("arbiter.grant")
        self._waiting: List[str] = []
        #: Grant log, one :data:`repro.sim.analysis.Grant` row
        #: ``(clock, requester, clocks waited, queue depth at request)``
        #: per grant; :func:`repro.sim.analysis.analyze_arbiter` folds it.
        self.grants: List[tuple] = []
        #: Optional flight recorder + the bus name it should journal
        #: requests/grants under; attached by the runtime.
        self.recorder: Optional[object] = None
        self.recorder_bus: str = ""

    # -- policy hook -------------------------------------------------------

    def _pick_next(self) -> Optional[str]:
        """Choose the next owner among ``self._waiting`` (FIFO here)."""
        return self._waiting[0] if self._waiting else None

    # -- protocol ----------------------------------------------------------

    def acquire(self, requester: str) -> Generator:
        """Coroutine: blocks until ``requester`` owns the bus."""
        if requester in self._waiting or self._owner == requester:
            raise ArbitrationError(
                f"{requester} issued a nested bus acquire"
            )
        request_time = self.sim.now
        self._waiting.append(requester)
        queue_depth = len(self._waiting)
        if self.recorder is not None:
            self.recorder.on_request(self.recorder_bus, requester,
                                     request_time)
        self._try_grant()
        if self._owner != requester:
            yield WaitOn((self._grant_event,),
                         lambda: self._owner == requester)
        if self.grant_delay:
            yield Wait(self.grant_delay)
        now = self.sim.now
        self.grants.append((now, requester, now - request_time,
                            queue_depth))
        if self.recorder is not None:
            self.recorder.on_grant(self.recorder_bus, requester,
                                   self.sim.now)

    def release(self, requester: str) -> None:
        if self._owner != requester:
            raise ArbitrationError(
                f"{requester} released a bus owned by {self._owner}"
            )
        self._owner = None
        self._grant_event.set(self._grant_event.value + 1)
        self._try_grant()

    def _try_grant(self) -> None:
        if self._owner is not None:
            return
        chosen = self._pick_next()
        if chosen is not None:
            self._waiting.remove(chosen)
            self._owner = chosen
            self._grant_event.set(self._grant_event.value + 1)

    @property
    def owner(self) -> Optional[str]:
        return self._owner


class ImmediateArbiter(Arbiter):
    """Zero-delay FIFO arbiter: the paper's implicit model."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, grant_delay=0)


class PriorityArbiter(Arbiter):
    """Fixed-priority arbiter (lower number = higher priority)."""

    def __init__(self, sim: Simulator, priorities: Dict[str, int],
                 grant_delay: int = 0):
        super().__init__(sim, grant_delay)
        self.priorities = dict(priorities)

    def _pick_next(self) -> Optional[str]:
        if not self._waiting:
            return None
        return min(self._waiting,
                   key=lambda name: (self.priorities.get(name, 1 << 30),
                                     self._waiting.index(name)))


class RoundRobinArbiter(Arbiter):
    """Rotating-grant arbiter over a fixed member order."""

    def __init__(self, sim: Simulator, members: Sequence[str],
                 grant_delay: int = 0):
        super().__init__(sim, grant_delay)
        if not members:
            raise ArbitrationError("round-robin arbiter needs members")
        self.members = list(members)
        self._last_index = len(self.members) - 1

    def _pick_next(self) -> Optional[str]:
        if not self._waiting:
            return None
        count = len(self.members)
        for offset in range(1, count + 1):
            candidate = self.members[(self._last_index + offset) % count]
            if candidate in self._waiting:
                self._last_index = self.members.index(candidate)
                return candidate
        # Waiters not in the member list fall back to FIFO.
        return self._waiting[0]


class TdmaArbiter(Arbiter):
    """Time-division arbiter: requester ``schedule[k]`` owns slot ``k``.

    Each slot is ``slot_clocks`` long; the cycle repeats.  A requester
    polls clock-by-clock until its slot arrives and the bus is free.
    """

    def __init__(self, sim: Simulator, schedule: Sequence[str],
                 slot_clocks: int):
        super().__init__(sim, grant_delay=0)
        if not schedule:
            raise ArbitrationError("TDMA schedule must be non-empty")
        if slot_clocks < 1:
            raise ArbitrationError(
                f"slot length must be >= 1 clock, got {slot_clocks}"
            )
        self.schedule = list(schedule)
        self.slot_clocks = slot_clocks

    def _slot_owner(self) -> str:
        cycle = self.slot_clocks * len(self.schedule)
        slot = (self.sim.now % cycle) // self.slot_clocks
        return self.schedule[slot]

    def acquire(self, requester: str) -> Generator:
        if requester not in self.schedule:
            raise ArbitrationError(
                f"{requester} has no TDMA slot (schedule: {self.schedule})"
            )
        if self._owner == requester:
            raise ArbitrationError(
                f"{requester} issued a nested bus acquire"
            )
        request_time = self.sim.now
        if self.recorder is not None:
            self.recorder.on_request(self.recorder_bus, requester,
                                     request_time)
        while not (self._slot_owner() == requester and self._owner is None):
            yield Wait(1)
        self._owner = requester
        now = self.sim.now
        # TDMA keeps no queue: each requester polls its own slot.
        self.grants.append((now, requester, now - request_time, 1))
        if self.recorder is not None:
            self.recorder.on_grant(self.recorder_bus, requester,
                                   self.sim.now)

    def _try_grant(self) -> None:
        # Grants happen only inside acquire's polling loop.
        return

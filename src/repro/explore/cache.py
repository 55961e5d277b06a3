"""Content-addressed, crash-safe on-disk cache for stage outputs.

Layout: one JSON file per task under ``<root>/<stage>/<key>.json``.
Every entry is a canonical-JSON envelope::

    {"schema": "repro.explore/cache/v1",
     "stage": "sim",
     "salt": "<code-version salt the writer ran under>",
     "inputs": {... structural key inputs, salt-free ...},
     "payload": {... the stage output ...},
     "payload_sha256": "<checksum over canonical payload bytes>"}

Writes are atomic: the envelope is written to a process-unique
``*.tmp.<pid>`` file and published with ``os.replace``, so a worker
killed mid-write can never leave a partial *entry* behind -- only a
temp file every reader ignores.

Reads pass through a **cheap gate** before a hit is trusted; each
check catches exactly one classic cache defect (the seeded corpus in
:mod:`repro.explore.defects` proves the mapping is one-to-one):

========  ==================  =========================================
code      name                defect it refutes
========  ==================  =========================================
EX101     key collision       the key function omitted an input, two
                              distinct points hash to one entry
EX102     stale version       the key ignored the code salt, results
                              from an older lowering survive a change
EX103     corrupt entry       a non-atomic writer crashed mid-write
                              (parse/checksum failure)
EX104     diff mismatch       *(differential checker, not a read gate:
                              see* :mod:`repro.explore.diffcheck` *)* a
                              consistent-looking entry whose payload
                              differs from a fresh compute
========  ==================  =========================================

A failed gate is recorded as a :class:`CacheIncident` and the read is
treated as a miss -- the stage recomputes and the entry is rewritten.
The explorer surfaces every incident in its report; a clean cache
reports none.

Cost contract: a hit parses its entry once (the gate hands back the
payload it checked) and still passes every gate, re-encoding the
payload once to verify its checksum; a write encodes the payload once
and splices those bytes into an envelope byte-identical to the whole
entry's canonical encoding.  Keys come memoized from the
:class:`~repro.explore.keys.Keyer`: one digest per task and keyer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExploreError
from repro.explore.keys import (
    Keyer,
    TaskSpec,
    canonical_bytes,
    payload_checksum,
)

SCHEMA = "repro.explore/cache/v1"

#: Stable incident codes (EX1xx: explorer cache defects).
EX101_COLLISION = "EX101"
EX102_STALE = "EX102"
EX103_CORRUPT = "EX103"
EX104_DIFF = "EX104"

INCIDENT_CODES: Dict[str, str] = {
    EX101_COLLISION: "key collision: cached entry was produced by "
                     "different structural inputs than the request",
    EX102_STALE: "stale version: cached entry was written under a "
                 "different code-version salt",
    EX103_CORRUPT: "corrupt entry: envelope fails to parse or the "
                   "payload checksum does not match",
    EX104_DIFF: "differential mismatch: cached payload is not "
                "byte-identical to a fresh compute",
}

#: Test-only fault-injection hook: when this environment variable
#: names a stage, :meth:`ExploreCache.put` for that stage writes half
#: of its temp file and hard-exits the process -- simulating a worker
#: killed mid-write.  The atomic tmp+rename protocol must guarantee no
#: partial *entry* becomes visible (asserted by the crash-safety test).
CRASH_ENV = "REPRO_EXPLORE_TEST_CRASH"


def _checked_entry(raw: bytes) -> Dict[str, Any]:
    """Parse an entry and run EX103's checks on it: an object of this
    schema whose payload matches its checksum.  Raises ``ValueError``
    naming the first check that fails."""
    try:
        entry = json.loads(raw)
        if not isinstance(entry, dict):
            raise ValueError(f"a JSON {type(entry).__name__}, not an object")
        if entry.get("schema") != SCHEMA:
            raise ValueError(f"schema {entry.get('schema')!r}")
        # ExploreError: NaN and Infinity parse but do not re-encode.
        recomputed = payload_checksum(canonical_bytes(entry["payload"]))
        recorded = entry["payload_sha256"]
    except (ValueError, KeyError, ExploreError) as error:
        raise ValueError(f"unreadable envelope: {error}") from None
    if recomputed != recorded:
        raise ValueError("payload checksum mismatch")
    return entry


@dataclass(frozen=True)
class CacheIncident:
    """One tripped cache-correctness check."""

    code: str
    stage: str
    key: str
    detail: str

    def describe(self) -> str:
        return f"[{self.code}] {self.stage}/{self.key[:12]}: {self.detail}"

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code, "stage": self.stage, "key": self.key,
                "detail": self.detail}


@dataclass
class CacheStats:
    """Hit/miss/write counters for one explorer run."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    incidents: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "incidents": self.incidents}


class NullCache:
    """Cache-less execution: every task recomputes, nothing persists.

    Used when no ``--cache`` directory was given, and by the
    differential checker's fresh-recompute arm.
    """

    root: Optional[str] = None

    def __init__(self) -> None:
        self.keyer = Keyer()
        self.stats = CacheStats()
        self.incidents: List[CacheIncident] = []

    def get(self, task: TaskSpec) -> Tuple[Optional[Any], bool]:
        self.stats.misses += 1
        return None, False

    def put(self, task: TaskSpec, payload: Any) -> None:
        return None


class ExploreCache:
    """The on-disk content-addressed cache (see module docstring)."""

    def __init__(self, root: str, keyer: Optional[Keyer] = None):
        self.root = root
        self.keyer = keyer or Keyer()
        self.stats = CacheStats()
        self.incidents: List[CacheIncident] = []
        os.makedirs(root, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def path_for(self, task: TaskSpec) -> str:
        return self._entry_path(task.stage, self.keyer.key(task))

    def _entry_path(self, stage: str, key: str) -> str:
        return os.path.join(self.root, stage, f"{key}.json")

    # -- read --------------------------------------------------------------

    def get(self, task: TaskSpec) -> Tuple[Optional[Any], bool]:
        """Returns ``(payload, hit)``.

        A missing entry is a plain miss.  An entry that fails a read
        gate records a :class:`CacheIncident`, counts as a miss, and
        will be overwritten by the recompute's :meth:`put`.
        """
        key = self.keyer.key(task)
        path = self._entry_path(task.stage, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None, False

        payload, incident = self._gate(task, key, raw)
        if incident is not None:
            self.incidents.append(incident)
            self.stats.incidents += 1
            self.stats.misses += 1
            return None, False
        self.stats.hits += 1
        return payload, True

    def _gate(self, task: TaskSpec, key: str, raw: bytes
              ) -> Tuple[Any, Optional[CacheIncident]]:
        """The cheap read gate: EX103 then EX102 then EX101.  Returns
        the entry's payload, or the incident of the first failed
        check."""
        try:
            entry = _checked_entry(raw)
        except ValueError as error:
            return None, CacheIncident(EX103_CORRUPT, task.stage, key,
                                       str(error))
        if entry.get("salt") != self.keyer.salt:
            return None, CacheIncident(
                EX102_STALE, task.stage, key,
                f"entry salt {entry.get('salt')!r} != current "
                f"{self.keyer.salt!r}")
        if entry.get("inputs") != self.keyer.structural_inputs(task):
            return None, CacheIncident(
                EX101_COLLISION, task.stage, key,
                "entry inputs differ from the requesting task's "
                "(key function lost an input?)")
        return entry["payload"], None

    # -- write -------------------------------------------------------------

    def put(self, task: TaskSpec, payload: Any) -> None:
        """Atomically publish ``payload`` for ``task``."""
        key = self.keyer.key(task)
        path = self._entry_path(task.stage, key)
        data = self._envelope_bytes(task, payload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        crash = os.environ.get(CRASH_ENV) == task.stage
        with open(tmp, "wb") as handle:
            if crash:
                # Fault injection: die with half the bytes flushed.
                handle.write(data[:max(1, len(data) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
                os._exit(99)
            handle.write(data)
        os.replace(tmp, path)
        self.stats.writes += 1

    def _envelope_bytes(self, task: TaskSpec, payload: Any) -> bytes:
        """``canonical_bytes(entry) + b"\\n"`` of ``payload``'s entry from
        one encoding of the payload: ``"payload"`` sorts between the
        ``"inputs"`` and ``"payload_sha256"`` keys, so its bytes are
        checksummed and spliced in between."""
        encoded = canonical_bytes(payload)
        head = canonical_bytes({"inputs": self.keyer.structural_inputs(task)})
        tail = canonical_bytes({"payload_sha256": payload_checksum(encoded),
                                "salt": self.keyer.salt, "schema": SCHEMA,
                                "stage": task.stage})
        return b"".join((head[:-1], b',"payload":', encoded, b",",
                         tail[1:], b"\n"))

    # -- maintenance -------------------------------------------------------

    def entries(self) -> List[Tuple[str, str]]:
        """All published ``(stage, key)`` pairs, sorted."""
        found: List[Tuple[str, str]] = []
        for stage in sorted(os.listdir(self.root)):
            stage_dir = os.path.join(self.root, stage)
            if not os.path.isdir(stage_dir):
                continue
            for name in sorted(os.listdir(stage_dir)):
                if name.endswith(".json"):
                    found.append((stage, name[:-len(".json")]))
        return found

    def scan(self) -> List[CacheIncident]:
        """Integrity sweep: parse + checksum every published entry.

        Returns EX103 incidents for unreadable/corrupt entries.  Temp
        files from in-flight (or killed) writers are ignored -- they
        are not entries.
        """
        incidents: List[CacheIncident] = []
        for stage, key in self.entries():
            with open(self._entry_path(stage, key), "rb") as handle:
                raw = handle.read()
            try:
                _checked_entry(raw)
            except ValueError as error:
                incidents.append(CacheIncident(
                    EX103_CORRUPT, stage, key, str(error)))
        return incidents

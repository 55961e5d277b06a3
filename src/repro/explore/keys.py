"""Content-addressed task keys for the design-space explorer.

Every pipeline stage the explorer memoizes (partition, busgen, refine,
sim) is represented by a :class:`TaskSpec` -- a node of the task graph
that *declares its inputs*: the stage name, the canonical stage
parameters and the upstream tasks it consumes.  A task's cache key is
a digest over

* a **code-version salt** (:func:`code_salt`): results computed by an
  older lowering must never be served for a newer one;
* the **structural inputs**: the stage parameters in canonical JSON
  form (insertion order is irrelevant -- keys are sorted before
  hashing), plus the *keys* of every dependency.

The dependency chaining is what makes shared grid prefixes free: two
grid points with the same partition + busgen parameters hash to the
same busgen key, so the second point hits the cache no matter how its
downstream protection/arbitration parameters differ.

:class:`Keyer` is the one place keys are computed.  The seeded
cache-defect corpus (:mod:`repro.explore.defects`) subclasses it to
reproduce the classic cache bugs (a key that forgets a parameter, a
cache that survives code changes) so the checker suite can prove it
catches each one.

Cost contract: one :func:`digest` per task per keyer.  The key is
memoized on the :class:`TaskSpec`, so a point's repeated lookups (the
runner's, the read gate's, the write's) and every dependency key cost
an attribute read, not a re-digest of the chain down to the printed
spec in the partition task.  Only the last keyer's key is kept: the
partition task outlives every sweep's keyer, and must not collect
them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import __version__
from repro.errors import ExploreError

#: Bump when the meaning of any cached stage payload changes (new
#: fields, different lowering, different clock accounting).  Combined
#: with the package version into :func:`code_salt`.
EXPLORE_SALT = "repro.explore/v1"


def code_salt() -> str:
    """The code-version salt mixed into every cache key."""
    return f"{__version__}+{EXPLORE_SALT}"


def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON encoding: sorted keys, minimal separators, ASCII.

    Two structurally equal payloads -- whatever dict insertion order
    they were built in -- encode to identical bytes, which is what
    both the cache keys and the differential byte-identity checker
    hash and compare.
    """
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ExploreError(
            f"payload is not canonically serializable: {error}"
        ) from None
    return text.encode("ascii")


def digest(obj: Any) -> str:
    """Stable 128-bit hex digest of a canonical JSON value."""
    return hashlib.blake2b(canonical_bytes(obj), digest_size=16).hexdigest()


def payload_checksum(encoded: bytes) -> str:
    """Integrity checksum stored next to every cache payload, over the
    payload's :func:`canonical_bytes`."""
    return hashlib.sha256(encoded).hexdigest()


class TaskSpec:
    """One node of the memoized task graph.

    ``params`` must be a canonical-JSON-able mapping; ``deps`` are the
    upstream tasks whose outputs this stage consumes.  The key is
    computed by a :class:`Keyer` (not here) so the defect corpus can
    swap the key function without touching the graph; ``keyed`` memoizes
    the last keyer's ``(keyer, key)``, so another keyer re-keys.
    """

    __slots__ = ("stage", "params", "deps", "keyed")

    def __init__(self, stage: str, params: Mapping[str, Any],
                 deps: Tuple["TaskSpec", ...] = ()):
        self.stage = stage
        self.params = dict(params)
        self.deps = tuple(deps)
        self.keyed: Optional[Tuple["Keyer", str]] = None

    def __repr__(self) -> str:
        return (f"TaskSpec({self.stage!r}, {self.params!r}, "
                f"deps={[d.stage for d in self.deps]})")


class Keyer:
    """Computes cache keys and the structural inputs stored in entries.

    The structural inputs (parameters + dependency keys, *without* the
    salt) are recorded verbatim in every cache entry so the read gate
    can verify a hit was produced by the same inputs -- a key collision
    caused by a buggy key function is then caught at read time instead
    of silently serving the wrong point's results.
    """

    def __init__(self, salt: Optional[str] = None):
        self.salt = code_salt() if salt is None else salt

    def structural_inputs(self, task: TaskSpec) -> Dict[str, Any]:
        """The salt-free inputs recorded in (and checked against)
        cache entries: stage, parameters, dependency keys."""
        return {
            "stage": task.stage,
            "params": dict(task.params),
            "deps": [self.key(dep) for dep in task.deps],
        }

    def key(self, task: TaskSpec) -> str:
        """The content-addressed cache key of ``task`` (memoized)."""
        keyed = task.keyed
        if keyed is None or keyed[0] is not self:
            keyed = task.keyed = (self, self.compute_key(task))
        return keyed[1]

    def compute_key(self, task: TaskSpec) -> str:
        """Digest the salt and ``task``'s structural inputs."""
        return digest({"salt": self.salt,
                       "inputs": self.structural_inputs(task)})


def fingerprint_system(name: str, system: Any, groups: Iterable[Any],
                       schedule: Optional[Any]) -> Dict[str, Any]:
    """Structural fingerprint of a loaded system: the partition task's
    key inputs.

    Uses the canonical source rendering of the spec (so two equivalent
    in-memory builds of the same system fingerprint identically) plus
    the channel-group structure and the schedule.  Anything that could
    change a downstream stage's output must appear here.
    """
    from repro.frontend.printer import print_spec, print_type

    stages: List[List[str]] = []
    if schedule is not None:
        for stage in schedule:
            stages.append([stage] if isinstance(stage, str)
                          else list(stage))
    return {
        "arg": name,
        "system": system.name,
        "source": print_spec(system),
        "groups": [
            {
                "name": group.name,
                "clock_period": group.clock_period,
                "channels": [
                    {
                        "name": channel.name,
                        "direction": channel.direction.name,
                        "variable": channel.variable.name,
                        "dtype": print_type(channel.variable.dtype),
                        "accessor": channel.accessor.name,
                        "accesses": channel.accesses,
                        "message_bits": channel.message_bits,
                    }
                    for channel in group.channels
                ],
            }
            for group in groups
        ],
        "schedule": stages,
    }

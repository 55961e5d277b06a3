"""Differential cache-correctness checker.

The read gate in :mod:`repro.explore.cache` catches *structurally*
wrong entries (corrupt bytes, stale salt, colliding inputs).  It
cannot catch the last and nastiest cache defect: an entry whose
envelope is perfectly consistent -- right key, right salt, checksum
matching its own payload -- but whose payload is **not what a fresh
compute produces** (a writer that mutated the result before
persisting it, a bitrotted disk with a rewritten checksum).

This checker closes that hole by brute honesty: for every grid point
it recomputes the full stage chain from scratch (no cache), reads the
corresponding cache entries, and demands the cached payload be
**byte-identical** (canonical JSON) to the fresh one.  Any difference
is an ``EX104`` incident naming the stage, the key and the first
divergence.

Entries the read gate already rejected are *skipped*, not reported:
their defect has an owner (EX101/EX102/EX103) and double-reporting
would break the corpus' one-defect-one-check property.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.explore.cache import EX104_DIFF, CacheIncident
from repro.explore.grid import GridPoint
from repro.explore.keys import canonical_bytes
from repro.explore.systems import load_system
from repro.explore.tasks import (
    PointContext,
    build_point_tasks,
    execute_task,
)


def _first_divergence(cached: bytes, fresh: bytes) -> str:
    limit = min(len(cached), len(fresh))
    for offset in range(limit):
        if cached[offset] != fresh[offset]:
            lo = max(0, offset - 12)
            return (f"byte {offset}: cached "
                    f"...{cached[lo:offset + 12]!r} != fresh "
                    f"...{fresh[lo:offset + 12]!r}")
    return (f"length {len(cached)} != {len(fresh)} "
            "(shorter is a prefix)")


def differential_check(system: str, points: Sequence[GridPoint],
                       cache: Any, backend: str = "interp"
                       ) -> Dict[str, Any]:
    """Prove every accepted cache entry byte-identical to fresh compute.

    Loads the system *fresh* (no shared memo with the sweep that
    populated the cache) and walks every point's chain.  Returns::

        {"checked": <entries compared>,
         "skipped_gated": <entries the read gate rejected>,
         "incidents": [CacheIncident...]}       # EX104 only

    An empty ``incidents`` list is the differential proof the warm
    cache serves exactly what a cold run would compute.
    """
    ctx = PointContext(load_system(system))
    incidents: List[CacheIncident] = []
    checked = 0
    skipped = 0
    seen: set = set()
    for point in points:
        tasks = build_point_tasks(ctx.partition, point, backend)
        payloads: Dict[str, Dict[str, Any]] = {}
        for task in tasks:
            key = cache.keyer.key(task)
            cached_payload, hit = cache.get(task)
            fresh = execute_task(ctx, task, payloads, cache.keyer)
            payloads[task.stage] = fresh
            if (task.stage, key) not in seen:
                seen.add((task.stage, key))
                if hit:
                    checked += 1
                    cached_bytes = canonical_bytes(cached_payload)
                    fresh_bytes = canonical_bytes(fresh)
                    if cached_bytes != fresh_bytes:
                        incidents.append(CacheIncident(
                            EX104_DIFF, task.stage, key,
                            _first_divergence(cached_bytes,
                                              fresh_bytes)))
                else:
                    skipped += 1
            if isinstance(fresh, dict) and "error" in fresh:
                break
    return {"checked": checked, "skipped_gated": skipped,
            "incidents": incidents}

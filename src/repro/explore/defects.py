"""Seeded cache-defect corpus: prove each checker catches its bug.

A cache that silently serves wrong results is worse than no cache, so
the explorer's correctness checks are themselves tested the only
honest way: by *seeding* each classic cache defect and demanding that
exactly the one check designed for it fires -- no misses, no
double-reporting (:mod:`repro.corpus` holds the runner and the
contract).

Each defect builds a deliberately broken writer and/or reader over a
real cache directory, and the judge plays the standard battery:

1. **seed** -- a cold sweep through the defective writer populates the
   cache the way the buggy code would have;
2. **warm** -- a warm sweep through the (possibly defective) reader,
   read gates armed;
3. **differential** -- the byte-identity checker over whatever the
   gates accepted.

The fired incident-code set must equal the defect's code exactly; the
defect-free control must fire nothing.  The four defects (``_DEFECTS``
below) are a key that forgets the ``width`` parameter (EX101), a key
that ignores the code-version salt (EX102), a non-atomic writer that
publishes a truncated entry (EX103) and a writer that perturbs the
payload but checksums the perturbed bytes (EX104).
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable

from repro.corpus import Corpus, SeededDefect
from repro.explore.cache import (
    EX101_COLLISION,
    EX102_STALE,
    EX103_CORRUPT,
    EX104_DIFF,
    ExploreCache,
)
from repro.explore.diffcheck import differential_check
from repro.explore.grid import expand_grid
from repro.explore.keys import Keyer, TaskSpec, digest
from repro.explore.runner import explore


class _TruncatingCache(ExploreCache):
    """Writer with the classic non-atomic bug: the entry file is
    written in place and "the process dies" halfway through, leaving a
    truncated entry at the *published* path."""

    def put(self, task: TaskSpec, payload: Any) -> None:
        key = self.keyer.key(task)
        path = self._entry_path(task.stage, key)
        data = self._envelope_bytes(task, payload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data[:max(1, len(data) // 2)])
        self.stats.writes += 1


class _DriftingCache(ExploreCache):
    """Writer that perturbs the sim payload before persisting it, then
    checksums the perturbed bytes -- internally consistent, externally
    wrong.  (A model for any compute-then-corrupt bug.)"""

    def put(self, task: TaskSpec, payload: Any) -> None:
        if task.stage == "sim" and isinstance(payload, dict) \
                and "end_clock" in payload:
            payload = dict(payload)
            payload["end_clock"] = payload["end_clock"] + 1
        super().put(task, payload)


class WidthBlindKeyer(Keyer):
    """Key function that forgets the ``width`` parameter, so every
    width of a point family collides on one key.  The recorded
    structural inputs stay honest -- the real bug's shape, and what
    lets the EX101 read gate catch it."""

    def compute_key(self, task: TaskSpec) -> str:
        params = {name: value for name, value in task.params.items()
                  if name != "width"}
        return super().compute_key(TaskSpec(task.stage, params, task.deps))


class SaltBlindKeyer(Keyer):
    """Key function that drops the code-version salt from the hash, so
    entries written under an older salt keep matching."""

    def compute_key(self, task: TaskSpec) -> str:
        return digest({"salt": None,
                       "inputs": self.structural_inputs(task)})


def _caches(writer: Callable[[str], ExploreCache],
            reader: Callable[[str], ExploreCache]):
    """A build: the seeding writer and the warm reader, each a factory
    over a cache root directory."""
    return lambda: (writer, reader)


_DEFECTS = (
    SeededDefect(
        "key_omits_param", (EX101_COLLISION,),
        "key function forgets the width parameter; every width of a "
        "point family collides on one cache entry",
        _caches(lambda root: ExploreCache(root, WidthBlindKeyer()),
                lambda root: ExploreCache(root, WidthBlindKeyer()))),
    SeededDefect(
        "salt_ignored", (EX102_STALE,),
        "key function drops the code-version salt; entries written by "
        "an older lowering keep hitting after the code changed",
        _caches(lambda root: ExploreCache(
                    root, SaltBlindKeyer(salt="repro-0.0-ancient")),
                lambda root: ExploreCache(root, SaltBlindKeyer()))),
    SeededDefect(
        "partial_write", (EX103_CORRUPT,),
        "non-atomic writer dies mid-write and publishes a truncated "
        "entry",
        _caches(_TruncatingCache, ExploreCache)),
    SeededDefect(
        "payload_drift", (EX104_DIFF,),
        "writer perturbs the payload but stamps a matching checksum; "
        "only a fresh recompute can tell",
        _caches(_DriftingCache, ExploreCache)),
)

_CONTROLS = (
    SeededDefect("cache_control", (),
                 "defect-free writer and reader",
                 _caches(ExploreCache, ExploreCache)),
)

#: The corpus' standard sweep: two widths (so omitted-width keys
#: collide) over the test-sized ``_demo`` system.
SCENARIO_SYSTEM = "_demo"
SCENARIO_GRID = {"width": [1, 2]}


def _judge(caches):
    """Seed through the writer, sweep warm through the reader, then
    check the reader's entries against a fresh compute."""
    writer, reader = caches
    points = expand_grid(SCENARIO_GRID)
    with tempfile.TemporaryDirectory() as root:
        explore(SCENARIO_SYSTEM, points, jobs=1, cache_dir=root,
                cache=writer(root))
        warm = reader(root)
        explore(SCENARIO_SYSTEM, points, jobs=1, cache_dir=root,
                cache=warm)
        diff = differential_check(SCENARIO_SYSTEM, points, warm)
    fired = [i.code for i in warm.incidents + diff["incidents"]]
    problems = [] if diff["checked"] else [
        "the differential check compared no entries"]
    return fired, problems


CORPUS = Corpus("explore", _DEFECTS, _CONTROLS, _judge)

"""Explorer warm-cache speedup: the memoization acceptance gate.

Times the FLC ``width x protection`` sweep (the golden grid) through
the content-addressed stage cache, cold vs. warm, inline (``jobs=1``
-- pool startup would only flatter the cache).  A warm sweep replays
every stage from disk, so the ratio is pure memoization win; the gate
demands **>= 5x**.  The warm run's payloads are also differentially
proven byte-identical to a fresh compute first -- a cache that serves
the wrong bytes quickly would be worse than no cache.

A second, host-independent gate counts the bookkeeping of one more
warm sweep: the ``repro.explore.keys.digest`` calls and the
``json.loads`` calls per point must equal what
``tests/test_explore.py::TestCostContract`` pins -- one digest per task
a point builds and one parse per cache hit.

Writes ``benchmarks/reports/explore.txt`` and ``BENCH_explore.json``.
The JSON carries a ``speedup``/``speedup_floor`` pair that
``compare_baselines.py`` enforces in CI, alongside the usual
``wall_seconds*`` regression fields.
"""

import gc
import json
import shutil
import tempfile
import time
from unittest import mock

from benchmarks._report import format_table, write_json_report, write_report
from repro.explore import ExploreCache, differential_check, expand_grid, explore
from repro.explore import keys

#: The golden FLC grid: 9 points, shared busgen prefixes per width.
GRID = {"width": [4, 8, "auto"],
        "protection": ["none", "parity", "crc8"]}
SYSTEM = "flc"
#: The memoization win the gate demands.
SPEEDUP_FLOOR = 5.0
#: Timing repeats; best-of keeps scheduler jitter out of the gate.
REPEATS = 3
#: Digests per warm point: its busgen, refine and sim tasks.  The
#: partition task every point shares adds one digest per sweep.
DIGESTS_PER_POINT = 3
#: ``json.loads`` calls per warm point: one per stage hit.
PARSES_PER_POINT = 4

_SECTIONS = {}


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall time with timeit-style GC isolation (see
    ``bench_compiled_backend``)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
    return best, value


def _counted_sweep(points, root):
    """Calls of ``keys.digest`` and ``json.loads`` in one sweep."""
    counts = {"digest": 0, "loads": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return mock.patch.object(owner, name, wrapper)

    with counting(keys, "digest"), counting(json, "loads"):
        report = explore(SYSTEM, points, jobs=1, cache_dir=root)
    assert report["cache"]["stats"]["misses"] == 0
    return counts


class TestExploreWarmCache:
    def test_warm_speedup_gate(self):
        points = expand_grid(GRID)
        root = tempfile.mkdtemp(prefix="bench-explore-")
        try:
            def cold():
                shutil.rmtree(root, ignore_errors=True)
                return explore(SYSTEM, points, jobs=1, cache_dir=root)

            def warm():
                return explore(SYSTEM, points, jobs=1, cache_dir=root)

            wall_cold, cold_report = _best_of(cold)
            # Correctness before speed: the warm cache must serve
            # byte-identical payloads (and the sweep must be clean).
            diff = differential_check(SYSTEM, points,
                                      ExploreCache(root))
            assert diff["incidents"] == []
            assert cold_report["cache"]["incidents"] == []

            wall_warm, warm_report = _best_of(warm)
            assert warm_report["cache"]["stats"]["writes"] == 0
            assert warm_report["pareto"]["front"] == \
                cold_report["pareto"]["front"]
            counts = _counted_sweep(points, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

        _SECTIONS["bookkeeping"] = {
            "digests": counts["digest"],
            "digests_per_point": DIGESTS_PER_POINT,
            "parses": counts["loads"],
            "parses_per_point": PARSES_PER_POINT,
        }
        assert counts == {
            "digest": 1 + DIGESTS_PER_POINT * len(points),
            "loads": PARSES_PER_POINT * len(points)}, counts

        speedup = wall_cold / wall_warm
        _SECTIONS["warm_gate"] = {
            "points": len(points),
            "entries_checked": diff["checked"],
            "wall_seconds_cold": wall_cold,
            "wall_seconds_warm": wall_warm,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
        }
        _SECTIONS["per_point_warm_ms"] = [
            {"label": r["label"], "warm_ms": r["wall_ms"]}
            for r in warm_report["results"]]
        assert speedup >= SPEEDUP_FLOOR, (
            f"warm cache {speedup:.1f}x over cold; the gate demands "
            f">= {SPEEDUP_FLOOR:.0f}x")


def test_zz_write_reports():
    """Runs last (alphabetically): persists the gate's artifacts."""
    gate = _SECTIONS.get("warm_gate")
    if not gate:
        return
    lines = [f"explorer warm-cache speedup (best of {REPEATS}, "
             f"{SYSTEM} {gate['points']}-point grid, jobs=1)", ""]
    lines += format_table(
        ["", "wall ms"],
        [["cold (empty cache)", f"{gate['wall_seconds_cold'] * 1e3:.2f}"],
         ["warm (all hits)", f"{gate['wall_seconds_warm'] * 1e3:.2f}"]])
    lines += ["", f"speedup {gate['speedup']:.1f}x "
                  f"(floor {gate['speedup_floor']:.0f}x); "
                  f"{gate['entries_checked']} cache entries "
                  "differentially proven byte-identical to fresh "
                  "compute"]
    counts = _SECTIONS.get("bookkeeping")
    if counts:
        lines += [f"warm sweep bookkeeping: {counts['digests']} digests "
                  f"(1 + {counts['digests_per_point']} per point), "
                  f"{counts['parses']} entry parses "
                  f"({counts['parses_per_point']} per point)"]
    write_report("explore", lines)
    write_json_report("explore", {"benchmark": "explore", **_SECTIONS})

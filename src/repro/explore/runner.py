"""Grid sweep execution: memoized task chains, optionally in parallel.

:func:`execute_point` walks one grid point's task chain through a
cache (``get`` -> miss? compute + ``put``), stopping at the first
stage that reports a pipeline error.  :func:`explore` fans a whole
grid across workers:

* ``jobs=1`` runs inline in this process -- deterministic, no pool,
  and the mode that accepts an injected cache/keyer (the defect
  corpus and most tests use it);
* ``jobs>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`;
  workers share nothing but the on-disk cache, and results are
  re-ordered by point index so the report is byte-identical to an
  inline run (modulo wall-clock and hit/miss counters -- two workers
  may race to compute a shared prefix, which is benign: both publish
  identical bytes).

Every point is traced with :mod:`repro.obs` spans (one
``explore.point`` span wrapping one span per stage, attributes
recording the cache key and hit/miss); the per-point span trees are
rolled up into the run report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ExploreError
from repro.explore.cache import ExploreCache, NullCache
from repro.explore.grid import GridPoint
from repro.explore.keys import canonical_bytes, payload_checksum
from repro.explore.pareto import pareto_rank
from repro.explore.systems import cached_load
from repro.explore.tasks import (
    PointContext,
    build_point_tasks,
    execute_task,
)

REPORT_SCHEMA = "repro.explore/report/v1"

#: Per-process context memo: pool workers sweep many points of one
#: system; the loaded model and the refined-spec memo are reusable.
_CONTEXTS: Dict[str, PointContext] = {}


def _context_for(system: str) -> PointContext:
    ctx = _CONTEXTS.get(system)
    if ctx is None:
        ctx = PointContext(cached_load(system))
        _CONTEXTS[system] = ctx
    return ctx


def execute_point(ctx: PointContext, cache: Any, point: GridPoint,
                  backend: str, index: int = 0) -> Dict[str, Any]:
    """Run one grid point's task chain through ``cache``.

    Returns the point result dict used by reports and the Pareto
    ranking.  ``metrics`` is ``None`` when any stage failed; the
    ``error`` field then carries the failing stage's structured error.
    """
    started = time.perf_counter()
    with obs.tracing() as tracer:
        with obs.span("explore.point", category="explore",
                      point=point.label):
            tasks = build_point_tasks(ctx.partition, point, backend)
            payloads: Dict[str, Dict[str, Any]] = {}
            stages: List[Dict[str, Any]] = []
            error: Optional[Dict[str, Any]] = None
            for task in tasks:
                key = cache.keyer.key(task)
                with obs.span(f"explore.{task.stage}",
                              category="explore", key=key) as handle:
                    payload, hit = cache.get(task)
                    if not hit:
                        payload = execute_task(ctx, task, payloads, cache.keyer)
                        cache.put(task, payload)
                    handle.set(cached=hit)
                payloads[task.stage] = payload
                stages.append({"stage": task.stage, "key": key,
                               "cached": hit})
                if isinstance(payload, dict) and "error" in payload:
                    error = payload["error"]
                    break

    metrics: Optional[Dict[str, int]] = None
    sim = payloads.get("sim")
    refine = payloads.get("refine")
    if error is None and sim is not None and refine is not None:
        metrics = {
            "clocks": sim["end_clock"],
            "pins": refine["pins"],
            "area_gates": refine["area_gates"],
        }
    return {
        "index": index,
        "label": point.label,
        "params": point.params(),
        "status": "ok" if error is None else "error",
        "error": error,
        "stages": stages,
        "metrics": metrics,
        "refine": refine if error is None else None,
        "sim": sim if error is None else None,
        "spans": tracer.to_dict(),
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }


def run_point_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level worker entry (must be picklable for the pool).

    Workers build their own cache handle over the shared directory;
    the per-worker hit/miss counters and incidents ride back on the
    result for the parent to aggregate.
    """
    ctx = _context_for(job["system"])
    cache: Any = (ExploreCache(job["cache_root"])
                  if job["cache_root"] else NullCache())
    result = execute_point(ctx, cache, GridPoint(**job["point"]),
                           job["backend"], job["index"])
    result["cache_stats"] = cache.stats.to_dict()
    result["cache_incidents"] = [i.to_dict() for i in cache.incidents]
    return result


def explore(system: str, points: Sequence[GridPoint], *,
            jobs: int = 1, cache_dir: Optional[str] = None,
            backend: str = "interp",
            cache: Optional[Any] = None) -> Dict[str, Any]:
    """Sweep ``points`` over ``system`` and assemble the run report.

    ``cache`` overrides the cache object for inline (``jobs=1``) runs
    -- the hook the defect corpus and the tests use; with ``jobs>1``
    workers always build a stock :class:`ExploreCache` over
    ``cache_dir``.
    """
    if jobs < 1:
        raise ExploreError(f"--jobs must be >= 1, got {jobs}")
    if cache is not None and jobs != 1:
        raise ExploreError(
            "an injected cache object requires jobs=1 (pool workers "
            "build their own)")
    started = time.perf_counter()

    incidents: List[Dict[str, Any]] = []
    if jobs == 1:
        if cache is None:
            cache = (ExploreCache(cache_dir) if cache_dir
                     else NullCache())
        ctx = _context_for(system)
        results = [execute_point(ctx, cache, point, backend, index)
                   for index, point in enumerate(points)]
        stats = cache.stats.to_dict()
        incidents = [i.to_dict() for i in cache.incidents]
    else:
        jobs_spec = [{"system": system, "backend": backend,
                      "cache_root": cache_dir, "index": index,
                      "point": point.params()}
                     for index, point in enumerate(points)]
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_point_job, jobs_spec))
        except BrokenProcessPool as error:
            raise ExploreError(
                f"a sweep worker died mid-point: {error}; the cache "
                "write protocol guarantees no partial entry was "
                "published -- rerun to recompute") from None
        results.sort(key=lambda r: r["index"])
        stats = {"hits": 0, "misses": 0, "writes": 0, "incidents": 0}
        for result in results:
            worker_stats = result.pop("cache_stats")
            for name in stats:
                stats[name] += worker_stats[name]
            incidents.extend(result.pop("cache_incidents"))

    for result in results:
        result.pop("cache_stats", None)
        result.pop("cache_incidents", None)

    return {
        "schema": REPORT_SCHEMA,
        "system": system,
        "backend": backend,
        "jobs": jobs,
        "grid_points": len(results),
        "cache": {"root": cache_dir, "stats": stats,
                  "incidents": incidents},
        "results": results,
        "pareto": pareto_rank(results),
        "wall_seconds": time.perf_counter() - started,
    }


def canonical_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic projection of a run report.

    Everything execution-dependent is dropped: wall-clock numbers,
    span trees, and the cache hit/miss counters (a ``--jobs 4`` cold
    run may double-compute a shared prefix that ``--jobs 1`` computes
    once -- same bytes, different counters).  What remains must be
    byte-identical across runs, job counts and cache temperature; the
    golden tests and the FLC golden file pin exactly this projection.
    """
    points = []
    for result in report["results"]:
        points.append({
            "index": result["index"],
            "label": result["label"],
            "params": result["params"],
            "status": result["status"],
            "error": result["error"],
            "stage_keys": {s["stage"]: s["key"]
                           for s in result["stages"]},
            "metrics": result["metrics"],
            "oracle_ok": (result["sim"] or {}).get("oracle_ok"),
            "sim_sha256": (payload_checksum(canonical_bytes(result["sim"]))
                           if result["sim"] is not None else None),
        })
    return {
        "schema": report["schema"],
        "system": report["system"],
        "backend": report["backend"],
        "points": points,
        "pareto": report["pareto"],
    }

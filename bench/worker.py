"""Benchmark worker: set up one workload, then measure it on request.

Started by the launcher (``python -m bench run``) from the checkout
root, with ``src`` on ``PYTHONPATH``::

    python -m bench.worker --workload W --seed N --seconds S
                           [--traced] [--fixed]

The worker imports the program, draws its requests, runs the warm-up
and prints one ``{"ready": true}`` line.  It then reads one command
from standard input: ``measure`` runs the measured phase and prints
its result as one JSON line; anything else (or end of input) exits.
Standard output carries only these lines -- anything the program
prints goes to standard error.

The measured phase runs whole rounds until ``--seconds`` have passed
and at least ``MIN_REQUESTS`` requests have run, so a slow host makes a
run no longer.
``--fixed`` runs exactly the nominal request count instead: traced runs
and their untraced baseline use it, so that both run the same requests
and per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Failure messages kept per run (the count is always complete).
MAX_FAILURE_MESSAGES = 5
#: Requests a time-boxed run needs at least, so that latency_ms_p90 has
#: ten samples beyond it.
MIN_REQUESTS = 100


def run_phase(workload: Any, requests: Sequence[Any],
              tracer: Any = None, ledger: Any = None,
              seconds: Optional[float] = None) -> Dict[str, Any]:
    """Run ``requests`` closed-loop; returns latencies, counts and
    failures.  With a ``tracer`` each request is traced and accounted
    in ``ledger``.  With ``seconds`` the phase stops at the first round
    boundary after that much wall time, once ``MIN_REQUESTS`` ran."""
    from repro import obs

    from bench.ledger import ROOT, spans_from_tracer

    latencies_ns: List[int] = []
    slots: List[int] = []
    clocks: List[int] = []
    counts: Counter = Counter()
    failures: List[str] = []
    failed = 0
    peak_rss_kb = None
    round_size = len(workload.classes(0))
    started = time.perf_counter()
    for index, request in enumerate(requests):
        if (seconds is not None and index % round_size == 0
                and index >= MIN_REQUESTS
                and time.perf_counter() - started >= seconds):
            break
        workload.prepare(request)
        if tracer is None:
            start = time.perf_counter_ns()
            outcome = workload.execute(request)
            end = time.perf_counter_ns()
        else:
            mark = len(tracer.spans)
            with obs.tracing(tracer):
                with tracer.span(ROOT, category="bench", req=index):
                    outcome = workload.execute(request)
            start, end = tracer.spans[mark].start_ns, tracer.spans[mark].end_ns
        problems = workload.check(request, outcome)
        latencies_ns.append(end - start)
        slots.append(request.slot)
        if len(latencies_ns) == MIN_REQUESTS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        clocks.append(outcome.counts["sim.clocks"])
        counts.update(outcome.counts)
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"{request.key[:2]}: {'; '.join(problems)}")
        if ledger is not None:
            ledger.add_request(
                index, spans_from_tracer(tracer.spans[mark:]) + outcome.spans)
            ledger.counts.update(outcome.counts)
            del tracer.spans[mark:]
        request.fields.clear()
    return {"latencies_ns": latencies_ns, "slots": slots, "clocks": clocks,
            "counts": counts, "failed": failed, "failures": failures,
            "wall_s": time.perf_counter() - started,
            "peak_rss_kb": (peak_rss_kb or resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss)}


def settled_latencies_ns(phase: Dict[str, Any]) -> List[int]:
    """Each request's latency, taken as the fastest its class reached in
    the phase.

    A class's requests do like work, one per round, seconds apart.  The
    host this benchmark runs on is shared: load from elsewhere slows it
    by up to 1.6x for stretches of seconds to minutes, and which
    requests such a stretch hits changes from run to run.  The fastest
    of a class's requests is the one the load touched least, as
    ``timeit`` reports the best of its repeats; a slowdown that outlasts
    every round still shows.
    """
    best: Dict[int, int] = {}
    for slot, ns in zip(phase["slots"], phase["latencies_ns"]):
        best[slot] = min(ns, best.get(slot, ns))
    return [best[slot] for slot in phase["slots"]]


def end_to_end(phase: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of a measured phase (all but set-up).

    Percentiles, throughput and simulated clocks per second all come
    from the settled latencies (:func:`settled_latencies_ns`); request
    preparation and the checks between requests are not in them.  Peak
    RSS covers set-up and the first ``MIN_REQUESTS`` requests, the same
    work however many more a time-boxed run fits in.
    """
    settled_ms = [ns / 1e6 for ns in settled_latencies_ns(phase)]
    busy_s = sum(settled_ms) / 1e3
    p90 = (statistics.quantiles(settled_ms, n=10)[-1]
           if len(settled_ms) > 1 else settled_ms[0])
    return {
        "latency_ms_p50": statistics.median(settled_ms),
        "latency_ms_p90": p90,
        "throughput_rps": len(settled_ms) / busy_s,
        "sim_kclk_per_s": sum(phase["clocks"]) / busy_s / 1e3,
        "peak_rss_mb": phase["peak_rss_kb"] / 1024,
    }


def _send(stream: Any, payload: Dict[str, Any]) -> None:
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--fixed", action="store_true")
    args = parser.parse_args(argv)
    # Exit through the finally block that removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = (root / "src").resolve()
    channel = sys.stdout
    sys.stdout = sys.stderr

    sys.path.insert(0, str(src))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    from repro import obs

    from bench import inputs
    from bench.ledger import PROGRAM_COUNTERS, Ledger
    from bench.workloads import WORKLOADS

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](root, work, args.seed,
                                            traced=args.traced)
        round_size = len(workload.classes(0))
        rounds = workload.nominal_rounds(args.seconds)
        if not args.fixed:
            # Room for a host faster than the calibration; the time box
            # ends the phase.
            rounds = max(2 * rounds, -(-MIN_REQUESTS // round_size))
        warmup = workload.warmup_plan()
        measured = workload.plan(inputs.MEASURED, rounds * round_size)
        run_phase(workload, warmup)
        _send(channel, {"ready": True})
        if sys.stdin.readline().strip() != "measure":
            return 0

        tracer = obs.Tracer() if args.traced else None
        ledger = Ledger() if args.traced else None
        phase = run_phase(workload, measured, tracer, ledger,
                          seconds=None if args.fixed else args.seconds)
        ran = len(phase["latencies_ns"])
        result: Dict[str, Any] = {
            "requests": ran,
            "failed": phase["failed"],
            "failures": phase["failures"],
            "repeat_share": inputs.repeat_share(
                [r.key for r in measured[:ran]], [r.key for r in warmup]),
            "wall_s": phase["wall_s"],
            "metrics": end_to_end(phase),
        }
        if ledger is not None:
            for name in PROGRAM_COUNTERS:
                ledger.counts[name] += tracer.counters.get(name, 0)
            trace_path = (root / ".bench_work" /
                          f"trace-{args.workload}-seed{args.seed}.json")
            ledger.write_chrome_trace(trace_path)
            result.update(per_layer=ledger.metrics(), table=ledger.table(),
                          trace_path=str(trace_path.relative_to(root)))
        _send(channel, result)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

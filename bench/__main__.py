"""``python -m bench run``: run the benchmark from the checkout root.

::

    python -m bench run [--workload W] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out RUNS.jsonl]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in
turn.  For each workload the launcher prints a table of metrics and,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).

Untraced, the worker is started ``SETUPS`` times; ``setup_s`` is the
median time from spawning it to its ready line, and the last one runs
the measured phase for ``--seconds``.  Traced, an untraced worker and a
traced worker run the same fixed number of requests, and
``trace.overhead`` compares their throughputs.  Workers run one at a
time, and a terminated launcher kills the one running.

The launcher imports nothing from the program: it exits with status 2,
without a result, when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Worker start-ups per untraced run; setup_s is their median.
SETUPS = 3
WORKER_EXIT_TIMEOUT_S = 60


class WorkerError(RuntimeError):
    pass


class Worker:
    """One ``python -m bench.worker`` process, set up and ready."""

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: float, flags: Sequence[str] = ()):
        env = dict(os.environ)
        path = [str(root / "src")]
        if env.get("PYTHONPATH"):
            path.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(path)
        # Fixed string hashing: set iteration order inside the program
        # then repeats, and so do the per-layer counts.
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(root / ".bench_work")
        command = [sys.executable, "-m", "bench.worker",
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), *flags]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        try:
            self._read()
        except BaseException:
            self.stop(kill=True)
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise WorkerError(f"worker exited with status {code}")
        return json.loads(line)

    def measure(self) -> Dict[str, Any]:
        try:
            self.proc.stdin.write("measure\n")
            self.proc.stdin.flush()
            result = self._read()
        except BaseException:
            self.stop(kill=True)
            raise
        self.stop()
        return result

    def stop(self, kill: bool = False) -> None:
        """Let the worker exit (it removes its work directory) and wait
        for it.  With ``kill`` it is terminated first, mid-phase; a
        worker that does not exit in time is killed."""
        if kill:
            self.proc.terminate()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_untraced(root: Path, workload: str, seed: int,
                 seconds: float) -> Dict[str, Any]:
    setups: List[float] = []
    for index in range(SETUPS):
        worker = Worker(root, workload, seed, seconds)
        setups.append(worker.setup_s)
        if index < SETUPS - 1:
            worker.stop()
    result = worker.measure()
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def run_traced(root: Path, workload: str, seed: int,
               seconds: float) -> Dict[str, Any]:
    untraced = Worker(root, workload, seed, seconds, ["--fixed"]).measure()
    traced = Worker(root, workload, seed, seconds,
                    ["--fixed", "--traced"]).measure()
    rps = untraced["metrics"]["throughput_rps"]
    traced_rps = traced["metrics"]["throughput_rps"]
    traced["metrics"] = dict(traced["per_layer"],
                             **{"trace.overhead": rps / traced_rps - 1,
                                "inputs.repeat_share":
                                    traced["repeat_share"]})
    traced["failed"] += untraced["failed"]
    traced["failures"] += untraced["failures"]
    traced["requests"] += untraced["requests"]
    return traced


def final_line(result: Dict[str, Any],
               specs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The result object the last output line carries."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["requests"],
        "failed": result["failed"],
        "metrics": {spec["name"]: {"value": result["metrics"][spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs},
    }


def print_report(workload: str, seed: int, trace: bool,
                 result: Dict[str, Any],
                 specs: Sequence[Dict[str, Any]]) -> None:
    attempted = result["requests"]
    print(f"{workload}: seed {seed}, {attempted} requests, "
          f"{result['failed']} failed, measured in {result['wall_s']:.1f} s"
          f" (repeated design tuples: {result['repeat_share']:.1%})")
    rows = [(spec["name"], result["metrics"][spec["name"]], spec["unit"])
            for spec in specs]
    if not trace:
        rows.append(("failed_frac", result["failed"] / attempted, "ratio"))
    for name, value, unit in rows:
        if trace and value == 0:
            continue
        print(f"  {name:<36} {value:>14.4f} {unit}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    if trace:
        print("self time per layer (traced requests):")
        print("\n".join(result["table"]))
        print(f"tracing overhead: {result['metrics']['trace.overhead']:+.1%}"
              " (untraced vs traced throughput)")
        print(f"chrome trace: {result['trace_path']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int,
                     help="measured seconds per run (default: "
                          "BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=[0, 1],
                     help="report per-layer metrics from a traced run")
    run.add_argument("--out", metavar="RUNS.jsonl",
                     help="append each run's record (for bench/compare.py)")
    args = parser.parse_args(argv)
    # Exit through the handlers that kill a running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)}")
    seconds = args.seconds or config["run_seconds"]
    specs = config["per_layer"] if args.trace else config["end_to_end"]
    (root / ".bench_work").mkdir(exist_ok=True)

    for workload in [args.workload] if args.workload else names:
        runner = run_traced if args.trace else run_untraced
        try:
            result = runner(root, workload, args.seed, seconds)
        except WorkerError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        line = final_line(result, specs)
        print_report(workload, args.seed, bool(args.trace), result, specs)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "workload": workload, "seed": args.seed,
                    "seconds": seconds, "trace": args.trace,
                    "setup_samples": result.get("setup_samples"),
                    "result": line}) + "\n")
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

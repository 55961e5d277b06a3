"""What the benchmark promises: every workload runs and checks its
outputs, prints exactly the metrics BENCHMARK.json names, repeats its
per-layer counts for a seed, counts a wrong oracle as a failure, and
refuses to run without the program.

The subprocess tests run each workload with ``--seconds 1``: a hundred
requests untraced, one round traced.  They take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bench import compare, inputs
from bench.ledger import COUNTS, LAYERS, Ledger, RawSpan

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_TRACED: dict = {}


def traced(workload: str, attempt: int) -> dict:
    """Traced one-round runs, cached: each is needed by two tests."""
    key = (workload, attempt)
    if key not in _TRACED:
        _TRACED[key] = last_json(run_bench("--workload", workload,
                                           "--trace", "1"))
    return _TRACED[key]


def test_workload_registry_matches_benchmark_json():
    from bench.workloads import WORKLOADS as REGISTERED

    assert sorted(REGISTERED) == sorted(WORKLOADS)
    per_layer = {m["name"] for m in CONFIG["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.ms_per_req",
                f"{layer}.share"} <= per_layer
    assert set(COUNTS) <= per_layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_end_to_end_metrics(workload):
    result = last_json(run_bench("--workload", workload))
    assert result["correct"] is True
    assert result["failed"] == 0
    # Time-boxed at one second, but never under the hundred requests
    # latency_ms_p90 needs.
    assert result["attempted"] >= 100
    names = [m["name"] for m in CONFIG["end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    result = traced(workload, 0)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"]
                                       for m in CONFIG["per_layer"]]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["other.share"] <= 0.10
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    assert shares + metrics["other.share"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(workload):
    def counts(result: dict) -> dict:
        return {name: m["value"] for name, m in result["metrics"].items()
                if name.endswith(".calls") or name in COUNTS}

    assert counts(traced(workload, 0)) == counts(traced(workload, 1))


def test_wrong_oracle_counts_as_failed(tmp_path, monkeypatch):
    from bench.worker import run_phase
    from bench.workloads import DesignFlow

    # Every spec-source design is checked against the golden
    # interpreter; make it expect a value no variable ends with.
    monkeypatch.setattr(inputs, "reference_values", lambda system, order: {
        variable.name: 12345 for variable in system.variables})
    workload = DesignFlow(ROOT, tmp_path, seed=3)
    requests = workload.plan(inputs.MEASURED, len(workload.classes(0)))
    from_source = sum(1 for r in requests
                      if r.fields["target"] not in inputs.CASE_STUDIES)
    phase = run_phase(workload, requests)
    assert phase["failed"] == from_source > 0
    assert all("oracle" in message for message in phase["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_requests_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    from bench.workloads import SimLong

    def keys(seed: int, work: Path) -> list:
        workload = SimLong(ROOT, work, seed)
        return [r.key for r in workload.plan(inputs.MEASURED,
                                             len(workload.classes(0)))]

    def classes(seed: int) -> Counter:
        return Counter(k[:1] + k[2:] for k in keys(seed, tmp_path))

    assert keys(1, tmp_path) == keys(1, tmp_path)
    assert keys(1, tmp_path) != keys(2, tmp_path)
    # The same structural classes every seed: only values and order
    # differ, so every run does the same mix of work.
    assert classes(1) == classes(2)


def test_warmup_does_the_same_classes_for_every_seed(tmp_path):
    from bench.workloads import SimLong

    def warmup(seed: int) -> list:
        return [(r.key[:1] + r.key[2:]) for r in
                SimLong(ROOT, tmp_path, seed).warmup_plan()]

    assert warmup(1) == warmup(2)
    assert len(set(warmup(1))) == SimLong.warmup


def test_ledger_charges_exclusive_time_to_the_enclosing_layer():
    ledger = Ledger()
    ledger.add_request(0, [
        RawSpan("request", 0, 100),
        RawSpan("analysis.lint", 10, 60),          # wrapper
        RawSpan("analysis.analyze_refined", 11, 59),  # transparent
        RawSpan("analysis.pass.absint", 20, 40),   # sub-layer
        RawSpan("sim.elaborate", 70, 80),
        RawSpan("sim.compile", 72, 78),
    ])
    metrics = ledger.metrics()
    assert metrics["analysis.lint.ms_per_req"] == pytest.approx(30e-6)
    assert metrics["analysis.absint.ms_per_req"] == pytest.approx(20e-6)
    assert metrics["sim.elaborate.ms_per_req"] == pytest.approx(4e-6)
    assert metrics["sim.compile.ms_per_req"] == pytest.approx(6e-6)
    assert metrics["other.share"] == pytest.approx(0.40)
    assert metrics["analysis.lint.calls"] == 1
    assert metrics["analysis.absint.calls"] == 1


def test_end_to_end_times_each_request_as_its_class_fastest():
    from bench.worker import end_to_end, settled_latencies_ns

    # Two rounds of classes 0 and 1; class 1's second request was slowed.
    phase = {"slots": [0, 1, 1, 0], "latencies_ns": [10e6, 20e6, 50e6, 12e6],
             "clocks": [100, 200, 200, 100], "peak_rss_kb": 1024}
    assert settled_latencies_ns(phase) == [10e6, 20e6, 20e6, 10e6]
    metrics = end_to_end(phase)
    assert metrics["latency_ms_p50"] == pytest.approx(15.0)
    assert metrics["throughput_rps"] == pytest.approx(4 / 0.060)
    assert metrics["sim_kclk_per_s"] == pytest.approx(600 / 0.060 / 1e3)


@pytest.mark.parametrize("change, expected", [
    ([90.0] * 10, "improved"),
    ([120.0] * 10, "regressed"),
    ([101.0] * 10, "unchanged"),
])
def test_compare_verdicts(change, expected):
    parent = [100.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, change, "lower", 0.1) == expected


def test_compare_is_unresolved_when_spread_exceeds_the_bound():
    parent = [80.0, 120.0] * 5
    assert compare.verdict(parent, [99.0] * 10, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent[:4], [90.0] * 4, "lower", 0.1) == \
        "unresolved"

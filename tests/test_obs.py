"""Tests for the observability layer: tracer, simulator metrics,
exporters, run reports and the CLI surface (``--trace-out`` /
``--metrics-out`` / ``repro-synth profile``)."""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.busgen.algorithm import generate_bus
from repro.cli import main
from repro.obs.export import to_chrome_trace, to_prometheus
from repro.obs.report import run_report, sim_section
from repro.obs.simmetrics import (
    Histogram,
    KernelMetrics,
    SimMetrics,
    arbiter_dict,
)
from repro.obs.tracer import NULL_SPAN, active_tracer
from repro.protogen.refine import generate_protocol
from repro.sim.analysis import analyze_arbiter
from repro.sim.runtime import simulate
from repro.sim.signals import Signal
from repro.sim.trace import write_vcd


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracerDisabled:
    def test_span_returns_shared_null_handle(self):
        assert active_tracer() is None
        handle = obs.span("anything", whatever=1)
        assert handle is NULL_SPAN
        # Usable as a context manager; set() is a no-op.
        with handle as sp:
            sp.set(x=2)

    def test_count_is_noop(self):
        obs.count("nothing", 5)   # must not raise or record anywhere
        assert active_tracer() is None


class TestTracingEnabled:
    def test_records_spans_with_nesting_and_args(self):
        with obs.tracing() as tracer:
            with obs.span("outer", category="test", fixed=1) as sp:
                sp.set(late=2)
                with obs.span("inner", category="test"):
                    pass
        assert active_tracer() is None   # deactivated on exit
        outer, inner = tracer.spans
        assert (outer.name, outer.depth) == ("outer", 0)
        assert (inner.name, inner.depth) == ("inner", 1)
        assert outer.args == {"fixed": 1, "late": 2}
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_counters_accumulate(self):
        with obs.tracing() as tracer:
            obs.count("widths", 3)
            obs.count("widths", 2)
        assert tracer.counters == {"widths": 5.0}

    def test_restores_previous_tracer_on_exit(self):
        with obs.tracing() as outer_tracer:
            with obs.tracing():
                pass
            assert active_tracer() is outer_tracer
        assert active_tracer() is None

    def test_exception_marks_span_and_propagates(self):
        with pytest.raises(ValueError):
            with obs.tracing() as tracer:
                with obs.span("doomed"):
                    raise ValueError("boom")
        (span,) = tracer.spans
        assert span.args["error"] == "ValueError"
        assert span.end_ns is not None

    def test_breakdown_aggregates_in_first_seen_order(self):
        with obs.tracing() as tracer:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
            with obs.span("a"):
                pass
        breakdown = tracer.breakdown()
        assert [e["name"] for e in breakdown] == ["a", "b"]
        assert breakdown[0]["calls"] == 2
        assert breakdown[0]["total_ms"] == pytest.approx(
            tracer.total_ms("a"))

    def test_to_dict_shape(self):
        with obs.tracing() as tracer:
            with obs.span("s", category="c", k="v"):
                obs.count("n")
        payload = tracer.to_dict()
        assert set(payload) == {"spans", "counters", "breakdown"}
        (span,) = payload["spans"]
        assert span["name"] == "s"
        assert span["args"] == {"k": "v"}
        assert span["duration_ns"] >= 0


# ---------------------------------------------------------------------------
# Metric collectors
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram(bounds=(1, 4, 16))
        for value in (1, 2, 4, 17, 1000):
            hist.observe(value)
        assert hist.count == 5
        assert hist.min == 1
        assert hist.max == 1000
        assert hist.mean == pytest.approx((1 + 2 + 4 + 17 + 1000) / 5)
        rows = hist.cumulative()
        assert rows[-1]["le"] == "+Inf"
        assert rows[-1]["count"] == 5
        # Cumulative counts never decrease.
        counts = [row["count"] for row in rows]
        assert counts == sorted(counts)
        assert counts == [1, 3, 3, 5]

    def test_empty(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.to_dict()["buckets"][-1] == {"le": "+Inf", "count": 0}


class TestKernelMetricsUnit:
    def test_advance_classifies_blocked_vs_timer(self):
        metrics = KernelMetrics()
        blocked = SimpleNamespace(name="waiter", finished=False,
                                  predicate=lambda: False)
        sleeping = SimpleNamespace(name="sleeper", finished=False,
                                   predicate=None)
        done = SimpleNamespace(name="done", finished=True, predicate=None)
        metrics.on_advance(0, 5, [blocked, sleeping, done])
        metrics.on_advance(5, 8, [blocked, sleeping, done])
        payload = metrics.to_dict()
        assert payload["end_clock"] == 8
        assert payload["clock_jumps"] == 2
        assert payload["processes"]["waiter"]["blocked_clocks"] == 8
        assert payload["processes"]["waiter"]["timer_clocks"] == 0
        assert payload["processes"]["sleeper"]["timer_clocks"] == 8
        assert "done" not in payload["processes"]


class TestArbiterFold:
    def test_queue_depth_and_grants(self):
        # (grant clock, requester, clocks waited, queue depth at request)
        stats = analyze_arbiter([(0, "P", 0, 1), (7, "P", 4, 3)])
        assert stats.requests == 2
        assert stats.max_queue_depth == 3
        assert stats.mean_queue_depth == pytest.approx(2.0)
        assert stats.wait_clocks == 4
        payload = arbiter_dict(stats)
        assert payload["grants"] == {"P": 2}
        assert payload["wait_clocks"]["count"] == 2
        assert payload["wait_clocks"]["sum"] == 4

    def test_empty_grant_log(self):
        stats = analyze_arbiter([])
        assert (stats.requests, stats.wait_clocks, stats.max_queue_depth,
                stats.mean_queue_depth) == (0, 0, 0, 0.0)


class TestLiveSimMetrics:
    """The metrics' bus/arbiter records are the run's log folds."""

    @pytest.fixture()
    def run(self, fig3):
        refined = generate_protocol(fig3.system, fig3.group, width=8,
                                    bus_name="B")
        metrics = SimMetrics()
        result = simulate(refined, schedule=["P", "Q"], metrics=metrics)
        return result, metrics

    def test_kernel_sees_the_whole_run(self, run):
        result, metrics = run
        assert metrics.kernel.steps > 0
        assert metrics.kernel.passes > 0
        assert metrics.kernel.end_clock == result.end_time
        processes = metrics.kernel.to_dict()["processes"]
        assert "P" in processes and "Q" in processes

    def test_bus_collector_matches_transaction_log(self, run):
        result, metrics = run
        log = result.transactions["B"]
        bus = metrics.buses["B"]
        assert bus is result.buses["B"]
        assert bus.transactions == len(log)
        assert bus.latency.count == len(log)
        assert bus.words == sum(t.words for t in log) >= len(log)
        assert bus.busy_clocks == sum(t.clocks for t in log)
        assert sum(ch.count for ch in bus.per_channel.values()) == len(log)
        assert bus.reads + bus.writes == len(log)
        assert bus.end_clock == result.end_time
        assert 0.0 < bus.utilization <= 1.0

    def test_arbiter_granted_every_transaction(self, run):
        result, metrics = run
        arbiter = metrics.arbiters["B"]
        assert arbiter.requests == len(result.transactions["B"])
        assert sum(arbiter.grants.values()) == arbiter.requests

    def test_metrics_object_is_optional(self, fig3):
        refined = generate_protocol(fig3.system, fig3.group, width=8)
        result = simulate(refined, schedule=["P", "Q"])   # no metrics
        assert result.end_time > 0


class TestPipelineInstrumentation:
    def test_protocol_generation_emits_all_five_steps(self, fig3):
        with obs.tracing() as tracer:
            generate_protocol(fig3.system, fig3.group, width=8)
        names = {s.name for s in tracer.spans}
        assert {
            "protogen.step1_protocol_selection",
            "protogen.step2_id_assignment",
            "protogen.step3_structure_and_procedures",
            "protogen.step4_update_variable_references",
            "protogen.step5_variable_processes",
        } <= names

    def test_bus_generation_span_and_counter(self):
        from repro.apps.flc import build_flc
        group = build_flc(250, 180).bus_b
        with obs.tracing() as tracer:
            design = generate_bus(group)
        (span,) = tracer.spans_named("busgen.generate_bus")
        assert span.args["width"] == design.width
        assert tracer.counters["busgen.widths_examined"] > 0

    def test_infeasible_group_records_error_span(self, fig3):
        from repro.errors import InfeasibleBusError
        with pytest.raises(InfeasibleBusError):
            with obs.tracing() as tracer:
                generate_bus(fig3.group)
        (span,) = tracer.spans_named("busgen.generate_bus")
        assert span.args["error"] == "InfeasibleBusError"


# ---------------------------------------------------------------------------
# Exporters and the run report
# ---------------------------------------------------------------------------

def _fake_txn(start, end, channel):
    return SimpleNamespace(start_time=start, end_time=end, channel=channel,
                           initiator="P", address=None, data=7)


class TestChromeTrace:
    def test_events_cover_spans_and_sim_runs(self):
        with obs.tracing() as tracer:
            with obs.span("stage"):
                obs.count("things")
        doc = to_chrome_trace(
            tracer, [("flc", {"B": [_fake_txn(0, 4, "ch0")]})])
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"stage", "ch0"} <= names
        span_event = next(e for e in complete if e["name"] == "stage")
        assert span_event["pid"] == 1
        assert span_event["ts"] == 0.0          # rebased to first span
        txn_event = next(e for e in complete if e["name"] == "ch0")
        assert txn_event["pid"] == 100
        assert txn_event["dur"] == 4.0          # 1 clock = 1 us
        metadata = [e for e in events if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in metadata}
        assert any("pipeline" in label for label in labels)
        assert any("flc" in label for label in labels)

    def test_document_is_json_serializable(self):
        with obs.tracing() as tracer:
            with obs.span("s"):
                pass
        json.dumps(to_chrome_trace(tracer))

    def test_stable_pids_and_tids_diff_clean(self):
        with obs.tracing() as tracer:
            with obs.span("gen", category="busgen"):
                with obs.span("run", category="sim"):
                    pass
        runs = [("b-run", {"B": [_fake_txn(0, 4, "ch0")]}),
                ("a-run", {"A": [_fake_txn(2, 6, "ch1")]})]
        doc = to_chrome_trace(tracer, runs)
        reordered = to_chrome_trace(tracer, list(reversed(runs)))

        def pid_of(document, name):
            return next(e["pid"] for e in document["traceEvents"]
                        if e.get("name") == name)

        # pids follow sorted run-label order, not input order.
        assert pid_of(doc, "ch1") == pid_of(reordered, "ch1") == 100
        assert pid_of(doc, "ch0") == pid_of(reordered, "ch0") == 101
        # Span tids follow sorted category order.
        tids = {e["cat"]: e["tid"] for e in doc["traceEvents"]
                if e["ph"] == "X" and e["pid"] == 1}
        assert tids == {"busgen": 1, "sim": 2}
        # Same inputs, byte-identical document.
        assert json.dumps(doc) == json.dumps(to_chrome_trace(tracer,
                                                             runs))


class TestRunReportAndPrometheus:
    @pytest.fixture()
    def payload(self, fig3):
        metrics = SimMetrics()
        with obs.tracing() as tracer:
            refined = generate_protocol(fig3.system, fig3.group, width=8,
                                        bus_name="B")
            result = simulate(refined, schedule=["P", "Q"],
                              metrics=metrics)
        return run_report(
            meta={"command": "test"},
            tracer=tracer,
            simulations=[sim_section("fig3", result, metrics)],
        )

    def test_schema_and_agreement(self, payload):
        assert payload["schema"] == "repro.obs/run-report/v1"
        (sim,) = payload["simulations"]
        post_hoc = sim["transaction_stats"]["B"]["transactions"]
        live = sim["live"]["buses"]["B"]["transactions"]
        assert post_hoc == live > 0
        assert sim["end_clock"] == sim["live"]["kernel"]["end_clock"]
        json.dumps(payload)   # fully serializable

    def test_prometheus_lines(self, payload):
        text = to_prometheus(payload)
        assert text.endswith("\n")
        assert 'repro_sim_end_clock{system="fig3"}' in text
        assert "repro_pipeline_stage_ms{" in text
        assert 'bus="B"' in text
        assert 'le="+Inf"' in text
        # Every sample line is 'name{labels} value' with a numeric
        # value; # lines are exposition-format metadata.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_")
            float(value)

    def test_prometheus_help_and_type_once_per_family(self, payload):
        text = to_prometheus(payload)
        helps = [line for line in text.splitlines()
                 if line.startswith("# HELP")]
        types = [line for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert helps and len(helps) == len(set(helps))
        assert len(types) == len(set(types))
        assert "# TYPE repro_sim_end_clock gauge" in text
        assert "# TYPE repro_bus_transactions_total counter" in text
        # Histogram buckets are declared under the base family name.
        assert "# TYPE repro_bus_latency_clocks histogram" in text
        assert "# TYPE repro_bus_latency_clocks_bucket" not in text
        # Metadata precedes the family's first sample.
        lines = text.splitlines()
        first_meta = lines.index("# TYPE repro_sim_end_clock gauge")
        first_sample = next(i for i, line in enumerate(lines)
                            if line.startswith("repro_sim_end_clock{"))
        assert first_meta < first_sample

    def test_prometheus_label_escaping(self):
        from repro.obs.export import _labels
        rendered = _labels({"system": 'a"b\\c\nd'})
        assert rendered == '{system="a\\"b\\\\c\\nd"}'


# ---------------------------------------------------------------------------
# One account of bus traffic: every surface reads the same fold
# ---------------------------------------------------------------------------

def _bus_account_cases():
    """3 case studies x protection x fault plan x backend.  The fault
    plans are the ``GOLDEN_VARIANTS`` ones, retargeted at each system's
    bus; a dropped DONE cannot be recovered on an unprotected bus (the
    run aborts, so no surface reports), hence that pairing is absent."""
    from tests.golden_util import GOLDEN_SYSTEMS, GOLDEN_VARIANTS
    plans = [None] + sorted(slug for slug, (_, _, factory)
                            in GOLDEN_VARIANTS.items() if factory)
    return [
        pytest.param(system, protection, plan, backend,
                     id=f"{system}-{protection or 'none'}-"
                        f"{plan or 'fault_free'}-{backend}")
        for system in GOLDEN_SYSTEMS
        for protection in (None, "parity", "crc8")
        for plan in plans
        if not (protection is None and plan == "flc_crc8_faulty")
        for backend in ("interp", "compiled")
    ]


def _prometheus_sample(text, metric, system, bus):
    prefix = f'repro_{metric}{{system="{system}",bus="{bus}"}} '
    (line,) = [line for line in text.splitlines()
               if line.startswith(prefix)]
    return line[len(prefix):]


@pytest.mark.parametrize("system,protection,plan,backend",
                         _bus_account_cases())
def test_every_surface_reports_one_bus_account(system, protection, plan,
                                               backend):
    """SimResult, both run-report blocks, Prometheus and the profile
    row report one ``busy_clocks`` / ``utilization`` per bus, and
    ``busy_clocks`` is the flight recorder's committed transfer time
    (its buckets minus the arbitration wait)."""
    from dataclasses import replace

    from repro.busgen.split import plan_buses
    from repro.cli import _profile_row
    from repro.explore.systems import load_system
    from repro.protogen.refine import refine_system
    from repro.sim.faults import FaultPlan
    from tests.golden_util import GOLDEN_VARIANTS

    loaded = load_system(system.replace("_", "-"))
    refined = refine_system(loaded.system, plan_buses(loaded.groups),
                            protection=protection)

    def run(recorder=None):
        faults = None
        if plan is not None:
            (bus,) = refined.buses
            faults = FaultPlan([replace(fault, bus=bus.name) for fault
                                in GOLDEN_VARIANTS[plan][2]()])
        metrics = SimMetrics()
        result = simulate(refined, schedule=loaded.schedule,
                          metrics=metrics, faults=faults,
                          recorder=recorder, backend=backend)
        return result, metrics

    result, metrics = run()
    assert len(result.fault_records) == (plan is not None)
    section = sim_section(system, result, metrics)
    prometheus = to_prometheus(run_report(meta={},
                                          simulations=[section]))
    recorder = obs.FlightRecorder()
    recorded, _ = run(recorder)
    assert recorded.buses == result.buses

    for name, stats in result.buses.items():
        busy, utilization = stats.busy_clocks, stats.utilization
        assert busy == sum(t.clocks for t in result.transactions[name])
        assert utilization == busy / result.end_time
        assert result.utilization[name] == utilization
        assert section["bus_utilization"][name] == utilization
        for block in (section["live"]["buses"][name],
                      section["transaction_stats"][name]):
            assert (block["busy_clocks"], block["utilization"]) \
                == (busy, utilization)
        assert _prometheus_sample(prometheus, "bus_busy_clocks", system,
                                  name) == str(busy)
        assert _prometheus_sample(prometheus, "bus_utilization", system,
                                  name) == f"{utilization:g}"
        committed = [txn for txn in recorder.transactions
                     if txn.bus == name and txn.outcome == "committed"]
        assert len(committed) == stats.transactions
        assert busy == sum(sum(txn.buckets.values())
                           - txn.buckets["arbitration_wait"]
                           for txn in committed)
    assert _profile_row(system, result, True)[3] \
        == max(result.utilization.values())


# ---------------------------------------------------------------------------
# VCD declared widths (satellite fix)
# ---------------------------------------------------------------------------

class TestVcdDeclaredWidth:
    def test_declared_width_wins_over_observed(self, tmp_path):
        time = [0]
        signal = Signal("ID", clock=lambda: time[0], trace=True, width=4)
        time[0] = 1
        signal.set(1)     # observed values only ever need 1 bit
        path = tmp_path / "out.vcd"
        write_vcd([signal], str(path))
        assert "$var wire 4 " in path.read_text()

    def test_widthless_signal_falls_back_to_observed(self, tmp_path):
        time = [0]
        signal = Signal("free", clock=lambda: time[0], trace=True)
        time[0] = 1
        signal.set(5)     # needs 3 bits
        path = tmp_path / "out.vcd"
        write_vcd([signal], str(path))
        assert "$var wire 3 " in path.read_text()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

PROTOGEN_STEPS = {
    "protogen.step1_protocol_selection",
    "protogen.step2_id_assignment",
    "protogen.step3_structure_and_procedures",
    "protogen.step4_update_variable_references",
    "protogen.step5_variable_processes",
}


class TestProfileCli:
    def test_profile_flc_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["profile", "flc",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "oracle" in out

        report = json.loads(metrics_path.read_text())
        assert report["schema"] == "repro.obs/run-report/v1"
        (sim,) = report["simulations"]
        assert sim["system"] == "flc"
        assert sim["live"]["kernel"]["steps"] > 0

        trace = json.loads(trace_path.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert PROTOGEN_STEPS <= names
        assert "sim.run" in names
        assert "busgen.generate_bus" in names

    def test_profile_prometheus_format(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        assert main(["profile", "flc", "--metrics-out", str(metrics_path),
                     "--metrics-format", "prom"]) == 0
        text = metrics_path.read_text()
        assert 'repro_sim_end_clock{system="flc"}' in text

    def test_profile_leaves_tracer_deactivated(self, tmp_path):
        assert main(["profile", "flc",
                     "--metrics-out", str(tmp_path / "m.json")]) == 0
        assert active_tracer() is None


class TestSynthObsFlags:
    def test_synth_writes_both_outputs(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["synth", "flc", "--simulate",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)]) == 0
        report = json.loads(metrics_path.read_text())
        (sim,) = report["simulations"]
        assert sim["live"]["kernel"]["end_clock"] == sim["end_clock"]
        trace = json.loads(trace_path.read_text())
        assert any(e.get("name") == "sim.run"
                   for e in trace["traceEvents"])

    def test_synth_without_flags_keeps_tracing_off(self, capsys):
        assert main(["synth", "flc"]) == 0
        assert active_tracer() is None

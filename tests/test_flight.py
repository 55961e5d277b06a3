"""Flight recorder: observer invariance, exact attribution, explain.

Four pillars, matching the recorder's stated guarantees:

* **Observer invariance** -- attaching a :class:`FlightRecorder` must
  not perturb the run: the canonical capture with a recorder attached
  is byte-identical to the committed golden logs (which were produced
  detached), on all three case studies and all protected/faulty
  variants.
* **Exact attribution** -- for every transaction, the clock buckets
  are exclusive, tile ``[request_clock, end_clock]`` contiguously and
  sum exactly to the latency; the critical path tiles ``[0,
  end_clock]``.  A hypothesis property pins the invariant under random
  single faults on the protected FLC design.
* **Causal resolution** -- every injected fault and every replayed
  model-checker witness resolves to a correlation id present in the
  journal; give-ups and deadlocks leave typed events behind.
* **explain surface** -- ``explain_payload`` / ``repro-synth explain``
  carry the same numbers end to end (text, ``--json``, trace export).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import DeadlockError, SimulationError
from repro.obs.flight import (
    BUCKETS,
    EVENT_KINDS,
    EXPLAIN_SCHEMA,
    FlightRecorder,
    critical_path,
    detect_anomalies,
    explain_payload,
    render_explain_text,
    summarize,
)
from repro.obs.simmetrics import Histogram
from repro.sim.faults import Fault, FaultKind, FaultPlan
from tests import golden_util

ALL_SLUGS = tuple(golden_util.GOLDEN_SYSTEMS) + tuple(
    sorted(golden_util.GOLDEN_VARIANTS))


@pytest.fixture(scope="module")
def flights():
    """Every golden system and variant, captured once with a recorder
    attached: slug -> (record, recorder)."""
    captured = {}
    for slug in golden_util.GOLDEN_SYSTEMS:
        recorder = FlightRecorder()
        captured[slug] = (golden_util.capture_system(
            slug, recorder=recorder), recorder)
    for slug in sorted(golden_util.GOLDEN_VARIANTS):
        recorder = FlightRecorder()
        captured[slug] = (golden_util.capture_variant(
            slug, recorder=recorder), recorder)
    return captured


# ---------------------------------------------------------------------------
# Observer invariance
# ---------------------------------------------------------------------------

class TestObserverInvariance:
    @pytest.mark.parametrize("slug", ALL_SLUGS)
    def test_attached_capture_matches_golden(self, slug, flights):
        """The committed goldens were generated *detached*; a recorder
        must reproduce them byte for byte."""
        record, _ = flights[slug]
        golden = golden_util.load_golden(slug)
        assert golden_util.dump(record) == golden_util.dump(golden), (
            f"{slug}: attaching the flight recorder changed the "
            "canonical simulation record")

    def test_detached_equals_attached_directly(self, flights):
        """Belt and braces: one fresh detached capture compared against
        the attached one, independent of the committed files."""
        detached = golden_util.capture_system("ethernet")
        attached, _ = flights["ethernet"]
        assert golden_util.dump(detached) == golden_util.dump(attached)


# ---------------------------------------------------------------------------
# Exact attribution
# ---------------------------------------------------------------------------

def _assert_exact(recorder):
    assert recorder.transactions, "run recorded no transactions"
    for txn in recorder.transactions:
        assert txn.outcome in ("committed", "gave_up", "incomplete")
        assert sum(txn.buckets.values()) == txn.latency_clocks, (
            f"cid={txn.correlation_id}: buckets "
            f"{txn.buckets} do not sum to latency "
            f"{txn.latency_clocks}")
        assert set(txn.buckets) == set(BUCKETS)
        cursor = txn.request_clock
        for start, end, bucket in txn.segments:
            assert bucket in BUCKETS
            assert start == cursor, (
                f"cid={txn.correlation_id}: segment gap/overlap at "
                f"{start} (expected {cursor})")
            assert end > start
            cursor = end
        if txn.end_clock is not None and txn.segments:
            assert cursor == txn.end_clock


class TestAttribution:
    @pytest.mark.parametrize("slug", ALL_SLUGS)
    def test_buckets_sum_to_latency(self, slug, flights):
        _, recorder = flights[slug]
        _assert_exact(recorder)

    @pytest.mark.parametrize("slug", ALL_SLUGS)
    def test_summary_is_exact(self, slug, flights):
        _, recorder = flights[slug]
        summary = summarize(recorder)
        assert summary["exact"] is True
        assert summary["transactions"] == len(recorder.transactions)
        assert (sum(summary["buckets"].values())
                == summary["transaction_clocks"])

    @pytest.mark.parametrize("slug", golden_util.GOLDEN_SYSTEMS)
    def test_clean_runs_commit_everything(self, slug, flights):
        _, recorder = flights[slug]
        assert all(t.outcome == "committed"
                   for t in recorder.transactions)
        assert all(t.retries == 0 for t in recorder.transactions)
        assert recorder.journal_kinds().get("RETRY", 0) == 0

    def test_crc8_pays_protection_clocks(self, flights):
        """CRC-8 on the 7-bit FLC bus appends one whole check word:
        one data clock + one handshake clock per committed transfer."""
        _, recorder = flights["flc_crc8"]
        for txn in recorder.transactions:
            assert txn.extra_check_words == 1
            assert txn.buckets["protection"] == 2

    def test_parity_fits_in_slack(self, flights):
        """Parity's single check bit fits the existing words: no extra
        bus clocks, so the protection bucket stays empty."""
        _, recorder = flights["flc_parity"]
        for txn in recorder.transactions:
            assert txn.extra_check_words == 0
            assert txn.buckets["protection"] == 0

    @pytest.mark.parametrize("slug", ["flc_parity_faulty",
                                      "flc_crc8_faulty"])
    def test_faulty_runs_attribute_recovery(self, slug, flights):
        _, recorder = flights[slug]
        retried = [t for t in recorder.transactions if t.retries]
        assert retried, "the golden fault plan must force a retry"
        for txn in retried:
            assert txn.buckets["recovery"] > 0
            assert txn.outcome == "committed"
        kinds = recorder.journal_kinds()
        assert kinds.get("RETRY", 0) >= 1
        assert kinds.get("FAULT", 0) >= 1


class TestCriticalPath:
    @pytest.mark.parametrize("slug", ALL_SLUGS)
    def test_path_tiles_the_whole_run(self, slug, flights):
        record, recorder = flights[slug]
        path = critical_path(recorder)
        assert path["end_clock"] == record["end_time"]
        assert path["total_clocks"] == path["end_clock"]
        cursor = 0
        for step in path["steps"]:
            assert step["start"] == cursor
            assert step["end"] > step["start"]
            assert step["clocks"] == step["end"] - step["start"]
            assert step["bucket"] in BUCKETS
            cursor = step["end"]
        assert cursor == path["end_clock"]

    @pytest.mark.parametrize("slug", golden_util.GOLDEN_SYSTEMS)
    def test_idle_steps_carry_cid_zero(self, slug, flights):
        _, recorder = flights[slug]
        for step in critical_path(recorder)["steps"]:
            if step["correlation_id"] == 0:
                assert step["bucket"] == "idle"
                assert step["bus"] is None


# ---------------------------------------------------------------------------
# Causal resolution: faults, give-ups, deadlocks, witness replays
# ---------------------------------------------------------------------------

class TestCorrelation:
    @pytest.mark.parametrize("slug", ["flc_parity_faulty",
                                      "flc_crc8_faulty"])
    def test_every_fault_resolves_to_a_chain(self, slug, flights):
        record, recorder = flights[slug]
        assert len(recorder.fault_correlations) == len(record["faults"])
        ids = recorder.correlation_ids()
        for cid in recorder.fault_correlations:
            assert cid in ids
            kinds = {e.kind for e in recorder.events_for(cid)}
            assert "FAULT" in kinds
            # The golden faults hit live transfers: the same chain
            # carries the transfer's own events.
            assert "TRANSFER_START" in kinds

    def test_ambient_fault_gets_fresh_cid(self):
        """A STUCK window armed while no transfer is open must still
        resolve -- under its own correlation id."""
        recorder = FlightRecorder()

        class _Record:
            bus = "B"
            line = "START"
            clock = 5
            kind = "stuck"
            detail = "held at 0"

        recorder.on_fault(_Record())
        assert len(recorder.fault_correlations) == 1
        cid = recorder.fault_correlations[0]
        assert [e.kind for e in recorder.events_for(cid)] == ["FAULT"]

    def test_giveup_leaves_a_typed_trail(self):
        """A persistent DONE drop defeats every retransmission: the
        transfer gives up, and the journal says so."""
        record = None
        recorder = FlightRecorder()
        plan = FaultPlan(faults=[Fault(
            kind=FaultKind.DROP, bus="B", line="DONE", once=False)])
        with pytest.raises(SimulationError):
            record = golden_util.capture_system(
                "flc", protection="crc8", faults=plan, recorder=recorder)
        assert record is None
        gave_up = [t for t in recorder.transactions
                   if t.outcome == "gave_up"]
        assert gave_up, "retry-budget exhaustion must close the txn"
        txn = gave_up[0]
        assert sum(txn.buckets.values()) == txn.latency_clocks
        assert txn.buckets["recovery"] > 0
        kinds = [e.kind for e in recorder.events_for(txn.correlation_id)]
        assert "GIVE_UP" in kinds
        # Each failed attempt journals RETRY except the last, which
        # journals GIVE_UP instead.
        assert kinds.count("RETRY") + 1 == txn.retries

    def test_deadlock_event(self):
        """A kernel deadlock lands in the journal before the raise."""
        from repro.sim.kernel import Simulator, WaitOn
        from repro.sim.signals import Signal

        recorder = FlightRecorder()
        sim = Simulator(recorder=recorder)
        never = Signal("never")

        def stuck():
            yield WaitOn(never)

        sim.add_process("stuck", stuck())
        with pytest.raises(DeadlockError):
            sim.run()
        kinds = recorder.journal_kinds()
        assert kinds.get("DEADLOCK") == 1

    def test_witness_replay_joins_the_journal(self):
        """An mc witness replayed with a recorder gets its own
        correlation id and REPLAY_START/REPLAY_END bracket."""
        from repro.analysis.mc import verify_refined
        from repro.analysis.mc import replay_witness
        from repro.analysis.mutations import CORPUS
        from repro.analysis.product import channel_models

        spec = CORPUS.find("ack_never_raised").build()
        witness = next(w for w in verify_refined(spec).witnesses
                       if w.claim.get("type") == "deadlock")
        model = channel_models(spec)[(witness.bus, witness.channel)]

        recorder = FlightRecorder()
        result = replay_witness(witness, model.accessor, model.server,
                                width=spec.bus(witness.bus).structure.width,
                                recorder=recorder)
        assert result.confirmed, result.render_text()
        assert result.correlation_id is not None
        assert result.correlation_id in recorder.correlation_ids()
        kinds = [e.kind
                 for e in recorder.events_for(result.correlation_id)]
        assert kinds == ["REPLAY_START", "REPLAY_END"]
        assert recorder.replays == [{
            "correlation_id": result.correlation_id,
            "claim": "deadlock",
            "confirmed": True,
            "clocks": result.clocks,
        }]

    def test_detached_replay_has_no_cid(self):
        from repro.analysis.mc import ReplayResult

        assert ReplayResult(confirmed=False, claim="x").correlation_id \
            is None


# ---------------------------------------------------------------------------
# Property: attribution stays exact under random single faults
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.test_fault_properties import single_faults  # noqa: E402


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(temperature=st.integers(0, 319), humidity=st.integers(0, 319),
       protection=st.sampled_from(["parity", "crc8"]),
       fault=single_faults)
def test_attribution_exact_under_random_faults(temperature, humidity,
                                               protection, fault):
    """For any random FLC instance and any single fault, every
    transaction's buckets remain exclusive and sum to its latency, and
    every fault record resolves to a journalled correlation id."""
    from repro.apps.flc import build_flc
    from repro.busgen.algorithm import generate_bus
    from repro.protogen.refine import refine_system
    from repro.sim.runtime import simulate

    model = build_flc(temperature, humidity)
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design],
                            protection=protection)
    recorder = FlightRecorder()
    plan = FaultPlan(faults=[fault])
    result = simulate(refined, schedule=model.schedule, faults=plan,
                      recorder=recorder)
    _assert_exact(recorder)
    assert summarize(recorder)["exact"] is True
    assert critical_path(recorder)["total_clocks"] == recorder.end_clock
    assert len(recorder.fault_correlations) == len(result.fault_records)
    ids = recorder.correlation_ids()
    assert all(cid in ids for cid in recorder.fault_correlations)


# ---------------------------------------------------------------------------
# Histogram quantiles (satellite of the same PR)
# ---------------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_single_value(self):
        h = Histogram()
        h.observe(7)
        assert h.quantile(0.0) == 7.0
        assert h.quantile(0.5) == 7.0
        assert h.quantile(1.0) == 7.0

    def test_clamped_to_observed_range(self):
        h = Histogram()
        for value in (2, 3, 4, 5):
            h.observe(value)
        assert h.quantile(0.0) == 2.0
        assert h.quantile(1.0) == 5.0
        assert 2.0 <= h.quantile(0.5) <= 5.0

    def test_monotone_in_q(self):
        h = Histogram()
        for value in (1, 1, 2, 3, 5, 8, 13, 21, 34, 55):
            h.observe(value)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)

    def test_overflow_bucket_reports_max(self):
        h = Histogram(bounds=(1, 2, 4))
        h.observe(1000)
        assert h.quantile(0.99) == 1000.0

    def test_out_of_range_q_rejected(self):
        h = Histogram()
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_to_dict_carries_p50_p99(self):
        h = Histogram()
        for value in range(100):
            h.observe(value)
        payload = h.to_dict()
        assert payload["p50"] is not None
        assert payload["p99"] is not None
        assert payload["p50"] <= payload["p99"]


# ---------------------------------------------------------------------------
# explain: payload, text, CLI
# ---------------------------------------------------------------------------

class TestExplain:
    def test_payload_shape(self, flights):
        record, recorder = flights["flc_crc8_faulty"]
        payload = explain_payload(recorder, system="flc_crc8_faulty")
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert payload["end_clock"] == record["end_time"]
        assert (payload["critical_path"]["total_clocks"]
                == payload["end_clock"])
        assert len(payload["transactions"]) == len(recorder.transactions)
        assert set(payload["journal"]) <= set(EVENT_KINDS)
        json.dumps(payload, sort_keys=True)  # must be serializable

    def test_text_render_mentions_every_bucket(self, flights):
        _, recorder = flights["flc"]
        payload = explain_payload(recorder, system="flc")
        text = render_explain_text(payload)
        for bucket in BUCKETS:
            assert bucket in text
        assert "critical path" in text

    def test_anomaly_free_clean_small_run(self, flights):
        _, recorder = flights["answering_machine"]
        kinds = {a["kind"] for a in detect_anomalies(recorder)}
        assert "gave_up" not in kinds
        assert "incomplete" not in kinds


class TestExplainCli:
    def test_text_mode(self, capsys):
        assert main(["explain", "ethernet"]) == 0
        out = capsys.readouterr().out
        assert "clock attribution" in out
        assert "critical path" in out

    def test_json_mode_is_exact(self, capsys):
        assert main(["explain", "ethernet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert (payload["critical_path"]["total_clocks"]
                == payload["end_clock"])
        assert payload["attribution"]["exact"] is True

    def test_faulty_protected_run(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [{
            "kind": "drop", "bus": "B", "line": "DONE",
            "transaction": 5}]}))
        assert main(["explain", "flc", "--protection", "crc8",
                     "--faults", str(plan), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"], "the plan must fire"
        assert all("correlation_id" in f for f in payload["faults"])
        assert payload["journal"].get("RETRY", 0) >= 1

    def test_trace_out(self, tmp_path, capsys):
        target = str(tmp_path / "flight.json")
        assert main(["explain", "ethernet", "--trace-out",
                     target]) == 0
        with open(target, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "transaction" in cats
        assert "attribution" in cats

    def test_metrics_out_carries_attribution(self, tmp_path, capsys):
        target = str(tmp_path / "report.json")
        assert main(["explain", "ethernet", "--metrics-out",
                     target]) == 0
        with open(target, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        attribution = report["simulations"][0]["attribution"]
        assert attribution["exact"] is True

    def test_giveup_run_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [{
            "kind": "drop", "bus": "B", "line": "DONE",
            "once": False}]}))
        assert main(["explain", "flc", "--protection", "crc8",
                     "--faults", str(plan), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["aborted"]
        assert payload["journal"].get("GIVE_UP", 0) >= 1
        outcomes = {t["outcome"] for t in payload["transactions"]}
        assert "gave_up" in outcomes

"""Temporal model checker (repro.analysis.mc) and witness replay."""

import json

import pytest

from repro.analysis import DiagnosticSet, Severity, analyze_refined
from repro.analysis.mc import (
    PROPERTY_IDS,
    Witness,
    build_temporal_graph,
    check_channel,
    verify_refined,
)
from repro.analysis.mc.checker import (
    PROP_RACE,
    PROP_RESPONSE,
    PROP_RETRY,
    PROVED,
    REFUTED,
    UNKNOWN,
    termination_bound,
)
from repro.analysis.mc.graph import attempt_starts, retry_budget
from repro.analysis.mutations import CORPUS, build_target
from repro.analysis.product import channel_models
from repro.errors import AnalysisError
from repro.protocols import (
    BURST_HANDSHAKE,
    FIXED_DELAY,
    FULL_HANDSHAKE,
    HALF_HANDSHAKE,
    as_protection_plan,
)
from repro.analysis.mc import replay_witness
from tests.conftest import make_pair

SHAREABLE = [FULL_HANDSHAKE, HALF_HANDSHAKE, FIXED_DELAY, BURST_HANDSHAKE]

P7XX = {"P701", "P702", "P703", "P704", "P705"}

#: The temporal slice of the seeded-defect corpus and the one code each
#: mutation must trip -- and the only P7xx code it may trip.
TEMPORAL_DEFECTS = {
    "ack_never_raised": "P701",
    "retry_counter_reset_in_loop": "P702",
    "double_driver_on_nack": "P703",
    "server_stutter_loop": "P704",
    "retry_without_plan": "P705",
}


def _defect(name):
    return CORPUS.find(name)


@pytest.fixture(scope="module")
def temporal_reports():
    """verify_refined over the temporal defect corpus, once per module."""
    reports = {}
    for name in TEMPORAL_DEFECTS:
        spec = _defect(name).build()
        reports[name] = (spec, verify_refined(spec))
    return reports


class TestGraph:
    def test_clean_pair_reaches_rest_and_back(self):
        accessor, server, _ = make_pair(FULL_HANDSHAKE)
        graph = build_temporal_graph(accessor, server, None)
        assert any(graph.is_rest(x) for x in graph.states)
        assert any(not graph.is_rest(x) for x in graph.states)
        # Unprotected pair: the counter dimension never moves.
        assert {counter for _, counter in graph.states} == {0}
        assert graph.budget is None

    def test_attempt_starts_found_on_protected_pair(self):
        plan = as_protection_plan("crc8")
        accessor, _, _ = make_pair(FULL_HANDSHAKE, plan=plan)
        starts = attempt_starts(accessor)
        assert starts, "protected accessor must expose attempt states"

    def test_retry_budget_from_plan(self):
        plan = as_protection_plan("crc8")
        expected = -(-plan.max_retries // plan.retry_step)
        assert retry_budget(plan) == expected
        assert retry_budget(None) is None

    def test_protected_pair_carries_counters(self):
        plan = as_protection_plan("crc8")
        accessor, server, _ = make_pair(FULL_HANDSHAKE, plan=plan)
        graph = build_temporal_graph(accessor, server, plan)
        assert graph.budget == retry_budget(plan)
        assert graph.abstraction_failure is None
        counters = {counter for _, counter in graph.states}
        assert counters and all(0 <= c <= graph.budget
                                for c in counters)


class TestTerminationBound:
    def test_unprotected_bound_is_message_clocks(self):
        bound = termination_bound(None, FULL_HANDSHAKE, 2)
        assert bound == FULL_HANDSHAKE.message_clocks(2)

    def test_protected_bound_counts_attempts_and_timeouts(self):
        plan = as_protection_plan("crc8")
        words = 3
        handshake = FULL_HANDSHAKE.message_clocks(words)
        expected = (plan.max_retries + 1) * (
            max(1, plan.timeout_clocks) + handshake)
        assert termination_bound(plan, FULL_HANDSHAKE, words) == expected


class TestCleanProofs:
    @pytest.mark.parametrize("protocol", SHAREABLE,
                             ids=lambda p: p.name)
    def test_clean_pairs_prove_every_property(self, protocol):
        accessor, server, structure = make_pair(protocol)
        verdicts = check_channel(accessor, server,
                                 protocol=protocol, words=2)
        assert {v.property_id for v in verdicts} == set(PROPERTY_IDS)
        assert all(v.status == PROVED for v in verdicts), [
            (v.property_id, v.status, v.message) for v in verdicts]

    @pytest.mark.parametrize("protection", [None, "parity", "crc8"])
    def test_clean_flc_verifies(self, protection):
        spec = build_target(protection=protection)
        report = verify_refined(spec)
        assert report.ok, report.render_text()
        assert report.counts()[REFUTED] == 0
        retry = [v for v in report.verdicts
                 if v.property_id == PROP_RETRY]
        assert retry and all(v.bound_clocks and v.bound_clocks > 0
                             for v in retry)

    def test_report_dict_schema(self):
        report = verify_refined(build_target())
        data = report.to_dict()
        assert data["schema"] == "repro.mc/verification/v1"
        assert data["ok"] is True
        assert data["counts"][PROVED] == len(report.verdicts)


class TestTemporalDefects:
    @pytest.mark.parametrize("name", sorted(TEMPORAL_DEFECTS))
    def test_trips_exactly_its_own_p7xx_code(self, name):
        ds = analyze_refined(_defect(name).build())
        tripped = set(ds.codes()) & P7XX
        assert tripped == {TEMPORAL_DEFECTS[name]}, (
            f"{name}: wanted exactly {{{TEMPORAL_DEFECTS[name]}}}, "
            f"tripped {sorted(tripped)}\n" + ds.render_text())

    def test_starvation_is_a_warning(self, temporal_reports):
        _, report = temporal_reports["server_stutter_loop"]
        starved = [v for v in report.verdicts
                   if v.code == "P704"]
        assert starved
        # Response stays proved: completion only *relies* on fairness.
        assert all(v.status == PROVED for v in report.verdicts
                   if v.property_id == PROP_RESPONSE)

    def test_abstraction_failure_degrades_to_unknown(self,
                                                     temporal_reports):
        _, report = temporal_reports["retry_without_plan"]
        p705 = [v for v in report.verdicts if v.code == "P705"]
        assert p705
        unknown = [v for v in report.verdicts
                   if v.status == UNKNOWN]
        assert unknown, "liveness family must degrade, not guess"
        # Race checking is unaffected by the abstraction failure.
        races = [v for v in report.verdicts
                 if v.property_id == PROP_RACE and v.channel]
        assert races and all(v.status == PROVED for v in races)

    def test_refutations_carry_witnesses(self, temporal_reports):
        for name in ("ack_never_raised", "retry_counter_reset_in_loop",
                     "double_driver_on_nack"):
            _, report = temporal_reports[name]
            refuted = [v for v in report.verdicts
                       if v.status == REFUTED and v.code in P7XX]
            assert refuted, name
            assert any(v.witness is not None for v in refuted), name


class TestWitness:
    def test_json_round_trip(self, tmp_path, temporal_reports):
        _, report = temporal_reports["ack_never_raised"]
        witness = report.witnesses[0]
        path = tmp_path / "w.json"
        witness.save(path)
        loaded = Witness.load(path)
        assert loaded.to_dict() == witness.to_dict()
        assert loaded.kind in ("finite", "lasso")
        assert loaded.steps

    def test_wrong_schema_rejected(self):
        with pytest.raises(AnalysisError):
            Witness.from_dict({"schema": "bogus/v0"})

    def test_lasso_cycle_property(self, temporal_reports):
        _, report = temporal_reports["retry_counter_reset_in_loop"]
        lassos = [w for w in report.witnesses if w.kind == "lasso"]
        assert lassos
        witness = lassos[0]
        assert witness.loop_start is not None
        assert witness.cycle
        assert witness.stem == witness.steps[:witness.loop_start]


def _witnessed_pair(spec, witness):
    """The (mutated) controller pair a witness names, from the spec's
    channel models."""
    model = channel_models(spec)[(witness.bus, witness.channel)]
    return (model.accessor, model.server,
            spec.bus(witness.bus).structure.width)


class TestReplay:
    @pytest.mark.parametrize("name,claim", [
        ("ack_never_raised", "deadlock"),
        ("retry_counter_reset_in_loop", "unbounded_retry"),
        ("double_driver_on_nack", "drive_race"),
        ("server_stutter_loop", "starvation"),
    ])
    def test_witness_replays_confirmed(self, name, claim,
                                       temporal_reports):
        spec, report = temporal_reports[name]
        witnesses = [w for w in report.witnesses
                     if w.claim.get("type") == claim]
        assert witnesses, (
            f"{name}: no {claim} witness in "
            f"{[w.claim for w in report.witnesses]}")
        witness = witnesses[0]
        accessor, server, width = _witnessed_pair(spec, witness)
        result = replay_witness(witness, accessor, server, width=width)
        assert result.confirmed, result.render_text()
        assert result.divergence is None
        assert result.steps_run >= len(witness.stem)

    def test_replay_diverges_on_wrong_pair(self, temporal_reports):
        """A witness replayed against the *clean* controllers must not
        confirm -- the defect is in the mutation, not the design."""
        _, report = temporal_reports["ack_never_raised"]
        witness = report.witnesses[0]
        clean = build_target()
        model = channel_models(clean)[(witness.bus, witness.channel)]
        result = replay_witness(
            witness, model.accessor, model.server,
            width=clean.bus(witness.bus).structure.width)
        assert not result.confirmed


class TestDedupe:
    def test_keeps_highest_severity_sighting(self):
        ds = DiagnosticSet(system="s")
        ds.add("P201", Severity.WARNING, "shared (pass 1)")
        ds.add("P101", Severity.ERROR, "stuck")
        ds.add("P201", Severity.ERROR, "shared (pass 2)")
        ds.dedupe()
        kept = [d for d in ds if d.code == "P201"]
        assert len(kept) == 1
        assert kept[0].severity is Severity.ERROR
        assert "pass 2" in kept[0].message

    def test_first_seen_position_and_lower_severity_dropped(self):
        ds = DiagnosticSet(system="s")
        ds.add("P201", Severity.ERROR, "first")
        ds.add("P101", Severity.ERROR, "other")
        ds.add("P201", Severity.WARNING, "echo")
        ds.dedupe()
        codes = [d.code for d in ds]
        assert codes == ["P201", "P101"]
        kept = [d for d in ds if d.code == "P201"][0]
        assert kept.severity is Severity.ERROR
        assert kept.message == "first"

    def test_distinct_locations_not_merged(self):
        from repro.analysis import SourceLocation

        ds = DiagnosticSet(system="s")
        ds.add("P101", Severity.ERROR, "a",
               SourceLocation("channel", "ch0"))
        ds.add("P101", Severity.ERROR, "b",
               SourceLocation("channel", "ch1"))
        ds.dedupe()
        assert len(list(ds)) == 2


class TestCli:
    def test_verify_clean_system_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "flc"]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "0 refuted" in out

    def test_verify_json_is_well_formed(self, capsys):
        from repro.cli import main

        assert main(["verify", "flc", "--json",
                     "--protection", "crc8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.mc/verification/v1"
        assert data["ok"] is True

    def test_verify_mutation_fails_and_writes_witness(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        wdir = tmp_path / "w"
        assert main(["verify", "--mutate", "ack_never_raised",
                     "--witness-dir", str(wdir)]) == 1
        files = sorted(wdir.glob("witness_*.json"))
        assert files
        assert "P701" in files[0].name

    def test_replay_round_trip_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        wdir = tmp_path / "w"
        main(["verify", "--mutate", "ack_never_raised",
              "--witness-dir", str(wdir)])
        witness = sorted(wdir.glob("witness_*P701*.json"))[0]
        assert main(["verify", "--replay", str(witness)]) == 0
        out = capsys.readouterr().out
        assert "CONFIRMED" in out

    @pytest.mark.parametrize("content,message", [
        (None, "cannot load witness"),
        ("xx", "cannot load witness"),
        ('["steps"]', "not a repro.mc/witness/v1 witness"),
        ('{"schema": "repro.mc/witness/v1"}', "invalid field 'system'"),
    ])
    def test_replay_of_a_bad_file_is_a_clean_error(self, tmp_path, capsys,
                                                   content, message):
        from repro.cli import main

        path = tmp_path / "witness.json"
        if content is not None:
            path.write_text(content)
        assert main(["verify", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_warning_only_defect_respects_fail_on(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mutate", "server_stutter_loop"]) == 0
        assert main(["verify", "--mutate", "server_stutter_loop",
                     "--fail-on", "warning"]) == 1

    def test_unknown_mutation_rejected(self, capsys):
        from repro.cli import main

        assert main(["verify", "--mutate", "not_a_defect"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown mutation 'not_a_defect'")


class TestSynthGate:
    def test_blocking_predicate(self):
        from repro.analysis.mc.checker import PropertyVerdict
        from repro.analysis.mc import VerificationReport
        from repro.analysis.diagnostics import Severity
        from repro.cli import _refuted_at

        def rep(status, code):
            r = VerificationReport(system="s")
            r.verdicts.append(PropertyVerdict(
                property_id=PROP_RESPONSE, bus="B", channel="ch",
                status=status, code=code))
            return r

        assert not _refuted_at(rep(PROVED, None), Severity.ERROR)
        assert _refuted_at(rep(REFUTED, "P701"), Severity.ERROR)
        assert _refuted_at(rep(UNKNOWN, "P705"), Severity.ERROR)
        # Starvation warnings never block VHDL emission.
        assert not _refuted_at(rep(REFUTED, "P704"), Severity.ERROR)
        # ... but they do fail `verify --fail-on warning`.
        assert _refuted_at(rep(REFUTED, "P704"), Severity.WARNING)

    def test_vhdl_emission_gated_on_proof(self, tmp_path, monkeypatch,
                                          capsys):
        """A refuted error-severity property must block `synth --vhdl`."""
        import repro.cli as cli
        from repro.analysis.mc import VerificationReport
        from repro.analysis.mc.checker import PropertyVerdict

        def refute(spec, **kw):
            r = VerificationReport(system=spec.name)
            r.verdicts.append(PropertyVerdict(
                property_id=PROP_RESPONSE, bus="B", channel="ch1",
                status=REFUTED, code="P701", message="seeded"))
            return r

        monkeypatch.setattr("repro.analysis.mc.verify_refined", refute)
        target = tmp_path / "out.vhd"
        code = cli.main(["synth", "flc", "--vhdl", str(target)])
        assert code == 1
        assert not target.exists()
        out = capsys.readouterr().out
        assert "P701" in out

    def test_vhdl_emission_proceeds_when_clean(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "flc.vhd"
        assert main(["synth", "flc", "--vhdl", str(target)]) == 0
        assert target.exists()

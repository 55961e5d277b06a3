"""Tests for the static protocol analyzer (repro.analysis)."""

import json
import re

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticSet,
    Severity,
    SourceLocation,
    analyze_refined,
    check_fsm_pair,
    explore_product,
)
from repro.analysis.mutations import build_target
from repro.busgen.split import plan_buses
from repro.errors import AnalysisError, DIAGNOSTIC_CODES, diagnostic_summary
from repro.explore.systems import load_system
from repro.protocols import (
    BURST_HANDSHAKE,
    FIXED_DELAY,
    FULL_HANDSHAKE,
    HALF_HANDSHAKE,
    HARDWIRED,
)
from repro.protogen.refine import refine_system
from repro.spec.access import Direction
from tests.conftest import make_pair

SHAREABLE = [FULL_HANDSHAKE, HALF_HANDSHAKE, FIXED_DELAY, BURST_HANDSHAKE]


class TestRegistry:
    def test_every_code_has_a_summary(self):
        for code in DIAGNOSTIC_CODES:
            assert diagnostic_summary(code)

    def test_unknown_code_raises(self):
        with pytest.raises(AnalysisError):
            diagnostic_summary("P999")

    def test_code_families_present(self):
        families = {code[:2] for code in DIAGNOSTIC_CODES}
        assert families == {"P1", "P2", "P3", "P4", "P5", "P6", "P7",
                            "P8"}

    def test_every_code_documented_in_linting_md(self):
        """Registry drift vs the docs: each registered code must have
        its own `### Pxxx` section in docs/linting.md."""
        from pathlib import Path

        doc = Path(__file__).resolve().parent.parent \
            / "docs" / "linting.md"
        text = doc.read_text(encoding="utf-8")
        documented = set(re.findall(r"^### (P\d{3})", text, re.M))
        missing = set(DIAGNOSTIC_CODES) - documented
        assert not missing, (
            f"codes registered but undocumented in docs/linting.md: "
            f"{sorted(missing)}")
        phantom = documented - set(DIAGNOSTIC_CODES)
        assert not phantom, (
            f"docs/linting.md documents unregistered codes: "
            f"{sorted(phantom)}")


class TestDiagnostics:
    def test_unknown_code_rejected_at_construction(self):
        with pytest.raises(AnalysisError):
            Diagnostic("P999", Severity.ERROR, "nope")

    def test_severity_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.parse("ERROR") is Severity.ERROR
        with pytest.raises(AnalysisError):
            Severity.parse("fatal")

    def test_render_includes_code_location_and_hint(self):
        diagnostic = Diagnostic(
            "P101", Severity.ERROR, "stuck",
            SourceLocation("channel", "ch1", detail="bus B"),
            hint="check DONE")
        text = diagnostic.render()
        assert "P101" in text
        assert "channel ch1 [bus B]" in text
        assert "check DONE" in text

    def test_set_counts_and_threshold(self):
        ds = DiagnosticSet(system="s")
        ds.add("P401", Severity.WARNING, "dead")
        ds.add("P101", Severity.ERROR, "stuck")
        assert ds.counts() == {"info": 0, "warning": 1, "error": 1}
        assert ds.at_least(Severity.ERROR)
        assert not ds.clean
        assert [d.code for d in ds.errors] == ["P101"]

    def test_json_round_trip(self):
        ds = DiagnosticSet(system="s")
        ds.add("P303", Severity.ERROR, "gap",
               SourceLocation("channel", "ch0"), hint="regenerate")
        data = json.loads(ds.render_json())
        assert data["system"] == "s"
        assert data["clean"] is False
        assert data["diagnostics"][0]["code"] == "P303"
        assert data["diagnostics"][0]["location"]["name"] == "ch0"


class TestProductEngine:
    @pytest.mark.parametrize("protocol", SHAREABLE,
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("direction", [Direction.WRITE,
                                           Direction.READ],
                             ids=["write", "read"])
    def test_clean_pairs_have_no_defects(self, protocol, direction):
        accessor, server, _ = make_pair(protocol, direction=direction)
        result = explore_product(accessor, server)
        assert result.ok, (result.deadlocks, result.livelocked,
                           result.unreachable_accessor,
                           result.unreachable_server, result.never_fired)

    def test_hardwired_pair_clean(self):
        accessor, server, _ = make_pair(HARDWIRED, width=23, count=1)
        result = explore_product(accessor, server)
        assert result.ok

    @pytest.mark.parametrize("width", [1, 4, 8, 16, 23])
    def test_widths_explore_cleanly(self, width):
        accessor, server, _ = make_pair(FULL_HANDSHAKE, width=width)
        result = explore_product(accessor, server)
        assert result.ok
        assert len(result.reachable) >= 2

    def test_check_fsm_pair_reports_into_set(self):
        from dataclasses import replace

        accessor, server, _ = make_pair(FULL_HANDSHAKE)
        # Drop every DONE drive from the server: classic dropped-ack.
        server = replace(server, states=[
            replace(s, actions=tuple(a for a in s.actions
                                     if a != "DONE <= '1'"))
            for s in server.states])
        ds = DiagnosticSet(system="pair")
        result = check_fsm_pair(accessor, server, ds,
                                bus_name="B", channel_name="ch0")
        assert result.deadlocks
        assert "P101" in ds.codes()


class TestCleanApps:
    @pytest.mark.parametrize("name", ["flc", "answering-machine",
                                      "ethernet"])
    def test_builtin_systems_lint_clean(self, name):
        loaded = load_system(name)
        spec = refine_system(loaded.system, plan_buses(loaded.groups))
        ds = analyze_refined(spec)
        assert ds.clean, ds.render_text()

    def test_flc_all_shareable_protocols_error_free(self):
        for protocol in SHAREABLE:
            spec = build_target(protocol)
            ds = analyze_refined(spec)
            assert not ds.errors, ds.render_text()

    def test_analysis_is_read_only(self):
        spec = build_target()
        before = spec.buses[0].structure
        analyze_refined(spec)
        assert spec.buses[0].structure is before
        ds_again = analyze_refined(spec)
        assert ds_again.clean

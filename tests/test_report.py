"""Tests for the synthesis report generator."""

import pytest

from repro.busgen.algorithm import generate_bus
from repro.protogen.refine import generate_protocol, refine_system
from repro.protogen.report import (
    bus_report,
    performance_report,
    synthesis_report,
)

from tests.conftest import make_fig3


@pytest.fixture
def refined():
    fig3 = make_fig3()
    return generate_protocol(fig3.system, fig3.group, width=8,
                             bus_name="B")


class TestBusReport:
    def test_structure_facts(self, refined):
        text = bus_report(refined.buses[0])
        assert "BUS B" in text
        assert "full_handshake" in text
        assert "8 data + 2 id + 2 control" in text
        assert "= 12 pins" in text

    def test_every_channel_listed_with_id(self, refined):
        text = bus_report(refined.buses[0])
        structure = refined.buses[0].structure
        for channel in refined.buses[0].group:
            assert channel.name in text
            assert structure.ids.code_bits(channel.name) in text

    def test_procedures_and_fsm_states(self, refined):
        text = bus_report(refined.buses[0])
        assert "SendCH" in text
        assert "states)" in text

    def test_variable_processes(self, refined):
        text = bus_report(refined.buses[0])
        assert "Xproc" in text
        assert "MEMproc" in text

    def test_area_line(self, refined):
        text = bus_report(refined.buses[0])
        assert "gate-equivalents" in text

    def test_design_facts_when_attached(self):
        fig3 = make_fig3()
        from repro.apps.flc import build_flc
        flc = build_flc()
        design = generate_bus(flc.bus_b)
        refined = refine_system(flc.system, [design])
        text = bus_report(refined.buses[0])
        assert "bus rate" in text
        assert "reduction" in text


class TestPerformanceReport:
    def test_lists_communicating_processes(self, refined):
        text = performance_report(refined)
        assert "P" in text
        assert "Q" in text
        assert "comm clk" in text

    def test_comm_clocks_match_estimator(self, refined):
        from repro.estimate.perf import PerformanceEstimator

        text = performance_report(refined)
        estimator = PerformanceEstimator()
        fig3_p = refined.original.behavior("P")
        bus = refined.buses[0]
        expected = estimator.comm_clocks(
            fig3_p, bus.group.channels, 8, bus.structure.protocol)
        assert str(expected) in text


    def test_tightened_layout_sets_comm_clocks(self, capsys):
        """``--tighten-fields`` moves 3 words per message at width 8
        (6 clk), so EVAL_R3's 128 sends cost 768 clocks, not the 1024
        of the declared 23-bit message."""
        from repro.cli import main

        assert main(["synth", "flc", "--width", "8", "--tighten-fields",
                     "--report"]) == 0
        row = next(line.split() for line in
                   capsys.readouterr().out.splitlines()
                   if line.split()[:1] == ["EVAL_R3"])
        assert row == ["EVAL_R3", "769", "768", "1537"]


class TestSynthesisReport:
    def test_full_report(self, refined):
        text = synthesis_report(refined)
        assert "INTERFACE SYNTHESIS REPORT" in text
        assert "BUS B" in text
        assert "PROCESS PERFORMANCE" in text

    def test_multi_bus_report(self):
        from repro.apps.flc import build_flc
        from repro.channels.group import ChannelGroup

        flc = build_flc()
        rest = [c for c in flc.channels if c not in flc.bus_b.channels]
        refined = refine_system(
            flc.system,
            [(flc.bus_b, 16), (ChannelGroup("REST", rest), 16)])
        text = synthesis_report(refined)
        assert "BUS B" in text
        assert "BUS REST" in text

    def test_cli_report_flag(self, capsys):
        from repro.cli import main

        assert main(["synth", "flc", "--width", "20", "--report"]) == 0
        out = capsys.readouterr().out
        assert "INTERFACE SYNTHESIS REPORT" in out

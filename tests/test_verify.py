"""Tests for the refinement verification driver."""

import pytest

from repro.protogen.refine import generate_protocol, refine_system
from repro.protocols import BURST_HANDSHAKE, HALF_HANDSHAKE
from repro.verify import verify_refinement

from tests.conftest import make_fig3


class TestPassingVerification:
    def test_fig3_passes(self, fig3):
        refined = generate_protocol(fig3.system, fig3.group, width=8)
        report = verify_refinement(fig3.system, refined,
                                   schedule=["P", "Q"])
        assert report.passed
        assert "PASSED" in report.describe()
        assert report.golden is not None
        assert report.refined is not None

    @pytest.mark.parametrize("protocol", [HALF_HANDSHAKE, BURST_HANDSHAKE],
                             ids=lambda p: p.name)
    def test_other_protocols_pass(self, fig3, protocol):
        refined = generate_protocol(fig3.system, fig3.group, width=8,
                                    protocol=protocol)
        report = verify_refinement(fig3.system, refined,
                                   schedule=["P", "Q"])
        assert report.passed

    def test_flc_bus_b_passes(self, flc):
        refined = refine_system(flc.system, [(flc.bus_b, 16)])
        report = verify_refinement(flc.system, refined,
                                   schedule=flc.schedule)
        assert report.passed

    def test_concurrent_schedule_without_clock_check(self, fig3):
        """Under contention measured clocks legally exceed estimates;
        check_clocks=False verifies functionality only."""
        refined = generate_protocol(fig3.system, fig3.group, width=8)
        report = verify_refinement(fig3.system, refined,
                                   schedule=[["P", "Q"]],
                                   check_clocks=False)
        assert not report.clock_mismatches
        assert not report.value_mismatches


class TestFailingVerification:
    def test_tampered_data_detected(self, fig3):
        """Corrupt a refined Send's data expression: verification
        reports both the value and the sequence divergence."""
        from repro.protogen.procedures import CommProcedure
        from repro.spec.expr import Const
        from repro.spec.stmt import Call

        refined = generate_protocol(fig3.system, fig3.group, width=8)
        q = refined.behavior("Q")
        call = next(s for s in q.body if isinstance(s, Call))
        call.args[-1] = Const(13)   # golden writes 42
        report = verify_refinement(fig3.system, refined,
                                   schedule=["P", "Q"])
        assert not report.passed
        assert any(m.variable == "MEM" and m.index == 60
                   for m in report.value_mismatches)
        assert any(m.channel for m in report.sequence_mismatches)
        assert "FAILED" in report.describe()

    def test_dropped_transfer_detected_as_sequence_mismatch(self, fig3):
        """Delete a refined call: the channel's transfer sequence is
        shorter than the golden trace."""
        from repro.spec.stmt import Call

        refined = generate_protocol(fig3.system, fig3.group, width=8)
        q = refined.behavior("Q")
        q.body[:] = [s for s in q.body if not isinstance(s, Call)]
        report = verify_refinement(fig3.system, refined,
                                   schedule=["P", "Q"])
        assert not report.passed
        mismatch = next(m for m in report.sequence_mismatches)
        assert mismatch.refined is None          # transfer missing
        assert mismatch.golden is not None

    def test_injected_delay_detected_as_clock_mismatch(self, fig3):
        """Extra latency in a refined behavior shows up in the clock
        cross-check (values still correct)."""
        from repro.spec.stmt import WaitClocks

        refined = generate_protocol(fig3.system, fig3.group, width=8)
        refined.behavior("Q").body.insert(0, WaitClocks(17))
        report = verify_refinement(fig3.system, refined,
                                   schedule=["P", "Q"])
        assert not report.value_mismatches
        assert any(m.behavior == "Q" and m.low == m.high
                   and m.measured - m.high == 17
                   for m in report.clock_mismatches)

    def test_cli_verify_flag(self, capsys):
        from repro.cli import main

        assert main(["synth", "answering-machine", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out

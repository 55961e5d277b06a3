"""Tests for the repro-synth command-line interface."""

import contextlib
import io
import os
import shutil

import pytest

import repro.cli as cli
from repro.cli import build_parser, main


class TestParser:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "full_handshake" in out
        assert "burst_handshake" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_system_rejected(self, capsys):
        assert main(["synth", "nope"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown system 'nope'")

    @pytest.mark.parametrize("command", ["lint", "verify", "explain",
                                         "profile"])
    def test_every_command_rejects_an_unknown_system(self, command,
                                                     capsys):
        assert main([command, "nope"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown system 'nope'")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestUnusableArguments:
    """A path or count the command cannot use ends in ``error: …`` or
    an argparse error with exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["explain", "flc", "--faults", "{missing}"],
        ["synth", "flc", "--vhdl", "{missing}"],
        ["synth", "flc", "--trace-out", "{missing}"],
        ["synth", "flc", "--metrics-out", "{missing}"],
        ["explain", "flc", "--trace-out", "{missing}"],
        ["explain", "flc", "--metrics-out", "{missing}"],
        ["explore", "_demo", "--grid", "width=1", "--report-out",
         "{missing}"],
        ["verify", "flc", "--witness-dir", "{regular}"],
        ["explore", "_demo", "--grid", "width=1", "--cache", "{regular}"],
    ], ids=["explain-faults", "synth-vhdl",
            "synth-trace-out", "synth-metrics-out", "explain-trace-out",
            "explain-metrics-out", "explore-report-out",
            "verify-witness-dir", "explore-cache"])
    def test_unusable_path_names_it_and_exits_2(self, argv, tmp_path,
                                                capsys):
        regular = tmp_path / "regular"
        regular.write_text("")
        paths = {"missing": str(tmp_path / "no_such_dir" / "file.json"),
                 "regular": str(regular)}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert argv[-1] in err

    def test_unusable_sim_source_dir_fails_before_the_flow(self, tmp_path,
                                                           capsys):
        regular = tmp_path / "regular"
        regular.write_text("")
        target = str(regular / "sub")
        assert main(["synth", "flc", "--simulate", "--backend", "compiled",
                     "--emit-sim-source", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {target}: "
                                "Not a directory\n")

    @pytest.mark.parametrize("argv", [
        ["explain", "flc", "--top", "-1"],
        ["explain", "flc", "--top", "0"],
        ["profile", "flc", "--repeat", "0"],
        ["profile", "flc", "--repeat", "-3"],
    ])
    def test_count_below_one_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestOutputPathsCheckedUpFront:
    """``--metrics-out``/``--trace-out`` are checked before the flow
    runs, and an error of the flow itself is never replaced by one of
    the observability write."""

    @pytest.mark.parametrize("command", [
        ["synth", "flc", "--simulate"], ["profile", "flc"],
        ["explain", "flc"]], ids=["synth", "profile", "explain"])
    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out"])
    def test_unwritable_path_fails_before_the_flow(self, command, flag,
                                                   tmp_path, capsys):
        target = str(tmp_path / "no_such_dir" / "out.json")
        assert main([*command, flag, target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {target}: "
                                "No such file or directory\n")

    def test_check_leaves_no_probe_file(self, tmp_path, monkeypatch,
                                        capsys):
        target = tmp_path / "m.json"

        def failing_flow(run):
            assert not target.exists()
            raise cli.ReproError("flow broke")

        monkeypatch.setattr(cli, "_synth_flow", failing_flow)
        assert main(["synth", "flc", "--metrics-out", str(target)]) == 2
        assert "error: flow broke" in capsys.readouterr().err

    def test_flow_error_wins_over_a_failed_write(self, tmp_path,
                                                 monkeypatch, capsys):
        directory = tmp_path / "out"
        directory.mkdir()
        target = str(directory / "m.json")

        def failing_flow(run):
            shutil.rmtree(directory)  # the write after the flow fails
            raise cli.ReproError("flow broke")

        monkeypatch.setattr(cli, "_synth_flow", failing_flow)
        assert main(["synth", "flc", "--metrics-out", target]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"note: cannot write {target}: "
                       "No such file or directory",
                       "error: flow broke"]


class TestVerifyMutateRejectsDesignOptions:
    """``verify --mutate`` checks the design its seeded defect builds,
    so an explicit design option would be ignored: it is refused."""

    @pytest.mark.parametrize("options,named", [
        (["ethernet"], "the system argument ethernet"),
        (["flc"], "the system argument flc"),
        (["--protocol", "half_handshake"], "--protocol half_handshake"),
        (["--protection", "crc8"], "--protection crc8"),
        (["--width", "8"], "--width 8"),
    ], ids=["system", "system-flc", "protocol", "protection", "width"])
    def test_explicit_design_option_exits_2(self, options, named,
                                             capsys):
        assert main(["verify", *options,
                     "--mutate", "ack_never_raised"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --mutate ack_never_raised")
        assert named in captured.err

    def test_without_design_options_the_defect_is_verified(self,
                                                           capsys):
        assert main(["verify", "--mutate", "ack_never_raised"]) == 1
        assert "seeded defect ack_never_raised [P701]" \
            in capsys.readouterr().out

    def test_defaults_still_apply_without_mutate(self, capsys):
        assert main(["verify", "--json"]) == 0
        assert '"system": "fuzzy_logic_controller_refined"' \
            in capsys.readouterr().out


class TestVerifyReplayRejectsIgnoredOptions:
    """``verify --replay`` rebuilds the design its witness records and
    prints the replay as text, so every other option it would ignore
    is refused."""

    @pytest.fixture(scope="class")
    def witness(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("witnesses")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--mutate", "ack_never_raised",
                         "--witness-dir", str(directory)]) == 1
        return str(directory / "witness_00_P701_ch1.json")

    @pytest.mark.parametrize("options,named", [
        (["ethernet"], "the system argument ethernet"),
        (["--protocol", "half_handshake"], "--protocol half_handshake"),
        (["--protection", "crc8"], "--protection crc8"),
        (["--width", "8"], "--width 8"),
        (["--json"], "--json"),
        (["--mutate", "ack_never_raised"], "--mutate ack_never_raised"),
        (["--witness-dir", "out"], "--witness-dir out"),
    ], ids=["system", "protocol", "protection", "width", "json", "mutate",
            "witness-dir"])
    def test_ignored_option_exits_2(self, witness, options, named,
                                    capsys):
        assert main(["verify", *options, "--replay", witness]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --replay {witness} ")
        assert named in captured.err

    def test_every_ignored_option_is_named(self, witness, capsys):
        assert main(["verify", "ethernet", "--protection", "crc8",
                     "--json", "--replay", witness]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --replay {witness} rebuilds the design its witness "
            "records; drop the system argument ethernet, --protection "
            "crc8, --json\n")

    def test_plain_replay_still_replays(self, witness, capsys):
        assert main(["verify", "--replay", witness]) == 0
        assert "CONFIRMED" in capsys.readouterr().out

    def test_fail_on_is_accepted(self, witness, capsys):
        assert main(["verify", "--fail-on", "warning", "--replay",
                     witness]) == 0


class TestSynthSimulateOnlyOptions:
    """synth's simulate-only options are judged before the flow prints
    anything: without --simulate, or with a value the simulation would
    reject, the run ends in ``error: …`` with exit 2 and no stdout."""

    def test_faults_without_simulate(self, tmp_path, capsys):
        assert main(["synth", "flc", "--faults",
                     str(tmp_path / "absent.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --faults injects wire faults into "
                                "the simulation and requires --simulate\n")

    def test_sim_timeout_clocks_without_simulate(self, capsys):
        assert main(["synth", "flc", "--sim-timeout-clocks", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --sim-timeout-clocks bounds the "
                                "simulation and requires --simulate\n")

    def test_every_simulate_only_option_is_named(self, tmp_path, capsys):
        assert main(["synth", "flc", "--faults", "plan.json",
                     "--emit-sim-source", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--faults injects" in captured.err
        assert "--emit-sim-source dumps" in captured.err

    def test_zero_sim_timeout_clocks_before_any_output(self, capsys):
        assert main(["synth", "flc", "--simulate",
                     "--sim-timeout-clocks", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --sim-timeout-clocks must be >= 1, "
                                "got 0\n")

    def test_emit_sim_source_on_interp_before_any_output(self, tmp_path,
                                                         capsys):
        target = tmp_path / "src"
        assert main(["synth", "flc", "--simulate", "--emit-sim-source",
                     str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: emit_sim_source dumps generated code and requires "
            "backend='compiled', got backend='interp'\n")
        assert not target.exists()


class TestSynth:
    def test_flc_designer_width(self, capsys):
        assert main(["synth", "flc", "--width", "20"]) == 0
        out = capsys.readouterr().out
        assert "width=20" in out
        assert "interface area" in out

    def test_flc_generated_width_with_constraint(self, capsys):
        assert main(["synth", "flc", "--min-peak", "10"]) == 0
        out = capsys.readouterr().out
        assert "width=20" in out   # Figure 8 design A

    def test_simulate_checks_oracle(self, capsys):
        assert main(["synth", "answering-machine", "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "oracle check: OK" in out

    def test_vhdl_output(self, tmp_path, capsys):
        target = str(tmp_path / "out.vhd")
        assert main(["synth", "ethernet", "--vhdl", target]) == 0
        assert os.path.exists(target)
        text = open(target, encoding="utf-8").read()
        assert "architecture refined" in text

    def test_protocol_selection(self, capsys):
        assert main(["synth", "flc", "--width", "8",
                     "--protocol", "half_handshake", "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "half_handshake" in out
        assert "oracle check: OK" in out

    def test_infeasible_width_falls_back_to_split(self, capsys):
        # Width 1 cannot carry bus B's demand; the CLI reports the
        # infeasibility, splits the group, and completes the flow.
        code = main(["synth", "flc", "--width", "1", "--simulate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no feasible buswidth" in out
        assert "bus(es)" in out
        assert "oracle check: OK" in out

    def test_force_overrides_infeasibility(self, capsys):
        code = main(["synth", "flc", "--width", "1", "--force",
                     "--simulate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "--force: proceeding with designer width 1" in out
        assert "oracle check: OK" in out

    def test_spec_file_flow(self, capsys):
        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "gcd_accelerator.spec")
        code = main(["synth", spec, "--simulate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated" in out


class TestFigures:
    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "EVAL_R3" in out
        assert out.count("\n") > 30

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "design A: width 20" in out
        assert "design B: width 18" in out
        assert "design C: width 16" in out


class TestMultiBusSpecFlow:
    def test_pipeline_dsp_synthesizes_all_module_pairs(self, capsys):
        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "pipeline_dsp.spec")
        code = main(["synth", spec, "--simulate", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "module-pair buses to synthesize" in out
        assert "bus_BUFFERS_DSP" in out
        assert "bus_BUFFERS_FRONTEND" in out
        assert "verification PASSED" in out


class TestLintCommand:
    def test_lint_clean_system_exits_zero(self, capsys):
        assert main(["lint", "flc"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_json_round_trips(self, capsys):
        import json

        assert main(["lint", "answering-machine", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clean"] is True
        assert data["counts"] == {"info": 0, "warning": 0, "error": 0}

    def test_lint_fail_on_warning(self, capsys):
        # fixed_delay sharing is a P201 warning: reported, but only
        # --fail-on warning turns it into a non-zero exit.
        assert main(["lint", "flc", "--protocol", "fixed_delay"]) == 0
        assert main(["lint", "flc", "--protocol", "fixed_delay",
                     "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "P201" in out

    def test_lint_designer_width(self, capsys):
        assert main(["lint", "flc", "--width", "20"]) == 0

    @pytest.mark.parametrize("command", ["lint", "verify"])
    def test_json_stdout_parses_when_the_group_splits(self, command,
                                                      capsys):
        # gcd's register-file group is infeasible on one bus; the split
        # note belongs on stderr so stdout stays one JSON document.
        import json

        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "gcd_accelerator.spec")
        assert main([command, spec, "--json"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "note: group bus_DATAPATH_REGFILE" in captured.err


    @pytest.mark.parametrize("command", ["lint", "verify", "explain"])
    def test_json_stdout_parses_with_the_clustering_note(
            self, command, tmp_path, capsys):
        # A spec without a partition block is clustered automatically;
        # that note belongs on stderr too.
        import json

        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "fig3.spec")
        with open(spec, encoding="utf-8") as handle:
            source = handle.read()
        start = source.index("  partition is")
        end = source.index("end partition ;\n") + len("end partition ;\n")
        unpartitioned = tmp_path / "fig3_unpartitioned.spec"
        unpartitioned.write_text(source[:start] + source[end:])

        assert main([command, str(unpartitioned), "--json"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "note: no partition block" in captured.err


class TestProfile:
    def test_profile_splits_infeasible_groups(self, capsys):
        # gcd's register-file group needs two buses, exactly as in
        # synth/lint/explain; the split buses must also emit valid VHDL.
        spec = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "gcd_accelerator.spec")
        assert main(["profile", spec]) == 0
        captured = capsys.readouterr()
        assert "note: group bus_DATAPATH_REGFILE: 2 bus(es)" in captured.err


class TestVerifyExitCodes:
    def test_verify_pass_exits_zero(self, capsys):
        assert main(["synth", "flc", "--verify"]) == 0
        assert "verification PASSED" in capsys.readouterr().out

    def test_verify_failure_exits_nonzero(self, monkeypatch, capsys):
        import repro.verify as verify_mod

        class FailedReport:
            passed = False

            def describe(self):
                return "verification FAILED (injected)"

        monkeypatch.setattr(verify_mod, "verify_refinement",
                            lambda *args, **kwargs: FailedReport())
        assert main(["synth", "flc", "--verify"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_lint_errors_block_verification(self, monkeypatch, capsys):
        import repro.analysis as analysis_mod
        from repro.analysis import DiagnosticSet, Severity

        def fake_analyze(spec):
            ds = DiagnosticSet(system=spec.name)
            ds.add("P101", Severity.ERROR, "injected deadlock")
            return ds

        monkeypatch.setattr(analysis_mod, "analyze_refined",
                            fake_analyze)
        assert main(["synth", "flc", "--verify"]) == 1
        out = capsys.readouterr().out
        assert "P101" in out
        assert "static analysis failed" in out


class TestFaultTolerance:
    def test_protection_selection(self, capsys):
        assert main(["synth", "flc", "--protection", "crc8",
                     "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "protection: crc8" in out
        assert "NACK" in out
        assert "oracle check: OK" in out

    def test_protection_none_is_default_path(self, capsys):
        assert main(["synth", "flc", "--protection", "none",
                     "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "protection:" not in out
        assert "oracle check: OK" in out

    def test_fault_plan_drives_retries(self, tmp_path, capsys):
        from repro.sim.faults import Fault, FaultKind, FaultPlan
        plan_path = str(tmp_path / "plan.json")
        FaultPlan([Fault(kind=FaultKind.BIT_FLIP, bus="B",
                         flip_mask=0b100, transaction=3,
                         word=0)]).save(plan_path)
        assert main(["synth", "flc", "--protection", "parity",
                     "--simulate", "--faults", plan_path]) == 0
        out = capsys.readouterr().out
        assert "fault plan: 1 fault(s)" in out
        assert "faults injected: 1; message retries: 1" in out
        assert "oracle check: OK" in out

    def test_missing_fault_plan_file_errors(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert main(["synth", "flc", "--simulate", "--faults", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: fault plan {path}: ")

    def test_sim_timeout_clocks_guard(self, capsys):
        assert main(["synth", "flc", "--simulate",
                     "--sim-timeout-clocks", "10"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "max_clocks=10" in err

    def test_sim_timeout_clocks_generous_passes(self, capsys):
        assert main(["synth", "flc", "--simulate",
                     "--sim-timeout-clocks", "50000"]) == 0
        assert "oracle check: OK" in capsys.readouterr().out

    def test_sim_timeout_clocks_must_be_positive(self, capsys):
        assert main(["synth", "flc", "--simulate",
                     "--sim-timeout-clocks", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_protected_vhdl_emission_rejected(self, tmp_path, capsys):
        target = str(tmp_path / "out.vhd")
        assert main(["synth", "flc", "--protection", "parity",
                     "--vhdl", target]) == 2
        assert "no VHDL emitter" in capsys.readouterr().err
        assert not os.path.exists(target)

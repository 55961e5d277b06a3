"""``repro-synth`` transcripts and option tables against a recording.

Every invocation of :data:`CASES` -- the figures, ``synth`` on the
three case studies and the example specs across its design, simulate,
verify, report and VHDL options, ``lint``/``verify``/``explain``/
``explore``/``profile`` in text and ``--json``, seeded-defect
verification with a witness round trip, and the exit-2 cases -- must
print exactly the stdout and stderr and return exactly the exit code
recorded in ``tests/data/golden_cli_transcripts.json``.  Only host
wall times and the per-case temporary directory are masked.  argparse's
own usage errors are left out: their wording differs between Python
versions, and the option tables below pin what they check.

Each subcommand's option table (flags, dests, defaults, choices,
nargs, types, required bits, parser defaults) must also equal the
recorded one: help text is the only part of the parser free to change.

The golden also records a digest of every input file the cases read
(the example specs and the fault plans), so a changed input shows as
such rather than as a changed transcript.

Regenerate (only when the CLI's output changes on purpose)::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from functools import lru_cache
from typing import Dict, List

import pytest

from repro.cli import build_parser, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "data", "golden_cli_transcripts.json")

SPECS = ("fig3", "gcd_accelerator", "pipeline_dsp")
PIPELINE = "examples/specs/pipeline_dsp.spec"
WITNESS = "{tmp}/w/witness_00_P701_ch1.json"

#: case id -> the invocations it runs in order, in one temporary
#: directory ``{tmp}``; ``{parity_plan}``/``{crc8_plan}`` are the fixed
#: fault plans of :func:`_write_fault_plans`.
CASES: Dict[str, List[List[str]]] = {
    "info": [["info"]],
    "fig7": [["fig7"]],
    "fig8": [["fig8"]],
    # synth: bus generation and its constraints
    "synth_flc": [["synth", "flc"]],
    "synth_flc_width20": [["synth", "flc", "--width", "20"]],
    "synth_flc_width1_split": [["synth", "flc", "--width", "1"]],
    "synth_flc_width4_force": [["synth", "flc", "--width", "4", "--force"]],
    "synth_flc_rates_static": [["synth", "flc", "--rates", "static"]],
    "synth_am_rates_static": [["synth", "answering-machine", "--rates",
                               "static"]],
    "synth_flc_min_peak": [["synth", "flc", "--min-peak", "10"]],
    "synth_flc_min_max_width": [["synth", "flc", "--min-width", "14",
                                 "--max-width", "18"]],
    "synth_flc_half_handshake": [["synth", "flc", "--protocol",
                                  "half_handshake"]],
    "synth_flc_tighten": [["synth", "flc", "--tighten-fields"]],
    "synth_ethernet_tighten_sim": [["synth", "ethernet",
                                    "--tighten-fields", "--simulate"]],
    # synth: protection, simulation and faults
    "synth_flc_parity_sim": [["synth", "flc", "--protection", "parity",
                              "--simulate"]],
    "synth_flc_crc8_sim_compiled": [["synth", "flc", "--protection",
                                     "crc8", "--simulate", "--backend",
                                     "compiled"]],
    "synth_flc_none_sim": [["synth", "flc", "--protection", "none",
                            "--simulate"]],
    "synth_flc_sim_interp": [["synth", "flc", "--simulate"]],
    "synth_flc_sim_compiled": [["synth", "flc", "--simulate", "--backend",
                                "compiled"]],
    "synth_am_sim_compiled": [["synth", "answering-machine", "--simulate",
                               "--backend", "compiled"]],
    "synth_flc_parity_faults": [["synth", "flc", "--protection", "parity",
                                 "--simulate", "--faults",
                                 "{parity_plan}"]],
    "synth_flc_crc8_faults_compiled": [["synth", "flc", "--protection",
                                        "crc8", "--simulate", "--faults",
                                        "{crc8_plan}", "--backend",
                                        "compiled"]],
    "synth_flc_sim_timeout_generous": [["synth", "flc", "--simulate",
                                        "--sim-timeout-clocks", "50000"]],
    "synth_flc_sim_timeout_hit": [["synth", "flc", "--simulate",
                                   "--sim-timeout-clocks", "10"]],
    "synth_flc_emit_sim_source": [["synth", "flc", "--simulate",
                                   "--backend", "compiled",
                                   "--emit-sim-source", "{tmp}/src"]],
    # synth: verify, report, VHDL and observability outputs
    "synth_flc_verify": [["synth", "flc", "--verify"]],
    "synth_am_sim_verify": [["synth", "answering-machine", "--simulate",
                             "--verify"]],
    "synth_ethernet_sim_verify_report": [["synth", "ethernet",
                                          "--simulate", "--verify",
                                          "--report"]],
    "synth_flc_report": [["synth", "flc", "--report"]],
    "synth_flc_vhdl": [["synth", "flc", "--vhdl", "{tmp}/flc.vhd"]],
    "synth_ethernet_vhdl": [["synth", "ethernet", "--vhdl",
                             "{tmp}/ethernet.vhd"]],
    "synth_flc_everything": [["synth", "flc", "--width", "8",
                              "--simulate", "--backend", "compiled",
                              "--verify", "--report", "--vhdl",
                              "{tmp}/flc.vhd"]],
    "synth_flc_observability": [["synth", "flc", "--simulate",
                                 "--metrics-out", "{tmp}/m.json",
                                 "--trace-out", "{tmp}/t.json"]],
    "synth_flc_vhdl_prom_metrics": [["synth", "flc", "--vhdl",
                                     "{tmp}/flc.vhd", "--metrics-out",
                                     "{tmp}/m.prom", "--metrics-format",
                                     "prom"]],
    # synth: spec files
    "synth_spec_fig3": [["synth", "examples/specs/fig3.spec", "--width",
                         "8", "--simulate", "--vhdl", "{tmp}/fig3.vhd"]],
    "synth_spec_gcd": [["synth", "examples/specs/gcd_accelerator.spec",
                        "--simulate", "--verify"]],
    "synth_spec_pipeline": [["synth", PIPELINE, "--simulate", "--verify",
                             "--report"]],
    # synth: exit-2 cases whose output this recording pins
    "synth_unknown_system": [["synth", "nope"]],
    "synth_missing_fault_plan": [["synth", "flc", "--simulate", "--faults",
                                  "{tmp}/absent.json"]],
    "synth_emit_without_simulate": [["synth", "flc", "--emit-sim-source",
                                     "{tmp}/src"]],
    "synth_parity_vhdl_rejected": [["synth", "flc", "--protection",
                                    "parity", "--vhdl", "{tmp}/x.vhd"]],
    "synth_unwritable_vhdl": [["synth", "flc", "--vhdl",
                               "{tmp}/missing/x.vhd"]],
    "synth_unwritable_metrics": [["synth", "flc", "--simulate",
                                  "--metrics-out", "{tmp}/missing/m.json"]],
    # lint
    "lint_flc": [["lint", "flc"]],
    "lint_am": [["lint", "answering-machine"]],
    "lint_ethernet": [["lint", "ethernet"]],
    "lint_flc_json": [["lint", "flc", "--json"]],
    "lint_flc_width16": [["lint", "flc", "--width", "16"]],
    "lint_flc_fixed_delay": [["lint", "flc", "--protocol", "fixed_delay"]],
    "lint_flc_fixed_delay_fail_warning": [["lint", "flc", "--protocol",
                                           "fixed_delay", "--fail-on",
                                           "warning", "--json"]],
    "lint_pipeline_json": [["lint", PIPELINE, "--json"]],
    "lint_flc_width1": [["lint", "flc", "--width", "1"]],
    "lint_unknown_system": [["lint", "nope"]],
    # verify
    "verify_default_json": [["verify", "--json"]],
    "verify_flc": [["verify", "flc"]],
    "verify_am": [["verify", "answering-machine"]],
    "verify_ethernet_json": [["verify", "ethernet", "--json"]],
    "verify_flc_parity": [["verify", "flc", "--protection", "parity"]],
    "verify_flc_crc8_json": [["verify", "flc", "--protection", "crc8",
                              "--json"]],
    "verify_flc_width16_fail_warning": [["verify", "flc", "--width", "16",
                                         "--fail-on", "warning"]],
    "verify_mutate": [["verify", "--mutate", "ack_never_raised"]],
    "verify_mutate_json": [["verify", "--mutate", "ack_never_raised",
                            "--json"]],
    "verify_mutate_starvation": [["verify", "--mutate",
                                  "server_stutter_loop"]],
    "verify_mutate_starvation_fail_warning": [["verify", "--mutate",
                                               "server_stutter_loop",
                                               "--fail-on", "warning"]],
    "verify_witness_round_trip": [
        ["verify", "--mutate", "ack_never_raised", "--witness-dir",
         "{tmp}/w"],
        ["verify", "--replay", WITNESS],
    ],
    "verify_mutate_with_system": [["verify", "ethernet", "--mutate",
                                   "ack_never_raised"]],
    "verify_mutate_unknown": [["verify", "--mutate", "nope"]],
    "verify_missing_witness": [["verify", "--replay", "{tmp}/absent.json"]],
    # explain
    "explain_flc": [["explain", "flc"]],
    "explain_demo_json": [["explain", "_demo", "--json"]],
    "explain_demo_parity_json": [["explain", "_demo", "--protection",
                                  "parity", "--json"]],
    "explain_ethernet_crc8": [["explain", "ethernet", "--protection",
                               "crc8"]],
    "explain_flc_parity_faults": [["explain", "flc", "--protection",
                                   "parity", "--faults", "{parity_plan}",
                                   "--top", "2"]],
    "explain_flc_crc8_faults_compiled": [["explain", "flc", "--protection",
                                          "crc8", "--faults", "{crc8_plan}",
                                          "--backend", "compiled"]],
    "explain_am_outputs": [["explain", "answering-machine", "--width", "8",
                            "--trace-out", "{tmp}/t.json",
                            "--metrics-out", "{tmp}/m.json"]],
    # explore
    "explore_demo_text": [["explore", "_demo", "--grid", "width=4,8,auto",
                           "protection=none,parity,crc8"]],
    "explore_demo_json": [["explore", "_demo", "--grid", "width=4,8",
                           "arbitration=fifo,priority,rr,tdma", "--json"]],
    "explore_demo_cache_check": [
        ["explore", "_demo", "--grid", "width=4,8", "--cache", "{tmp}/c"],
        ["explore", "_demo", "--grid", "width=4,8", "--cache", "{tmp}/c",
         "--check", "--json"],
    ],
    "explore_flc_json": [["explore", "flc", "--grid", "width=8",
                          "protection=none,crc8", "--json"]],
    "explore_bad_axis": [["explore", "_demo", "--grid", "speed=1"]],
    "explore_check_without_cache": [["explore", "_demo", "--grid",
                                     "width=4", "--check"]],
    # profile
    "profile_flc": [["profile", "flc"]],
    "profile_pipeline_compiled": [["profile", PIPELINE, "--backend",
                                   "compiled", "--repeat", "2"]],
}

#: Host wall times: explore's footer and profile's stage timings.
_WALL = re.compile(r"wall: \d+\.\d\ds")
_MS = re.compile(r" +\d+\.\d{3}")


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "{tmp}")
    text = _WALL.sub("wall: <s>", text)
    if text.startswith("stage breakdown"):
        head, sep, tail = text.partition("\nsimulation summary")
        text = _MS.sub(" <ms>", head) + sep + tail
    return text


def _write_fault_plans(tmp: str) -> Dict[str, str]:
    from tests.golden_util import GOLDEN_VARIANTS

    paths = {}
    for slug in ("parity", "crc8"):
        path = os.path.join(tmp, f"{slug}_plan.json")
        GOLDEN_VARIANTS[f"flc_{slug}_faulty"][2]().save(path)
        paths[f"{slug}_plan"] = path
    return paths


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def input_digests() -> Dict[str, str]:
    """sha256 of every input file the cases read."""
    digests = {f"examples/specs/{spec}.spec":
               _digest(os.path.join(REPO, "examples", "specs",
                                    f"{spec}.spec"))
               for spec in SPECS}
    tmp = tempfile.mkdtemp()
    try:
        for name, path in sorted(_write_fault_plans(tmp).items()):
            digests[name] = _digest(path)
    finally:
        shutil.rmtree(tmp)
    return digests


def _invoke(argv: List[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def transcript(case_id: str, tmp: str) -> List[dict]:
    """Run one case from the repository root (spec paths are relative)
    with ``COLUMNS=80`` (argparse wraps usage lines to the terminal)."""
    fields = {"tmp": tmp, **_write_fault_plans(tmp)}
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(REPO)
    os.environ["COLUMNS"] = "80"
    try:
        runs = []
        for template in CASES[case_id]:
            argv = [arg.format(**fields) for arg in template]
            run = _invoke(argv)
            runs.append({"argv": template,
                         **{key: _mask(value, tmp) if isinstance(value, str)
                            else value for key, value in run.items()}})
        return runs
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _subparsers(parser: argparse.ArgumentParser
                ) -> Dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def _jsonable(value):
    if callable(value):
        return getattr(value, "__name__", repr(value))
    return value


def option_tables() -> Dict[str, dict]:
    """Each subcommand's arguments (help text excluded) and parser
    defaults."""
    tables = {}
    for name, sub in _subparsers(build_parser()).items():
        tables[name] = {
            "arguments": [
                {"flags": list(action.option_strings),
                 "dest": action.dest,
                 "action": type(action).__name__,
                 "default": _jsonable(action.default),
                 "choices": (None if action.choices is None
                             else list(action.choices)),
                 "nargs": action.nargs,
                 "type": _jsonable(action.type),
                 "const": action.const,
                 "required": action.required}
                for action in sub._actions],
            "defaults": {key: _jsonable(value)
                         for key, value in sorted(sub._defaults.items())},
        }
    return tables


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_inputs_are_the_recorded_ones():
    assert input_digests() == _golden()["inputs"]


def test_every_case_is_recorded():
    assert sorted(CASES) == sorted(_golden()["transcripts"])


def test_option_tables_unchanged():
    assert option_tables() == _golden()["options"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_transcript_unchanged(case_id, tmp_path):
    assert transcript(case_id, str(tmp_path)) \
        == _golden()["transcripts"][case_id]


def main_record() -> None:
    transcripts = {}
    for case_id in sorted(CASES):
        tmp = tempfile.mkdtemp()
        try:
            transcripts[case_id] = transcript(case_id, tmp)
        finally:
            shutil.rmtree(tmp)
    golden = {"inputs": input_digests(), "options": option_tables(),
              "transcripts": transcripts}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN} ({len(transcripts)} cases)", file=sys.stderr)


if __name__ == "__main__":
    main_record()

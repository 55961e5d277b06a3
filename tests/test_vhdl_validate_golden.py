"""``validate_vhdl`` against recorded reports.

Every emitted VHDL text of the three case studies and of
``examples/specs`` under every protocol the emitter covers, plus a fixed
set of line mutations of each, is validated with its bus structures.
The whole report (errors in order, procedures, records, processes,
signals) must equal the one recorded in ``tests/data/golden_vhdl_validation.json``.  The
golden also records a digest of every input text, so an emitter change
shows as a changed input rather than as a validator verdict.

Regenerate (only when the emitter or the validator's verdicts change on
purpose)::

    PYTHONPATH=src python -m tests.test_vhdl_validate_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.hdl.validate import validate_vhdl
from repro.hdl.vhdl import emit_refined_spec
from repro.protocols import get_protocol
from repro.protogen.refine import refine_system

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_vhdl_validation.json")
SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "specs")

#: Protocols the VHDL emitter covers (protected variants have no
#: emitter; ``hardwired`` cannot carry the case studies' groups).
PROTOCOLS = ("full_handshake", "half_handshake", "fixed_delay",
             "burst_handshake")
#: slug -> loadable system of every emitted design.
SYSTEMS = {
    "flc": "flc",
    "answering_machine": "answering-machine",
    "ethernet": "ethernet",
    **{spec: os.path.join(SPEC_DIR, f"{spec}.spec")
       for spec in ("fig3", "gcd_accelerator", "pipeline_dsp")},
}
#: slug of every base text: ``<system>_<protocol>``.
BASES = [f"{system}_{protocol}" for system in SYSTEMS
         for protocol in PROTOCOLS]


def _index(lines: List[str], pattern: str, nth: int = 0) -> Optional[int]:
    """Index of the ``nth`` line matching ``pattern`` (stripped)."""
    found = [i for i, line in enumerate(lines)
             if re.match(pattern, line.strip())]
    return found[nth] if len(found) > nth else None


def _drop(pattern: str) -> Callable[[List[str]], bool]:
    def mutate(lines: List[str]) -> bool:
        at = _index(lines, pattern)
        if at is None:
            return False
        del lines[at]
        return True
    return mutate


def _rename_field(lines: List[str]) -> bool:
    for i, line in enumerate(lines):
        match = re.search(r"\b(\w+)\.(START|DONE|DATA|ID)\b", line)
        if match:
            lines[i] = line[:match.start(2)] + match.group(2) + "X" \
                + line[match.end(2):]
            return True
    return False


def _undeclared(verb: str) -> Callable[[List[str]], bool]:
    def mutate(lines: List[str]) -> bool:
        at = _index(lines, rf"{verb}\w*\s*\(")
        if at is None:
            return False
        lines[at] = lines[at].replace(verb, f"{verb}Undeclared", 1)
        return True
    return mutate


def _duplicate_process_label(lines: List[str]) -> bool:
    first = _index(lines, r"\w+\s*:\s*process\b")
    second = _index(lines, r"\w+\s*:\s*process\b", nth=1)
    if second is None:
        return False
    label = lines[first].strip().split(":")[0].strip()
    lines[second] = re.sub(r"^(\s*)\w+", lambda m: m.group(1) + label,
                           lines[second], count=1)
    return True


def _call_above_procedure(lines: List[str]) -> bool:
    at = _index(lines, r"(Send|Receive)\w*\s*\(.*\)\s*;$")
    if at is None:
        return False
    lines.insert(0, lines.pop(at))
    return True


def _signal_below_uses(lines: List[str]) -> bool:
    at = _index(lines, r"signal\s+\w+\s*:")
    if at is None:
        return False
    lines.append(lines.pop(at))
    return True


#: Line mutations applied to every base text (skipped where a base has
#: no line they apply to).
MUTATIONS: Dict[str, Callable[[List[str]], bool]] = {
    "drop_end_if": _drop(r"end\s+if\b"),
    "drop_end_loop": _drop(r"end\s+loop\b"),
    "drop_end_process": _drop(r"end\s+process\b"),
    "drop_end_record": _drop(r"end\s+record\b"),
    "rename_field": _rename_field,
    "undeclared_send": _undeclared("Send"),
    "undeclared_receive": _undeclared("Receive"),
    "duplicate_process_label": _duplicate_process_label,
    "call_above_procedure": _call_above_procedure,
    "signal_below_uses": _signal_below_uses,
}


@lru_cache(maxsize=None)
def _emitted(slug: str) -> Tuple[str, tuple]:
    system, protocol = next((system, protocol) for system in SYSTEMS
                            for protocol in PROTOCOLS
                            if slug == f"{system}_{protocol}")
    loaded = load_system(SYSTEMS[system], on_note=lambda _message: None)
    refined = refine_system(loaded.system, plan_buses(
        loaded.groups, get_protocol(protocol),
        on_note=lambda _message: None))
    return (emit_refined_spec(refined),
            tuple(bus.structure for bus in refined.buses))


def case_ids() -> List[str]:
    return [f"{slug}:{mutation}" for slug in BASES
            for mutation in ("clean", *MUTATIONS)]


def case(case_id: str) -> Optional[Tuple[str, tuple]]:
    """``(text, structures)`` of one case; None when the mutation does
    not apply to its base."""
    slug, mutation = case_id.split(":")
    text, structures = _emitted(slug)
    if mutation == "clean":
        return text, structures
    lines = text.splitlines()
    if not MUTATIONS[mutation](lines):
        return None
    return "\n".join(lines) + "\n", structures


def record(case_id: str) -> Optional[dict]:
    """The golden entry of one case: input digest and full report."""
    built = case(case_id)
    if built is None:
        return None
    text, structures = built
    report = validate_vhdl(text, structures=structures)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "errors": report.errors,
        "procedures": sorted(report.procedures),
        "records": sorted(report.records),
        "processes": sorted(report.processes),
        "signals": report.signals,
    }


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case_id", case_ids())
def test_validate_vhdl_matches_golden(case_id):
    expected = _golden()[case_id]
    got = record(case_id)
    if expected is None:
        assert got is None
        return
    assert got["sha256"] == expected["sha256"], (
        "the emitted input changed; regenerate the golden (see module "
        "docstring) after checking the emitter change")
    assert got == expected


def test_golden_covers_every_case_and_catches_every_mutation():
    golden = _golden()
    assert sorted(golden) == sorted(case_ids())
    for case_id, entry in golden.items():
        if case_id.endswith(":clean"):
            assert entry["errors"] == [], case_id
        elif entry is not None and not case_id.endswith(
                (":call_above_procedure", ":signal_below_uses")):
            assert entry["errors"], case_id
    # Every mutation applies to at least one base.
    for mutation in MUTATIONS:
        assert any(entry is not None for key, entry in golden.items()
                   if key.endswith(f":{mutation}")), mutation


if __name__ == "__main__":
    golden = {case_id: record(case_id) for case_id in case_ids()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden.items())) + "\n}\n")
    print(f"wrote {GOLDEN}")

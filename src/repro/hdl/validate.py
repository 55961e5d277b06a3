"""Lightweight structural validation of emitted VHDL.

No VHDL toolchain exists in this offline environment, so generated code
is checked lexically/structurally instead:

* balanced construct pairs (``process``/``end process``,
  ``loop``/``end loop``, ``if``/``end if``, ``record``/``end record``),
* every referenced bus field exists in a declared record,
* every called ``SendCHx``/``ReceiveCHx`` procedure is declared,
* no duplicate procedure or process label,
* when the generating :class:`~repro.protogen.structure.BusStructure`
  objects are passed in, each bus signal's declared ``ID`` and ``DATA``
  record-field widths must match the structure's ID lines and buswidth.

The text is read in one pass.  Each comment-stripped line is classified
once with precompiled patterns, each tried only when a cheap substring
test shows it could match.  That pass keeps the balance counters and
collects the declarations (procedures, records with their fields and
widths, signals, process labels) and every field reference and
``Send``/``Receive`` call.  References and widths are judged at the end
against everything declared, so a use above its declaration is judged
like any other.  Errors come in a fixed order by category: balance,
then declarations, then references, then widths.

The validator is intentionally conservative: it accepts only the shapes
the emitter produces, and the test suite asserts both that emitted code
passes and that broken mutations fail.  It shares no code with the
emitter, whose check it is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import HdlError
from repro.obs.tracer import span as obs_span

if TYPE_CHECKING:
    from repro.protogen.structure import BusStructure


@dataclass
class ValidationReport:
    """Outcome of validating one VHDL text."""

    errors: List[str] = field(default_factory=list)
    #: Declared procedure names.
    procedures: Set[str] = field(default_factory=set)
    #: Declared record type names.
    records: Set[str] = field(default_factory=set)
    #: Declared process labels.
    processes: Set[str] = field(default_factory=set)
    #: Declared signals: name -> record type.
    signals: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            summary = "; ".join(self.errors[:10])
            raise HdlError(f"VHDL validation failed: {summary}")


_PROCEDURE_DECL = re.compile(r"^\s*procedure\s+(\w+)\s*\(", re.IGNORECASE)
_RECORD_DECL = re.compile(r"^\s*type\s+(\w+)\s+is\s+record\b", re.IGNORECASE)
_RECORD_END = re.compile(r"^\s*end\s+record\b", re.IGNORECASE)
_SIGNAL_DECL = re.compile(r"^\s*signal\s+(\w+)\s*:\s*(\w+)\s*;", re.IGNORECASE)
_PROCESS_DECL = re.compile(r"^\s*(\w+)\s*:\s*process\b", re.IGNORECASE)
_FIELD_NAMES = re.compile(r"^\s*([\w,\s]+)\s*:\s*")
_FIELD_WIDTH = re.compile(
    r"^\s*([\w,\s]+?)\s*:\s*"
    r"(?:bit_vector\s*\(\s*(\d+)\s+downto\s+(\d+)\s*\)|bit\b)",
    re.IGNORECASE)
_CALL = re.compile(r"^\s*(\w+)\s*\(.*\)\s*;\s*$")
_FIELD_REF = re.compile(r"\b(\w+)\.(\w+)\b")

# Balance patterns, matched against the stripped lower-cased line.
_END = re.compile(r"end\s+(\w+)")
_PROCESS_OPEN = re.compile(r":\s*process\b")
_LOOP_OPEN = re.compile(r"\bloop\s*$")
_IF_OPEN = re.compile(r"if\b")
_RECORD_OPEN = re.compile(r"\bis\s+record\b")

#: Balanced construct kinds, in the order their errors are reported.
_BLOCKS = ("process", "loop", "if", "record", "case")


def validate_vhdl(text: str,
                  structures: Optional[Sequence["BusStructure"]] = None,
                  ) -> ValidationReport:
    """Validate emitted VHDL; returns a report (see module docstring).

    ``structures`` enables the width cross-check: each structure's bus
    signal must declare ``ID``/``DATA`` record fields whose bit widths
    match the structure's ID lines and buswidth.
    """
    with obs_span("hdl.validate", lines=text.count("\n") + 1):
        report = ValidationReport()
        scan = _Scan(report)
        for number, line in enumerate(text.splitlines(), start=1):
            scan.line(number, line.partition("--")[0].rstrip())
        scan.finish(structures)
    return report


class _Scan:
    """The single pass over the lines of one VHDL text."""

    def __init__(self, report: ValidationReport):
        self.report = report
        #: Open blocks per construct kind.
        self.depth = dict.fromkeys(_BLOCKS, 0)
        self.declaration_errors: List[str] = []
        #: Field references ``(line, prefix, field)`` and procedure
        #: calls ``(line, None, procedure)``, in text order.
        self.uses: List[Tuple[int, Optional[str], str]] = []
        #: Record type -> declared field names / field bit widths.
        self.record_fields: Dict[str, Set[str]] = {}
        self.record_widths: Dict[str, Dict[str, int]] = {}
        self.record: Optional[str] = None

    def line(self, number: int, line: str) -> None:
        """Classify one comment-stripped, right-stripped line."""
        stripped = line.lstrip()
        if not stripped:
            return
        lowered = stripped.lower()
        self._balance(number, lowered)
        record = _RECORD_DECL.match(line) if "record" in lowered else None
        self._declare(number, line, lowered, record)
        if record:
            self.record = record.group(1)
            self.record_fields[self.record] = set()
            self.record_widths[self.record] = {}
        elif self.record is not None:
            self._record_field(line)
        if "." in line:
            for match in _FIELD_REF.finditer(line):
                self.uses.append((number, match.group(1), match.group(2)))
        if stripped.startswith(("Send", "Receive")):
            call = _CALL.match(line)
            if call:
                self.uses.append((number, None, call.group(1)))

    def _balance(self, number: int, lowered: str) -> None:
        end = _END.match(lowered) if lowered.startswith("end") else None
        closed = end.group(1) if end else None
        depth = self.depth
        if closed == "process":
            depth["process"] -= 1
        elif lowered == "process" or (
                "process" in lowered and _PROCESS_OPEN.search(lowered)):
            depth["process"] += 1
        if closed == "loop":
            depth["loop"] -= 1
        elif lowered.endswith("loop") and not lowered.startswith("end") \
                and _LOOP_OPEN.search(lowered):
            depth["loop"] += 1
        if closed == "if":
            depth["if"] -= 1
        elif lowered.startswith("if") and _IF_OPEN.match(lowered):
            depth["if"] += 1
        if closed == "record":
            depth["record"] -= 1
        elif "record" in lowered and _RECORD_OPEN.search(lowered):
            depth["record"] += 1
        for kind, count in depth.items():
            if count < 0:
                self.report.errors.append(
                    f"line {number}: unmatched 'end {kind}'")
                depth[kind] = 0

    def _declare(self, number: int, line: str, lowered: str,
                 record: Optional[re.Match]) -> None:
        # The declaration patterns ignore case, under which "s" and "i"
        # also match non-ASCII letters that lower() keeps apart ("ſ",
        # "ı"), so each gate tests only letters free of such matches.
        report = self.report
        match = _PROCEDURE_DECL.match(line) \
            if "procedure" in lowered else None
        if match:
            name = match.group(1)
            if name in report.procedures:
                self.declaration_errors.append(
                    f"line {number}: duplicate procedure {name}")
            report.procedures.add(name)
            return
        if record:
            report.records.add(record.group(1))
            return
        match = _SIGNAL_DECL.match(line) if "gnal" in lowered else None
        if match:
            report.signals[match.group(1)] = match.group(2)
            return
        match = _PROCESS_DECL.match(line) if "proce" in lowered else None
        if match:
            name = match.group(1)
            if name in report.processes:
                self.declaration_errors.append(
                    f"line {number}: duplicate process label {name}")
            report.processes.add(name)

    def _record_field(self, line: str) -> None:
        """One line inside a ``record`` body: its end, or a field."""
        if _RECORD_END.match(line):
            self.record = None
            return
        declared = _FIELD_NAMES.match(line)
        if declared:
            for name in declared.group(1).split(","):
                self.record_fields[self.record].add(name.strip())
        sized = _FIELD_WIDTH.match(line)
        if sized:
            names, hi, lo = sized.groups()
            bits = int(hi) - int(lo) + 1 if hi is not None else 1
            for name in names.split(","):
                self.record_widths[self.record][name.strip()] = bits

    def finish(self, structures: Optional[Sequence["BusStructure"]],
               ) -> None:
        """Judge what needs every declaration, in category order."""
        report = self.report
        for kind, count in self.depth.items():
            if count > 0:
                report.errors.append(
                    f"{count} unterminated '{kind}' block(s)")
        report.errors.extend(self.declaration_errors)
        known_fields = {
            (signal, name)
            for signal, record in report.signals.items()
            for name in self.record_fields.get(record, ())}
        for number, prefix, name in self.uses:
            if prefix is None:
                if name not in report.procedures:
                    report.errors.append(
                        f"line {number}: call to undeclared procedure "
                        f"{name}")
            elif prefix in report.signals \
                    and (prefix, name) not in known_fields:
                report.errors.append(
                    f"line {number}: signal {prefix} has no field {name}")
        if structures:
            _check_widths(report, self.record_widths, structures)


def _check_widths(report: ValidationReport,
                  record_widths: Dict[str, Dict[str, int]],
                  structures: Sequence["BusStructure"]) -> None:
    for structure in structures:
        record = report.signals.get(structure.name)
        if record is None:
            report.errors.append(
                f"no signal declared for bus {structure.name}")
            continue
        fields = record_widths.get(record, {})
        expected = {"DATA": structure.width}
        if structure.id_lines:
            expected["ID"] = structure.id_lines
        for name, want in expected.items():
            have = fields.get(name)
            if have is None:
                report.errors.append(
                    f"bus {structure.name}: record {record} declares no "
                    f"{name} field")
            elif have != want:
                report.errors.append(
                    f"bus {structure.name}: {name} declared as {have} "
                    f"bit(s) but the bus structure has {want}")


def count_procedures_per_channel(report: ValidationReport,
                                 channel_names: List[str]) -> Dict[str, int]:
    """How many generated procedures each channel has (expected: 2)."""
    counts: Dict[str, int] = {name: 0 for name in channel_names}
    for procedure in report.procedures:
        for name in channel_names:
            if procedure.lower().endswith(name.lower()):
                counts[name] += 1
    return counts

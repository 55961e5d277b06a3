"""Report helper for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
rows are printed to stdout (visible with ``pytest -s`` or on failure)
and also written to ``benchmarks/reports/<name>.txt`` so EXPERIMENTS.md
can reference stable artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: The paper's three case studies: report label -> system name for
#: :func:`repro.explore.systems.load_system`.  The labels key the
#: ``BENCH_*.json`` payloads the regression gate compares, so they stay.
CASE_STUDIES = {
    "fuzzy logic controller": "flc",
    "answering machine": "answering-machine",
    "ethernet coprocessor": "ethernet",
}


def write_report(name: str, lines: Iterable[str]) -> str:
    """Print a report and persist it; returns the file path."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    print()
    print(text)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def write_json_report(name: str, payload: dict) -> str:
    """Persist a machine-readable companion to :func:`write_report`.

    Writes ``benchmarks/reports/BENCH_<name>.json`` so successive runs
    can be diffed or charted without re-parsing the text tables;
    returns the file path.
    """
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> List[str]:
    """Fixed-width plain-text table lines."""
    columns = [[str(h)] + [str(row[i]) for row in rows]
               for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines

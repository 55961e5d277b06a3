"""Static-analysis and temporal-verification wall time.

The lint runner (every P1xx-P7xx pass, including the model checker)
and the standalone verifier both promise "seconds, not minutes" on the
paper's three case studies.  This bench holds that promise to a
number: per-system lint and verify wall times, plus one sweep of the
seeded-defect corpus (the analyzer's regression workload), written to
``benchmarks/reports/BENCH_analysis.json`` for the wall-time
regression gate (``benchmarks/compare_baselines.py``).

Verify is timed on a freshly refined spec: on the linted one it would
read the report the temporal pass memoized, time nothing and leave the
model checker unguarded.
"""

import time

from benchmarks._report import (
    CASE_STUDIES,
    format_table,
    write_json_report,
    write_report,
)
from repro.analysis import analyze_refined
from repro.analysis.mc import verify_refined
from repro.analysis.mutations import CORPUS
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.protogen.refine import refine_system


def test_analysis_and_verification_walltime():
    rows = []
    systems_json = {}
    for name, system_name in CASE_STUDIES.items():
        loaded = load_system(system_name)
        refined = refine_system(loaded.system, plan_buses(loaded.groups))

        started = time.perf_counter()
        diagnostics = analyze_refined(refined)
        lint_seconds = time.perf_counter() - started
        assert diagnostics.clean, (
            f"{name}: clean build must lint clean\n"
            + diagnostics.render_text())

        fresh = refine_system(loaded.system, plan_buses(loaded.groups))
        started = time.perf_counter()
        report = verify_refined(fresh)
        verify_seconds = time.perf_counter() - started
        assert report.ok, f"{name}: clean build must verify"

        systems_json[name] = {
            "wall_seconds_lint": round(lint_seconds, 4),
            "wall_seconds_verify": round(verify_seconds, 4),
            "properties_proved": report.counts()["PROVED"],
        }
        rows.append([name, f"{lint_seconds:.3f}",
                     f"{verify_seconds:.3f}",
                     report.counts()["PROVED"]])

    started = time.perf_counter()
    outcomes = [CORPUS.check(defect) for defect in CORPUS.defects]
    corpus_seconds = time.perf_counter() - started
    caught = sum(outcome.exact for outcome in outcomes)
    assert caught == len(outcomes), "\n".join(
        outcome.render_line() for outcome in outcomes)

    lines = [
        "Static analysis + temporal verification wall time",
        "",
    ]
    lines += format_table(
        ["system", "lint s", "verify s", "proved"], rows)
    lines += [
        "",
        f"mutation corpus: {len(outcomes)} defects analyzed in "
        f"{corpus_seconds:.2f}s, {caught} caught",
    ]
    write_report("analysis", lines)

    write_json_report("analysis", {
        "benchmark": "analysis",
        "systems": systems_json,
        "mutation_corpus": {
            "defects": len(outcomes),
            "caught": caught,
            "wall_seconds_corpus_sweep": round(corpus_seconds, 4),
        },
    })

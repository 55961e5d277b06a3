"""Translation-validator wall time.

The validator runs inside every gated ``simulate(...,
backend="compiled")`` call, so its cost rides on every compiled run --
it has to stay a small fraction of the speedup it certifies.  This
bench holds that to a number on the paper's three case studies:
cold validation wall time (lowering plus the per-process proofs, with
the compiled backend's unit table emptied), revalidation of the same
spec (a hit of its memoized lowering, whose units already carry their
verdicts), and one sweep of the seeded
codegen-defect corpus (the validator's own regression workload).
Written to ``benchmarks/reports/BENCH_tv.json`` for the wall-time
regression gate (``benchmarks/compare_baselines.py``).
"""

import time

from benchmarks._report import (
    CASE_STUDIES,
    format_table,
    write_json_report,
    write_report,
)
from repro.analysis.tv import validate_refined
from repro.analysis.tv.mutations import CORPUS
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.protogen.refine import refine_system
from repro.sim.compiled import codegen


def test_translation_validation_walltime():
    rows = []
    systems_json = {}
    for name, system_name in CASE_STUDIES.items():
        loaded = load_system(system_name)
        schedule = loaded.schedule
        refined = refine_system(loaded.system, plan_buses(loaded.groups))

        # Cold means cold: earlier benches in the same session (the
        # compiled-backend bench among them) fill the unit table.
        codegen.UNITS.clear()
        started = time.perf_counter()
        report = validate_refined(refined, schedule=schedule)
        cold_seconds = time.perf_counter() - started
        assert report.all_validated, (
            f"{name}: clean build must validate\n" + report.render_text())

        started = time.perf_counter()
        revalidated = validate_refined(refined, schedule=schedule)
        warm_seconds = time.perf_counter() - started
        assert revalidated.all_validated

        processes = len(report.verdicts)
        obligations = sum(v.obligations for v in report.verdicts.values())
        systems_json[name] = {
            "wall_seconds_validate": round(cold_seconds, 4),
            "wall_seconds_revalidate": round(warm_seconds, 4),
            "processes": processes,
            "obligations": obligations,
        }
        rows.append([name, processes, obligations,
                     f"{cold_seconds:.3f}", f"{warm_seconds:.3f}"])

    started = time.perf_counter()
    outcomes = [CORPUS.check(defect) for defect in CORPUS.defects]
    corpus_seconds = time.perf_counter() - started
    assert all(outcome.exact for outcome in outcomes), "\n".join(
        outcome.render_line() for outcome in outcomes)

    lines = ["Translation validation wall time", ""]
    lines += format_table(
        ["system", "processes", "obligations",
         "validate s", "revalidate s"], rows)
    lines += ["", f"defect corpus: {len(outcomes)} seeded miscompiles "
              f"refuted + replayed in {corpus_seconds:.3f}s"]
    write_report("tv", lines)
    write_json_report("tv", {
        "systems": systems_json,
        "defect_corpus": {
            "defects": len(outcomes),
            "wall_seconds_corpus": round(corpus_seconds, 4),
        },
    })

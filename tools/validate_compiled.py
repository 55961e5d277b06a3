#!/usr/bin/env python
"""Trust gate for the compiled simulation backend.

Three checks over every built-in system at every protection level:

1. **Proof**: the translation validator (:mod:`repro.analysis.tv`)
   must discharge every obligation of every lowered process -- no
   refutation, no silent interpreter demotion, no spurious P8xx.
2. **Agreement**: the gated compiled run must agree with the reference
   interpreter on every observable (final values, end time,
   per-behavior clocks, transaction logs, and the whole per-bus and
   per-arbiter folds of :mod:`repro.sim.analysis` -- words, latency
   histogram, per-channel stats, utilization, grant waits and queue
   depths).  A second, observed pass runs both backends again with a
   :class:`~repro.obs.flight.FlightRecorder` attached (which sends
   every compiled transfer through the bus's own word loop) and
   compares the transaction logs and the whole flight journal.
3. **Unit table**: every check runs twice, first with the compiled
   backend's unit table (:data:`repro.sim.compiled.codegen.UNITS`)
   emptied, then with it warm; the generated sources, MANIFEST lines
   and verdicts of the two passes must be identical.

A failure in any of them means the backend could silently produce wrong
results, so the script exits non-zero and CI fails the build.  That
the validator can still notice a miscompile is the codegen-defect
corpus' job (:mod:`repro.analysis.tv.mutations`, run by ``make
defect-corpus``).

Usage::

    PYTHONPATH=src python tools/validate_compiled.py [system ...]
"""

from __future__ import annotations

import sys

from repro.analysis.tv import validate_refined
from repro.busgen.split import plan_buses
from repro.errors import ReproError
from repro.explore.systems import BUILTIN_SYSTEMS, load_system
from repro.obs.flight import FlightRecorder
from repro.protogen.refine import refine_system
from repro.sim.compiled import codegen
from repro.sim.runtime import BACKENDS, RefinedSimulation, simulate

PROTECTIONS = (None, "parity", "crc8")


def _agreement_failures(interp, compiled):
    """Observable-by-observable comparison; list of mismatch names."""
    checks = {
        "final_values": (interp.final_values, compiled.final_values),
        "end_time": (interp.end_time, compiled.end_time),
        "behavior_clocks": (interp.clocks, compiled.clocks),
        "transactions": (interp.transactions, compiled.transactions),
        "bus_stats": (interp.buses, compiled.buses),
        "arbiter_stats": (interp.arbiters, compiled.arbiters),
    }
    return [name for name, (want, got) in checks.items() if want != got]


def _observed_failures(refined, schedule):
    """Both backends with a flight recorder attached; list of mismatch
    names."""
    runs = []
    for backend in BACKENDS:
        recorder = FlightRecorder()
        result = simulate(refined, schedule=schedule, backend=backend,
                          recorder=recorder)
        runs.append({
            "observed_transactions": result.transactions,
            "flight_journal": [e.to_dict() for e in recorder.events],
        })
    interp, compiled = runs
    return [name for name in interp if interp[name] != compiled[name]]


def check_system(name: str, lowered: dict) -> int:
    """Proof + agreement for one system; returns failure count and
    records, per protection, the sources, MANIFEST lines and verdicts
    of its compiled lowering in ``lowered``."""
    failures = 0
    loaded = load_system(name)
    schedule = loaded.schedule
    for protection in PROTECTIONS:
        label = f"{name:<18} protection={protection or 'none':<6}"
        refined = refine_system(loaded.system, plan_buses(loaded.groups),
                                protection=protection)

        report = validate_refined(refined, schedule=schedule)
        program = RefinedSimulation(refined, schedule=schedule,
                                    backend="compiled").compiled
        lowered[label] = (program.sources, program.describe(),
                          report.verdict_lines())
        refuted = [n for n, v in report.verdicts.items() if v.refuted]
        demoted = [n for n, v in report.verdicts.items()
                   if v.status == "fallback"]
        if refuted or demoted or report.diagnostics():
            failures += 1
            print(f"FAIL {label} refuted={refuted} fallback={demoted} "
                  f"diagnostics={len(report.diagnostics())}")
            for diag in report.diagnostics():
                print(f"     {diag.code}: {diag.message}")
            continue

        interp = simulate(refined, schedule=schedule, backend="interp")
        compiled = simulate(refined, schedule=schedule,
                            backend="compiled")
        if compiled.fallbacks:
            failures += 1
            print(f"FAIL {label} unexpected fallbacks: "
                  f"{compiled.fallbacks}")
            continue
        mismatched = (_agreement_failures(interp, compiled)
                      + _observed_failures(refined, schedule))
        if mismatched:
            failures += 1
            print(f"FAIL {label} backends disagree on "
                  f"{', '.join(mismatched)}")
            continue
        obligations = sum(v.obligations for v in report.verdicts.values())
        print(f"ok   {label} processes={len(report.verdicts):>2} "
              f"obligations={obligations:>4} backends agree "
              "(observed too)")
    return failures


def main(argv) -> int:
    systems = argv or list(BUILTIN_SYSTEMS)
    failures = 0
    passes = []
    try:
        for table in ("emptied", "warm"):
            print(f"unit table {table}:")
            if table == "emptied":
                codegen.UNITS.clear()
            lowered: dict = {}
            for name in systems:
                failures += check_system(name, lowered)
            passes.append(lowered)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cold, warm = passes
    for label in cold:
        if cold[label] != warm.get(label):
            failures += 1
            print(f"FAIL {label} sources, MANIFEST or verdicts differ "
                  "between an emptied and a warm unit table")
    if failures:
        print(f"\n{failures} check(s) FAILED")
        return 1
    print("\nall compiled-backend validation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

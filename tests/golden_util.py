"""Canonical capture of a simulation run, for the determinism suite.

``capture_system`` reduces one refined-system simulation to a plain,
JSON-stable dict: transaction logs, per-process :class:`SimStats`
fields, final variable values and the kernel counters the live metrics
report.  The golden files under ``tests/data/golden_sim_*.json`` were
generated by the *seed* (polling fixpoint) kernel; the determinism
suite asserts the event-driven kernel reproduces them byte for byte.

Regenerate (only when observable behavior intentionally changes)::

    PYTHONPATH=src python -m tests.golden_util
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.obs.simmetrics import SimMetrics

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: Golden slugs: loadable system names with ``_`` for ``-``.
GOLDEN_SYSTEMS = ("flc", "answering_machine", "ethernet")


def _parity_fault_plan():
    """Fixed single-word fault: flip one DATA bit of write txn 3."""
    from repro.sim.faults import Fault, FaultKind, FaultPlan
    return FaultPlan(faults=[
        Fault(kind=FaultKind.BIT_FLIP, bus="B", flip_mask=0b100,
              transaction=3, word=0),
    ])


def _crc8_fault_plan():
    """Fixed single-transition fault: swallow DONE rising on txn 5."""
    from repro.sim.faults import Fault, FaultKind, FaultPlan
    return FaultPlan(faults=[
        Fault(kind=FaultKind.DROP, bus="B", line="DONE", transaction=5),
    ])


#: variant slug -> (base system, protection mode, fault-plan factory).
#: These goldens pin the protected protocols and the fault injector:
#: the fault-free pair proves determinism of the protected paths, the
#: faulty pair pins the exact retry/recovery trace.
GOLDEN_VARIANTS = {
    "flc_parity": ("flc", "parity", None),
    "flc_crc8": ("flc", "crc8", None),
    "flc_parity_faulty": ("flc", "parity", _parity_fault_plan),
    "flc_crc8_faulty": ("flc", "crc8", _crc8_fault_plan),
}


def capture_system(slug: str, protection: Any = None,
                   faults: Any = None,
                   recorder: Any = None,
                   backend: str = "interp") -> Dict[str, Any]:
    """Run one system end to end and return its canonical record.

    ``protection`` selects a protected protocol variant (``"parity"``
    / ``"crc8"``); ``faults`` is a :class:`~repro.sim.faults.FaultPlan`
    injected into the run.  Either extends the record with ``retries``
    per transaction row plus top-level ``faults``/``retries`` keys;
    the plain capture stays byte-identical to the seed goldens.

    ``recorder`` attaches a flight recorder to the run; the record
    must come out byte-identical either way (the observer-invariance
    suite in ``tests/test_flight.py`` pins this).

    ``backend`` selects the simulation backend.  The compiled backend
    batches per-statement clocks into single kernel waits, so only the
    ``kernel`` counters section may differ from an interpreter capture
    (``tests/test_compiled_backend.py`` pins everything else).
    """
    from repro.busgen.split import plan_buses
    from repro.explore.systems import load_system
    from repro.protogen.refine import refine_system
    from repro.sim.runtime import simulate

    loaded = load_system(slug.replace("_", "-"))
    refined = refine_system(loaded.system, plan_buses(loaded.groups),
                            protection=protection)
    metrics = SimMetrics()
    if faults is not None:
        faults.reset()
    result = simulate(refined, schedule=loaded.schedule, metrics=metrics,
                      faults=faults, recorder=recorder, backend=backend)

    oracle_ok = all(result.final_values[k] == v
                    for k, v in loaded.oracle.items())
    kernel = metrics.kernel
    extended = protection is not None or faults is not None
    record = {
        "system": slug,
        "end_time": result.end_time,
        "oracle_ok": oracle_ok,
        "processes": {
            name: {
                "daemon": stats.daemon,
                "finished": stats.finished,
                "start_time": stats.start_time,
                "finish_time": stats.finish_time,
            }
            for name, stats in sorted(result.stats.processes.items())
        },
        "clocks": dict(sorted(result.clocks.items())),
        "final_values": dict(sorted(result.final_values.items())),
        "transactions": {
            bus: [
                [t.start_time, t.end_time, t.channel, t.direction.name,
                 t.address, t.data, t.initiator]
                + ([t.retries] if extended else [])
                for t in log
            ]
            for bus, log in sorted(result.transactions.items())
        },
        "arbitration_wait": dict(sorted(result.arbitration_wait.items())),
        "busy_clocks": {
            # busy clocks rather than utilization: integers survive JSON
            # round trips exactly, float division need not.
            name: bus.busy_clocks
            for name, bus in sorted(result.buses.items())
        },
        "kernel": {
            "end_clock": kernel.end_clock,
            "clock_jumps": kernel.clock_jumps,
            "passes": kernel.passes,
            "steps": kernel.steps,
            "processes": kernel.to_dict()["processes"],
        },
    }
    if extended:
        record["protection"] = protection
        record["retries"] = {
            bus: sum(t.retries for t in log)
            for bus, log in sorted(result.transactions.items())
        }
        record["faults"] = [r.to_dict() for r in result.fault_records]
    return record


def capture_variant(slug: str, recorder: Any = None,
                    backend: str = "interp") -> Dict[str, Any]:
    """Capture one protected/faulty variant from ``GOLDEN_VARIANTS``."""
    base, protection, plan_factory = GOLDEN_VARIANTS[slug]
    faults = plan_factory() if plan_factory is not None else None
    record = capture_system(base, protection=protection, faults=faults,
                            recorder=recorder, backend=backend)
    record["system"] = slug
    return record


def golden_path(slug: str) -> str:
    return os.path.join(DATA_DIR, f"golden_sim_{slug}.json")


def load_golden(slug: str) -> Dict[str, Any]:
    with open(golden_path(slug), "r", encoding="utf-8") as handle:
        return json.load(handle)


def dump(record: Dict[str, Any]) -> str:
    """The byte-exact serialization both sides compare."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    for slug in GOLDEN_SYSTEMS:
        record = capture_system(slug)
        path = golden_path(slug)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump(record))
        print(f"wrote {path} (end_time={record['end_time']}, "
              f"passes={record['kernel']['passes']})")
    for slug in sorted(GOLDEN_VARIANTS):
        record = capture_variant(slug)
        path = golden_path(slug)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump(record))
        print(f"wrote {path} (end_time={record['end_time']}, "
              f"faults={len(record['faults'])})")


if __name__ == "__main__":
    main()

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

import hashlib
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


def refined_system(system: str, protocol: Any = None,
                   protection: Any = None):
    """``(loaded system, refined spec)`` of one built-in system: the
    design every capture of ``system`` simulates.  ``protocol`` names
    the bus protocol (the full handshake when None)."""
    from repro.busgen.split import plan_buses
    from repro.explore.systems import load_system
    from repro.protocols import FULL_HANDSHAKE, PROTOCOLS
    from repro.protogen.refine import refine_system

    loaded = load_system(system.replace("_", "-"))
    designs = plan_buses(loaded.groups,
                         protocol=PROTOCOLS[protocol] if protocol
                         else FULL_HANDSHAKE)
    return loaded, refine_system(loaded.system, designs,
                                 protection=protection)


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
    loaded, refined = refined_system(slug, protection=protection)
    return _capture(slug, refined, loaded.schedule, loaded.oracle,
                    protection=protection, faults=faults,
                    recorder=recorder, backend=backend)


def _capture(slug: str, refined: Any, schedule: Any,
             oracle: Dict[str, Any], protection: Any = None,
             faults: Any = None, recorder: Any = None,
             backend: str = "interp") -> Dict[str, Any]:
    from repro.sim.runtime import simulate

    metrics = SimMetrics()
    if faults is not None:
        faults.reset()
    result = simulate(refined, schedule=schedule, metrics=metrics,
                      faults=faults, recorder=recorder, backend=backend)

    oracle_ok = all(result.final_values[k] == v
                    for k, v in oracle.items())
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


#: slug -> (system, protocol name): every protocol shape the bus runs
#: besides the full handshake, on the interpreter, each record carrying
#: the flight journal of its run.  The answering machine multiplexes
#: six channels on one bus.  No case study fits the single-channel
#: hardwired port, so the Figure 3 design's ``MEM(60) <= COUNT``
#: channel covers it on a bus of its own.
PROTOCOL_GOLDENS = {
    f"{system}_{protocol}": (system, protocol)
    for system in ("flc", "answering_machine")
    for protocol in ("burst_handshake", "half_handshake", "fixed_delay")
}
PROTOCOL_GOLDENS["fig3_hardwired"] = ("fig3", "hardwired")


def protocol_design(slug: str):
    """``(refined spec, schedule, oracle)`` of a ``PROTOCOL_GOLDENS``
    slug."""
    system, protocol = PROTOCOL_GOLDENS[slug]
    if system != "fig3":
        loaded, refined = refined_system(system, protocol=protocol)
        return refined, loaded.schedule, loaded.oracle
    from repro.channels.group import ChannelGroup
    from repro.protocols import PROTOCOLS
    from repro.protogen.refine import generate_protocol
    from repro.spec.interp import run_reference
    from tests.conftest import make_fig3

    fig3 = make_fig3()
    channel = next(c for c in fig3.channels
                   if c.variable.name == "MEM" and c.accessor.name == "Q")
    refined = generate_protocol(fig3.system, ChannelGroup("HW", [channel]),
                                width=channel.message_bits,
                                protocol=PROTOCOLS[protocol])
    schedule = ["P", "Q"]
    oracle = run_reference(fig3.system, order=schedule).final_values
    return refined, schedule, oracle


#: Journal lines a protocol golden keeps verbatim; the rest of the
#: journal is pinned by its digest (a whole journal runs to 200-360 KB).
JOURNAL_HEAD = 64


def journal_section(recorder: Any) -> Dict[str, Any]:
    """A flight journal pinned byte for byte: its first lines verbatim,
    a SHA-256 of every line, and the event count per kind."""
    lines = [f"t={e.clock} {e.kind} cid={e.correlation_id} {e.bus}"
             + (f" {e.detail}" if e.detail else "")
             for e in recorder.events]
    return {
        "events": len(lines),
        "head": lines[:JOURNAL_HEAD],
        "kinds": dict(sorted(recorder.journal_kinds().items())),
        "sha256": hashlib.sha256(
            "\n".join(lines).encode("utf-8")).hexdigest(),
    }


def capture_protocol(slug: str, recorder: Any = None,
                     backend: str = "interp") -> Dict[str, Any]:
    """Capture one ``PROTOCOL_GOLDENS`` design with a flight recorder
    attached; the record gains the run's ``journal``."""
    from repro.obs.flight import FlightRecorder

    refined, schedule, oracle = protocol_design(slug)
    recorder = recorder if recorder is not None else FlightRecorder()
    record = _capture(slug, refined, schedule, oracle, recorder=recorder,
                      backend=backend)
    record["protocol"] = PROTOCOL_GOLDENS[slug][1]
    record["journal"] = journal_section(recorder)
    return record


#: The flight journals of the ``GOLDEN_SYSTEMS`` and ``GOLDEN_VARIANTS``
#: runs, one :func:`journal_section` per slug (their sim records were
#: generated detached and carry none).
JOURNALS_PATH = os.path.join(DATA_DIR, "golden_flight_journals.json")


def capture_journals() -> Dict[str, Any]:
    from repro.obs.flight import FlightRecorder

    journals: Dict[str, Any] = {}
    for slug in GOLDEN_SYSTEMS:
        recorder = FlightRecorder()
        capture_system(slug, recorder=recorder)
        journals[slug] = journal_section(recorder)
    for slug in sorted(GOLDEN_VARIANTS):
        recorder = FlightRecorder()
        capture_variant(slug, recorder=recorder)
        journals[slug] = journal_section(recorder)
    return journals


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
    for slug in sorted(PROTOCOL_GOLDENS):
        record = capture_protocol(slug)
        path = golden_path(slug)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump(record))
        print(f"wrote {path} (end_time={record['end_time']}, "
              f"journal={record['journal']['events']} events)")
    with open(JOURNALS_PATH, "w", encoding="utf-8") as handle:
        handle.write(dump(capture_journals()))
    print(f"wrote {JOURNALS_PATH}")


if __name__ == "__main__":
    main()

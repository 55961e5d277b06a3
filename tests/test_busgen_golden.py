"""Bus generation against recorded width sweeps.

Every :class:`~repro.busgen.algorithm.WidthEvaluation` of the Figure 7
sweep of the FLC's bus B (measured and static rates), of the three
Figure 8 constraint designs, and of every bus that ``plan_buses``
generates for the case studies and ``examples/specs`` (under each
shareable protocol for the FLC, full handshake elsewhere) must equal, field by field and float for float, the
one recorded in ``tests/data/golden_busgen_evaluations.json``.

Regenerate (only when bus generation changes on purpose)::

    PYTHONPATH=src python -m tests.test_busgen_golden
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List

import pytest

from repro.apps.flc import build_flc
from repro.busgen.algorithm import BusDesign, generate_bus
from repro.busgen.constraints import (
    ConstraintSet,
    max_buswidth,
    min_buswidth,
    min_peak_rate,
)
from repro.busgen.split import plan_buses
from repro.explore.systems import load_system
from repro.protocols import get_protocol

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_busgen_evaluations.json")
SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "specs")

PROTOCOLS = ("full_handshake", "half_handshake", "fixed_delay",
             "burst_handshake")
SYSTEMS = {
    "flc": "flc",
    "answering_machine": "answering-machine",
    "ethernet": "ethernet",
    **{spec: os.path.join(SPEC_DIR, f"{spec}.spec")
       for spec in ("fig3", "gcd_accelerator", "pipeline_dsp")},
}

#: Figure 8's designs (see benchmarks/bench_fig8_constraint_designs.py).
FIGURE_8 = {
    "A": lambda: ConstraintSet([min_peak_rate("ch2", 10, weight=10)]),
    "B": lambda: ConstraintSet([min_peak_rate("ch2", 10, weight=2),
                                min_buswidth(14, weight=1),
                                max_buswidth(18, weight=5)]),
    "C": lambda: ConstraintSet([min_peak_rate("ch2", 10, weight=1),
                                min_buswidth(16, weight=5),
                                max_buswidth(16, weight=5)]),
}


def case_ids() -> List[str]:
    return (["fig7_measured", "fig7_static"]
            + [f"fig8_{name}" for name in FIGURE_8]
            + [f"{system}_{protocol}" for system in SYSTEMS
               for protocol in PROTOCOLS
               if system == "flc" or protocol == "full_handshake"])


def _designs(case_id: str) -> List[BusDesign]:
    if case_id.startswith("fig7_"):
        return [generate_bus(build_flc().bus_b,
                             rates=case_id[len("fig7_"):])]
    if case_id.startswith("fig8_"):
        return [generate_bus(build_flc().bus_b,
                             constraints=FIGURE_8[case_id[-1]]())]
    system, protocol = next((system, protocol) for system in SYSTEMS
                            for protocol in PROTOCOLS
                            if case_id == f"{system}_{protocol}")
    loaded = load_system(SYSTEMS[system], on_note=lambda _message: None)
    return plan_buses(loaded.groups, get_protocol(protocol),
                      on_note=lambda _message: None)


def record(case_id: str) -> List[dict]:
    """Every evaluation of every design of one case, as plain data."""
    return [{
        "group": design.group.name,
        "width": design.width,
        "evaluations": [{
            "width": e.width,
            "bus_rate": e.bus_rate,
            "demand": e.demand,
            "feasible": e.feasible,
            "cost": e.cost,
            "demand_static": e.demand_static,
            "feasible_static": e.feasible_static,
            "rates": {name: {
                "channel_name": r.channel_name,
                "width": r.width,
                "average_rate": r.average_rate,
                "peak_rate": r.peak_rate,
                "lifetime_clocks": r.lifetime_clocks,
            } for name, r in e.rates.items()},
        } for e in design.evaluations],
    } for design in _designs(case_id)]


@lru_cache(maxsize=None)
def _golden() -> Dict[str, List[dict]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _same(got, want) -> bool:
    """Exact equality that also tells ints, floats and bools apart."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() \
            and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) \
            and all(_same(g, w) for g, w in zip(got, want))
    return type(got) is type(want) \
        and (got == want or repr(got) == repr(want))


@pytest.mark.parametrize("case_id", case_ids())
def test_width_evaluations_match_golden(case_id):
    got = json.loads(json.dumps(record(case_id)))
    assert _same(got, _golden()[case_id])


def test_golden_covers_every_case():
    golden = _golden()
    assert sorted(golden) == sorted(case_ids())
    assert [golden[f"fig8_{name}"][0]["width"] for name in FIGURE_8] \
        == [20, 18, 16]


if __name__ == "__main__":
    golden = {case_id: record(case_id) for case_id in case_ids()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden.items())) + "\n}\n")
    print(f"wrote {GOLDEN}")

"""Section 5's experiment sweep: bus generation applied to the
answering machine, the Ethernet network coprocessor and the FLC.

"We performed several experiments involving the application of the bus
generation algorithm to synthesize module interfaces in an answering
machine, an Ethernet network coprocessor and a fuzzy logic
controller."  The paper details only the FLC; for all three systems we
report the derived channels, the separate-implementation pin count,
the selected buswidth and the interconnect reduction -- and verify
each refined system still computes its oracle outputs over the
generated bus.
"""

import time

import pytest

from benchmarks._report import (
    CASE_STUDIES,
    format_table,
    write_json_report,
    write_report,
)
from repro.busgen.algorithm import generate_bus
from repro.explore.systems import load_system
from repro.protogen.refine import refine_system
from repro.sim.runtime import simulate


def _case(label, name):
    """(label, system, its one channel group, schedule, oracle)."""
    loaded = load_system(name)
    group, = loaded.groups
    return label, loaded.system, group, loaded.schedule, loaded.oracle


@pytest.fixture(scope="module", params=list(CASE_STUDIES.items()),
                ids=lambda case: case[1])
def case(request):
    return _case(*request.param)


class TestThreeSystems:
    def test_bus_generation_feasible(self, case):
        _, _, group, _, _ = case
        design = generate_bus(group)
        assert design.bus_rate >= design.demand

    def test_merging_reduces_interconnect(self, case):
        _, _, group, _, _ = case
        design = generate_bus(group)
        assert design.width < group.total_message_pins
        assert design.interconnect_reduction_percent > 0

    def test_refined_system_computes_oracle(self, case):
        _, system, group, schedule, oracle = case
        design = generate_bus(group)
        refined = refine_system(system, [design])
        result = simulate(refined, schedule=schedule)
        for key, value in oracle.items():
            assert result.final_values[key] == value, key


def test_report_and_benchmark(benchmark):
    def run_all():
        out = []
        for label, name in CASE_STUDIES.items():
            case = _case(label, name)
            out.append(case + (generate_bus(case[2]),))
        return out

    results = benchmark(run_all)

    rows = []
    systems_json = {}
    for name, system, group, schedule, oracle, design in results:
        started = time.perf_counter()
        refined = refine_system(system, [design])
        sim = simulate(refined, schedule=schedule)
        wall_seconds = time.perf_counter() - started
        ok = all(sim.final_values[k] == v for k, v in oracle.items())
        stats = sim.buses[group.name]
        systems_json[name] = {
            "wall_seconds_refine_and_simulate": round(wall_seconds, 4),
            "sim_clocks": sim.end_time,
            "transactions": stats.transactions,
            "bus_utilization": round(stats.utilization, 4),
            "bus_width": design.width,
            "separate_pins": group.total_message_pins,
            "interconnect_reduction_percent":
                round(design.interconnect_reduction_percent, 1),
            "oracle_ok": ok,
        }
        rows.append([
            name,
            len(group),
            group.total_message_pins,
            design.width,
            f"{design.bus_rate:g}",
            f"{design.demand:.2f}",
            f"{design.interconnect_reduction_percent:.0f}%",
            "OK" if ok else "FAIL",
        ])
    lines = [
        "Section 5: bus generation across the three experiment systems",
        "",
    ]
    lines += format_table(
        ["system", "channels", "separate pins", "bus width",
         "bus rate", "demand", "reduction", "sim check"],
        rows)
    write_report("three_systems", lines)

    payload = {
        "benchmark": "three_systems",
        "systems": systems_json,
    }
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        # Mean wall time of the synthesis sweep (bus generation for all
        # three systems) as measured by pytest-benchmark.
        payload["synthesis_wall_seconds_mean"] = round(
            stats.stats.mean, 4)
    write_json_report("three_systems", payload)

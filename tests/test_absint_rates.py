"""Static channel-rate bounds: exactness, soundness vs. the simulator,
``--rates static`` bus generation, and proven field tightening."""

import os

import pytest

from repro.analysis.absint import (
    StaticRateModel,
    analyze_refined_values,
    refined_channel_bounds,
)
from repro.analysis.diagnostics import (
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.apps.flc import build_flc, reference_ctrl_output
from repro.busgen.algorithm import generate_bus
from repro.busgen.split import plan_buses
from repro.errors import InfeasibleBusError
from repro.explore.systems import load_system
from repro.protogen.procedures import FieldKind
from repro.protocols import FULL_HANDSHAKE
from repro.protogen.refine import refine_system
from repro.sim.runtime import simulate

SYSTEMS = ["flc", "answering-machine", "ethernet"]


def _build_refined(name):
    loaded = load_system(name)
    return (refine_system(loaded.system, plan_buses(loaded.groups)),
            loaded.schedule)


def test_flc_bounds_are_exact():
    refined, _ = _build_refined("flc")
    bounds = refined_channel_bounds(refined)
    for name in ("ch1", "ch2"):
        assert (bounds[name].accesses_lo,
                bounds[name].accesses_hi) == (128, 128), name


@pytest.mark.parametrize("name", SYSTEMS)
def test_static_bounds_are_sound_against_the_simulator(name):
    """Soundness gate: simulated transaction counts and bit volumes
    must fall inside the statically proven bounds on every system."""
    refined, schedule = _build_refined(name)
    bounds = refined_channel_bounds(refined)
    result = simulate(refined, schedule=schedule)
    checked = 0
    for stats in result.buses.values():
        for channel_name, channel_stats in stats.per_channel.items():
            bound = bounds[channel_name]
            assert bound.contains_accesses(channel_stats.count), (
                f"{name}/{channel_name}: simulated "
                f"{channel_stats.count} accesses outside {bound}")
            assert bound.contains_bits(
                channel_stats.count * bound.message_bits), (
                f"{name}/{channel_name}: bit volume outside {bound}")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_system_is_provably_feasible_at_its_chosen_width(name):
    refined, _ = _build_refined(name)
    for bus in refined.buses:
        model = StaticRateModel(bus.group, bus.structure.protocol)
        assert model.is_provably_feasible(bus.structure.width), bus.name


def test_gcd_measured_rates_lie_under_the_proven_ceiling():
    """gcd's loop runs 3 trips against its pragma of 6, and CHECKER
    takes one arm of its if: every measured rate must still stay under
    the proven upper rate, which therefore cannot use either the pragma
    or the longer arm for the lifetime."""
    loaded = load_system(os.path.join(os.path.dirname(__file__), "..",
                                      "examples", "specs",
                                      "gcd_accelerator.spec"))
    group = loaded.groups[0]
    refined = refine_system(loaded.system, [(group, 16)])
    result = simulate(refined, schedule=loaded.schedule)
    counts = result.buses[group.name].per_channel
    model = StaticRateModel(group, FULL_HANDSHAKE)
    for channel in group:
        lifetime = result.clocks[channel.accessor.name]
        measured = (counts[channel.name].count * channel.message_bits
                    / (lifetime * group.clock_period))
        assert measured <= model.rate_bounds(channel, 16)[1], channel.name


def test_tightened_layout_prices_the_refined_lifetime():
    """``--tighten-fields`` at width 8 moves 15-bit, two-word messages,
    not the declared 23 bits: the proven lifetime must price the layout
    as built, or its floor overshoots the measured lifetime and the rate
    ceiling falls below the measured rate."""
    model = build_flc()
    plans = [(model.bus_b, 8)]
    ranges = analyze_refined_values(
        refine_system(model.system, plans)).finite_sent_ranges()
    tightened = refine_system(model.system, plans, value_ranges=ranges)
    bus = tightened.buses[0]
    assert bus.procedures["ch1"].layout.total_bits == 15
    bounds = refined_channel_bounds(tightened)
    rates = StaticRateModel(bus.group, bus.structure.protocol,
                            bounds={c.name: bounds[c.name]
                                    for c in bus.group})
    result = simulate(tightened, schedule=model.schedule)
    counts = result.buses[bus.name].per_channel
    for channel in bus.group:
        lifetime = result.clocks[channel.accessor.name]
        lo, hi = rates.lifetime_bounds(channel, 8)
        assert lo <= lifetime <= hi, channel.name
        measured = (counts[channel.name].count * channel.message_bits
                    / (lifetime * bus.group.clock_period))
        assert measured <= rates.rate_bounds(channel, 8)[1], channel.name
    ch1 = bus.group.channel("ch1")
    assert result.clocks["EVAL_R3"] == 1281
    assert rates.lifetime_bounds(ch1, 8)[0] <= 1281
    assert rates.rate_bounds(ch1, 8)[1] >= 128 * 23 / 1281
    # The 23 declared bits per message would need 4.85 > 4.0: Equation
    # 1 weighs the 15 the layout moves, so P505 passes the design.
    assert rates.demand_bounds(8)[0] <= rates.bus_rate_at(8)


def test_static_busgen_selects_the_measured_width_on_flc():
    """The FLC accessors are loop-bound-exact, so the proven demand
    equals the measured demand and static mode picks the same width
    (the paper's Figure 7 result)."""
    model = build_flc()
    measured = generate_bus(model.bus_b)
    static = generate_bus(model.bus_b, rates="static")
    assert static.rate_mode == "static"
    assert static.width == measured.width
    chosen = next(e for e in static.evaluations
                  if e.width == static.width)
    assert chosen.feasible_static
    assert chosen.demand_static == pytest.approx(chosen.demand)


def test_static_infeasible_width_reports_the_bound_gap():
    model = build_flc()
    with pytest.raises(InfeasibleBusError) as excinfo:
        generate_bus(model.bus_b, widths=[1], rates="static")
    assert "statically proven demand" in str(excinfo.value)


def test_tightened_fields_still_simulate_correctly():
    """Proven-range tightening (16 -> 8 data bits on the FLC) must not
    change the computed control output."""
    model = build_flc()
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design])
    analysis = analyze_refined_values(refined)
    ranges = {name: bounds
              for name in analysis.sent_ranges
              if (bounds := analysis.sent_range(name)) is not None}
    assert ranges, "FLC channel values should have finite proven ranges"
    tightened = refine_system(model.system, [design],
                              value_ranges=ranges)
    for bus in tightened.buses:
        for name, pair in bus.procedures.items():
            assert pair.layout.proven_range is not None, name
            assert pair.layout.field(FieldKind.DATA).bits == 8, name
    result = simulate(tightened, schedule=model.schedule)
    assert result.final_values["ctrl_out"] == reference_ctrl_output(
        250, 180)


def test_diagnostics_dedupe_and_stable_json_order():
    ds = DiagnosticSet(system="t")
    loc = SourceLocation("channel", "ch1")
    ds.add("P301", Severity.ERROR, "found by width pass", loc)
    ds.add("P301", Severity.ERROR, "found again by value pass", loc)
    ds.add("P101", Severity.ERROR, "other", SourceLocation("fsm", "X"))
    assert ds.dedupe() == 1
    assert len(ds.diagnostics) == 2
    # Re-running is idempotent.
    assert ds.dedupe() == 0
    # JSON output is sorted by code regardless of emission order.
    codes = [d["code"] for d in ds.to_dict()["diagnostics"]]
    assert codes == sorted(codes) == ["P101", "P301"]
    # The survivor of a duplicate pair is the *first* emission.
    kept = [d for d in ds.diagnostics if d.code == "P301"]
    assert kept[0].message == "found by width pass"

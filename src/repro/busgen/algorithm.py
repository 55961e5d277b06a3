"""The bus generation algorithm (Section 3 of the paper, ref [8]).

Five steps, quoted from the paper and implemented verbatim:

1. **Determine buswidth range** -- "the smallest buswidth examined ... is
   1 and the largest ... is equal to the largest size of message sent by
   any channel."
2. **Compute the bus rate** -- Equation 2,
   ``BusRate(B) = CurrBW / (delay x ClockPeriod)`` with delay = 2 for the
   full handshake.
3. **Determine average rates for each channel** at the current width;
   the width is *feasible* when ``BusRate >= sum(AveRate)`` (Equation 1).
4. **Determine the cost function** -- weighted sum of squared constraint
   violations (see :mod:`repro.busgen.constraints`).
5. **Select the buswidth** -- the feasible width of least cost; when no
   width is feasible the group cannot be implemented as one bus and must
   be split (:mod:`repro.busgen.split`).

The returned :class:`BusDesign` retains the per-width evaluation table
so benchmarks can print the full exploration (Figures 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.busgen.constraints import ConstraintSet
from repro.channels.group import ChannelGroup
from repro.channels.rates import ChannelRates, GroupRateModel
from repro.errors import BusGenError, InfeasibleBusError
from repro.estimate.perf import PerformanceEstimator
from repro.obs.tracer import count as obs_count
from repro.obs.tracer import span as obs_span
from repro.protocols import FULL_HANDSHAKE, Protocol


@dataclass(frozen=True)
class WidthEvaluation:
    """Outcome of examining one candidate buswidth (steps 2-4)."""

    width: int
    bus_rate: float
    #: Sum of channel average rates at this width (Equation 1 RHS).
    demand: float
    feasible: bool
    #: Constraint cost; only meaningful for feasible widths but computed
    #: for all so benches can plot the full landscape.
    cost: float
    rates: Dict[str, ChannelRates]
    #: Statically proven worst-case demand (``--rates static`` mode);
    #: ``None`` when static bounds were not computed or are unbounded.
    demand_static: Optional[float] = None
    #: Equation 1 under the proven demand; ``None`` outside static mode.
    feasible_static: Optional[bool] = None


@dataclass
class BusDesign:
    """A selected bus implementation for a channel group."""

    group: ChannelGroup
    protocol: Protocol
    width: int
    bus_rate: float
    demand: float
    cost: float
    rates: Dict[str, ChannelRates]
    evaluations: List[WidthEvaluation] = field(default_factory=list)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    #: ``measured`` (simulation-calibrated estimator rates) or
    #: ``static`` (abstract-interpretation proven upper bounds).
    rate_mode: str = "measured"

    @property
    def feasible_widths(self) -> List[int]:
        return [e.width for e in self.evaluations if e.feasible]

    @property
    def separate_pins(self) -> int:
        """Data pins if each channel were implemented separately."""
        return self.group.total_message_pins

    @property
    def interconnect_reduction_percent(self) -> float:
        """Figure 8's bottom row: data-line reduction from merging."""
        separate = self.separate_pins
        return 100.0 * (separate - self.width) / separate

    def describe(self) -> str:
        return (
            f"bus {self.group.name}: width={self.width} pins, "
            f"rate={self.bus_rate:g} bits/clock, demand={self.demand:.3f}, "
            f"cost={self.cost:g}, protocol={self.protocol.name}, "
            f"reduction={self.interconnect_reduction_percent:.0f}% "
            f"(vs {self.separate_pins} separate pins)"
        )


def buswidth_range(group: ChannelGroup) -> range:
    """Step 1: candidate widths 1 .. largest message size."""
    return range(1, group.max_message_bits + 1)


def generate_bus(group: ChannelGroup,
                 protocol: Protocol = FULL_HANDSHAKE,
                 constraints: Optional[ConstraintSet] = None,
                 widths: Optional[Sequence[int]] = None,
                 estimator: Optional[PerformanceEstimator] = None,
                 rates: str = "measured",
                 ) -> BusDesign:
    """Run the five-step bus generation algorithm on a channel group.

    Parameters
    ----------
    group:
        The channels to implement as one bus.
    protocol:
        Transfer discipline assumed for rate computation (the paper uses
        the full handshake, delay 2 clocks).
    constraints:
        Designer constraints; ``None`` means unconstrained (cost 0
        everywhere, smallest feasible width selected).
    widths:
        Explicit candidate widths; default is step 1's range.  "The
        number of data lines ... can be determined by the bus-generation
        algorithm or they can be specified by the system designer"
        (Section 4) -- passing a single-element sequence implements the
        designer-specified case.
    rates:
        ``"measured"`` (default) checks Equation 1 against the
        estimator's channel rates.  ``"static"`` additionally requires
        the *statically proven* worst-case demand (abstract
        interpretation over the accessor behaviors) to fit the bus
        rate: a width feasible under measured rates but not under the
        proven bound is rejected, because its feasibility rests on
        optimistic measurements the program text does not guarantee.

    Raises
    ------
    InfeasibleBusError
        When no candidate width satisfies Equation 1 (under the proven
        bounds in static mode -- the message then reports the gap
        between measured and proven demand).  Callers should split the
        group (:func:`repro.busgen.split.split_group`).
    """
    if rates not in ("measured", "static"):
        raise BusGenError(
            f"unknown rate mode {rates!r}; choose 'measured' or 'static'"
        )
    if not protocol.shareable and len(group) > 1:
        raise BusGenError(
            f"protocol {protocol.name} is not shareable; group "
            f"{group.name} has {len(group)} channels"
        )
    constraints = constraints or ConstraintSet()
    candidate_widths = list(widths) if widths is not None \
        else list(buswidth_range(group))
    if not candidate_widths:
        raise BusGenError(f"no candidate buswidths for group {group.name}")
    if any(w < 1 for w in candidate_widths):
        raise BusGenError(
            f"candidate buswidths must be >= 1, got {candidate_widths}"
        )

    static_model = None
    if rates == "static":
        # Imported lazily: repro.analysis.absint imports this module's
        # downstream consumers during package init.
        from repro.analysis.absint.rates import StaticRateModel
        static_model = StaticRateModel(group, protocol)

    with obs_span("busgen.generate_bus", group=group.name,
                  protocol=protocol.name, rate_mode=rates,
                  candidates=len(candidate_widths)) as sp:
        obs_count("busgen.widths_examined", len(candidate_widths))
        model = GroupRateModel(group, protocol, estimator)
        evaluations: List[WidthEvaluation] = []
        for width in candidate_widths:
            channel_rates = model.rates_at(width)              # step 3
            bus_rate = model.bus_rate_at(width)                # step 2
            demand = sum(r.average_rate for r in channel_rates.values())
            feasible = bus_rate >= demand                      # Equation 1
            cost = constraints.cost(width, channel_rates)      # step 4
            demand_static = None
            feasible_static = None
            if static_model is not None:
                demand_static = static_model.demand_bounds(width)[1]
                feasible_static = bus_rate >= demand_static
            evaluations.append(WidthEvaluation(
                width=width, bus_rate=bus_rate, demand=demand,
                feasible=feasible, cost=cost, rates=channel_rates,
                demand_static=demand_static,
                feasible_static=feasible_static,
            ))

        if static_model is not None:
            feasible_evals = [e for e in evaluations
                              if e.feasible and e.feasible_static]
        else:
            feasible_evals = [e for e in evaluations if e.feasible]
        if not feasible_evals:
            widest = max(evaluations, key=lambda e: e.width)
            message = (
                f"group {group.name}: no feasible buswidth in "
                f"[{min(candidate_widths)}, {max(candidate_widths)}]; at "
                f"width {widest.width} the bus rate {widest.bus_rate:g} is "
                f"below the demand {widest.demand:g}."
            )
            if static_model is not None \
                    and widest.demand_static is not None:
                gap = widest.demand_static - widest.demand
                message = (
                    f"group {group.name}: no buswidth in "
                    f"[{min(candidate_widths)}, {max(candidate_widths)}] "
                    "is feasible under the statically proven demand; at "
                    f"width {widest.width} the proven bound is "
                    f"{widest.demand_static:g} vs measured demand "
                    f"{widest.demand:g} (bound gap {gap:g}) against bus "
                    f"rate {widest.bus_rate:g}."
                )
            raise InfeasibleBusError(
                message + " Split the group across several buses "
                "(repro.busgen.split).",
                demand=widest.demand_static
                if static_model is not None
                and widest.demand_static is not None else widest.demand,
                best_rate=widest.bus_rate,
            )

        # Step 5: least cost; deterministic tie-break on the narrower bus
        # (fewer pins at equal cost is strictly better interconnect).
        selected = min(feasible_evals, key=lambda e: (e.cost, e.width))
        sp.set(width=selected.width,
               feasible_widths=len(feasible_evals))

    return BusDesign(
        group=group,
        protocol=protocol,
        width=selected.width,
        bus_rate=selected.bus_rate,
        demand=selected.demand,
        cost=selected.cost,
        rates=selected.rates,
        evaluations=evaluations,
        constraints=constraints,
        rate_mode=rates,
    )

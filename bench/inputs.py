"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program comes from here, as a pure
function of ``(workload, stream, seed)``: the same seed always yields
the same requests.  The program under test never sees the seed, only
the generated specs, models and parameters.

Input classes, and why each is in the mix:

* **Generated streaming specs** (:func:`stream_source`): a source, a
  chain of ``stages`` filter behaviors and a sink on one chip, passing
  ``length``-element arrays through ``memories`` memory modules.  Length
  scales simulated clocks without growing the code, stage count scales
  the code every static pass and the compiled backend must handle, and
  the memory-module count scales the number of buses.  Coefficients
  come from the seed, so two requests of one shape are distinct
  designs with identical control flow and identical clock counts --
  which keeps the work per run independent of the seed.
* **The three case studies** (FLC, answering machine, Ethernet): the
  paper's own designs.  FLC takes its sensor inputs from the seed;
  the other two have no free inputs and therefore repeat.
* **``examples/specs``**: hand-written sources in the textual
  language, exercising the front end on code the generator does not
  produce (while loops, conditionals, a three-module partition).

Oracles never come from the simulator under test: specs are checked
against :func:`repro.spec.interp.run_reference` on the unrefined system
and the case studies against their ``reference_*`` values.

Requests are drawn in *rounds*: each round is one shuffled copy of a
workload's fixed list of structural classes, with the seed supplying
only values and order.  A run therefore always does the same mix of
work, and run-to-run spread measures the machine, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The protocol/protection variants design points draw from.
#: Protection needs an acknowledge, so it rides on full_handshake only;
#: ``hardwired`` is left out because it cannot share a bus.
VARIANTS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("full_handshake", None),
    ("full_handshake", "parity"),
    ("full_handshake", "crc8"),
    ("half_handshake", None),
    ("fixed_delay", None),
    ("burst_handshake", None),
)

CASE_STUDIES = ("flc", "answering-machine", "ethernet")

#: Seed streams: warm-up requests are drawn apart from measured ones.
WARMUP = "warmup"
MEASURED = "measured"


def rng(workload: str, stream: str, seed: int) -> random.Random:
    """The random stream ``stream`` of ``workload`` under ``seed``."""
    return random.Random(f"{workload}/{stream}/{seed}")


def draw_rounds(classes: Callable[[int], Sequence[Any]], count: int,
                generator: random.Random,
                make: Callable[[Any, random.Random], Any]
                ) -> List[Tuple[int, Any]]:
    """``count`` requests: shuffled rounds of ``classes(round_index)``,
    each class turned into a request by ``make(cls, generator)`` and
    paired with its *slot*, the class's index in the round."""
    out: List[Tuple[int, Any]] = []
    index = 0
    while len(out) < count:
        members = list(enumerate(classes(index)))
        generator.shuffle(members)
        out.extend((slot, make(cls, generator)) for slot, cls in members)
        index += 1
    return out[:count]


# ---------------------------------------------------------------------------
# Generated streaming specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamShape:
    """The structural parameters of a generated streaming spec."""

    length: int
    stages: int
    memories: int = 1

    @property
    def pace(self) -> int:
        """Clocks each loop iteration waits.  Growing with the stage
        count keeps the single-memory designs feasible on one bus
        (Equation 1), which the VHDL emitter requires."""
        return 2 * self.stages + 4


@dataclass(frozen=True)
class StreamValues:
    """The seeded coefficients of one streaming spec."""

    source: Tuple[int, int, int]
    stages: Tuple[Tuple[int, int, int], ...]
    weight: int

    @classmethod
    def draw(cls, shape: StreamShape,
             generator: random.Random) -> "StreamValues":
        moduli = (89, 97, 101, 113, 127, 251)
        return cls(
            source=(generator.randrange(3, 40), generator.choice(moduli),
                    generator.randrange(0, 60)),
            stages=tuple((generator.randrange(2, 9),
                          generator.randrange(0, 50),
                          generator.choice(moduli))
                         for _ in range(shape.stages)),
            weight=generator.randrange(1, 5),
        )


def stream_source(shape: StreamShape, values: StreamValues,
                  name: str = "stream") -> str:
    """Source text of a generated streaming spec (see module docs)."""
    last = shape.length - 1
    pace = shape.pace
    buffers = [f"S{k}" for k in range(shape.stages + 1)]
    lines = [f"system {name} is"]
    lines += [f"  variable {b} : array(0 to {last}) of integer(16) ;"
              for b in buffers]
    lines.append("  variable TOTAL : integer(32) ;")
    mul, mod, offset = values.source
    lines += [
        "  behavior SOURCE is",
        "  begin",
        f"    for i in 0 to {last} loop",
        f"      wait for {pace} ;",
        f"      S0(i) <= (i * {mul}) mod {mod} - {offset} ;",
        "    end loop ;",
        "  end behavior ;",
    ]
    for k, (coeff, add, mod) in enumerate(values.stages, start=1):
        lines += [
            f"  behavior STAGE{k} is",
            "    variable x : integer(16) ;",
            "  begin",
            f"    for i in 0 to {last} loop",
            f"      wait for {pace} ;",
            f"      x <= S{k - 1}(i) ;",
            f"      S{k}(i) <= (x * {coeff} + {add}) mod {mod} ;",
            "    end loop ;",
            "  end behavior ;",
        ]
    lines += [
        "  behavior SINK is",
        "    variable v : integer(16) ;",
        "    variable acc : integer(32) ;",
        "  begin",
        "    acc <= 0 ;",
        f"    for i in 0 to {last} loop",
        f"      wait for {pace} ;",
        f"      v <= S{shape.stages}(i) ;",
        f"      acc <= acc + v * {values.weight} ;",
        "    end loop ;",
        "    TOTAL <= acc ;",
        "  end behavior ;",
    ]
    behaviors = (["SOURCE"] + [f"STAGE{k}" for k in
                               range(1, shape.stages + 1)] + ["SINK"])
    variables = buffers + ["TOTAL"]
    lines.append("  partition is")
    lines.append(f"    module CPU : chip contains {', '.join(behaviors)} ;")
    for m in range(shape.memories):
        lines.append(f"    module MEM{m} : memory contains "
                     f"{', '.join(variables[m::shape.memories])} ;")
    lines += ["  end partition ;", "end system ;"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Designs: a system ready for the pipeline, plus its oracle
# ---------------------------------------------------------------------------

@dataclass
class Design:
    """What a request needs to run the flow on one system."""

    system: Any
    groups: List[Any]
    schedule: Optional[Sequence[Any]]
    #: Expected final values of (some) shared variables; ``None`` until
    #: :meth:`expected` runs the golden interpreter.
    oracle: Optional[Dict[str, Any]] = None

    def expected(self) -> Dict[str, Any]:
        if self.oracle is None:
            self.oracle = reference_values(self.system, self.schedule)
        return self.oracle


def spec_design(source: str) -> Design:
    """Parse a spec source and derive its channel groups."""
    from repro.frontend.parser import parse_spec
    from repro.partition.channels import default_bus_groups

    parsed = parse_spec(source)
    return Design(parsed.system, default_bus_groups(parsed.partition),
                  parsed.behavior_order)


def reference_values(system: Any, order: Optional[Sequence[str]]
                     ) -> Dict[str, Any]:
    """Final shared-variable values from the golden interpreter."""
    from repro.spec.interp import run_reference

    return dict(run_reference(system, order=order).final_values)


def case_design(name: str, flc_inputs: Optional[Tuple[int, int]] = None
                ) -> Design:
    """Build a case-study model.  FLC takes its two sensor inputs
    (default: the readings ``repro-synth`` uses)."""
    if name == "flc":
        from repro.apps.flc import build_flc, reference_ctrl_output
        flc_inputs = flc_inputs or (250, 180)
        model = build_flc(*flc_inputs)
        return Design(model.system, [model.bus_b], model.schedule,
                      {"ctrl_out": reference_ctrl_output(*flc_inputs)})
    if name == "answering-machine":
        from repro.apps.answering_machine import (
            build_answering_machine,
            reference_state,
        )
        model = build_answering_machine()
        return Design(model.system, [model.bus], model.schedule,
                      reference_state())
    if name == "ethernet":
        from repro.apps.ethernet import build_ethernet, reference_state
        model = build_ethernet()
        return Design(model.system, [model.bus], model.schedule,
                      reference_state())
    raise ValueError(f"unknown case study {name!r}")


def draw_flc_inputs(generator: random.Random) -> Tuple[int, int]:
    """Temperature and humidity sensor readings (8-bit ADC range)."""
    return generator.randrange(256), generator.randrange(256)


def example_source(root: Path, name: str) -> str:
    return (root / "examples" / "specs" / f"{name}.spec").read_text(
        encoding="utf-8")


def oracle_matches(oracle: Dict[str, Any],
                   final_values: Dict[str, Any]) -> bool:
    return all(final_values.get(name) == value
               for name, value in oracle.items())


def repeat_share(keys: Sequence[Any], earlier: Sequence[Any] = ()
                 ) -> float:
    """Share of ``keys`` that repeat a design tuple seen before them
    (in ``earlier`` or earlier in ``keys``)."""
    seen = set(earlier)
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys) if keys else 0.0

"""Grid parsing and expansion for ``repro-synth explore --grid``.

A grid is a set of axes, each a ``name=v1,v2,...`` token::

    --grid width=4,8,auto protection=none,parity,crc8 arbitration=fifo

Axes not mentioned take their single default value.  Expansion order
is deterministic: the cartesian product iterates axes in canonical
order (width, protocol, protection, arbitration) with values in the
order the user wrote them, so point indices -- and therefore result
ordering and the golden reports -- are stable across runs and
``--jobs`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Sequence, Union

from repro.errors import ExploreError
from repro import protocols

#: Width axis accepts positive integers or the bus-generation search.
WIDTH_AUTO = "auto"

PROTECTIONS = tuple(protocols.PROTECTIONS)
ARBITRATIONS = ("fifo", "priority", "rr", "tdma")

#: Canonical axis order (also the expansion order).
AXIS_ORDER = ("width", "protocol", "protection", "arbitration")

#: The values each named axis accepts, in the order errors list them.
_CHOICES = {"protocol": sorted(protocols.PROTOCOLS),
            "protection": PROTECTIONS, "arbitration": ARBITRATIONS}

DEFAULTS: Dict[str, List[Union[int, str]]] = {
    "width": [WIDTH_AUTO],
    "protocol": ["full_handshake"],
    "protection": ["none"],
    "arbitration": ["fifo"],
}


@dataclass(frozen=True)
class GridPoint:
    """One design point of the sweep."""

    width: Union[int, str]
    protocol: str
    protection: str
    arbitration: str

    @property
    def label(self) -> str:
        return (f"width={self.width} {self.protocol} "
                f"prot={self.protection} arb={self.arbitration}")

    def params(self) -> Dict[str, Union[int, str]]:
        return {"width": self.width, "protocol": self.protocol,
                "protection": self.protection,
                "arbitration": self.arbitration}


def _parse_width(text: str) -> Union[int, str]:
    if text == WIDTH_AUTO:
        return WIDTH_AUTO
    try:
        width = int(text)
    except ValueError:
        raise ExploreError(
            f"width axis value {text!r} is neither an integer nor "
            f"'{WIDTH_AUTO}'") from None
    if width < 1:
        raise ExploreError(f"width axis value must be >= 1, got {width}")
    return width


def parse_grid(tokens: Iterable[str]) -> Dict[str, List[Union[int, str]]]:
    """Parse ``name=v1,v2`` tokens into a full axes dict (defaults
    filled in, values validated, duplicates collapsed in order)."""
    axes: Dict[str, List[Union[int, str]]] = {
        name: list(values) for name, values in DEFAULTS.items()
    }
    seen = set()
    for token in tokens:
        name, sep, rest = token.partition("=")
        if not sep or not rest:
            raise ExploreError(
                f"grid token {token!r} is not of the form "
                "axis=value[,value...]")
        if name not in AXIS_ORDER:
            raise ExploreError(
                f"unknown grid axis {name!r}; choose from "
                f"{', '.join(AXIS_ORDER)}")
        if name in seen:
            raise ExploreError(f"grid axis {name!r} given twice")
        seen.add(name)
        values: List[Union[int, str]] = []
        for raw in rest.split(","):
            raw = raw.strip()
            if not raw:
                continue
            if name == "width":
                value: Union[int, str] = _parse_width(raw)
            elif raw in _CHOICES[name]:
                value = raw
            else:
                raise ExploreError(
                    f"unknown {name} {raw!r}; choose from "
                    f"{', '.join(_CHOICES[name])}")
            if value not in values:
                values.append(value)
        if not values:
            raise ExploreError(f"grid axis {name!r} has no values")
        axes[name] = values
    return axes


def expand_grid(axes: Dict[str, Sequence[Union[int, str]]]
                ) -> List[GridPoint]:
    """Cartesian product in canonical axis order."""
    full = {name: list(axes.get(name, DEFAULTS[name]))
            for name in AXIS_ORDER}
    return [
        GridPoint(width=width, protocol=protocol, protection=protection,
                  arbitration=arbitration)
        for width, protocol, protection, arbitration in product(
            full["width"], full["protocol"], full["protection"],
            full["arbitration"])
    ]

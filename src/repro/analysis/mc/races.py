"""Signal-race detection (P703).

Two granularities:

* **Intra-channel** -- over the reachable states of the counter-extended
  product graph, intersect the accessor's and server's per-state wire
  effects (:class:`repro.analysis.product.StateEffects`).  A control line
  driven by both sides in one reachable state is a race outright (two
  drivers on one wire conflict even when the levels agree); DATA bit
  ranges conflict when the masks overlap on the *same* word -- the
  strobe master clears the shared word between words
  (``_clear_word`` in :mod:`repro.sim.bus`), so cross-word overlap is
  temporally separated by construction.

* **Inter-channel** -- a happens-before argument over symbolic drive
  windows.  Every accessor transfer runs under the bus arbiter
  (``runtime._exec_call`` acquires unconditionally), so accessor-side
  drives of one bus are serialized; server-side drives are serialized
  by the ID decode *only while ID codes are distinct*.  When two
  channels share an ID code, their servers' drive windows -- computed
  from the abstract interpreter's access bounds
  (:class:`~repro.analysis.absint.rates.ChannelStaticBounds`) as
  ``[0, accesses_hi x message_clocks]`` -- overlap unless one channel
  is proven silent (``accesses_hi == 0``), and the shared DONE/DATA
  wires have two reachable drivers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.mc.graph import TemporalGraph, XState

#: Word index embedded in synthesized state names (W3_REQ, W3 ...).
#: The strobe master clears the shared word before each strobe
#: (``_clear_word`` in :mod:`repro.sim.bus`), so DATA drives of
#: *different* words are temporally separated and never conflict.
_WORD_RE = re.compile(r"W(\d+)")


def _word(state_name: str) -> Optional[int]:
    match = _WORD_RE.match(state_name)
    return int(match.group(1)) if match else None


@dataclass(frozen=True)
class RaceFinding:
    """One pair of drivers that can overlap on a wire."""

    #: The contested wire ("NACK", "DATA(7:4)", "ID").
    line: str
    #: Human description of the two drivers.
    drivers: Tuple[str, str]
    #: Witness state for intra-channel races, else None.
    state: Optional[XState] = None
    detail: str = ""


def _mask_span(mask: int) -> str:
    hi = mask.bit_length() - 1
    lo = (mask & -mask).bit_length() - 1
    return f"DATA({hi}:{lo})"


def channel_races(graph: TemporalGraph) -> List[RaceFinding]:
    """Reachable simultaneous drive overlaps of one channel pair."""
    a_sets = graph.model.a.effects
    s_sets = graph.model.s.effects
    findings: List[RaceFinding] = []
    reported = set()
    seen_bases = set()
    for xstate in graph.states:
        base, _ = xstate
        pair = (base[0], base[1])
        if pair in seen_bases:
            continue
        seen_bases.add(pair)
        a_ds = a_sets[base[0]]
        s_ds = s_sets[base[1]]
        drivers = (f"{graph.model.accessor.name}@{base[0]}",
                   f"{graph.model.server.name}@{base[1]}")
        for line in sorted(a_ds.controls & s_ds.controls):
            if ("control", line) in reported:
                continue
            reported.add(("control", line))
            findings.append(RaceFinding(
                line=line,
                drivers=drivers,
                state=xstate,
                detail="both sides drive the line in one reachable "
                       "state"))
        overlap = a_ds.data_mask & s_ds.data_mask
        a_word, s_word = _word(base[0]), _word(base[1])
        same_word = a_word is None or s_word is None or a_word == s_word
        if overlap and same_word and ("data",) not in reported:
            reported.add(("data",))
            findings.append(RaceFinding(
                line=_mask_span(overlap),
                drivers=drivers,
                state=xstate,
                detail="accessor and server word slices overlap on "
                       "the same bus word"))
        if (a_ds.id_code is not None and s_ds.id_code is not None
                and ("id",) not in reported):
            reported.add(("id",))
            findings.append(RaceFinding(
                line="ID",
                drivers=drivers,
                state=xstate,
                detail="both sides drive the ID lines"))
    return findings


def bus_window_races(bus, bounds: Dict[str, object],
                     ) -> List[RaceFinding]:
    """Cross-channel drive-window overlaps on one refined bus.

    ``bounds`` maps channel name to
    :class:`~repro.analysis.absint.rates.ChannelStaticBounds` (absent
    entries are treated as unbounded).
    """
    structure = bus.structure
    protocol = structure.protocol
    findings: List[RaceFinding] = []
    channels = list(bus.group)

    def window(channel) -> Optional[Tuple[int, Optional[int]]]:
        """Symbolic server drive window [0, hi_clocks] or None when
        the channel provably never transfers."""
        bound = bounds.get(channel.name)
        if bound is None:
            return (0, None)
        hi = bound.accesses_hi
        if hi == 0:
            return None
        if hi is None:
            return (0, None)
        bits = getattr(channel, "message_bits", structure.width) or 1
        words = max(1, -(-bits // structure.width))
        return (0, hi * max(1, protocol.message_clocks(words)))

    for i, first in enumerate(channels):
        for second in channels[i + 1:]:
            code_a = structure.ids.codes.get(first.name)
            code_b = structure.ids.codes.get(second.name)
            if code_a != code_b:
                # Distinct ID codes: the decode serializes the two
                # servers, no shared reachable window.
                continue
            win_a = window(first)
            win_b = window(second)
            if win_a is None or win_b is None:
                # One side is proven silent by the abstract
                # interpreter: windows cannot overlap.
                continue
            shared = ["DATA"] + sorted(structure.control_lines)
            hi_a = "inf" if win_a[1] is None else str(win_a[1])
            hi_b = "inf" if win_b[1] is None else str(win_b[1])
            findings.append(RaceFinding(
                line=", ".join(shared),
                drivers=(f"server of {first.name}",
                         f"server of {second.name}"),
                detail=(f"both answer ID code {code_a}; symbolic drive "
                        f"windows [0, {hi_a}] and [0, {hi_b}] clocks "
                        "overlap with no serializer between them")))
    return findings

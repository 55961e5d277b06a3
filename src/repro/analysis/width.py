"""Width and capacity checking (P3xx).

Static arithmetic over the refined design's message layouts and bus
structure:

* **P301 truncation** -- a message field's bit count differs from the
  variable it carries (data field vs. the variable's data width,
  address field vs. ``clog2(array length)``): bits are silently lost
  or invented at the bus boundary.
* **P302 ID capacity** -- the bus's ID lines cannot encode every
  channel (``width < clog2(N)``), or an assigned code overflows the
  declared width.
* **P303 slice coverage** -- the word slicing must cover every message
  bit exactly once within ``ceil(bits/width)`` words, and every slice
  must fit the physical DATA lines.  Gaps lose bits, overlaps drive a
  line from two sources.
* **P304** -- a non-shareable (hardwired) protocol moves the whole
  message in one word by definition, so the bus must be at least as
  wide as the largest message.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.analysis.absint.engine import analyze_refined_values
from repro.analysis.diagnostics import (
    DiagnosticSet,
    Severity,
    SourceLocation,
)
from repro.protogen.procedures import FieldKind, MessageLayout
from repro.protogen.refine import RefinedBus, RefinedSpec
from repro.spec.types import address_bits, clog2, data_bits


def check_widths(spec: RefinedSpec, diagnostics: DiagnosticSet) -> None:
    """P301 judges each channel by its proven data-value interval: a
    *proof* about the values that actually flow rather than a
    declared-size comparison."""
    value_ranges = analyze_refined_values(spec).finite_sent_ranges()
    for bus in spec.buses:
        _check_id_capacity(bus, diagnostics)
        _check_protocol_width(bus, diagnostics)
        for channel in bus.group:
            layout = bus.procedures[channel.name].layout
            location = SourceLocation("channel", channel.name,
                                      detail=f"bus {bus.name}")
            _check_field_widths(channel, layout, location, diagnostics,
                                value_ranges.get(channel.name))
            _check_slice_coverage(layout, bus.structure.width, location,
                                  diagnostics)


def _bits_for_range(value_range: Tuple[int, int]) -> Optional[int]:
    """Unsigned bits needed for a proven non-negative range."""
    lo, hi = value_range
    if lo < 0 or hi < lo:
        return None
    return max(1, int(hi).bit_length())


def _check_field_widths(channel, layout: MessageLayout,
                        location: SourceLocation,
                        diagnostics: DiagnosticSet,
                        value_range: Optional[Tuple[int, int]] = None,
                        ) -> None:
    expected = {
        FieldKind.DATA: data_bits(channel.variable.dtype),
        FieldKind.ADDRESS: address_bits(channel.variable.dtype),
    }
    proven = getattr(layout, "proven_range", None)
    if proven is not None:
        # The layout was deliberately tightened from a proven value
        # range: the data field is correct iff it holds that range.
        needed = _bits_for_range(proven)
        if needed is not None:
            expected[FieldKind.DATA] = needed
    for kind, want in expected.items():
        field = layout.field(kind)
        have = field.bits if field else 0
        if have == want:
            continue
        fate = "truncated" if have < want else "padded"
        proof = ""
        if kind is FieldKind.DATA and value_range is not None:
            lo, hi = value_range
            needed = _bits_for_range(value_range)
            if needed is not None and have < needed:
                proof = (f"; proven: values reach {hi}, needing "
                         f"{needed} bit(s)")
            elif needed is not None:
                proof = (f"; note: proven values [{lo}, {hi}] fit "
                         f"{have} bit(s), only the declared type "
                         "overflows")
        diagnostics.add(
            "P301", Severity.ERROR,
            f"{kind} field carries {have} bit(s) but variable "
            f"{channel.variable.name} needs {want}: values are "
            f"{fate} on the bus{proof}",
            location,
            hint="the message layout must be regenerated from the "
                 "variable's type",
        )


def _check_id_capacity(bus: RefinedBus,
                       diagnostics: DiagnosticSet) -> None:
    ids = bus.structure.ids
    needed = clog2(len(bus.group.channels))
    location = SourceLocation("bus", bus.name,
                              detail=f"{ids.width} ID line(s)")
    if ids.width < needed:
        diagnostics.add(
            "P302", Severity.ERROR,
            f"{len(bus.group.channels)} channels need "
            f"ceil(log2(N)) = {needed} ID line(s) but the bus has "
            f"{ids.width}: transactions are ambiguous",
            location,
            hint="re-run ID assignment for the full channel set",
        )
    limit = 1 << ids.width
    for name, code in sorted(ids.codes.items()):
        if 0 <= code < limit:
            continue
        diagnostics.add(
            "P302", Severity.ERROR,
            f"channel {name}: ID code {code} does not fit in "
            f"{ids.width} ID line(s)",
            location,
        )


def _check_protocol_width(bus: RefinedBus,
                          diagnostics: DiagnosticSet) -> None:
    structure = bus.structure
    if structure.protocol.shareable:
        return
    largest = bus.group.max_message_bits
    if structure.width >= largest:
        return
    diagnostics.add(
        "P304", Severity.ERROR,
        f"protocol {structure.protocol.name} needs the full "
        f"{largest}-bit message in one word but the bus has only "
        f"{structure.width} data line(s)",
        SourceLocation("bus", bus.name,
                       detail=f"width {structure.width}"),
        hint="hardwired ports cannot split messages into words",
    )


def _check_slice_coverage(layout: MessageLayout, width: int,
                          location: SourceLocation,
                          diagnostics: DiagnosticSet) -> None:
    total = layout.total_bits
    expected_words = math.ceil(total / width) if total else 0
    words = layout.words(width)
    if len(words) != expected_words:
        diagnostics.add(
            "P303", Severity.ERROR,
            f"{total}-bit message over {width} data lines needs "
            f"ceil({total}/{width}) = {expected_words} word(s), layout "
            f"produces {len(words)}",
            location,
        )
    coverage = [0] * total
    for word in words:
        for word_slice in word.slices:
            if word_slice.word_offset + word_slice.bits > width:
                diagnostics.add(
                    "P303", Severity.ERROR,
                    f"word {word.index}: slice of "
                    f"{word_slice.field.kind} occupies DATA("
                    f"{word_slice.word_offset + word_slice.bits - 1}:"
                    f"{word_slice.word_offset}) beyond the "
                    f"{width}-line bus",
                    location,
                )
            lo = word_slice.field.lo + word_slice.field_lo
            hi = word_slice.field.lo + word_slice.field_hi
            for bit in range(lo, hi + 1):
                if bit < total:
                    coverage[bit] += 1
    gaps = [bit for bit, count in enumerate(coverage) if count == 0]
    overlaps = [bit for bit, count in enumerate(coverage) if count > 1]
    if gaps:
        diagnostics.add(
            "P303", Severity.ERROR,
            f"message bit(s) {_span(gaps)} crossed by no bus word: "
            "data is lost in transfer",
            location,
        )
    if overlaps:
        diagnostics.add(
            "P303", Severity.ERROR,
            f"message bit(s) {_span(overlaps)} covered by more than "
            "one slice: two sources drive the same lines",
            location,
        )


def _span(bits) -> str:
    """Compact rendering of a sorted bit list (``0-4, 7``)."""
    parts = []
    start = previous = bits[0]
    for bit in bits[1:]:
        if bit == previous + 1:
            previous = bit
            continue
        parts.append(f"{start}-{previous}" if previous > start
                     else f"{start}")
        start = previous = bit
    parts.append(f"{start}-{previous}" if previous > start else f"{start}")
    return ", ".join(parts)

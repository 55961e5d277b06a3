"""Send/receive procedure synthesis (protocol generation step 3).

"For each channel mapped to the bus, appropriate send/receive procedures
are generated, encapsulating the sequence of assignments to the bus
control, data and ID lines to execute the data transfer."  Figure 4
shows the generated ``SendCH0``/``ReceiveCH0`` pair pushing a 16-bit
message through an 8-bit bus in two word transfers.

Message layout
--------------
A channel's message is ``address_bits + data_bits`` wide (address only
for array variables).  The address occupies the *low* bits so it crosses
the bus first -- Figure 4 slices messages low-word-first
(``8*J-1 downto 8*(J-1)`` for J = 1, 2) and a read's server must learn
the address before it can furnish data.

Who drives what:

* **write channel** (accessor stores into the variable): the accessor
  drives both address and data; the server latches.
* **read channel** (accessor fetches from the variable): the accessor
  drives the address portion; the *server* drives the data portion.
  Within one bus word the two portions may coexist on disjoint wires
  (an SRAM-style read: the accessor presents the address with START and
  the server answers on the data wires with DONE inside the same
  handshake), which is why a read of a 23-bit message over a 23-bit bus
  still completes in one protocol round -- matching the paper's Figure 7
  plateau at 23 pins for the *read* channel ch2 as well.

The procedures themselves are declarative :class:`CommProcedure`
objects: the VHDL backend renders them as procedures (Figure 4) and the
simulator executes them as coroutines (:mod:`repro.sim.bus`).  Keeping
them declarative is what makes the paper's retargeting claim real:
"if at a later stage another communication protocol is selected ... only
the bus declaration and send and receive procedures need be changed."
"""

from __future__ import annotations

import enum
from functools import cached_property
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.channels.channel import Channel
from repro.errors import ProtocolError
from repro.protocols import Protocol, ProtectionPlan


class Role(enum.Enum):
    """Which side of a channel a procedure runs on."""

    #: The process initiating transactions (sets ID and START).
    ACCESSOR = "accessor"
    #: The variable process responding to transactions.
    SERVER = "server"

    def __str__(self) -> str:
        return self.value


class FieldKind(enum.Enum):
    """Message field kinds."""

    ADDRESS = "addr"
    DATA = "data"
    #: Error-detecting check value (parity / CRC) of a protected bus.
    CHECK = "check"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MessageField:
    """One field of a channel message."""

    kind: FieldKind
    bits: int
    #: Message bit offset of the field's LSB.
    offset: int
    #: Which side drives this field onto the bus.
    driver: Role

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.bits - 1


@dataclass(frozen=True)
class WordSlice:
    """The part of one message field carried by one bus word."""

    field: MessageField
    #: Range within the field (LSB-relative), inclusive.
    field_lo: int
    field_hi: int
    #: Bit offset within the bus word where this slice lands.
    word_offset: int

    @property
    def bits(self) -> int:
        return self.field_hi - self.field_lo + 1


#: ``(parts, mask)`` of one role in one word: each part is a
#: ``(message_shift, slice_mask, word_offset)`` triple moving a field
#: slice between the message integer and the bus word; ``mask`` covers
#: every bus wire the role drives.
_Fold = Tuple[Tuple[Tuple[int, int, int], ...], int]


def _fold(slices: Tuple[WordSlice, ...]) -> _Fold:
    parts = []
    mask = 0
    for word_slice in slices:
        slice_mask = (1 << word_slice.bits) - 1
        parts.append((word_slice.field.offset + word_slice.field_lo,
                      slice_mask, word_slice.word_offset))
        mask |= slice_mask << word_slice.word_offset
    return tuple(parts), mask


@dataclass(frozen=True)
class WordSpec:
    """One bus word of a message transfer."""

    index: int
    #: Message bit range covered, inclusive.
    msg_lo: int
    msg_hi: int
    slices: Tuple[WordSlice, ...]

    @property
    def bits(self) -> int:
        return self.msg_hi - self.msg_lo + 1

    # cached_property writes straight to __dict__, which a frozen
    # dataclass permits; the simulator asks for the same role split on
    # every word of every transfer.
    @cached_property
    def _accessor_slices(self) -> Tuple[WordSlice, ...]:
        return tuple(s for s in self.slices
                     if s.field.driver is Role.ACCESSOR)

    @cached_property
    def _server_slices(self) -> Tuple[WordSlice, ...]:
        return tuple(s for s in self.slices if s.field.driver is Role.SERVER)

    def slices_driven_by(self, role: Role) -> Tuple[WordSlice, ...]:
        if role is Role.ACCESSOR:
            return self._accessor_slices
        if role is Role.SERVER:
            return self._server_slices
        return tuple(s for s in self.slices if s.field.driver is role)

    @cached_property
    def _accessor_fold(self) -> _Fold:
        return _fold(self._accessor_slices)

    @cached_property
    def _server_fold(self) -> _Fold:
        return _fold(self._server_slices)

    def drive(self, role: Role, message: int) -> Tuple[int, int]:
        """``(value, mask)`` that ``role`` drives onto the bus in this
        word, given the full message value of its fields."""
        parts, mask = self._accessor_fold if role is Role.ACCESSOR \
            else self._server_fold
        value = 0
        for shift, slice_mask, offset in parts:
            value |= ((message >> shift) & slice_mask) << offset
        return value, mask

    def gather(self, role: Role, bus_word: int) -> int:
        """Message bits ``role`` drove in ``bus_word``, repositioned
        into the message integer (the inverse of :meth:`drive`)."""
        parts, _ = self._accessor_fold if role is Role.ACCESSOR \
            else self._server_fold
        message = 0
        for shift, slice_mask, offset in parts:
            message |= ((bus_word >> offset) & slice_mask) << shift
        return message


class MessageLayout:
    """Field layout and word slicing of one channel's messages.

    ``data_bits`` overrides the declared data width when static analysis
    proved a tighter value range; ``proven_range`` records the interval
    justifying the override so the width checker can verify the field is
    still wide enough *for the values that actually flow* (proven P301
    instead of declared-size pattern matching)."""

    def __init__(self, channel: Channel, data_bits: Optional[int] = None,
                 proven_range: Optional[Tuple[int, int]] = None,
                 protection: Optional[ProtectionPlan] = None):
        self.channel = channel
        self.proven_range = proven_range
        self.protection = protection
        fields: List[MessageField] = []
        offset = 0
        if channel.address_bits:
            # Address always flows accessor -> server (it identifies the
            # element being read or written).
            fields.append(MessageField(
                kind=FieldKind.ADDRESS,
                bits=channel.address_bits,
                offset=offset,
                driver=Role.ACCESSOR,
            ))
            offset += channel.address_bits
        data_driver = Role.ACCESSOR if channel.is_write else Role.SERVER
        fields.append(MessageField(
            kind=FieldKind.DATA,
            bits=channel.data_bits if data_bits is None else data_bits,
            offset=offset,
            driver=data_driver,
        ))
        offset += fields[-1].bits
        if protection is not None:
            # The check rides above the payload, driven by whichever
            # side drives the data: the data sender is the only side
            # that knows the complete payload before the last word.
            # (On reads the server latched the address during the first
            # words, so it can fold it into the check; the accessor
            # verifies against the address it *sent*, catching address
            # corruption too.)
            fields.append(MessageField(
                kind=FieldKind.CHECK,
                bits=protection.protection.check_bits,
                offset=offset,
                driver=data_driver,
            ))
        self.fields: Tuple[MessageField, ...] = tuple(fields)
        self._words_cache: dict = {}

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.fields)

    def field(self, kind: FieldKind) -> Optional[MessageField]:
        for candidate in self.fields:
            if candidate.kind is kind:
                return candidate
        return None

    @property
    def has_address(self) -> bool:
        return self.field(FieldKind.ADDRESS) is not None

    def word_count(self, width: int) -> int:
        """Transfers needed on a ``width``-bit bus: ``ceil(bits/width)``."""
        if width < 1:
            raise ProtocolError(f"buswidth must be >= 1, got {width}")
        return math.ceil(self.total_bits / width)

    def words(self, width: int) -> List[WordSpec]:
        """Slice the message into bus words, LSB (address) first.

        The result is memoized per width (layouts are immutable and the
        simulator re-slices every transfer); treat it as read-only.
        """
        cached = self._words_cache.get(width)
        if cached is not None:
            return cached
        words: List[WordSpec] = []
        total = self.total_bits
        for index in range(self.word_count(width)):
            msg_lo = index * width
            msg_hi = min(msg_lo + width - 1, total - 1)
            slices: List[WordSlice] = []
            for field in self.fields:
                overlap_lo = max(msg_lo, field.lo)
                overlap_hi = min(msg_hi, field.hi)
                if overlap_lo > overlap_hi:
                    continue
                slices.append(WordSlice(
                    field=field,
                    field_lo=overlap_lo - field.lo,
                    field_hi=overlap_hi - field.lo,
                    word_offset=overlap_lo - msg_lo,
                ))
            words.append(WordSpec(
                index=index, msg_lo=msg_lo, msg_hi=msg_hi,
                slices=tuple(slices),
            ))
        self._words_cache[width] = words
        return words

    # ------------------------------------------------------------------
    # Message value packing (used by the simulator)
    # ------------------------------------------------------------------

    def pack(self, address: Optional[int], data: int) -> int:
        """Pack field values into a message integer.

        On a protected layout the CHECK field is filled in
        automatically from the packed payload."""
        message = 0
        for field in self.fields:
            if field.kind is FieldKind.ADDRESS:
                if address is None:
                    raise ProtocolError(
                        f"channel {self.channel.name}: message needs an "
                        "address"
                    )
                value = address
            elif field.kind is FieldKind.DATA:
                value = data
            else:
                continue        # CHECK: computed below, over the payload
            mask = (1 << field.bits) - 1
            message |= (value & mask) << field.offset
        check_field = self.field(FieldKind.CHECK)
        if check_field is not None and check_field.driver is Role.ACCESSOR:
            # Reads leave CHECK zero here: the field belongs to the
            # server, which computes it over the latched address plus
            # the returned data.
            check = self.compute_check(message)
            message |= check << check_field.offset
        return message

    def unpack(self, message: int) -> Tuple[Optional[int], int]:
        """Inverse of :meth:`pack`: returns ``(address_or_None, data)``.

        The CHECK field, if any, is *not* interpreted here; use
        :meth:`check_ok` to validate it."""
        address: Optional[int] = None
        data = 0
        for field in self.fields:
            mask = (1 << field.bits) - 1
            value = (message >> field.offset) & mask
            if field.kind is FieldKind.ADDRESS:
                address = value
            elif field.kind is FieldKind.DATA:
                data = value
        return address, data

    # ------------------------------------------------------------------
    # Protection checks
    # ------------------------------------------------------------------

    @property
    def payload_bits(self) -> int:
        """Bits of the message below the CHECK field."""
        return sum(f.bits for f in self.fields
                   if f.kind is not FieldKind.CHECK)

    def compute_check(self, message: int) -> int:
        """Check value the payload portion of ``message`` should carry."""
        if self.protection is None:
            raise ProtocolError(
                f"channel {self.channel.name}: layout has no protection"
            )
        payload_bits = self.payload_bits
        payload = message & ((1 << payload_bits) - 1)
        return self.protection.protection.compute(payload, payload_bits)

    def check_ok(self, message: int) -> bool:
        """True when the CHECK field matches the payload."""
        check_field = self.field(FieldKind.CHECK)
        if check_field is None:
            return True
        carried = (message >> check_field.offset) \
            & ((1 << check_field.bits) - 1)
        return carried == self.compute_check(message)


@dataclass(frozen=True)
class CommProcedure:
    """A generated send or receive procedure for one channel side.

    ``name`` follows the paper's convention: the *data direction* names
    the procedure.  A write channel's accessor calls ``SendCHx`` and its
    variable process calls ``ReceiveCHx``; a read channel's accessor
    calls ``ReceiveCHx`` (Figure 1: ``receive_ch1(PC, IR)``) while the
    variable process calls ``SendCHx`` (Figure 5: ``sendCH1(X)``).
    """

    name: str
    channel: Channel
    role: Role
    layout: MessageLayout
    protocol: Protocol

    @property
    def sends_data(self) -> bool:
        """True when this side drives the data field."""
        data_field = self.layout.field(FieldKind.DATA)
        assert data_field is not None
        return data_field.driver is self.role

    @property
    def takes_address(self) -> bool:
        """True when the caller must supply an element address
        (accessor side of an array channel)."""
        return self.layout.has_address and self.role is Role.ACCESSOR

    def parameter_names(self) -> List[str]:
        """Formal parameters in call order (for codegen and docs)."""
        params: List[str] = []
        if self.takes_address:
            params.append("addr")
        if self.role is Role.ACCESSOR:
            params.append("txdata" if self.sends_data else "rxdata")
        else:
            # Server procedures access the variable storage directly.
            params.append("storage")
        return params

    def transfer_clocks(self, width: int) -> int:
        """Clocks one invocation occupies the bus."""
        return self.protocol.message_clocks(self.layout.word_count(width))

    def __repr__(self) -> str:
        return (f"CommProcedure({self.name!r}, {self.role}, "
                f"channel={self.channel.name})")


@dataclass(frozen=True)
class ChannelProcedures:
    """The accessor/server procedure pair generated for one channel."""

    channel: Channel
    layout: MessageLayout
    accessor: CommProcedure
    server: CommProcedure


def _tightened_data_bits(channel: Channel,
                         value_range: Optional[Tuple[int, int]],
                         ) -> Optional[int]:
    """Data-field width justified by a proven value range, or ``None``.

    Only proven *non-negative* ranges tighten the field (negative values
    need the full two's-complement width), and only when they actually
    save bits.  The tightened field still round-trips through the type's
    decode: an unsigned value below ``2**bits`` keeps its sign bit clear.
    """
    if value_range is None:
        return None
    lo, hi = value_range
    if lo < 0 or hi < lo:
        return None
    needed = max(1, int(hi).bit_length())
    if needed >= channel.data_bits:
        return None
    return needed


def make_procedures(channel: Channel, protocol: Protocol,
                    value_range: Optional[Tuple[int, int]] = None,
                    protection: Optional[ProtectionPlan] = None,
                    ) -> ChannelProcedures:
    """Generate the procedure pair for one channel (step 3).

    ``value_range`` is an optional statically proven ``(lo, hi)`` bound
    on the data values crossing the channel; when it allows a narrower
    data field than the declared type, the message layout is tightened
    and carries the proof (``layout.proven_range``).  ``protection``
    appends a CHECK field to the layout (see
    :class:`~repro.protocols.ProtectionPlan`)."""
    tightened = _tightened_data_bits(channel, value_range)
    layout = MessageLayout(channel, data_bits=tightened,
                           proven_range=value_range
                           if tightened is not None else None,
                           protection=protection)
    suffix = channel.name.upper()
    if channel.is_write:
        accessor_name, server_name = f"Send{suffix}", f"Receive{suffix}"
    else:
        accessor_name, server_name = f"Receive{suffix}", f"Send{suffix}"
    accessor = CommProcedure(
        name=accessor_name, channel=channel, role=Role.ACCESSOR,
        layout=layout, protocol=protocol,
    )
    server = CommProcedure(
        name=server_name, channel=channel, role=Role.SERVER,
        layout=layout, protocol=protocol,
    )
    return ChannelProcedures(
        channel=channel, layout=layout, accessor=accessor, server=server,
    )

"""Data types for the system specification model.

The paper's specifications are VHDL-flavoured: variables are bit vectors,
bounded integers, or arrays of either (e.g. ``variable MEM :
bit_vector(63 downto 0, 15 downto 0)`` in Figure 3, or ``variable trru0 :
array(127 downto 0) of integer`` in Figure 6).  Interface synthesis only
needs three properties of a type:

* its *bit width* (how many bits one value occupies on a bus),
* for arrays, the *address width* (how many bits identify one element,
  because the address travels over the bus together with the data for
  array accesses -- see the 16-bit data + 7-bit address = 23-bit messages
  of the FLC example), and
* how to *encode/decode* values so the simulator can push them through a
  width-limited bus word by word.

Values are represented as plain Python integers (two's complement for
signed types) and lists of integers for arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.errors import TypeSpecError

Value = Union[int, List[int]]


def clog2(n: int) -> int:
    """Number of bits needed to represent ``n`` distinct codes.

    ``clog2(1) == 0`` (a single code needs no bits), ``clog2(2) == 1``,
    ``clog2(4) == 2``, ``clog2(5) == 3``.  This is the ``log2(N)`` of the
    paper's ID-assignment step, rounded up.
    """
    if n < 1:
        raise TypeSpecError(f"clog2 requires a positive count, got {n}")
    return (n - 1).bit_length()


class DataType:
    """Base class of all specification data types."""

    #: Total number of bits one value of this type occupies.
    bits: int

    def is_array(self) -> bool:
        """True for array types (whose accesses carry an address)."""
        return False

    def validate(self, value: Value) -> None:
        """Raise :class:`TypeSpecError` if ``value`` is not representable."""
        raise NotImplementedError

    def encode(self, value: Value) -> int:
        """Encode a value into an unsigned integer of ``self.bits`` bits."""
        raise NotImplementedError

    def decode(self, raw: int) -> Value:
        """Inverse of :meth:`encode`."""
        raise NotImplementedError

    def default(self) -> Value:
        """The default (power-on) value of the type."""
        raise NotImplementedError


@dataclass(frozen=True)
class BitType(DataType):
    """An unsigned bit vector, VHDL ``bit_vector(width-1 downto 0)``."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise TypeSpecError(f"bit vector width must be >= 1, got {self.width}")

    @property
    def bits(self) -> int:  # type: ignore[override]
        return self.width

    def validate(self, value: Value) -> None:
        if not isinstance(value, int):
            raise TypeSpecError(f"bit vector value must be int, got {type(value).__name__}")
        if not 0 <= value < (1 << self.width):
            raise TypeSpecError(
                f"value {value} out of range for {self.width}-bit vector"
            )

    def encode(self, value: Value) -> int:
        self.validate(value)
        assert isinstance(value, int)
        return value

    def decode(self, raw: int) -> Value:
        return raw & ((1 << self.width) - 1)

    def default(self) -> Value:
        return 0

    def __str__(self) -> str:
        return f"bit_vector({self.width - 1} downto 0)"


@dataclass(frozen=True)
class IntType(DataType):
    """A bounded integer, stored in two's complement when signed.

    VHDL ``integer`` maps to ``IntType(32, signed=True)`` by default; the
    FLC arrays of Figure 6 use 16-bit integers (``IntType(16)``), which is
    what yields the paper's 16-bit data portion of the 23-bit messages.
    """

    width: int = 16
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width < 1:
            raise TypeSpecError(f"integer width must be >= 1, got {self.width}")

    @property
    def bits(self) -> int:  # type: ignore[override]
        return self.width

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    def validate(self, value: Value) -> None:
        if not isinstance(value, int):
            raise TypeSpecError(f"integer value must be int, got {type(value).__name__}")
        if not self.min_value <= value <= self.max_value:
            raise TypeSpecError(
                f"value {value} out of range [{self.min_value}, {self.max_value}] "
                f"for {self}"
            )

    def wrap(self, value: int) -> int:
        """Wrap an arbitrary Python int into this type's range.

        Arithmetic in the interpreter and simulator wraps modulo
        ``2**width``, matching synthesized hardware behaviour.
        """
        mask = (1 << self.width) - 1
        raw = value & mask
        if self.signed and raw >= (1 << (self.width - 1)):
            raw -= 1 << self.width
        return raw

    def encode(self, value: Value) -> int:
        self.validate(value)
        assert isinstance(value, int)
        return value & ((1 << self.width) - 1)

    def decode(self, raw: int) -> Value:
        return self.wrap(raw)

    def default(self) -> Value:
        return 0

    def __str__(self) -> str:
        sign = "signed" if self.signed else "unsigned"
        return f"integer({self.width} bits, {sign})"


@dataclass(frozen=True)
class ArrayType(DataType):
    """A one-dimensional array of a scalar element type.

    ``ArrayType(IntType(16), 128)`` is the type of ``trru0`` in Figure 6:
    128 sixteen-bit integers, addressed by ``clog2(128) == 7`` bits.  A bus
    access to one element therefore carries ``7 + 16 == 23`` message bits,
    which is exactly the figure the paper quotes for the FLC channels.
    """

    element: DataType
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise TypeSpecError(f"array length must be >= 1, got {self.length}")
        if self.element.is_array():
            raise TypeSpecError("nested array types are not supported")

    def is_array(self) -> bool:
        return True

    @property
    def bits(self) -> int:  # type: ignore[override]
        """Total storage bits of the whole array."""
        return self.element.bits * self.length

    @property
    def element_bits(self) -> int:
        """Bits of one element (the data portion of an access message)."""
        return self.element.bits

    @property
    def address_bits(self) -> int:
        """Bits needed to address one element (the address portion)."""
        return clog2(self.length)

    def validate(self, value: Value) -> None:
        if not isinstance(value, list):
            raise TypeSpecError(f"array value must be a list, got {type(value).__name__}")
        if len(value) != self.length:
            raise TypeSpecError(
                f"array value has {len(value)} elements, expected {self.length}"
            )
        for element in value:
            self.element.validate(element)

    def validate_index(self, index: int) -> None:
        if not isinstance(index, int):
            raise TypeSpecError(f"array index must be int, got {type(index).__name__}")
        if not 0 <= index < self.length:
            raise TypeSpecError(
                f"array index {index} out of range [0, {self.length})"
            )

    def encode(self, value: Value) -> int:
        self.validate(value)
        assert isinstance(value, list)
        raw = 0
        for position, element in enumerate(value):
            raw |= self.element.encode(element) << (position * self.element.bits)
        return raw

    def decode(self, raw: int) -> Value:
        mask = (1 << self.element.bits) - 1
        return [
            self.element.decode((raw >> (position * self.element.bits)) & mask)
            for position in range(self.length)
        ]

    def default(self) -> Value:
        # Elements are scalars (nesting is rejected above): one shared
        # immutable default repeated, in a fresh list per call.
        return [self.element.default()] * self.length

    def __str__(self) -> str:
        return f"array({self.length - 1} downto 0) of {self.element}"


#: VHDL-style shorthand used throughout the examples.
BIT = BitType(1)
BYTE = BitType(8)
INT16 = IntType(16)
INT32 = IntType(32)


def message_bits(dtype: DataType) -> int:
    """Bits of one *message* transferred when the variable is accessed.

    For a scalar this is its width.  For an array, one access touches one
    element and must carry the element address over the bus as well, so
    the message is ``address_bits + element_bits`` (Section 5: the FLC
    channels "each transfer 16 bits of data and 7 bits of address").
    """
    if isinstance(dtype, ArrayType):
        return dtype.address_bits + dtype.element_bits
    return dtype.bits


def data_bits(dtype: DataType) -> int:
    """Bits of the data portion of one access message."""
    if isinstance(dtype, ArrayType):
        return dtype.element_bits
    return dtype.bits


def address_bits(dtype: DataType) -> int:
    """Bits of the address portion of one access message (0 for scalars)."""
    if isinstance(dtype, ArrayType):
        return dtype.address_bits
    return 0

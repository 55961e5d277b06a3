"""Abstract domains for the value-flow analyzer.

Two classic numeric domains, combined as a reduced product:

* :class:`Interval` -- ``[lo, hi]`` bounds with ``±inf`` for unknown
  ends.  This is the workhorse: it proves value ranges (field
  tightening, P501 overflow), guard satisfiability (P502), divisor
  nonzero-ness (P504) and loop trip counts.
* :class:`Congruence` -- ``value ≡ residue (mod modulus)``, the
  arithmetic-congruence domain of Granger.  It keeps stride facts the
  interval loses (e.g. ``i*4`` is always a multiple of 4), which
  sharpens equality guards and constant propagation through joins.

:class:`AbsVal` pairs the two and applies the standard reduction:
a singleton interval forces a constant congruence and a constant
congruence collapses the interval.

Design notes
------------
* Bounds are Python ints or ``float('±inf')``; all arithmetic is
  inf-safe (``0 * inf`` is defined as 0 here -- the bound of an empty
  sum, not IEEE's NaN).
* Division truncates toward zero, matching VHDL ``/`` and the IR's
  ``_checked_div``; ``mod`` follows the dividend's sign (the IR's
  ``a - b * (a / b)``).
* Widening jumps straight to ``±inf``; precision is recovered by the
  engine's bounded loop unrolling and by wrapping to the declared type
  range at assignments (hardware truncation is a natural narrowing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.spec.types import ArrayType, BitType, DataType, IntType

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = Union[int, float]


def _mul_bound(a: Bound, b: Bound) -> Bound:
    """Inf-safe product: ``0 * inf == 0`` (bound of an empty term)."""
    if a == 0 or b == 0:
        return 0
    return a * b


def _tdiv_bound(a: Bound, b: Bound) -> Bound:
    """Truncate-toward-zero division of two bounds (``b != 0``)."""
    if a == 0:
        return 0
    if math.isinf(a):
        return a if b > 0 else -a
    if math.isinf(b):
        return 0
    quotient = abs(int(a)) // abs(int(b))
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _as_int(value: Bound) -> Bound:
    """Normalize finite bounds to int so equality/hash are stable."""
    if isinstance(value, float) and math.isfinite(value):
        return int(value)
    return value


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) integer interval; ``lo > hi`` is bottom."""

    lo: Bound
    hi: Bound

    # ------------------------------------------------------------------
    # Constructors / predicates
    # ------------------------------------------------------------------

    @classmethod
    def top(cls) -> "Interval":
        return cls(NEG_INF, POS_INF)

    @classmethod
    def bottom(cls) -> "Interval":
        return cls(POS_INF, NEG_INF)

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def of(cls, lo: Bound, hi: Bound) -> "Interval":
        return cls(_as_int(lo), _as_int(hi))

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi and not math.isinf(self.lo)

    @property
    def is_finite(self) -> bool:
        return (not self.is_bottom and not math.isinf(self.lo)
                and not math.isinf(self.hi))

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self.contains(0)

    def definitely_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval.of(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to ±inf."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        lo = self.lo if other.lo >= self.lo else NEG_INF
        hi = self.hi if other.hi <= self.hi else POS_INF
        return Interval.of(lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        """Standard narrowing: refine only the infinite bounds."""
        if self.is_bottom or other.is_bottom:
            return other
        lo = other.lo if self.lo == NEG_INF else self.lo
        hi = other.hi if self.hi == POS_INF else self.hi
        return Interval.of(lo, hi)

    def subset_of(self, other: "Interval") -> bool:
        if self.is_bottom:
            return True
        return other.lo <= self.lo and self.hi <= other.hi

    def disjoint_from(self, other: "Interval") -> bool:
        if self.is_bottom or other.is_bottom:
            return True
        return self.hi < other.lo or other.hi < self.lo

    # ------------------------------------------------------------------
    # Arithmetic transfer functions
    # ------------------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        if self.is_bottom:
            return self
        return Interval.of(-self.hi, -self.lo)

    def abs_(self) -> "Interval":
        if self.is_bottom:
            return self
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return self.neg()
        return Interval.of(0, max(-self.lo, self.hi))

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        products = [_mul_bound(a, b)
                    for a in (self.lo, self.hi)
                    for b in (other.lo, other.hi)]
        return Interval.of(min(products), max(products))

    def _nonzero_parts(self) -> Tuple["Interval", ...]:
        """Split into the negative and positive sub-ranges (no zero)."""
        parts = []
        if self.lo < 0:
            parts.append(Interval.of(self.lo, min(self.hi, -1)))
        if self.hi > 0:
            parts.append(Interval.of(max(self.lo, 1), self.hi))
        return tuple(p for p in parts if not p.is_bottom)

    def truncdiv(self, other: "Interval") -> "Interval":
        """Quotient interval over the nonzero part of ``other``.

        Returns bottom when the divisor is provably zero.  Zero-divisor
        *possibility* is reported separately (``other.contains_zero()``).
        """
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        result = Interval.bottom()
        for part in other._nonzero_parts():
            quotients = [_tdiv_bound(a, b)
                         for a in (self.lo, self.hi)
                         for b in (part.lo, part.hi)]
            result = result.join(Interval.of(min(quotients), max(quotients)))
        return result

    def mod_(self, other: "Interval") -> "Interval":
        """Remainder with the dividend's sign (VHDL-flavoured ``rem``)."""
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        parts = other._nonzero_parts()
        if not parts:
            return Interval.bottom()
        max_abs_divisor: Bound = 0
        for part in parts:
            max_abs_divisor = max(max_abs_divisor,
                                  abs(part.lo), abs(part.hi))
        limit = max_abs_divisor - 1
        lo: Bound = -limit if self.lo < 0 else 0
        hi: Bound = limit if self.hi > 0 else 0
        # |remainder| <= |dividend| as well.
        return Interval.of(lo, hi).meet(
            Interval.of(min(self.lo, 0), max(self.hi, 0)))

    def min_(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(max(self.lo, other.lo), max(self.hi, other.hi))

    # ------------------------------------------------------------------
    # Comparisons and logic (results are {0,1} intervals)
    # ------------------------------------------------------------------

    @staticmethod
    def _bool(can_be_false: bool, can_be_true: bool) -> "Interval":
        if can_be_true and can_be_false:
            return Interval.of(0, 1)
        if can_be_true:
            return Interval.const(1)
        if can_be_false:
            return Interval.const(0)
        return Interval.bottom()

    def cmp(self, op: str, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if op == "<":
            return self._bool(self.hi >= other.lo, self.lo < other.hi)
        if op == "<=":
            return self._bool(self.hi > other.lo, self.lo <= other.hi)
        if op == ">":
            return other.cmp("<", self)
        if op == ">=":
            return other.cmp("<=", self)
        if op == "=":
            if self.is_const and other.is_const:
                return Interval.const(int(self.lo == other.lo))
            return self._bool(True, not self.disjoint_from(other))
        if op == "/=":
            equal = self.cmp("=", other)
            return equal.logical_not()
        raise ValueError(f"unknown comparison {op!r}")

    def truthiness(self) -> "Interval":
        """{0,1} interval for C-style truth (nonzero is true)."""
        if self.is_bottom:
            return self
        return self._bool(self.contains_zero(), not self.definitely_zero())

    def logical_not(self) -> "Interval":
        t = self.truthiness()
        if t.is_bottom:
            return t
        return self._bool(t.contains(1), t.contains(0))

    def logical_and(self, other: "Interval") -> "Interval":
        a, b = self.truthiness(), other.truthiness()
        if a.is_bottom or b.is_bottom:
            return Interval.bottom()
        return self._bool(a.contains(0) or b.contains(0),
                          a.contains(1) and b.contains(1))

    def logical_or(self, other: "Interval") -> "Interval":
        a, b = self.truthiness(), other.truthiness()
        if a.is_bottom or b.is_bottom:
            return Interval.bottom()
        return self._bool(a.contains(0) and b.contains(0),
                          a.contains(1) or b.contains(1))

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        lo = "-inf" if self.lo == NEG_INF else str(self.lo)
        hi = "+inf" if self.hi == POS_INF else str(self.hi)
        return f"[{lo}, {hi}]"


@dataclass(frozen=True)
class Congruence:
    """``value ≡ residue (mod modulus)``; ``modulus == 0`` is a constant,
    ``modulus == 1`` is top (every integer)."""

    modulus: int
    residue: int

    @classmethod
    def top(cls) -> "Congruence":
        return cls(1, 0)

    @classmethod
    def const(cls, value: int) -> "Congruence":
        return cls(0, value)

    @property
    def is_top(self) -> bool:
        return self.modulus == 1

    @property
    def is_const(self) -> bool:
        return self.modulus == 0

    def _normalize(self) -> "Congruence":
        if self.modulus > 1:
            return Congruence(self.modulus, self.residue % self.modulus)
        return self

    def contains(self, value: int) -> bool:
        if self.is_const:
            return value == self.residue
        return (value - self.residue) % self.modulus == 0

    def join(self, other: "Congruence") -> "Congruence":
        if self.is_const and other.is_const:
            if self.residue == other.residue:
                return self
            return Congruence(
                abs(self.residue - other.residue), self.residue)._normalize()
        modulus = math.gcd(self.modulus, other.modulus,
                           abs(self.residue - other.residue))
        if modulus == 0:
            return self
        return Congruence(modulus, self.residue)._normalize()

    def meet(self, other: "Congruence") -> Optional["Congruence"]:
        """Greatest lower bound; ``None`` when contradictory (bottom)."""
        if self.is_top:
            return other
        if other.is_top:
            return self
        if self.is_const:
            return self if other.contains(self.residue) else None
        if other.is_const:
            return other if self.contains(other.residue) else None
        # General CRT is overkill here; keep the coarser of the two when
        # compatible, else give up to top (sound).
        if self.modulus % other.modulus == 0 and other.contains(self.residue):
            return self
        if other.modulus % self.modulus == 0 and self.contains(other.residue):
            return other
        return Congruence.top()

    def add(self, other: "Congruence") -> "Congruence":
        if self.is_const and other.is_const:
            return Congruence.const(self.residue + other.residue)
        modulus = math.gcd(self.modulus, other.modulus)
        if modulus == 0:
            modulus = max(self.modulus, other.modulus)
        return Congruence(modulus, self.residue + other.residue)._normalize()

    def neg(self) -> "Congruence":
        return Congruence(self.modulus, -self.residue)._normalize()

    def sub(self, other: "Congruence") -> "Congruence":
        return self.add(other.neg())

    def mul(self, other: "Congruence") -> "Congruence":
        if self.is_const and other.is_const:
            return Congruence.const(self.residue * other.residue)
        modulus = math.gcd(self.modulus * other.modulus,
                           self.modulus * other.residue,
                           other.modulus * self.residue)
        if modulus == 0:
            return Congruence.const(self.residue * other.residue)
        return Congruence(modulus, self.residue * other.residue)._normalize()

    def __str__(self) -> str:
        if self.is_const:
            return f"={self.residue}"
        if self.is_top:
            return "⊤"
        return f"≡{self.residue} (mod {self.modulus})"


@dataclass(frozen=True)
class AbsVal:
    """Reduced product of an interval and a congruence."""

    interval: Interval
    congruence: Congruence

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def make(cls, interval: Interval,
             congruence: Optional[Congruence] = None) -> "AbsVal":
        congruence = congruence or Congruence.top()
        if interval.is_bottom:
            return cls(Interval.bottom(), Congruence.top())
        # Reduction: singleton interval -> constant congruence; constant
        # congruence -> singleton interval (or bottom on contradiction).
        if congruence.is_const:
            interval = interval.meet(Interval.const(congruence.residue))
            if interval.is_bottom:
                return cls(Interval.bottom(), Congruence.top())
        if interval.is_const:
            congruence = Congruence.const(int(interval.lo))
        return cls(interval, congruence)

    @classmethod
    def top(cls) -> "AbsVal":
        return cls(Interval.top(), Congruence.top())

    @classmethod
    def bottom(cls) -> "AbsVal":
        return cls(Interval.bottom(), Congruence.top())

    @classmethod
    def const(cls, value: int) -> "AbsVal":
        return cls(Interval.const(value), Congruence.const(value))

    @classmethod
    def join_consts(cls, values: Sequence[int]) -> "AbsVal":
        """The join of ``const(v)`` over ``values`` in order, folded in
        one integer pass.  The modulus is the gcd of the distances from
        the first value; the residue follows :meth:`Congruence.join`,
        which stops reducing it once the modulus reaches 1 (top)."""
        if not values:
            return cls.bottom()
        first = values[0]
        modulus, residue = 0, first
        for value in values:
            step = math.gcd(modulus, value - first)
            if step == 1:
                modulus = 1
                break
            if step > 1:
                modulus, residue = step, first % step
        if modulus == 0:
            return cls.const(first)
        return cls(Interval.of(min(values), max(values)),
                   Congruence(modulus, residue))

    @classmethod
    def range(cls, lo: Bound, hi: Bound) -> "AbsVal":
        return cls.make(Interval.of(lo, hi))

    @classmethod
    def of_type(cls, dtype: DataType) -> "AbsVal":
        """Top of a declared type: its full representable range."""
        rng = type_range(dtype)
        if rng is None:
            return cls.top()
        return cls.make(rng)

    @property
    def is_bottom(self) -> bool:
        return self.interval.is_bottom

    # ------------------------------------------------------------------
    # Lattice
    # ------------------------------------------------------------------

    def join(self, other: "AbsVal") -> "AbsVal":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return AbsVal.make(self.interval.join(other.interval),
                           self.congruence.join(other.congruence))

    def meet(self, other: "AbsVal") -> "AbsVal":
        congruence = self.congruence.meet(other.congruence)
        if congruence is None:
            return AbsVal.bottom()
        return AbsVal.make(self.interval.meet(other.interval), congruence)

    def widen(self, other: "AbsVal") -> "AbsVal":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return AbsVal.make(self.interval.widen(other.interval),
                           self.congruence.join(other.congruence))

    def narrow(self, other: "AbsVal") -> "AbsVal":
        return AbsVal.make(self.interval.narrow(other.interval),
                           self.congruence)

    # ------------------------------------------------------------------
    # Operator dispatch (matches repro.spec.expr operator names)
    # ------------------------------------------------------------------

    def binop(self, op: str, other: "AbsVal") -> "AbsVal":
        if self.is_bottom or other.is_bottom:
            return AbsVal.bottom()
        if op == "+":
            return AbsVal.make(self.interval.add(other.interval),
                               self.congruence.add(other.congruence))
        if op == "-":
            return AbsVal.make(self.interval.sub(other.interval),
                               self.congruence.sub(other.congruence))
        if op == "*":
            return AbsVal.make(self.interval.mul(other.interval),
                               self.congruence.mul(other.congruence))
        if op == "/":
            return AbsVal.make(self.interval.truncdiv(other.interval))
        if op == "mod":
            return AbsVal.make(self.interval.mod_(other.interval))
        if op == "min":
            return AbsVal.make(self.interval.min_(other.interval))
        if op == "max":
            return AbsVal.make(self.interval.max_(other.interval))
        if op == "and":
            return AbsVal.make(self.interval.logical_and(other.interval))
        if op == "or":
            return AbsVal.make(self.interval.logical_or(other.interval))
        if op in ("<", "<=", ">", ">=", "=", "/="):
            if op in ("=", "/=") and not self.congruence.is_top:
                # Congruence reduction: disjoint residue classes decide
                # (dis)equality even when the intervals overlap.
                merged = self.congruence.meet(other.congruence)
                if merged is None:
                    return AbsVal.const(0 if op == "=" else 1)
            return AbsVal.make(self.interval.cmp(op, other.interval))
        raise ValueError(f"unknown binary operator {op!r}")

    def unop(self, op: str) -> "AbsVal":
        if self.is_bottom:
            return self
        if op == "-":
            return AbsVal.make(self.interval.neg(), self.congruence.neg())
        if op == "abs":
            return AbsVal.make(self.interval.abs_())
        if op == "not":
            return AbsVal.make(self.interval.logical_not())
        raise ValueError(f"unknown unary operator {op!r}")

    def wrap_to(self, dtype: DataType) -> "AbsVal":
        """Abstract hardware truncation at an assignment.

        Values inside the declared range pass through; anything that may
        wrap is smeared over the full type range (sound: wrapping can
        land anywhere in it).
        """
        return self.wrap_to_range(type_range(dtype))

    def wrap_to_range(self, rng: Optional[Interval]) -> "AbsVal":
        """:meth:`wrap_to` given the type's :func:`type_range`."""
        if self.is_bottom or rng is None or self.interval.subset_of(rng):
            return self
        return AbsVal.make(rng)

    def __str__(self) -> str:
        if self.congruence.is_top or self.interval.is_const:
            return str(self.interval)
        return f"{self.interval} {self.congruence}"


def type_range(dtype: DataType) -> Optional[Interval]:
    """Representable interval of a scalar type (element for arrays)."""
    if isinstance(dtype, ArrayType):
        dtype = dtype.element
    if isinstance(dtype, IntType):
        return Interval.of(dtype.min_value, dtype.max_value)
    if isinstance(dtype, BitType):
        return Interval.of(0, (1 << dtype.width) - 1)
    return None

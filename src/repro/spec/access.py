"""Static access and cost analysis: one fold over a statement tree.

Interface synthesis is driven by *access traffic*: each read or write of
a shared variable that lands on another module after partitioning is one
message over a channel.  Bus generation also needs each process's
computation time, to turn traffic into a rate (Section 3 step 3).
:func:`fold` derives both in one walk of a statement list:

* the execution count of every access *site*, and
* the computation clocks of the list (transfers excluded),

each as an interval ``[lo, hi]`` where ``hi is None`` means no finite
bound.  The fold takes two parameters:

* a **trip lookup** giving each ``While``'s trip interval:
  :func:`pragma_trips` reads the ``trip_count`` hint (the ``--@ trips``
  pragma) as a point; the abstract interpreter's
  ``ValueAnalysis.trip_bounds`` gives a proven interval;
* a **site kind**: :func:`variable_sites` counts direct variable
  accesses in an original behavior, :func:`accessor_calls` counts
  generated accessor-procedure calls (one bus transaction each) in a
  refined one.

Counting rules
--------------
* A site inside nested loops multiplies the trips of every enclosing
  loop.  A ``While`` condition is tested once per iteration plus the
  final failing test, so its reads count trips + 1 times.
* Either arm of an ``If`` may be skipped, so an arm's sites count
  ``[0, hi]``: the upper end counts both arms in full.
* Clocks follow the cost model of :mod:`repro.spec.stmt`.  An ``If``
  costs 1 plus its shorter arm at the low end and 1 plus its longer arm
  at the high end.  An assignment into a ``remote`` variable is pure
  communication after refinement and costs no clock of its own.

Under :func:`pragma_trips` the upper ends are the point estimate that
channel extraction (:func:`analyze_behavior`), Equation 1 and the
performance estimator use.  The paper's estimator (ref [10]) profiles
branch frequencies instead; the evaluation workloads (FLC, Figures 6-8)
are branch-free on their communication paths, so the point is exact
where it matters and never under-estimates a rate elsewhere.  Under
proven trip bounds the interval holds for every execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import StmtError
from repro.spec.behavior import Behavior
from repro.spec.stmt import Assign, Call, For, If, Nop, Stmt, WaitClocks, While
from repro.spec.variable import Variable

#: ``(lo, hi)``; ``hi is None`` = no finite bound.
Interval = Tuple[int, Optional[int]]
#: Trip interval of one ``While``.
TripLookup = Callable[[While], Interval]
#: The sites one statement performs itself (not its nested statements).
SiteKind = Callable[[Stmt], Iterable[Hashable]]


class Direction(enum.Enum):
    """Direction of an access from the *accessor's* point of view."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:
        return self.value


@dataclass
class AccessSummary:
    """Aggregated accesses of one behavior to one shared variable in one
    direction."""

    behavior: Behavior
    variable: Variable
    direction: Direction
    #: Total executions of all matching sites over the behavior lifetime.
    count: int = 0
    #: True when at least one site is an array-element access.
    indexed: bool = False

    @property
    def key(self) -> Tuple[str, str, Direction]:
        return (self.behavior.name, self.variable.name, self.direction)


def pragma_trips(stmt: While) -> Interval:
    """Trip lookup trusting each loop's ``trip_count`` hint."""
    return stmt.trip_count, stmt.trip_count


def variable_sites(stmt: Stmt) -> Iterable[Tuple[Variable, Direction, bool]]:
    """Direct accesses of one statement as ``(variable, direction,
    indexed)``: its writes, then every read (a ``While``'s or ``If``'s
    are its condition's)."""
    if isinstance(stmt, Assign):
        yield (stmt.target.variable, Direction.WRITE,
               stmt.target.index_expr() is not None)
    elif isinstance(stmt, Call):
        for result in stmt.results:
            yield (result.variable, Direction.WRITE,
                   result.index_expr() is not None)
    for read in stmt.reads():
        yield read.variable, Direction.READ, read.index is not None


def accessor_calls(stmt: Stmt) -> Iterable[str]:
    """The channel name of a generated accessor-procedure call."""
    if isinstance(stmt, Call):
        procedure = stmt.procedure
        channel = getattr(procedure, "channel", None)
        role = getattr(getattr(procedure, "role", None), "value", None)
        if channel is not None and role == "accessor":
            return (channel.name,)
    return ()


def add_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Upper-end sum; ``None`` (unbounded) absorbs."""
    return None if a is None or b is None else a + b


def mul_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Upper-end product; ``None`` is unbounded and 0 absorbs it."""
    if a == 0 or b == 0:
        return 0
    return None if a is None or b is None else a * b


@dataclass(frozen=True)
class Cost:
    """What :func:`fold` derives from one statement list."""

    #: Site key -> execution-count interval.
    counts: Dict[Hashable, Interval]
    #: Computation-clock interval.
    clocks: Interval

    def accesses(self, variable: Variable, direction: Direction) -> Interval:
        """Count interval of one variable in one direction, indexed or
        not (:func:`variable_sites` keys)."""
        lo, hi = 0, 0
        for indexed in (False, True):
            site_lo, site_hi = self.counts.get(
                (variable, direction, indexed), (0, 0))
            lo, hi = lo + site_lo, add_hi(hi, site_hi)
        return lo, hi


def fold(body: Sequence[Stmt], trips: TripLookup, sites: SiteKind,
         remote: frozenset = frozenset()) -> Cost:
    """Site counts and computation clocks of ``body`` (module docstring
    has the rules)."""
    counts: Dict[Hashable, Interval] = {}

    def count(stmt: Stmt, lo: int, hi: Optional[int]) -> None:
        for key in sites(stmt):
            site_lo, site_hi = counts.get(key, (0, 0))
            counts[key] = (site_lo + lo, add_hi(site_hi, hi))

    def walk(body: Sequence[Stmt], lo: int, hi: Optional[int]) -> Interval:
        """Clocks of ``body``, counting its sites ``[lo, hi]`` times."""
        clocks_lo, clocks_hi = 0, 0
        for stmt in body:
            if isinstance(stmt, While):
                trips_lo, trips_hi = trips(stmt)
                count(stmt, lo * (trips_lo + 1),
                      mul_hi(hi, add_hi(trips_hi, 1)))
                body_lo, body_hi = walk(stmt.body, lo * trips_lo,
                                        mul_hi(hi, trips_hi))
                step_lo = trips_lo * (body_lo + 1) + 1
                step_hi = add_hi(mul_hi(trips_hi, add_hi(body_hi, 1)), 1)
            else:
                count(stmt, lo, hi)
                if isinstance(stmt, Assign):
                    step_lo = step_hi = \
                        0 if stmt.target.variable in remote else 1
                elif isinstance(stmt, If):
                    then_lo, then_hi = walk(stmt.then_body, 0, hi)
                    else_lo, else_hi = walk(stmt.else_body, 0, hi)
                    step_lo = 1 + min(then_lo, else_lo)
                    step_hi = None if then_hi is None or else_hi is None \
                        else 1 + max(then_hi, else_hi)
                elif isinstance(stmt, For):
                    trip = stmt.trip_count
                    body_lo, body_hi = walk(stmt.body, lo * trip,
                                            mul_hi(hi, trip))
                    step_lo = trip * (body_lo + 1)
                    step_hi = mul_hi(trip, add_hi(body_hi, 1))
                elif isinstance(stmt, WaitClocks):
                    step_lo = step_hi = stmt.clocks
                elif isinstance(stmt, (Call, Nop)):
                    # A call is communication: its cost is the transfer.
                    step_lo = step_hi = 0
                else:
                    raise StmtError(f"cannot estimate statement {stmt!r}")
            clocks_lo += step_lo
            clocks_hi = add_hi(clocks_hi, step_hi)
        return clocks_lo, clocks_hi

    clocks = walk(body, 1, 1)
    return Cost(counts, clocks)


def analyze_behavior(behavior: Behavior) -> List[AccessSummary]:
    """Access summaries of one behavior, restricted to its shared
    (non-local) variables, deterministic order.  Counts are the
    :func:`pragma_trips` point estimate."""
    declared = behavior.declared_variables()
    summaries: Dict[Tuple[Variable, Direction], AccessSummary] = {}
    cost = fold(behavior.body, pragma_trips, variable_sites)
    for (variable, direction, indexed), (_, count) in cost.counts.items():
        if variable in declared:
            continue
        summary = summaries.get((variable, direction))
        if summary is None:
            summary = AccessSummary(behavior, variable, direction)
            summaries[(variable, direction)] = summary
        summary.count += count
        summary.indexed = summary.indexed or indexed
    return sorted(
        summaries.values(),
        key=lambda s: (s.variable.name, s.direction.value),
    )


def analyze_system(behaviors: Sequence[Behavior]) -> List[AccessSummary]:
    """Access summaries across a set of behaviors, deterministic order."""
    out: List[AccessSummary] = []
    for behavior in behaviors:
        out.extend(analyze_behavior(behavior))
    return out


def total_traffic_bits(summaries: Sequence[AccessSummary]) -> int:
    """Total message bits moved by the given accesses (message size per
    the variable's type times access count)."""
    from repro.spec.types import message_bits

    return sum(s.count * message_bits(s.variable.dtype) for s in summaries)

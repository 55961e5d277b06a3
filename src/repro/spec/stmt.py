"""Statement IR for behavior bodies.

Behaviors (processes) are sequences of statements.  The IR supports what
the paper's examples need -- assignments to scalars and array elements,
counted loops, conditionals, explicit clock waits, and (after protocol
generation) calls to generated send/receive procedures.

One static cost model runs over statements:
:func:`repro.spec.access.fold` counts read/write sites (channels and
their access counts) and computation clocks in one walk.  Its point
estimate requires *statically bounded* control flow, which is why
``For`` has constant bounds and ``While`` carries an explicit
``trip_count`` annotation (the paper's estimator, ref [10], makes the
same assumption; behavioral synthesis cannot schedule unbounded loops
either).  Its proven bounds take ``While`` trips from the abstract
interpreter instead.

Clock-cost model (one statement per control step, the usual behavioral
scheduling baseline):

=============  ========================================================
statement      clocks
=============  ========================================================
Assign         1
If             1 (condition evaluation) + clocks of the taken branch
For            per iteration: 1 (index update/test) + body clocks
While          per iteration: 1 (test) + body clocks; 1 for the final test
WaitClocks(n)  n
Call           the callee's transfer delay (protocol dependent)
Nop            0
=============  ========================================================
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import StmtError
from repro.spec.expr import Expr, ExprLike, VarRead, as_expr
from repro.spec.variable import Variable


class Target:
    """An assignment destination (scalar variable or array element)."""

    variable: Variable

    def index_expr(self) -> Optional[Expr]:
        raise NotImplementedError

    def reads(self) -> Iterator[VarRead]:
        """Variable reads performed while computing the destination."""
        raise NotImplementedError


class ScalarTarget(Target):
    """Assignment to a whole scalar variable: ``X <= expr``."""

    __slots__ = ("variable",)

    def __init__(self, variable: Variable):
        if variable.dtype.is_array():
            raise StmtError(
                f"cannot assign whole array {variable.name}; assign elements"
            )
        self.variable = variable

    def index_expr(self) -> Optional[Expr]:
        return None

    def reads(self) -> Iterator[VarRead]:
        return iter(())

    def __repr__(self) -> str:
        return f"ScalarTarget({self.variable.name})"

    def __str__(self) -> str:
        return self.variable.name


class ElementTarget(Target):
    """Assignment to an array element: ``MEM(addr) <= expr``."""

    __slots__ = ("variable", "index")

    def __init__(self, variable: Variable, index: ExprLike):
        if not variable.dtype.is_array():
            raise StmtError(f"variable {variable.name} is not an array")
        self.variable = variable
        self.index = as_expr(index)

    def index_expr(self) -> Optional[Expr]:
        return self.index

    def reads(self) -> Iterator[VarRead]:
        yield from self.index.reads()

    def __repr__(self) -> str:
        return f"ElementTarget({self.variable.name}, {self.index!r})"

    def __str__(self) -> str:
        return f"{self.variable.name}({self.index})"


def as_target(target: Union[Target, Variable, Tuple[Variable, ExprLike]]) -> Target:
    """Coerce convenient forms into a :class:`Target`.

    Accepts a ``Target``, a scalar ``Variable``, or an
    ``(array_variable, index)`` tuple.
    """
    if isinstance(target, Target):
        return target
    if isinstance(target, Variable):
        return ScalarTarget(target)
    if isinstance(target, tuple) and len(target) == 2:
        return ElementTarget(target[0], target[1])
    raise StmtError(f"cannot use {target!r} as an assignment target")


class Stmt:
    """Base class of all statements."""

    def reads(self) -> Iterator[VarRead]:
        """Yield every variable read in this statement (not descendants
        of control flow -- use :func:`walk` + per-statement reads for a
        full traversal)."""
        raise NotImplementedError

    def children(self) -> Sequence["Stmt"]:
        """Nested statements, for tree walks."""
        return ()

    def map(self, fn: Callable[["Stmt"], Union["Stmt", List["Stmt"], None]]) -> List["Stmt"]:
        """Bottom-up transform.

        ``fn`` is applied to a structurally rebuilt copy of each
        statement and may return a replacement statement, a list of
        statements (splice), or ``None`` (keep the rebuilt copy).  Used
        by protocol-generation step 4 to rewrite remote accesses into
        procedure calls.
        """
        rebuilt = self._rebuild(fn)
        result = fn(rebuilt)
        if result is None:
            return [rebuilt]
        if isinstance(result, Stmt):
            return [result]
        return list(result)

    def _rebuild(self, fn: Callable[["Stmt"], Union["Stmt", List["Stmt"], None]]) -> "Stmt":
        """Rebuild this statement with transformed children."""
        return self


def map_body(body: Sequence[Stmt],
             fn: Callable[[Stmt], Union[Stmt, List[Stmt], None]]) -> List[Stmt]:
    """Apply :meth:`Stmt.map` across a statement list, splicing results."""
    out: List[Stmt] = []
    for stmt in body:
        out.extend(stmt.map(fn))
    return out


def walk(body: Sequence[Stmt]) -> Iterator[Stmt]:
    """Depth-first pre-order traversal of a statement list."""
    for stmt in body:
        yield stmt
        yield from walk(stmt.children())


class Assign(Stmt):
    """``target <= expr`` (signal-style assignment in the paper's VHDL)."""

    __slots__ = ("target", "expr")

    def __init__(self, target: Union[Target, Variable, Tuple[Variable, ExprLike]],
                 expr: ExprLike):
        self.target = as_target(target)
        self.expr = as_expr(expr)

    def reads(self) -> Iterator[VarRead]:
        yield from self.target.reads()
        yield from self.expr.reads()

    def __repr__(self) -> str:
        return f"Assign({self.target}, {self.expr})"


class If(Stmt):
    """``if cond then ... [else ...] end if``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: ExprLike, then_body: Sequence[Stmt],
                 else_body: Sequence[Stmt] = ()):
        self.cond = as_expr(cond)
        self.then_body = list(then_body)
        self.else_body = list(else_body)

    def reads(self) -> Iterator[VarRead]:
        yield from self.cond.reads()

    def children(self) -> Sequence[Stmt]:
        return [*self.then_body, *self.else_body]

    def _rebuild(self, fn: Callable) -> "If":
        return If(self.cond, map_body(self.then_body, fn),
                  map_body(self.else_body, fn))

    def __repr__(self) -> str:
        return f"If({self.cond}, then={len(self.then_body)}, else={len(self.else_body)})"


class For(Stmt):
    """``for var in lo to hi loop ... end loop`` with constant bounds.

    The loop variable is a scalar :class:`Variable` visible to the body;
    bounds are inclusive, VHDL style.  Constant bounds give the static
    trip count that access analysis and estimation require.
    """

    __slots__ = ("var", "lo", "hi", "body")

    def __init__(self, var: Variable, lo: int, hi: int, body: Sequence[Stmt]):
        if var.dtype.is_array():
            raise StmtError("loop variable must be scalar")
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise StmtError("For bounds must be integer constants")
        self.var = var
        self.lo = lo
        self.hi = hi
        self.body = list(body)

    @property
    def trip_count(self) -> int:
        """Number of iterations (0 when the range is empty)."""
        return max(0, self.hi - self.lo + 1)

    def reads(self) -> Iterator[VarRead]:
        return iter(())

    def children(self) -> Sequence[Stmt]:
        return self.body

    def _rebuild(self, fn: Callable) -> "For":
        return For(self.var, self.lo, self.hi, map_body(self.body, fn))

    def __repr__(self) -> str:
        return f"For({self.var.name} in {self.lo}..{self.hi}, body={len(self.body)})"


class While(Stmt):
    """``while cond loop ... end loop`` with an estimated trip count.

    ``trip_count`` is an estimation annotation only -- execution follows
    the actual condition.  Profiling-based estimators (ref [10]) obtain
    it from simulation; here the model author supplies it.
    """

    __slots__ = ("cond", "body", "trip_count")

    def __init__(self, cond: ExprLike, body: Sequence[Stmt], trip_count: int = 1):
        if trip_count < 0:
            raise StmtError(f"trip_count must be >= 0, got {trip_count}")
        self.cond = as_expr(cond)
        self.body = list(body)
        self.trip_count = trip_count

    def reads(self) -> Iterator[VarRead]:
        yield from self.cond.reads()

    def children(self) -> Sequence[Stmt]:
        return self.body

    def _rebuild(self, fn: Callable) -> "While":
        return While(self.cond, map_body(self.body, fn), self.trip_count)

    def __repr__(self) -> str:
        return f"While({self.cond}, body={len(self.body)}, trips~{self.trip_count})"


class WaitClocks(Stmt):
    """Consume ``clocks`` clock cycles (models computation latency or an
    explicit ``wait for`` in the source)."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: int):
        if not isinstance(clocks, int) or clocks < 0:
            raise StmtError(f"WaitClocks requires a non-negative int, got {clocks!r}")
        self.clocks = clocks

    def reads(self) -> Iterator[VarRead]:
        return iter(())

    def __repr__(self) -> str:
        return f"WaitClocks({self.clocks})"


class Call(Stmt):
    """A call to a generated communication procedure.

    ``Call`` statements do not exist in unrefined specifications -- they
    are introduced by protocol-generation step 4 (e.g. ``X <= 32``
    becomes ``SendCH0(32)``).  ``args`` are value expressions (data to
    send, array address); ``results`` are targets receiving data for
    receive procedures (e.g. ``ReceiveCH1(Xtemp)``).
    """

    __slots__ = ("procedure", "args", "results")

    def __init__(self, procedure: object, args: Sequence[ExprLike] = (),
                 results: Sequence[Union[Target, Variable]] = ()):
        self.procedure = procedure
        self.args = [as_expr(a) for a in args]
        self.results = [as_target(r) for r in results]

    def reads(self) -> Iterator[VarRead]:
        for arg in self.args:
            yield from arg.reads()
        for result in self.results:
            yield from result.reads()

    def __repr__(self) -> str:
        name = getattr(self.procedure, "name", self.procedure)
        return f"Call({name}, args={len(self.args)}, results={len(self.results)})"


class Nop(Stmt):
    """A placeholder statement costing zero clocks."""

    __slots__ = ()

    def reads(self) -> Iterator[VarRead]:
        return iter(())

    def __repr__(self) -> str:
        return "Nop()"


def assigned_variables(body: Sequence[Stmt]) -> Iterator[Tuple[Variable, Optional[Expr]]]:
    """Yield ``(variable, index_expr_or_None)`` for every write site."""
    for stmt in walk(body):
        if isinstance(stmt, Assign):
            yield stmt.target.variable, stmt.target.index_expr()
        elif isinstance(stmt, Call):
            for result in stmt.results:
                yield result.variable, result.index_expr()
        elif isinstance(stmt, For):
            yield stmt.var, None


# Convenience re-exports so model code can ``from repro.spec.stmt import *``-less
# build bodies with a compact vocabulary.
__all__ = [
    "Assign",
    "Call",
    "ElementTarget",
    "For",
    "If",
    "Nop",
    "ScalarTarget",
    "Stmt",
    "Target",
    "WaitClocks",
    "While",
    "as_target",
    "assigned_variables",
    "map_body",
    "walk",
]

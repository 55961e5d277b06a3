"""Abstract-interpretation engine over the spec statement IR.

A fixpoint interpreter executing behaviors over the
:mod:`repro.analysis.absint.domain` abstract values instead of concrete
integers.  It produces:

* a **global store** -- one :class:`~repro.analysis.absint.domain.AbsVal`
  per shared variable, over-approximating every value the variable can
  hold at any time under any schedule (arrays are summarized to one
  element-range);
* **loop trip-count bounds** for every ``While`` (``For`` bounds are
  exact by construction);
* **per-channel sent-value ranges** -- the data values that cross each
  channel's generated procedures in a refined spec; and
* **findings** -- proven range overflows, dead guards, zero divisors and
  unbounded channel-feeding loops, mapped to P5xx diagnostics by
  :mod:`repro.analysis.absint.passes`.

Analysis strategy
-----------------
Shared variables are treated *flow-insensitively* (weak updates into the
global store, iterated to a fixpoint over all behaviors), which is sound
for any interleaving or schedule; locals are tracked flow-sensitively
with strong updates.  ``For`` loops run a widening fixpoint with the
loop variable pinned to its constant range.  ``While`` loops use bounded
*abstract unrolling*: the chain ``s_{i+1} = body(assume(s_i, cond))`` is
executed until the condition becomes infeasible (proving an exact trip
upper bound -- something a joined loop invariant can never do), the
chain goes stationary, or :data:`WHILE_UNROLL_CAP` is hit; in the latter
cases the loop is *unbounded* and a classic widened invariant supplies
the sound post-state.

Everything here is read-only over the spec: no statement or behavior is
ever mutated (the same contract as the other analysis passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.absint.domain import AbsVal, type_range
from repro.obs.tracer import count as obs_count
from repro.obs.tracer import span as obs_span
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Expr, Index, Ref, UnOp
from repro.spec.stmt import (
    Assign,
    Call,
    ElementTarget,
    For,
    If,
    Stmt,
    While,
    walk,
)
from repro.spec.types import ArrayType, DataType
from repro.spec.variable import Variable

#: Abstract unrolling budget for ``While`` trip-bound inference.
WHILE_UNROLL_CAP = 64
#: Fixpoint iteration budget for loop invariants.
FIXPOINT_CAP = 64
#: Iterations of plain joining before widening kicks in.
WIDEN_AFTER = 4
#: Global store passes before the engine gives up on convergence.
MAX_GLOBAL_PASSES = 8

Env = Dict[Variable, AbsVal]

#: Comparison negations used by guard refinement.
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "/=", "/=": "="}
#: Mirror of ``a op b`` as ``b op a``.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "/=": "/="}


class TripBounds(NamedTuple):
    """Proven iteration bounds of one loop; ``hi is None`` = unbounded.
    A tuple, so :meth:`ValueAnalysis.trip_bounds` is a trip lookup of
    :func:`repro.spec.access.fold`."""

    lo: int
    hi: Optional[int]

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    def __str__(self) -> str:
        return f"[{self.lo}, {'inf' if self.hi is None else self.hi}]"


@dataclass(frozen=True)
class Finding:
    """One raw value-flow finding (pre-diagnostic)."""

    #: ``overflow`` | ``dead_guard`` | ``div_by_zero`` | ``unbounded_loop``
    kind: str
    behavior: str
    message: str
    #: True when the defect is proven on *every* execution reaching the
    #: site (must-analysis); False when it is merely possible.
    certain: bool = True
    #: Channels transferred inside an unbounded loop.
    channels: Tuple[str, ...] = ()


@dataclass
class ValueAnalysis:
    """Everything the engine inferred about one (refined) specification."""

    store: Dict[Variable, AbsVal]
    while_trips: Dict[int, TripBounds]
    findings: List[Finding]
    #: Channel name -> abstract data value crossing the channel.
    sent_ranges: Dict[str, AbsVal] = field(default_factory=dict)
    passes: int = 0
    converged: bool = True

    def value_range(self, variable: Variable) -> Optional[Tuple[int, int]]:
        """Finite ``(lo, hi)`` of a shared variable, or ``None``."""
        return _finite_range(self.store.get(variable))

    def sent_range(self, channel_name: str) -> Optional[Tuple[int, int]]:
        """Finite ``(lo, hi)`` of a channel's data values, or ``None``."""
        return _finite_range(self.sent_ranges.get(channel_name))

    def finite_sent_ranges(self) -> Dict[str, Tuple[int, int]]:
        """Channel name -> finite ``(lo, hi)``, for channels that have one."""
        return {name: finite for name in self.sent_ranges
                if (finite := self.sent_range(name)) is not None}

    def trip_bounds(self, stmt: While) -> TripBounds:
        """Bounds of one analyzed ``While`` (defensively unbounded)."""
        return self.while_trips.get(id(stmt), TripBounds(0, None))


def _finite_range(value: Optional[AbsVal]) -> Optional[Tuple[int, int]]:
    if value is None or not value.interval.is_finite:
        return None
    return int(value.interval.lo), int(value.interval.hi)


def _init_absval(variable: Variable) -> AbsVal:
    """Abstract initial value (array = join of element initializers)."""
    initial = variable.initial_value()
    if isinstance(initial, list):
        return AbsVal.join_consts(initial)
    return AbsVal.const(initial)


def _scalar_dtype(variable: Variable) -> DataType:
    dtype = variable.dtype
    if isinstance(dtype, ArrayType):
        return dtype.element
    return dtype


def _join_env(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    if a is None:
        return b
    if b is None:
        return a
    out: Env = {}
    for var in a.keys() | b.keys():
        va, vb = a.get(var), b.get(var)
        if va is None:
            out[var] = vb  # type: ignore[assignment]
        elif vb is None:
            out[var] = va
        else:
            out[var] = va.join(vb)
    return out


def _widen_env(old: Env, new: Env) -> Env:
    out: Env = {}
    for var in old.keys() | new.keys():
        vo, vn = old.get(var), new.get(var)
        if vo is None:
            out[var] = vn  # type: ignore[assignment]
        elif vn is None:
            out[var] = vo
        else:
            out[var] = vo.widen(vn)
    return out


class _Interpreter:
    """One abstract execution of one behavior over a shared store.

    Besides its findings, trip bounds and sent ranges, the run records
    the first value each store read returned (``None`` for a variable
    absent from the store).  A later read can only differ when the run
    itself grew that entry, and the store never shrinks back, so the
    first value stands for all of them.  The run is a function of
    those reads alone: while they all equal the store
    (:meth:`is_current`) a re-run would repeat it exactly -- and,
    writes only joining, add nothing to the store.
    """

    def __init__(self, store: Dict[Variable, AbsVal]):
        self.store = store
        self.while_trips: Dict[int, TripBounds] = {}
        self.sent_ranges: Dict[str, AbsVal] = {}
        #: (kind, behavior, id(node)) -> Finding, insertion-ordered.
        self.findings: Dict[Tuple[str, str, int], Finding] = {}
        self.reads: Dict[Variable, Optional[AbsVal]] = {}
        self.behavior_name = ""
        self.widenings = 0
        self.unroll_iterations = 0

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run_behavior(self, behavior: Behavior) -> Optional[Env]:
        self.behavior_name = behavior.name
        env: Env = {v: _init_absval(v) for v in behavior.local_variables}
        return self._exec_body(behavior.body, env)

    def is_current(self) -> bool:
        """Would a re-run over the current store read what this one
        read?"""
        store = self.store
        return all(store.get(variable) == value
                   for variable, value in self.reads.items())

    def _emit(self, kind: str, node: object, message: str,
              certain: bool = True, channels: Tuple[str, ...] = ()) -> None:
        _merge_finding(self.findings, (kind, self.behavior_name, id(node)),
                       Finding(kind, self.behavior_name, message, certain,
                               channels))

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    def _read(self, variable: Variable, env: Env) -> AbsVal:
        value = env.get(variable)
        if value is not None:
            return value
        value = self.store.get(variable)
        self.reads.setdefault(variable, value)
        if value is not None:
            return value
        # Unknown storage (e.g. a shared variable of a behavior analyzed
        # in isolation): its declared type bounds every possible value.
        return AbsVal.of_type(variable.dtype)

    def _write(self, variable: Variable, value: AbsVal, env: Env,
               element: bool) -> None:
        if variable in env:
            # Locals are flow-sensitive; one element of an array summary
            # only joins (the other elements keep their old values).
            env[variable] = env[variable].join(value) if element else value
            return
        current = self.store.get(variable)
        if current is None:
            current = AbsVal.of_type(variable.dtype)
        self.store[variable] = current.join(value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, env: Env) -> AbsVal:
        if isinstance(expr, Const):
            return AbsVal.const(expr.value)
        if isinstance(expr, Ref):
            return self._read(expr.variable, env)
        if isinstance(expr, Index):
            self._eval(expr.index, env)  # zero-divisor checks inside
            return self._read(expr.variable, env)
        if isinstance(expr, BinOp):
            lhs = self._eval(expr.lhs, env)
            rhs = self._eval(expr.rhs, env)
            if expr.op in ("/", "mod"):
                self._check_divisor(expr, rhs)
            return lhs.binop(expr.op, rhs)
        if isinstance(expr, UnOp):
            return self._eval(expr.operand, env).unop(expr.op)
        return AbsVal.top()

    def _check_divisor(self, expr: BinOp, divisor: AbsVal) -> None:
        if divisor.is_bottom:
            return
        if not divisor.interval.contains_zero():
            return
        certain = divisor.interval.definitely_zero()
        claim = "is always zero" if certain \
            else f"may be zero (inferred {divisor.interval})"
        self._emit(
            "div_by_zero", expr,
            f"divisor of `{expr}` {claim}",
            certain=certain,
        )

    # ------------------------------------------------------------------
    # Guard refinement
    # ------------------------------------------------------------------

    def _assume(self, env: Env, cond: Expr, truth: bool) -> Optional[Env]:
        """Refined copy of ``env`` under ``cond == truth``; ``None`` when
        the assumption is infeasible (abstract bottom)."""
        return self._refine(dict(env), cond, truth)

    def _refine(self, env: Env, cond: Expr, truth: bool) -> Optional[Env]:
        if isinstance(cond, UnOp) and cond.op == "not":
            return self._refine(env, cond.operand, not truth)
        if isinstance(cond, BinOp):
            op = cond.op
            if op == "and":
                if truth:
                    env2 = self._refine(env, cond.lhs, True)
                    return None if env2 is None \
                        else self._refine(env2, cond.rhs, True)
                return self._refine_split(env, cond, truth)
            if op == "or":
                if not truth:
                    env2 = self._refine(env, cond.lhs, False)
                    return None if env2 is None \
                        else self._refine(env2, cond.rhs, False)
                return self._refine_split(env, cond, truth)
            if op in _NEGATED:
                effective = op if truth else _NEGATED[op]
                return self._refine_comparison(env, cond, effective)
        # Generic truthiness refinement on a variable reference.
        if isinstance(cond, Ref) and cond.variable in env:
            value = env[cond.variable]
            narrowed = value.meet(AbsVal.const(0)) if not truth \
                else _drop_zero(value)
            if narrowed.is_bottom:
                return None
            env[cond.variable] = narrowed
            return env
        # Fallback: no refinement, but a definite contradiction is bottom.
        value = self._eval(cond, env)
        if value.is_bottom:
            return None
        t = value.interval.truthiness()
        if t.is_const and bool(t.lo) != truth:
            return None
        return env

    def _refine_split(self, env: Env, cond: BinOp,
                      truth: bool) -> Optional[Env]:
        """``or``-true / ``and``-false: join of the two sub-cases."""
        left = self._refine(dict(env), cond.lhs, truth)
        right = self._refine(dict(env), cond.rhs, truth)
        return _join_env(left, right)

    def _refine_comparison(self, env: Env, cond: BinOp,
                           op: str) -> Optional[Env]:
        lhs_val = self._eval(cond.lhs, env)
        rhs_val = self._eval(cond.rhs, env)
        outcome = lhs_val.binop(op, rhs_val)
        # Definite contradiction?
        t = outcome.interval
        if t.is_const and t.lo == 0:
            return None
        # Refine each side that is a flow-sensitive variable reference.
        if isinstance(cond.lhs, Ref) and cond.lhs.variable in env:
            narrowed = _bound_by(env[cond.lhs.variable], op, rhs_val)
            if narrowed.is_bottom:
                return None
            env[cond.lhs.variable] = narrowed
        if isinstance(cond.rhs, Ref) and cond.rhs.variable in env:
            narrowed = _bound_by(env[cond.rhs.variable], _MIRRORED[op],
                                 lhs_val)
            if narrowed.is_bottom:
                return None
            env[cond.rhs.variable] = narrowed
        return env

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_body(self, body: Sequence[Stmt],
                   env: Optional[Env]) -> Optional[Env]:
        for stmt in body:
            if env is None:
                return None
            env = self._exec_stmt(stmt, env)
        return env

    def _exec_stmt(self, stmt: Stmt, env: Env) -> Optional[Env]:
        if isinstance(stmt, Assign):
            return self._exec_assign(stmt, env)
        if isinstance(stmt, If):
            return self._exec_if(stmt, env)
        if isinstance(stmt, For):
            return self._exec_for(stmt, env)
        if isinstance(stmt, While):
            return self._exec_while(stmt, env)
        if isinstance(stmt, Call):
            return self._exec_call(stmt, env)
        return env  # WaitClocks, Nop

    def _exec_assign(self, stmt: Assign, env: Env) -> Env:
        value = self._eval(stmt.expr, env)
        target = stmt.target
        element = isinstance(target, ElementTarget)
        if element:
            self._eval(target.index, env)
        dtype = _scalar_dtype(target.variable)
        rng = type_range(dtype)
        if (rng is not None and not value.is_bottom
                and value.interval.disjoint_from(rng)):
            self._emit(
                "overflow", stmt,
                f"assignment to {target.variable.name}: inferred value "
                f"{value.interval} can never fit the declared type "
                f"{dtype} (range {rng}); the stored value always wraps",
            )
        self._write(target.variable, value.wrap_to_range(rng), env,
                    element)
        return env

    def _exec_if(self, stmt: If, env: Env) -> Optional[Env]:
        cond_val = self._eval(stmt.cond, env)
        t = cond_val.interval.truthiness()
        if t.is_const:
            if t.lo == 0 and stmt.then_body:
                self._emit(
                    "dead_guard", stmt,
                    f"branch condition `{stmt.cond}` is proven always "
                    "false: the then-branch never executes",
                )
            elif t.lo == 1 and stmt.else_body:
                self._emit(
                    "dead_guard", stmt,
                    f"branch condition `{stmt.cond}` is proven always "
                    "true: the else-branch never executes",
                )
        then_env = self._assume(env, stmt.cond, True)
        else_env = self._assume(env, stmt.cond, False)
        if then_env is not None:
            then_env = self._exec_body(stmt.then_body, then_env)
        if else_env is not None:
            else_env = self._exec_body(stmt.else_body, else_env)
        return _join_env(then_env, else_env)

    def _exec_for(self, stmt: For, env: Env) -> Env:
        if stmt.trip_count == 0:
            return env
        pinned = AbsVal.range(stmt.lo, stmt.hi)
        state = dict(env)
        for iteration in range(FIXPOINT_CAP):
            state[stmt.var] = pinned
            out = self._exec_body(stmt.body, dict(state))
            if out is None:
                break
            out[stmt.var] = pinned
            merged = _join_env(state, out)
            assert merged is not None
            if merged == state:
                break
            if iteration >= WIDEN_AFTER:
                state = _widen_env(state, merged)
                self.widenings += 1
            else:
                state = merged
        return state

    def _exec_while(self, stmt: While, env: Env) -> Optional[Env]:
        cond_val = self._eval(stmt.cond, env)
        t0 = cond_val.interval.truthiness()
        if t0.is_const and t0.lo == 0 and stmt.body:
            self._emit(
                "dead_guard", stmt,
                f"loop condition `{stmt.cond}` is proven always false "
                "on entry: the loop body never executes",
            )
        exits: Optional[Env] = None
        trips_lo: Optional[int] = None
        trips_hi: Optional[int] = None
        state = dict(env)
        unbounded = False
        for iteration in range(WHILE_UNROLL_CAP + 1):
            self.unroll_iterations += 1
            exit_env = self._assume(state, stmt.cond, False)
            if exit_env is not None:
                if trips_lo is None:
                    trips_lo = iteration
                exits = _join_env(exits, exit_env)
            enter = self._assume(state, stmt.cond, True)
            if enter is None:
                trips_hi = iteration
                break
            out = self._exec_body(stmt.body, enter)
            if out is None:
                # The body never completes (e.g. a nested infinite
                # loop): no further iteration of this loop begins.
                trips_hi = iteration + 1
                break
            if out == state:
                unbounded = True  # stationary chain, condition live
                break
            state = out
        else:
            unbounded = True
        if unbounded:
            trips_hi = None
            invariant = self._while_invariant(stmt, env)
            exits = self._assume(invariant, stmt.cond, False)
            if trips_lo is None:
                trips_lo = WHILE_UNROLL_CAP
        if trips_lo is None:
            trips_lo = trips_hi if trips_hi is not None else 0
        self.while_trips[id(stmt)] = TripBounds(trips_lo, trips_hi)
        if trips_hi is None:
            channels = _transferred_channels(stmt.body)
            if channels:
                self._emit(
                    "unbounded_loop", stmt,
                    f"no finite trip bound proven for `while {stmt.cond}`"
                    f", which transfers over channel(s) "
                    f"{', '.join(channels)}: static rate bounds are "
                    "infinite",
                    certain=False,
                    channels=channels,
                )
        return exits

    def _while_invariant(self, stmt: While, env: Env) -> Env:
        """Classic widened invariant: sound fallback for unbounded loops."""
        state = dict(env)
        for iteration in range(FIXPOINT_CAP):
            enter = self._assume(state, stmt.cond, True)
            if enter is None:
                break
            out = self._exec_body(stmt.body, enter)
            if out is None:
                break
            merged = _join_env(state, out)
            assert merged is not None
            if merged == state:
                break
            if iteration >= WIDEN_AFTER:
                state = _widen_env(state, merged)
                self.widenings += 1
            else:
                state = merged
        return state

    def _exec_call(self, stmt: Call, env: Env) -> Env:
        arg_values = [self._eval(arg, env) for arg in stmt.args]
        procedure = stmt.procedure
        channel = getattr(procedure, "channel", None)
        role = getattr(getattr(procedure, "role", None), "value", None)
        if channel is not None and role == "accessor":
            variable = channel.variable
            element_dtype = _scalar_dtype(variable)
            if channel.is_write:
                data = arg_values[-1].wrap_to(element_dtype) if arg_values \
                    else AbsVal.of_type(element_dtype)
                self._record_sent(channel.name, data)
                self._write(variable, data, env,
                            element=variable.dtype.is_array())
            else:
                data = self._read(variable, env).wrap_to(element_dtype)
                self._record_sent(channel.name, data)
                for result in stmt.results:
                    dtype = _scalar_dtype(result.variable)
                    self._write(result.variable, data.wrap_to(dtype), env,
                                element=isinstance(result, ElementTarget))
            return env
        # Unknown procedure: havoc every result conservatively.
        for result in stmt.results:
            dtype = _scalar_dtype(result.variable)
            self._write(result.variable, AbsVal.of_type(dtype), env,
                        element=isinstance(result, ElementTarget))
        return env

    def _record_sent(self, channel_name: str, value: AbsVal) -> None:
        current = self.sent_ranges.get(channel_name, AbsVal.bottom())
        self.sent_ranges[channel_name] = current.join(value)


def _drop_zero(value: AbsVal) -> AbsVal:
    """Remove 0 from an interval when it sits on a boundary."""
    interval = value.interval
    if interval.is_bottom or not interval.contains_zero():
        return value
    if interval.lo == 0 and interval.hi == 0:
        return AbsVal.bottom()
    if interval.lo == 0:
        return value.meet(AbsVal.range(1, interval.hi))
    if interval.hi == 0:
        return value.meet(AbsVal.range(interval.lo, -1))
    return value


def _bound_by(value: AbsVal, op: str, bound: AbsVal) -> AbsVal:
    """Narrow ``value`` to satisfy ``value op bound``."""
    from repro.analysis.absint.domain import Interval

    b = bound.interval
    if b.is_bottom or value.is_bottom:
        return AbsVal.bottom()
    if op == "<":
        return value.meet(AbsVal.make(Interval.of(float("-inf"), b.hi - 1)))
    if op == "<=":
        return value.meet(AbsVal.make(Interval.of(float("-inf"), b.hi)))
    if op == ">":
        return value.meet(AbsVal.make(Interval.of(b.lo + 1, float("inf"))))
    if op == ">=":
        return value.meet(AbsVal.make(Interval.of(b.lo, float("inf"))))
    if op == "=":
        return value.meet(bound)
    if op == "/=":
        if b.is_const:
            c = int(b.lo)
            iv = value.interval
            if iv.lo == c and iv.hi == c:
                return AbsVal.bottom()
            if iv.lo == c:
                return value.meet(AbsVal.make(Interval.of(c + 1, iv.hi)))
            if iv.hi == c:
                return value.meet(AbsVal.make(Interval.of(iv.lo, c - 1)))
        return value
    return value


def _transferred_channels(body: Sequence[Stmt]) -> Tuple[str, ...]:
    """Names of channels whose accessor procedures are called in ``body``."""
    names: List[str] = []
    for stmt in walk(body):
        if not isinstance(stmt, Call):
            continue
        channel = getattr(stmt.procedure, "channel", None)
        if channel is not None and channel.name not in names:
            names.append(channel.name)
    return tuple(names)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _merge_finding(findings: Dict[Tuple[str, str, int], Finding],
                   key: Tuple[str, str, int], finding: Finding) -> None:
    """Record ``finding`` under ``key``, keeping an earlier certain
    claim over a later merely possible one."""
    previous = findings.get(key)
    if previous is not None and previous.certain and not finding.certain:
        return
    findings[key] = finding


def _sweep(behaviors: Sequence[Behavior],
           runs: List[Optional[_Interpreter]],
           store: Dict[Variable, AbsVal]) -> int:
    """Run, in order, every behavior whose last run is not current;
    returns how many ran."""
    ran = 0
    widenings = unroll_iterations = 0
    for index, behavior in enumerate(behaviors):
        last = runs[index]
        if last is not None and last.is_current():
            continue
        interp = _Interpreter(store)
        interp.run_behavior(behavior)
        runs[index] = interp
        ran += 1
        widenings += interp.widenings
        unroll_iterations += interp.unroll_iterations
    obs_count("absint.loop_unroll_iterations", unroll_iterations)
    obs_count("absint.widenings", widenings)
    return ran


def analyze_behaviors(behaviors: Sequence[Behavior],
                      store: Optional[Dict[Variable, AbsVal]] = None,
                      max_passes: int = MAX_GLOBAL_PASSES,
                      system: str = "") -> ValueAnalysis:
    """Fixpoint value analysis over a set of behaviors.

    ``store`` seeds the shared-variable store; variables a behavior
    references but that are absent from the store are *havocked* to
    their full declared type range on read (sound for modular analysis
    of a single behavior).

    Every pass reports, and a pass re-runs only the behaviors whose
    recorded store reads no longer match the store at their turn.  A
    skipped behavior would run identically -- and since writes only
    join (and widening only grows the store), its writes are already
    in the store -- so its last run's findings, trip bounds and sent
    ranges stand.  At convergence every behavior's last run therefore
    saw the final store, and the result is assembled from those runs
    in behavior order.  A loop that ends without converging makes one
    more (uncounted) sweep over the widened store.
    """
    store = dict(store) if store is not None else {}
    runs: List[Optional[_Interpreter]] = [None] * len(behaviors)
    with obs_span("absint.analyze", system=system,
                  behaviors=len(behaviors)) as sp:
        passes = 0
        converged = False
        behavior_runs = 0
        for global_pass in range(max_passes):
            passes += 1
            snapshot = dict(store)
            behavior_runs += _sweep(behaviors, runs, store)
            if store == snapshot:
                converged = True
                break
            if global_pass >= WIDEN_AFTER - 1:
                # Accelerate: widen growing store entries, bounded by
                # the declared type range (every stored value was
                # wrapped to it, so the meet is sound).
                for variable, value in store.items():
                    previous = snapshot.get(variable)
                    if previous is not None and previous != value:
                        store[variable] = previous.widen(value).meet(
                            AbsVal.of_type(variable.dtype))
        if not converged:
            behavior_runs += _sweep(behaviors, runs, store)
        findings: Dict[Tuple[str, str, int], Finding] = {}
        while_trips: Dict[int, TripBounds] = {}
        sent_ranges: Dict[str, AbsVal] = {}
        for interp in runs:
            assert interp is not None
            for key, finding in interp.findings.items():
                _merge_finding(findings, key, finding)
            while_trips.update(interp.while_trips)
            for name, value in interp.sent_ranges.items():
                sent_ranges[name] = sent_ranges.get(
                    name, AbsVal.bottom()).join(value)
        obs_count("absint.global_passes", passes)
        obs_count("absint.behavior_runs", behavior_runs)
        sp.set(passes=passes, converged=converged,
               findings=len(findings), behavior_runs=behavior_runs)
    return ValueAnalysis(
        store=store,
        while_trips=while_trips,
        findings=list(findings.values()),
        sent_ranges=sent_ranges,
        passes=passes,
        converged=converged,
    )


def analyze_refined_values(spec) -> ValueAnalysis:
    """Value analysis of a :class:`~repro.protogen.refine.RefinedSpec`.

    The store is seeded with every system variable's initial value;
    channel traffic (procedure calls) flows data through the served
    variables exactly like direct accesses would.  The result is
    memoized on the spec, so every pass and entry point shares one.
    """
    def compute() -> ValueAnalysis:
        store = {variable: _init_absval(variable)
                 for variable in spec.original.variables}
        return analyze_behaviors(spec.behaviors, store=store,
                                 system=spec.name)

    return spec.memoized("values", compute)


def analyze_behavior(behavior: Behavior,
                     havoc_shared: bool = True) -> ValueAnalysis:
    """Modular value analysis of a single (unrefined) behavior.

    With ``havoc_shared`` every shared variable starts at its full type
    range -- the sound assumption when other behaviors are unknown,
    which is how bus generation uses trip bounds before refinement.
    """
    store: Dict[Variable, AbsVal] = {}
    if havoc_shared:
        for variable in sorted(behavior.global_variables(),
                               key=lambda v: v.name):
            store[variable] = AbsVal.of_type(variable.dtype)
    else:
        for variable in sorted(behavior.global_variables(),
                               key=lambda v: v.name):
            store[variable] = _init_absval(variable)
    return analyze_behaviors([behavior], store=store, max_passes=2,
                             system=behavior.name)

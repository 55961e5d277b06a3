"""Specification refinement: protocol generation steps 1-5.

:func:`generate_protocol` runs the paper's five steps for one channel
group and returns a :class:`RefinedSpec`:

1. *Protocol selection* -- caller chooses (default: full handshake, the
   paper's running example).
2. *ID assignment* -- :mod:`repro.protogen.idassign`.
3. *Bus structure and procedure definition* --
   :mod:`repro.protogen.structure` / :mod:`repro.protogen.procedures`.
4. *Update variable-references* -- every direct access to a remote
   variable is rewritten into a call of the generated procedure:
   ``X <= 32`` becomes ``SendCH0(32)``; ``MEM(60) := COUNT`` becomes
   ``SendCH3(60, COUNT)``; a *read* such as ``IR <= MEM(PC)`` becomes
   ``ReceiveCH1(PC, IRtemp)`` followed by use of the temporary
   (Figure 5's ``Xtemp``).
5. *Generate variable processes* -- :mod:`repro.protogen.varproc`.

The refined specification is simulatable (:mod:`repro.sim.runtime`) and
emittable as VHDL (:mod:`repro.hdl.vhdl`).  Rewriting is pure: original
:class:`~repro.spec.behavior.Behavior` objects are never mutated.

Multi-bus systems call :func:`refine_system`, which applies
``generate_protocol`` per bus and threads the rewritten behaviors
through, so a behavior talking over two buses ends up with both sets of
procedure calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.busgen.algorithm import BusDesign
from repro.channels.group import ChannelGroup
from repro.errors import RefinementError
from repro.obs.tracer import span as obs_span
from repro.protocols import (
    FULL_HANDSHAKE,
    Protocol,
    ProtectionLike,
    ProtectionPlan,
    as_protection_plan,
)
from repro.protogen.idassign import assign_ids
from repro.protogen.procedures import ChannelProcedures, make_procedures
from repro.protogen.structure import BusStructure, make_structure
from repro.protogen.varproc import VariableProcess, make_variable_processes
from repro.spec.access import Direction
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Expr, Index, Ref, UnOp
from repro.spec.stmt import (
    Assign,
    Call,
    ElementTarget,
    For,
    If,
    Nop,
    Stmt,
    Target,
    WaitClocks,
    While,
)
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, DataType
from repro.spec.variable import Variable


@dataclass
class RefinedBus:
    """One generated bus: structure, procedures and variable processes."""

    structure: BusStructure
    #: Channel name -> generated accessor/server procedure pair.
    procedures: Dict[str, ChannelProcedures]
    variable_processes: List[VariableProcess]
    #: The bus-generation result that chose the width, when available.
    design: Optional[BusDesign] = None

    @property
    def name(self) -> str:
        return self.structure.name

    @property
    def group(self) -> ChannelGroup:
        return self.structure.group

    def describe(self) -> str:
        lines = [self.structure.describe()]
        for channel_name, pair in self.procedures.items():
            lines.append(
                f"  {channel_name} (ID {self.structure.ids.code_bits(channel_name) or '-'}):"
                f" accessor {pair.accessor.name}, server {pair.server.name}"
            )
        lines.extend(f"  {vp.describe()}" for vp in self.variable_processes)
        return "\n".join(lines)


@dataclass
class RefinedSpec:
    """A refined, simulatable system specification."""

    name: str
    original: SystemSpec
    #: All system behaviors; those touching a bus are rewritten copies.
    behaviors: List[Behavior]
    buses: List[RefinedBus]
    #: Names of behaviors that were rewritten (touch at least one bus).
    #: Metadata for the static analyzer; simulation never reads it.
    rewritten: List[str] = field(default_factory=list)
    #: Analysis results shared by every entry point (value analysis,
    #: channel bounds, verification reports), filled lazily by
    #: :meth:`memoized`.  The spec must not be edited once analyzed,
    #: and callers must not mutate the shared results.
    analysis_memo: Dict[Any, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def memoized(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()`` on the first call per ``key``, then its result."""
        if key not in self.analysis_memo:
            self.analysis_memo[key] = compute()
        return self.analysis_memo[key]

    def behavior(self, name: str) -> Behavior:
        for behavior in self.behaviors:
            if behavior.name == name:
                return behavior
        raise RefinementError(f"refined spec has no behavior {name!r}")

    def bus(self, name: str) -> RefinedBus:
        for bus in self.buses:
            if bus.name == name:
                return bus
        raise RefinementError(f"refined spec has no bus {name!r}")

    def served_variables(self) -> List[Variable]:
        """Variables now owned by generated variable processes."""
        out: List[Variable] = []
        for bus in self.buses:
            for vp in bus.variable_processes:
                if vp.variable not in out:
                    out.append(vp.variable)
        return out

    def all_variable_processes(self) -> List[VariableProcess]:
        return [vp for bus in self.buses for vp in bus.variable_processes]

    def describe(self) -> str:
        lines = [f"refined spec {self.name}:"]
        lines.extend(f"  behavior {b.name} ({len(b.body)} statements)"
                     for b in self.behaviors)
        for bus in self.buses:
            lines.append(bus.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Step 4: variable-reference rewriting
# ---------------------------------------------------------------------------

class _BehaviorRewriter:
    """Rewrites one behavior's remote accesses into procedure calls."""

    def __init__(self, behavior: Behavior,
                 remote: Dict[Variable, Dict[Direction, ChannelProcedures]]):
        self.source = behavior
        self.remote = remote
        self.result = Behavior(
            behavior.name,
            body=(),
            local_variables=list(behavior.local_variables),
        )

    def rewrite(self) -> Behavior:
        self.result.body = self._rewrite_body(self.source.body)
        return self.result

    # -- helpers -----------------------------------------------------------

    def _procedures_for(self, variable: Variable,
                        direction: Direction) -> ChannelProcedures:
        try:
            return self.remote[variable][direction]
        except KeyError:
            raise RefinementError(
                f"behavior {self.source.name} performs a {direction} of "
                f"remote variable {variable.name}, but the bus has no "
                "channel for it; re-extract channels from the partition"
            ) from None

    def _is_remote(self, variable: Variable) -> bool:
        return variable in self.remote

    def _make_temp(self, variable: Variable) -> Variable:
        dtype: DataType = variable.dtype
        if isinstance(dtype, ArrayType):
            dtype = dtype.element
        name = self.result.fresh_local_name(f"{variable.name}temp")
        temp = Variable(name, dtype)
        self.result.add_local(temp)
        return temp

    # -- expressions --------------------------------------------------------

    def _rewrite_expr(self, expr: Expr, prelude: List[Stmt]) -> Expr:
        """Replace remote reads with temporaries, appending the Receive
        calls that populate them to ``prelude``."""
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Ref):
            if self._is_remote(expr.variable):
                procs = self._procedures_for(expr.variable, Direction.READ)
                temp = self._make_temp(expr.variable)
                prelude.append(Call(procs.accessor, args=(), results=[temp]))
                return Ref(temp)
            return expr
        if isinstance(expr, Index):
            new_index = self._rewrite_expr(expr.index, prelude)
            if self._is_remote(expr.variable):
                procs = self._procedures_for(expr.variable, Direction.READ)
                temp = self._make_temp(expr.variable)
                prelude.append(Call(procs.accessor, args=[new_index],
                                    results=[temp]))
                return Ref(temp)
            if new_index is expr.index:
                return expr
            return Index(expr.variable, new_index)
        if isinstance(expr, BinOp):
            lhs = self._rewrite_expr(expr.lhs, prelude)
            rhs = self._rewrite_expr(expr.rhs, prelude)
            if lhs is expr.lhs and rhs is expr.rhs:
                return expr
            return BinOp(expr.op, lhs, rhs)
        if isinstance(expr, UnOp):
            operand = self._rewrite_expr(expr.operand, prelude)
            if operand is expr.operand:
                return expr
            return UnOp(expr.op, operand)
        raise RefinementError(f"cannot rewrite expression {expr!r}")

    # -- statements ----------------------------------------------------------

    def _rewrite_body(self, body: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in body:
            out.extend(self._rewrite_stmt(stmt))
        return out

    def _rewrite_stmt(self, stmt: Stmt) -> List[Stmt]:
        if isinstance(stmt, Assign):
            return self._rewrite_assign(stmt)
        if isinstance(stmt, If):
            prelude: List[Stmt] = []
            cond = self._rewrite_expr(stmt.cond, prelude)
            return [*prelude, If(cond, self._rewrite_body(stmt.then_body),
                                 self._rewrite_body(stmt.else_body))]
        if isinstance(stmt, For):
            return [For(stmt.var, stmt.lo, stmt.hi,
                        self._rewrite_body(stmt.body))]
        if isinstance(stmt, While):
            prelude = []
            cond = self._rewrite_expr(stmt.cond, prelude)
            body = self._rewrite_body(stmt.body)
            if prelude:
                # The condition reads remote data: it must be re-fetched
                # before every test, so the receive calls run once before
                # the loop and again at the end of each iteration.
                return [*prelude,
                        While(cond, [*body, *prelude], stmt.trip_count)]
            return [While(cond, body, stmt.trip_count)]
        if isinstance(stmt, Call):
            # Already-refined call (from a previous bus's pass): its
            # argument expressions may still read variables remote over
            # *this* bus.
            prelude = []
            args = [self._rewrite_expr(a, prelude) for a in stmt.args]
            for result in stmt.results:
                if self._is_remote(result.variable):
                    raise RefinementError(
                        f"behavior {self.source.name}: procedure "
                        "result lands in a remote variable; unsupported"
                    )
            return [*prelude, Call(stmt.procedure, args, stmt.results)]
        if isinstance(stmt, (WaitClocks, Nop)):
            return [stmt]
        raise RefinementError(f"cannot rewrite statement {stmt!r}")

    def _rewrite_assign(self, stmt: Assign) -> List[Stmt]:
        prelude: List[Stmt] = []
        expr = self._rewrite_expr(stmt.expr, prelude)
        target = stmt.target
        if self._is_remote(target.variable):
            procs = self._procedures_for(target.variable, Direction.WRITE)
            args: List[Expr] = []
            if isinstance(target, ElementTarget):
                args.append(self._rewrite_expr(target.index, prelude))
            args.append(expr)
            return [*prelude, Call(procs.accessor, args=args)]
        new_target: Target = target
        if isinstance(target, ElementTarget):
            new_index = self._rewrite_expr(target.index, prelude)
            if new_index is not target.index:
                new_target = ElementTarget(target.variable, new_index)
        return [*prelude, Assign(new_target, expr)]


def _remote_map(behavior: Behavior, group: ChannelGroup,
                procedures: Dict[str, ChannelProcedures],
                ) -> Dict[Variable, Dict[Direction, ChannelProcedures]]:
    """Procedure lookup for one behavior's channels on one bus.

    Channels are matched by accessor *name* so that refinement passes
    can chain (the channel still references the original behavior while
    the body being rewritten may already be a refined copy).
    """
    remote: Dict[Variable, Dict[Direction, ChannelProcedures]] = {}
    for channel in group:
        if channel.accessor.name != behavior.name:
            continue
        per_direction = remote.setdefault(channel.variable, {})
        if channel.direction in per_direction:
            raise RefinementError(
                f"bus {group.name}: duplicate channel for "
                f"({behavior.name}, {channel.variable.name}, "
                f"{channel.direction})"
            )
        per_direction[channel.direction] = procedures[channel.name]
    return remote


# ---------------------------------------------------------------------------
# Top-level entry points
# ---------------------------------------------------------------------------

def generate_protocol(system: SystemSpec, group: ChannelGroup, width: int,
                      protocol: Protocol = FULL_HANDSHAKE,
                      bus_name: Optional[str] = None,
                      design: Optional[BusDesign] = None,
                      behaviors: Optional[Sequence[Behavior]] = None,
                      value_ranges: Optional[Dict[str, Tuple[int, int]]]
                      = None,
                      protection: ProtectionLike = None,
                      ) -> RefinedSpec:
    """Run protocol generation (steps 1-5) for one channel group.

    Parameters
    ----------
    system:
        The specification being refined.
    group:
        Channels to implement on this bus.
    width:
        Bus data-line count, usually ``BusDesign.width`` from bus
        generation, or a designer-specified width (Figure 3 fixes 8).
    protocol:
        Step 1's selection; defaults to the full handshake.
    bus_name:
        Name of the generated bus; defaults to the group name.
    design:
        Optional bus-generation result to attach for reporting.
    behaviors:
        Current behavior bodies (used when chaining multi-bus
        refinement); defaults to the system's behaviors.
    value_ranges:
        Optional statically proven data-value ranges per channel name
        (from :func:`repro.analysis.absint.analyze_refined_values`);
        proven ranges tighten the message data fields.
    protection:
        Fault-tolerance policy for the bus: ``None`` (the paper's plain
        protocol), a mode name (``"parity"``/``"crc8"``), a
        :class:`~repro.protocols.Protection`, or a full
        :class:`~repro.protocols.ProtectionPlan`.  Adds a check field
        to every message and a NACK/timeout/retry discipline to the
        generated procedures.
    """
    base_behaviors = list(behaviors) if behaviors is not None \
        else list(system.behaviors)
    bus_label = bus_name or group.name
    plan = as_protection_plan(protection)

    # Step 1: protocol selection.  The choice is the caller's (or the
    # full-handshake default); the span records which discipline this
    # bus will speak.
    with obs_span("protogen.step1_protocol_selection", bus=bus_label,
                  protocol=protocol.name, channels=len(group)):
        pass

    # Step 2: ID assignment.
    with obs_span("protogen.step2_id_assignment", bus=bus_label) as sp:
        ids = assign_ids(group)
        sp.set(id_bits=ids.width)

    # Step 3: bus structure plus procedures for every channel.
    with obs_span("protogen.step3_structure_and_procedures",
                  bus=bus_label, width=width) as sp:
        structure = make_structure(bus_label, group, width, protocol,
                                   ids=ids, protection=plan)
        procedures = {
            channel.name: make_procedures(
                channel, protocol,
                value_range=(value_ranges or {}).get(channel.name),
                protection=plan)
            for channel in group
        }
        sp.set(pins=structure.total_pins,
               tightened=sum(
                   1 for pair in procedures.values()
                   if pair.layout.proven_range is not None))

    # Step 4: rewrite every accessor behavior.
    with obs_span("protogen.step4_update_variable_references",
                  bus=bus_label) as sp:
        rewritten: List[Behavior] = []
        rewritten_names: List[str] = []
        for behavior in base_behaviors:
            remote = _remote_map(behavior, group, procedures)
            if remote:
                rewritten.append(
                    _BehaviorRewriter(behavior, remote).rewrite())
                rewritten_names.append(behavior.name)
            else:
                rewritten.append(behavior)
        sp.set(rewritten=len(rewritten_names))

    # Step 5: variable processes.
    with obs_span("protogen.step5_variable_processes",
                  bus=bus_label) as sp:
        variable_processes = make_variable_processes(procedures)
        sp.set(processes=len(variable_processes))

    bus = RefinedBus(structure=structure, procedures=procedures,
                     variable_processes=variable_processes, design=design)
    return RefinedSpec(
        name=f"{system.name}_refined",
        original=system,
        behaviors=rewritten,
        buses=[bus],
        rewritten=rewritten_names,
    )


BusPlan = Union[BusDesign, Tuple[ChannelGroup, int], Tuple[ChannelGroup, int, Protocol]]


def refine_system(system: SystemSpec, plans: Sequence[BusPlan],
                  protocol: Protocol = FULL_HANDSHAKE,
                  value_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
                  protection: ProtectionLike = None,
                  ) -> RefinedSpec:
    """Refine a system with one or more buses.

    Each plan is a :class:`BusDesign` (group, width and protocol come
    from bus generation) or a ``(group, width[, protocol])`` tuple.
    ``value_ranges`` optionally maps channel names to proven data-value
    ranges, tightening message fields (see :func:`generate_protocol`).
    ``protection`` applies one fault-tolerance policy to every bus.
    """
    if not plans:
        raise RefinementError("refine_system needs at least one bus plan")
    behaviors: List[Behavior] = list(system.behaviors)
    buses: List[RefinedBus] = []
    rewritten_names: List[str] = []
    with obs_span("protogen.refine_system", system=system.name,
                  buses=len(plans)):
        return _refine_system_buses(system, plans, protocol, behaviors,
                                    buses, rewritten_names, value_ranges,
                                    as_protection_plan(protection))


def _refine_system_buses(system: SystemSpec, plans: Sequence[BusPlan],
                         protocol: Protocol, behaviors: List[Behavior],
                         buses: List[RefinedBus],
                         rewritten_names: List[str],
                         value_ranges: Optional[Dict[str, Tuple[int, int]]]
                         = None,
                         protection: Optional[ProtectionPlan] = None,
                         ) -> RefinedSpec:
    for plan in plans:
        if isinstance(plan, BusDesign):
            group, width, proto, design = (plan.group, plan.width,
                                           plan.protocol, plan)
        else:
            group, width = plan[0], plan[1]
            proto = plan[2] if len(plan) > 2 else protocol
            design = None
        partial = generate_protocol(
            system, group, width, proto,
            design=design, behaviors=behaviors,
            value_ranges=value_ranges,
            protection=protection,
        )
        behaviors = partial.behaviors
        buses.extend(partial.buses)
        for name in partial.rewritten:
            if name not in rewritten_names:
                rewritten_names.append(name)

    _check_unique_bus_names(buses)
    return RefinedSpec(
        name=f"{system.name}_refined",
        original=system,
        behaviors=behaviors,
        buses=buses,
        rewritten=rewritten_names,
    )


def _check_unique_bus_names(buses: Sequence[RefinedBus]) -> None:
    names = [bus.name for bus in buses]
    if len(set(names)) != len(names):
        raise RefinementError(f"duplicate bus names in refinement: {names}")


def remote_access_remains(spec: RefinedSpec) -> List[str]:
    """Diagnostics: names of behaviors still directly accessing a served
    variable.  Empty on a correct refinement (used by tests)."""
    served = set(spec.served_variables())
    offenders: List[str] = []
    for behavior in spec.behaviors:
        if behavior.global_variables() & served:
            offenders.append(behavior.name)
    return offenders

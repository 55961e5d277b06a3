"""VHDL emission of refined specifications (Figures 4 and 5).

Protocol generation's tangible output in the paper is VHDL: the bus
record type, the per-channel send/receive procedures, the rewritten
behaviors whose remote accesses became procedure calls, and the
generated variable processes.  This module renders a
:class:`~repro.protogen.refine.RefinedSpec` in that form:

* ``emit_bus_declaration`` -- the ``type HandShakeBus is record ...``
  block and the global bus signal (top of Figure 4);
* ``emit_procedure`` -- one generated procedure; uniform single-field
  messages whose width divides evenly use Figure 4's
  ``for J in 1 to N loop`` shape, everything else (address+data
  messages, ragged last words) is unrolled word by word;
* ``emit_variable_process`` -- Figure 5's ``Xproc``/``MEMproc`` servers;
* ``emit_behavior`` -- a rewritten behavior as a VHDL process;
* ``emit_refined_spec`` -- a complete self-contained design unit.

Values travel as ``bit_vector`` slices; the emitted support package
declares ``int2bv``/``bv2int`` conversions and ``imin``/``imax`` so the
output stays VHDL'87-flavoured like the paper's listings.  There is no
VHDL toolchain in this environment, so fidelity is enforced by the
structural validator in :mod:`repro.hdl.validate` plus golden-text
tests against the paper's Figure 4 landmarks.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.errors import HdlError
from repro.hdl.writer import SourceWriter
from repro.obs.tracer import span as obs_span
from repro.protogen.procedures import CommProcedure, FieldKind, Role
from repro.protogen.refine import RefinedSpec
from repro.protogen.structure import BusStructure
from repro.protogen.varproc import VariableProcess
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
    WaitClocks,
    While,
)
from repro.spec.types import ArrayType, BitType, DataType, IntType
from repro.spec.variable import Variable


# ---------------------------------------------------------------------------
# Types and expressions
# ---------------------------------------------------------------------------

def vhdl_type(dtype: DataType, type_names: Optional[Dict[int, str]] = None) -> str:
    """VHDL type denotation of a specification type."""
    if isinstance(dtype, BitType):
        if dtype.width == 1:
            return "bit"
        return f"bit_vector({dtype.width - 1} downto 0)"
    if isinstance(dtype, IntType):
        return f"integer range {dtype.min_value} to {dtype.max_value}"
    if isinstance(dtype, ArrayType):
        if type_names and id(dtype) in type_names:
            return type_names[id(dtype)]
        element = vhdl_type(dtype.element)
        return f"array (0 to {dtype.length - 1}) of {element}"
    raise HdlError(f"cannot emit VHDL type for {dtype!r}")


_VHDL_BINOPS = {
    "+": "+", "-": "-", "*": "*", "/": "/", "mod": "mod",
    "=": "=", "/=": "/=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "and": "and", "or": "or",
}


def vhdl_expr(expr: Expr) -> str:
    """Render an expression in VHDL syntax."""
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Ref):
        return expr.variable.name
    if isinstance(expr, Index):
        return f"{expr.variable.name}({vhdl_expr(expr.index)})"
    if isinstance(expr, BinOp):
        if expr.op == "min":
            return f"imin({vhdl_expr(expr.lhs)}, {vhdl_expr(expr.rhs)})"
        if expr.op == "max":
            return f"imax({vhdl_expr(expr.lhs)}, {vhdl_expr(expr.rhs)})"
        op = _VHDL_BINOPS.get(expr.op)
        if op is None:
            raise HdlError(f"no VHDL rendering for operator {expr.op!r}")
        return f"({vhdl_expr(expr.lhs)} {op} {vhdl_expr(expr.rhs)})"
    if isinstance(expr, UnOp):
        if expr.op == "abs":
            return f"abs({vhdl_expr(expr.operand)})"
        if expr.op == "not":
            return f"(not {vhdl_expr(expr.operand)})"
        return f"(-{vhdl_expr(expr.operand)})"
    raise HdlError(f"cannot emit VHDL for expression {expr!r}")


def _var_type_txt(variable: Variable) -> str:
    """Type denotation for a variable declaration: arrays use the named
    type ``<name>_type`` declared by :func:`emit_refined_spec`."""
    if isinstance(variable.dtype, ArrayType):
        return f"{variable.name}_type"
    return vhdl_type(variable.dtype)


# ---------------------------------------------------------------------------
# Bus declaration (Figure 4 top)
# ---------------------------------------------------------------------------

def emit_bus_declaration(structure: BusStructure,
                         writer: Optional[SourceWriter] = None,
                         type_name: Optional[str] = None) -> str:
    """The record type and global signal of one generated bus.

    ``type_name`` overrides the protocol's record type name, which two
    buses of one protocol but different shapes cannot share.
    """
    w = writer or SourceWriter()
    type_name = type_name or structure.record_type_name
    w.line(f"type {type_name} is record")
    with w.indented():
        if structure.control_lines:
            w.line(", ".join(structure.control_lines) + " : bit ;")
        if structure.id_lines:
            w.line(f"ID : bit_vector({structure.id_lines - 1} downto 0) ;")
        w.line(f"DATA : bit_vector({structure.width - 1} downto 0) ;")
    w.line("end record ;")
    w.blank()
    w.line(f"signal {structure.name} : {type_name} ;")
    return w.text()


# ---------------------------------------------------------------------------
# Procedures (Figure 4 body)
# ---------------------------------------------------------------------------

def _id_literal(structure: BusStructure, channel_name: str) -> Optional[str]:
    bits = structure.ids.code_bits(channel_name)
    return f'"{bits}"' if bits else None


def _is_uniform_loop(proc: CommProcedure, width: int) -> bool:
    """Figure 4's loop shape applies when the procedure's side drives
    (or receives) a single field that fills whole words."""
    layout = proc.layout
    if len(layout.fields) != 1:
        return False
    field = layout.fields[0]
    return field.bits % width == 0 and field.bits // width > 1


def _slice_txt(name: str, hi: int, lo: int) -> str:
    return f"{name}({hi} downto {lo})"


def emit_procedure(proc: CommProcedure, structure: BusStructure,
                   writer: Optional[SourceWriter] = None) -> str:
    """Emit one generated send/receive procedure."""
    w = writer or SourceWriter()
    protocol = structure.protocol.name
    if protocol == "full_handshake":
        _emit_handshake_procedure(proc, structure, w)
    elif protocol == "burst_handshake":
        _emit_burst_procedure(proc, structure, w)
    elif protocol in ("half_handshake", "fixed_delay", "hardwired"):
        _emit_strobed_procedure(proc, structure, w)
    else:
        raise HdlError(f"no VHDL emitter for protocol {protocol!r}")
    return w.text()


def _storage_type(proc: CommProcedure) -> str:
    """VHDL type of the server's storage parameter."""
    variable = proc.channel.variable
    if proc.layout.has_address:
        return f"{variable.name}_type"
    data_bits = proc.layout.field(FieldKind.DATA).bits
    return f"bit_vector({data_bits - 1} downto 0)"


def _formal_params(proc: CommProcedure) -> str:
    params: List[str] = []
    if proc.takes_address:
        bits = proc.layout.field(FieldKind.ADDRESS).bits
        params.append(f"addr : in bit_vector({bits - 1} downto 0)")
    data_bits = proc.layout.field(FieldKind.DATA).bits
    if proc.role is Role.ACCESSOR:
        direction = "in" if proc.sends_data else "out"
        name = "txdata" if proc.sends_data else "rxdata"
        params.append(f"{name} : {direction} bit_vector({data_bits - 1} downto 0)")
    else:
        params.append(f"storage : inout {_storage_type(proc)}")
    return "; ".join(params)


def _field_param_name(proc: CommProcedure, field_kind: FieldKind) -> str:
    if field_kind is FieldKind.ADDRESS:
        return "addr"
    if proc.role is Role.SERVER:
        # Array-channel servers stage the message in locals and commit
        # against storage afterwards; scalar-channel servers move
        # directly to/from the storage parameter (Figure 4 shape).
        return "data" if proc.layout.has_address else "storage"
    return "txdata" if proc.sends_data else "rxdata"


def _server_locals(proc: CommProcedure, w: SourceWriter) -> None:
    """Declare the staging locals of an array-channel server."""
    if not proc.layout.has_address:
        return
    addr_bits = proc.layout.field(FieldKind.ADDRESS).bits
    data_bits = proc.layout.field(FieldKind.DATA).bits
    with w.indented():
        w.line(f"variable addr : bit_vector({addr_bits - 1} downto 0) ;")
        w.line(f"variable data : bit_vector({data_bits - 1} downto 0) ;")


def _server_load_line(proc: CommProcedure) -> str:
    """Fetch the read data from storage once the address is complete."""
    data_bits = proc.layout.field(FieldKind.DATA).bits
    if proc.layout.has_address:
        return (f"data := int2bv(storage(bv2int(addr)), {data_bits}) ;")
    return ""


def _server_commit_line(proc: CommProcedure) -> str:
    """Store a completed write into the served variable."""
    if not proc.layout.has_address:
        return ""
    variable = proc.channel.variable
    dtype = variable.dtype
    assert isinstance(dtype, ArrayType)
    if isinstance(dtype.element, IntType):
        return "storage(bv2int(addr)) := bv2int(data) ;"
    return "storage(bv2int(addr)) := data ;"


def _emit_word_moves(proc: CommProcedure, structure: BusStructure,
                     w: SourceWriter, word, drive: bool) -> None:
    """Assignments moving one word's slices between DATA and params.

    ``drive=True`` emits ``B.DATA(..) <= param(..)`` for slices this
    side drives; ``drive=False`` emits the latching direction for
    slices the other side drives (or, for the accessor of a read, the
    server-driven data it must capture).
    """
    bus = structure.name
    role = proc.role
    # Array-channel servers latch into procedure locals (VHDL variable
    # assignment); everything else moves between signals/params.
    latch_op = ":=" if (role is Role.SERVER and proc.layout.has_address) \
        else "<="
    for word_slice in word.slices:
        param = _field_param_name(proc, word_slice.field.kind)
        mine = word_slice.field.driver is role
        data_hi = word_slice.word_offset + word_slice.bits - 1
        data_lo = word_slice.word_offset
        bus_slice = _slice_txt(f"{bus}.DATA", data_hi, data_lo)
        param_slice = _slice_txt(param, word_slice.field_hi,
                                 word_slice.field_lo)
        if drive and mine:
            w.line(f"{bus_slice} <= {param_slice} ;")
        elif not drive and not mine:
            w.line(f"{param_slice} {latch_op} {bus_slice} ;")


def _emit_handshake_procedure(proc: CommProcedure,
                              structure: BusStructure,
                              w: SourceWriter) -> None:
    bus = structure.name
    id_literal = _id_literal(structure, proc.channel.name)
    w.line(f"procedure {proc.name}( {_formal_params(proc)} ) is")
    if proc.role is Role.SERVER:
        _server_locals(proc, w)
    w.line("begin")
    w.indent()

    width = structure.width
    words = proc.layout.words(width)
    if proc.role is Role.ACCESSOR:
        if id_literal:
            w.line(f"{bus}.ID <= {id_literal} ;")
        if _is_uniform_loop(proc, width):
            param = _field_param_name(proc, proc.layout.fields[0].kind)
            count = len(words)
            w.line(f"for J in 1 to {count} loop")
            with w.indented():
                moved = _slice_txt(param, f"{width}*J-1", f"{width}*(J-1)")
                if proc.sends_data:
                    w.line(f"{bus}.DATA <= {moved} ;")
                w.line(f"{bus}.START <= '1' ;")
                w.line(f"wait until ({bus}.DONE = '1') ;")
                if not proc.sends_data:
                    w.line(f"{moved} <= {bus}.DATA ;")
                w.line(f"{bus}.START <= '0' ;")
                w.line(f"wait until ({bus}.DONE = '0') ;")
            w.line("end loop ;")
        else:
            for word in words:
                w.line(f"-- word {word.index}: message bits "
                       f"{word.msg_hi} downto {word.msg_lo}")
                _emit_word_moves(proc, structure, w, word, drive=True)
                w.line(f"{bus}.START <= '1' ;")
                w.line(f"wait until ({bus}.DONE = '1') ;")
                _emit_word_moves(proc, structure, w, word, drive=False)
                w.line(f"{bus}.START <= '0' ;")
                w.line(f"wait until ({bus}.DONE = '0') ;")
    else:
        guard = f"({bus}.START = '1')"
        if id_literal:
            guard += f" and ({bus}.ID = {id_literal})"
        if _is_uniform_loop(proc, width):
            param = _field_param_name(proc, proc.layout.fields[0].kind)
            count = len(words)
            w.line(f"for J in 1 to {count} loop")
            with w.indented():
                w.line(f"wait until {guard} ;")
                moved = _slice_txt(param, f"{width}*J-1", f"{width}*(J-1)")
                if proc.sends_data:
                    w.line(f"{bus}.DATA <= {moved} ;")
                else:
                    w.line(f"{moved} <= {bus}.DATA ;")
                w.line(f"{bus}.DONE <= '1' ;")
                w.line(f"wait until ({bus}.START = '0') ;")
                w.line(f"{bus}.DONE <= '0' ;")
            w.line("end loop ;")
        else:
            loaded = False
            for word in words:
                w.line(f"-- word {word.index}: message bits "
                       f"{word.msg_hi} downto {word.msg_lo}")
                w.line(f"wait until {guard} ;")
                _emit_word_moves(proc, structure, w, word, drive=False)
                if proc.sends_data and not loaded and \
                        word.slices_driven_by(Role.SERVER):
                    line = _server_load_line(proc)
                    if line:
                        w.line(line)
                    loaded = True
                _emit_word_moves(proc, structure, w, word, drive=True)
                w.line(f"{bus}.DONE <= '1' ;")
                w.line(f"wait until ({bus}.START = '0') ;")
                w.line(f"{bus}.DONE <= '0' ;")
            if not proc.sends_data:
                line = _server_commit_line(proc)
                if line:
                    w.line(line)

    w.dedent()
    w.line(f"end {proc.name} ;")


def _emit_burst_procedure(proc: CommProcedure, structure: BusStructure,
                          w: SourceWriter) -> None:
    """Burst transfer: one START/DONE handshake per message, then one
    word per BUS_WORD_DELAY."""
    bus = structure.name
    id_literal = _id_literal(structure, proc.channel.name)
    w.line(f"procedure {proc.name}( {_formal_params(proc)} ) is")
    if proc.role is Role.SERVER:
        _server_locals(proc, w)
    w.line("begin")
    w.indent()
    words = proc.layout.words(structure.width)
    if proc.role is Role.ACCESSOR:
        if id_literal:
            w.line(f"{bus}.ID <= {id_literal} ;")
        w.line(f"{bus}.START <= '1' ;")
        w.line(f"wait until ({bus}.DONE = '1') ;  -- burst granted")
        for word in words:
            w.line(f"-- word {word.index}: message bits "
                   f"{word.msg_hi} downto {word.msg_lo}")
            _emit_word_moves(proc, structure, w, word, drive=True)
            w.line("wait for BUS_WORD_DELAY ;")
            _emit_word_moves(proc, structure, w, word, drive=False)
        w.line(f"{bus}.START <= '0' ;")
        w.line(f"wait until ({bus}.DONE = '0') ;")
    else:
        guard = f"({bus}.START = '1')"
        if id_literal:
            guard += f" and ({bus}.ID = {id_literal})"
        w.line(f"wait until {guard} ;")
        w.line(f"{bus}.DONE <= '1' ;  -- burst granted")
        loaded = False
        for word in words:
            w.line(f"-- word {word.index}: message bits "
                   f"{word.msg_hi} downto {word.msg_lo}")
            w.line("wait for BUS_WORD_DELAY ;")
            _emit_word_moves(proc, structure, w, word, drive=False)
            if proc.sends_data and not loaded and \
                    word.slices_driven_by(Role.SERVER):
                line = _server_load_line(proc)
                if line:
                    w.line(line)
                loaded = True
            _emit_word_moves(proc, structure, w, word, drive=True)
        if not proc.sends_data:
            line = _server_commit_line(proc)
            if line:
                w.line(line)
        w.line(f"wait until ({bus}.START = '0') ;")
        w.line(f"{bus}.DONE <= '0' ;")
    w.dedent()
    w.line(f"end {proc.name} ;")


def _emit_strobed_procedure(proc: CommProcedure, structure: BusStructure,
                            w: SourceWriter) -> None:
    """One-clock-per-word protocols: half handshake (REQ), fixed delay
    and hardwired (pure timing)."""
    bus = structure.name
    id_literal = _id_literal(structure, proc.channel.name)
    has_req = "REQ" in structure.protocol.control_lines
    w.line(f"procedure {proc.name}( {_formal_params(proc)} ) is")
    if proc.role is Role.SERVER:
        _server_locals(proc, w)
    w.line("begin")
    w.indent()
    words = proc.layout.words(structure.width)
    if proc.role is Role.ACCESSOR and id_literal:
        w.line(f"{bus}.ID <= {id_literal} ;")
    loaded = False
    for word in words:
        w.line(f"-- word {word.index}: message bits "
               f"{word.msg_hi} downto {word.msg_lo}")
        if proc.role is Role.ACCESSOR:
            _emit_word_moves(proc, structure, w, word, drive=True)
            if has_req:
                w.line(f"{bus}.REQ <= not {bus}.REQ ;")
            w.line("wait for BUS_WORD_DELAY ;")
            _emit_word_moves(proc, structure, w, word, drive=False)
        else:
            if has_req:
                w.line(f"wait on {bus}.REQ ;")
            else:
                w.line("wait for BUS_WORD_DELAY ;")
            _emit_word_moves(proc, structure, w, word, drive=False)
            if proc.sends_data and not loaded and \
                    word.slices_driven_by(Role.SERVER):
                line = _server_load_line(proc)
                if line:
                    w.line(line)
                loaded = True
            _emit_word_moves(proc, structure, w, word, drive=True)
    if proc.role is Role.SERVER and not proc.sends_data:
        line = _server_commit_line(proc)
        if line:
            w.line(line)
    w.dedent()
    w.line(f"end {proc.name} ;")


# ---------------------------------------------------------------------------
# Variable processes (Figure 5 bottom)
# ---------------------------------------------------------------------------

def emit_variable_process(process: VariableProcess,
                          structure: BusStructure,
                          writer: Optional[SourceWriter] = None,
                          shared: bool = False) -> str:
    """Emit a generated server process (Figure 5's Xproc / MEMproc).

    A ``shared`` variable is served over several buses: each bus gets
    its own server process (labelled ``<bus>_<process>``) and the
    storage is an architecture-level shared variable instead of a
    process-local one.
    """
    w = writer or SourceWriter()
    bus = structure.name
    variable = process.variable
    if shared:
        w.line(f"{bus}_{process.name} : process")
    else:
        w.line(f"{process.name} : process")
        with w.indented():
            w.line(f"variable {variable.name} : "
                   f"{_var_type_txt(variable)} ;")
    w.line("begin")
    with w.indented():
        watch = f"{bus}.ID" if structure.id_lines else f"{bus}.START" \
            if "START" in structure.protocol.control_lines else f"{bus}.DATA"
        w.line(f"wait on {watch} ;")
        first = True
        for service in process.services:
            id_literal = _id_literal(structure, service.channel.name)
            keyword = "if" if first else "elsif"
            first = False
            if id_literal:
                w.line(f"{keyword} ({bus}.ID = {id_literal}) then")
            else:
                w.line(f"{keyword} true then")
            with w.indented():
                args = []
                if service.layout.has_address:
                    # The server receives the address from the bus; the
                    # storage parameter covers data.
                    pass
                args.append(variable.name)
                w.line(f"{service.server.name}({', '.join(args)}) ;")
        w.line("end if ;")
    w.line("end process ;")
    return w.text()


# ---------------------------------------------------------------------------
# Behaviors (Figure 5 top)
# ---------------------------------------------------------------------------

def _emit_stmt(stmt: Stmt, w: SourceWriter) -> None:
    if isinstance(stmt, Assign):
        target = stmt.target
        if isinstance(target, ElementTarget):
            lhs = f"{target.variable.name}({vhdl_expr(target.index)})"
        else:
            lhs = target.variable.name
        w.line(f"{lhs} <= {vhdl_expr(stmt.expr)} ;")
    elif isinstance(stmt, If):
        w.line(f"if {vhdl_expr(stmt.cond)} then")
        with w.indented():
            for child in stmt.then_body:
                _emit_stmt(child, w)
        if stmt.else_body:
            w.line("else")
            with w.indented():
                for child in stmt.else_body:
                    _emit_stmt(child, w)
        w.line("end if ;")
    elif isinstance(stmt, For):
        w.line(f"for {stmt.var.name} in {stmt.lo} to {stmt.hi} loop")
        with w.indented():
            for child in stmt.body:
                _emit_stmt(child, w)
        w.line("end loop ;")
    elif isinstance(stmt, While):
        w.line(f"while {vhdl_expr(stmt.cond)} loop")
        with w.indented():
            for child in stmt.body:
                _emit_stmt(child, w)
        w.line("end loop ;")
    elif isinstance(stmt, WaitClocks):
        w.line(f"wait for {stmt.clocks} * CLOCK_PERIOD ;")
    elif isinstance(stmt, Call):
        name = getattr(stmt.procedure, "name", str(stmt.procedure))
        args = [vhdl_expr(a) for a in stmt.args]
        for result in stmt.results:
            if isinstance(result, ElementTarget):
                args.append(
                    f"{result.variable.name}({vhdl_expr(result.index)})")
            else:
                args.append(result.variable.name)
        w.line(f"{name}({', '.join(args)}) ;")
    elif isinstance(stmt, Nop):
        w.line("null ;")
    else:
        raise HdlError(f"cannot emit VHDL for statement {stmt!r}")


def emit_behavior(behavior: Behavior,
                  writer: Optional[SourceWriter] = None) -> str:
    """Emit one (possibly refined) behavior as a VHDL process."""
    w = writer or SourceWriter()
    w.line(f"{behavior.name} : process")
    with w.indented():
        for local in behavior.local_variables:
            init = ""
            if local.init is not None and not isinstance(local.init, list):
                init = f" := {local.init}"
            w.line(f"variable {local.name} : {vhdl_type(local.dtype)}{init} ;")
    w.line("begin")
    with w.indented():
        for stmt in behavior.body:
            _emit_stmt(stmt, w)
        w.line("wait ;")
    w.line("end process ;")
    return w.text()


# ---------------------------------------------------------------------------
# Whole design
# ---------------------------------------------------------------------------

_SUPPORT_FUNCTIONS = """\
-- Support declarations generated alongside every refined design.
constant CLOCK_PERIOD : time := 10 ns ;
constant BUS_WORD_DELAY : time := 10 ns ;

function imin(a, b : integer) return integer is
begin
  if a < b then
    return a ;
  else
    return b ;
  end if ;
end imin ;

function imax(a, b : integer) return integer is
begin
  if a > b then
    return a ;
  else
    return b ;
  end if ;
end imax ;

-- Two's-complement conversions between integers and bit vectors.
function int2bv(value : integer ; width : integer) return bit_vector is
  variable result : bit_vector(width - 1 downto 0) ;
  variable remainder : integer ;
begin
  remainder := value ;
  for bitpos in 0 to width - 1 loop
    if (remainder mod 2) /= 0 then
      result(bitpos) := '1' ;
    else
      result(bitpos) := '0' ;
    end if ;
    remainder := remainder / 2 ;
  end loop ;
  return result ;
end int2bv ;

function bv2int(value : bit_vector) return integer is
  variable result : integer := 0 ;
begin
  for bitpos in value'reverse_range loop
    result := result * 2 ;
    if value(bitpos) = '1' then
      result := result + 1 ;
    end if ;
  end loop ;
  return result ;
end bv2int ;"""


def emit_refined_spec(spec: RefinedSpec,
                      entity_name: Optional[str] = None) -> str:
    """Emit a complete refined design: entity, buses, procedures,
    behaviors and variable processes."""
    with obs_span("hdl.emit_vhdl", system=spec.name) as sp:
        text = _emit_refined_spec(spec, entity_name)
        sp.set(lines=text.count("\n") + 1)
    return text


def _emit_refined_spec(spec: RefinedSpec,
                       entity_name: Optional[str] = None) -> str:
    for bus in spec.buses:
        if getattr(bus.structure, "protection", None) is not None:
            raise HdlError(
                f"bus {bus.structure.name}: protected protocols "
                f"({bus.structure.protection.protection.name} check field "
                "+ NACK/retry) have no VHDL emitter yet; re-run without "
                "--protection to emit HDL"
            )
    w = SourceWriter()
    name = entity_name or spec.name
    w.line(f"-- Generated by repro.hdl.vhdl from refined spec {spec.name}")
    w.line(f"entity {name} is")
    w.line(f"end {name} ;")
    w.blank()
    w.line(f"architecture refined of {name} is")
    w.indent()
    for line in _SUPPORT_FUNCTIONS.splitlines():
        w.line(line)
    w.blank()
    # Named array types for every served array variable (the server
    # procedures and variable processes reference them).
    for variable in spec.served_variables():
        if isinstance(variable.dtype, ArrayType):
            w.line(f"type {variable.name}_type is "
                   f"{vhdl_type(variable.dtype)} ;")
    # A variable served over several buses keeps one storage, shared by
    # the server processes of all of them.
    served = Counter(vproc.variable.name
                     for vproc in spec.all_variable_processes())
    shared = {name for name, count in served.items() if count > 1}
    for variable in spec.served_variables():
        if variable.name in shared:
            w.line(f"shared variable {variable.name} : "
                   f"{_var_type_txt(variable)} ;")
    w.blank()
    type_names = Counter(bus.structure.record_type_name
                         for bus in spec.buses)
    for bus in spec.buses:
        type_name = bus.structure.record_type_name
        if type_names[type_name] > 1:
            type_name = f"{type_name}_{bus.structure.name}"
        emit_bus_declaration(bus.structure, w, type_name)
        w.blank()
        for pair in bus.procedures.values():
            emit_procedure(pair.accessor, bus.structure, w)
            w.blank()
            emit_procedure(pair.server, bus.structure, w)
            w.blank()
    w.dedent()
    w.line("begin")
    w.indent()
    for behavior in spec.behaviors:
        emit_behavior(behavior, w)
        w.blank()
    for bus in spec.buses:
        for vproc in bus.variable_processes:
            emit_variable_process(vproc, bus.structure, w,
                                  shared=vproc.variable.name in shared)
            w.blank()
    w.dedent()
    w.line("end refined ;")
    return w.text()

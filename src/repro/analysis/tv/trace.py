"""IR-side effect-trace semantics for translation validation.

The validator's ground truth.  From a behavior's statement IR and the
simulation's elaboration facts it derives what the compiled backend is
*obliged* to emit:

* the canonical **expression lowering** (:class:`ExprLowerer`) -- an
  independent re-statement of the interpreter's evaluation contract
  (eager ``and``/``or``, checked div/mod, value-preserving constant
  folding computed with the IR's own ``evaluate``), built directly as
  ``ast`` nodes at *hint level*: binding names appear as their
  semantic hint (``env_read``, ``div``, ``ixchk_MEM``), the same form
  the source normalizer (:mod:`repro.analysis.tv.pyparse`) reduces
  generated names to;
* the **clock cost model** of :mod:`repro.spec.stmt` (Assign/If test =
  1, For/While per-iteration = 1 + body, WaitClocks(n) = n, Nop = 0);
* the **wrap model**: which dtype wrap every store must carry, and the
  representable-range certificate under which a loop-variable wrap may
  be elided;
* the per-behavior **elaboration facts** (:func:`spec_facts`):
  variable placement modes, contested-variable set, and per-call
  transfer plans (tier, deferred-arbitration eligibility), stated from
  the analysis and channel plan the code generator consumes.

Everything here is pure in the IR + facts: a verdict is a function of
:attr:`BehaviorFacts.key` and the generated source, and the generated
source is a function of that key too, which is why the compiled backend
keys its lowered units on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.sim.compiled.analyze import Analysis, walk_statements
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Environment, Expr, Index, Ref, UnOp
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
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

_EMPTY_ENV = Environment()


def sanitize(name: str) -> str:
    """The code generator's identifier sanitization, restated."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def scalar_bounds(dtype) -> Tuple[int, int]:
    """Representable range of a scalar dtype: the certificate under
    which a loop-variable wrap is the identity and may be elided."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        return -half, half - 1
    return 0, (1 << dtype.bits) - 1


def wrap(dtype, node: ast.expr) -> ast.expr:
    """The mandatory dtype wrap around every stored value."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        mask = (1 << dtype.bits) - 1
        return ast.BinOp(
            ast.BinOp(ast.BinOp(node, ast.Add(), ast.Constant(half)),
                      ast.BitAnd(), ast.Constant(mask)),
            ast.Sub(), ast.Constant(half))
    return ast.BinOp(node, ast.BitAnd(),
                     ast.Constant((1 << dtype.bits) - 1))


# ----------------------------------------------------------------------
# Obligation builders
#
# The obliged lowering is built as the ``ast`` nodes that parsing its
# source text would give -- same node types, fields and ``ctx`` -- so
# :func:`~repro.analysis.tv.pyparse.alpha_equal` compares it with the
# generated code without a parse per obligation.
# ----------------------------------------------------------------------

def name(ident: str) -> ast.Name:
    return ast.Name(ident, ast.Load())


def literal(value) -> ast.expr:
    """A folded constant: a negative one is a unary minus, as its
    source text ``(-<n>)`` parses."""
    if value >= 0:
        return ast.Constant(value)
    return ast.UnaryOp(ast.USub(), ast.Constant(-value))


def call(func: str, *args: ast.expr) -> ast.Call:
    return ast.Call(name(func), list(args), [])


def assign(target: str, value: ast.expr) -> ast.Assign:
    """``<target> = <value>``."""
    return ast.Assign([ast.Name(target, ast.Store())], value)


def effect(value: ast.expr) -> ast.Expr:
    """An expression statement, e.g. ``env_write(v_x, ...)``."""
    return ast.Expr(value)


def checked_index(label: str, temp: str, index: ast.expr, length: int,
                  check: str, ctx: ast.expr_context) -> ast.Subscript:
    """``<label>[<temp> if 0 <= <index> < <length> else
    <check>(<temp>)]``, where ``index`` binds or names ``<temp>``."""
    return ast.Subscript(
        name(label),
        ast.IfExp(
            ast.Compare(ast.Constant(0), [ast.LtE(), ast.Lt()],
                        [index, ast.Constant(length)]),
            name(temp), call(check, name(temp))),
        ctx)


def _truth(test: ast.expr) -> ast.IfExp:
    """``(1 if <test> else 0)``."""
    return ast.IfExp(test, ast.Constant(1), ast.Constant(0))


def _compare(left: ast.expr, op: ast.cmpop, right: ast.expr) -> ast.Compare:
    return ast.Compare(left, [op], [right])


# ----------------------------------------------------------------------
# Elaboration facts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VarInfo:
    """Placement and typing facts for one variable a behavior touches."""

    name: str
    #: "native" (uncontested scalar local), "env" (contested scalar,
    #: flushed environment access) or "array" (aliased backing list).
    mode: str
    #: hint-level storage label: ``_l_<name>`` / ``v_<name>`` /
    #: ``_a_<name>``.
    label: str
    signed: bool
    bits: int
    #: array length (None for scalars).
    length: Optional[int]
    #: loaded in the prologue (original or declared local)?
    loadable: bool
    #: written back in the epilogue (original shared variable)?
    original: bool
    dtype: object
    elem_dtype: object

    @property
    def key(self) -> str:
        return (f"{self.name}:{self.mode}:{self.signed}:{self.bits}:"
                f"{self.length}:{self.loadable}:{self.original}")


@dataclass(frozen=True)
class CallPlan:
    """Transfer facts for one ``Call`` site, from the channel plan."""

    proc_name: str
    bus: str
    channel: str
    mode: str
    deferred: bool
    takes_address: bool
    is_write: bool
    is_read: bool
    var_name: str
    behavior: str

    @property
    def key(self) -> str:
        return (f"{self.proc_name}:{self.bus}:{self.channel}:{self.mode}"
                f":{self.deferred}:{self.takes_address}:{self.is_write}"
                f":{self.is_read}:{self.var_name}")


class BehaviorFacts:
    """Everything :mod:`~repro.analysis.tv.checker` needs to judge one
    behavior's generated source, plus a stable memoization key."""

    def __init__(self, behavior: Behavior, variables: Dict[str, VarInfo],
                 contested: Set[str], call_plans: Dict[int, "CallPlan"]):
        self.behavior = behavior
        self.name = behavior.name
        self.variables = variables
        self.contested = contested
        self.call_plans = call_plans
        plans = ";".join(
            call_plans[id(stmt.procedure)].key
            for stmt in walk_statements(behavior.body)
            if isinstance(stmt, Call)
            and id(stmt.procedure) in call_plans)
        infos = ";".join(v.key for _, v in sorted(variables.items()))
        self.key = (f"{behavior.name}|{infos}|"
                    f"{','.join(sorted(contested))}|{plans}|"
                    f"{ir_fingerprint(behavior)}")

    def info(self, variable: Variable) -> VarInfo:
        return self.variables[variable.name]


def _var_info(variable: Variable, contested: Set[Variable],
              loadable: Set[Variable],
              original: Set[Variable]) -> VarInfo:
    dtype = variable.dtype
    label = sanitize(variable.name)
    if isinstance(dtype, ArrayType):
        mode, name, elem = "array", f"_a_{label}", dtype.element
        length: Optional[int] = dtype.length
    elif variable in contested:
        mode, name, elem = "env", f"v_{label}", dtype
        length = None
    else:
        mode, name, elem = "native", f"_l_{label}", dtype
        length = None
    signed = bool(getattr(elem, "signed", False))
    return VarInfo(
        name=variable.name, mode=mode, label=name, signed=signed,
        bits=elem.bits, length=length,
        loadable=variable in loadable, original=variable in original,
        dtype=dtype, elem_dtype=elem)


def spec_facts(runtime, analysis: Analysis,
               channel_modes: Dict[Tuple[str, str], Tuple[str, str]],
               deferred: frozenset) -> Dict[str, "BehaviorFacts"]:
    """The elaboration facts of every behavior ``analysis`` lets
    compile, under the channel plan the lowering chose: its
    ``(bus, channel) -> (tier, reason)`` modes and the fused channels
    whose arbitration is deferred.

    The validator judges the *generated code* against these facts; its
    independence lives in restating variable placement, wraps, the
    expression lowering and the trace semantics, not in re-planning the
    same channels.
    """
    spec = runtime.spec
    original = set(spec.original.variables)
    contested = {v.name for v in analysis.contested}
    out: Dict[str, BehaviorFacts] = {}
    for behavior in spec.behaviors:
        if behavior.name in analysis.fallbacks:
            continue
        loadable = original | set(behavior.local_variables)
        variables = {
            v.name: _var_info(v, analysis.contested, loadable, original)
            for v in analysis.touches[behavior.name]
        }
        call_plans: Dict[int, CallPlan] = {}
        for stmt in walk_statements(behavior.body):
            if not isinstance(stmt, Call):
                continue
            entry = runtime._proc_map.get(id(stmt.procedure))
            if entry is None:
                continue
            sim_bus, pair = entry
            key = (sim_bus.name, pair.channel.name)
            call_plans[id(stmt.procedure)] = CallPlan(
                proc_name=stmt.procedure.name,
                bus=sim_bus.name,
                channel=pair.channel.name,
                mode=channel_modes[key][0],
                deferred=key in deferred,
                takes_address=stmt.procedure.takes_address,
                is_write=pair.channel.is_write,
                is_read=pair.channel.is_read,
                var_name=pair.channel.variable.name,
                behavior=behavior.name,
            )
        out[behavior.name] = BehaviorFacts(behavior, variables, contested,
                                           call_plans)
    return out


# ----------------------------------------------------------------------
# IR fingerprint (cache key component)
# ----------------------------------------------------------------------

def expr_fingerprint(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"C{expr.value}"
    if isinstance(expr, Ref):
        return f"R({expr.variable.name})"
    if isinstance(expr, Index):
        return f"X({expr.variable.name},{expr_fingerprint(expr.index)})"
    if isinstance(expr, BinOp):
        return (f"B({expr.op},{expr_fingerprint(expr.lhs)},"
                f"{expr_fingerprint(expr.rhs)})")
    if isinstance(expr, UnOp):
        return f"U({expr.op},{expr_fingerprint(expr.operand)})"
    return f"?{type(expr).__name__}"


def _target_fingerprint(target) -> str:
    index = target.index_expr()
    if index is None:
        return target.variable.name
    return f"{target.variable.name}[{expr_fingerprint(index)}]"


def _stmt_fingerprint(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        return (f"A({_target_fingerprint(stmt.target)},"
                f"{expr_fingerprint(stmt.expr)})")
    if isinstance(stmt, If):
        return (f"I({expr_fingerprint(stmt.cond)},"
                f"[{_body_fingerprint(stmt.then_body)}],"
                f"[{_body_fingerprint(stmt.else_body)}])")
    if isinstance(stmt, For):
        return (f"F({stmt.var.name},{stmt.lo},{stmt.hi},"
                f"[{_body_fingerprint(stmt.body)}])")
    if isinstance(stmt, While):
        return (f"W({expr_fingerprint(stmt.cond)},"
                f"[{_body_fingerprint(stmt.body)}])")
    if isinstance(stmt, WaitClocks):
        return f"T{stmt.clocks}"
    if isinstance(stmt, Call):
        name = getattr(stmt.procedure, "name", "?")
        args = ",".join(expr_fingerprint(a) for a in stmt.args)
        results = ",".join(_target_fingerprint(r) for r in stmt.results)
        return f"K({name},[{args}],[{results}])"
    if isinstance(stmt, Nop):
        return "N"
    return f"?{type(stmt).__name__}"


def _body_fingerprint(body) -> str:
    return ",".join(_stmt_fingerprint(s) for s in body)


def ir_fingerprint(behavior: Behavior) -> str:
    """Stable serialization of a behavior body: two behaviors with the
    same fingerprint (and facts) have identical validation outcomes."""
    return _body_fingerprint(behavior.body)


# ----------------------------------------------------------------------
# Independent expression lowering (hint-level)
# ----------------------------------------------------------------------

_DIRECT = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_COMPARE = {"=": ast.Eq, "/=": ast.NotEq, "<": ast.Lt, "<=": ast.LtE,
            ">": ast.Gt, ">=": ast.GtE}


class UnprovenExpr(Exception):
    """The IR expression is outside the validated trace algebra."""


class ExprLowerer:
    """Derives the obliged lowering of an IR expression at hint level,
    as the ``ast`` nodes of its source form.

    The walrus temporaries of element reads are named ``_w<n>``; the
    source-side normalizer alpha-renames both sides, so only the order
    and multiplicity of temporaries must agree.
    """

    def __init__(self, facts: BehaviorFacts):
        self.facts = facts
        self._tmp = 0

    def fresh_temp(self) -> str:
        """A temporary: statement-level slots (value, index, result)
        and the walrus of element reads."""
        self._tmp += 1
        return f"_w{self._tmp}"

    def read_scalar(self, variable: Variable) -> ast.expr:
        info = self.facts.info(variable)
        if info.mode == "native":
            return name(info.label)
        return call("env_read", name(info.label))

    def read_element(self, variable: Variable,
                     index: ast.expr) -> ast.Subscript:
        info = self.facts.info(variable)
        temp = self.fresh_temp()
        return checked_index(
            info.label, temp,
            ast.NamedExpr(ast.Name(temp, ast.Store()), index),
            info.length, f"ixchk_{sanitize(variable.name)}", ast.Load())

    def lower(self, expr: Expr) -> ast.expr:
        # Value-preserving constant folding: computed with the IR's own
        # evaluator, so a mis-folded literal in generated code cannot
        # match.  Folds that would raise stay unfolded (the error must
        # surface at simulation time, where the interpreter raises it).
        if expr.is_constant():
            try:
                value = expr.evaluate(_EMPTY_ENV)
            except ReproError:
                pass
            else:
                return literal(value)
        if isinstance(expr, Const):
            return literal(expr.value)
        if isinstance(expr, Ref):
            if isinstance(expr.variable.dtype, ArrayType):
                raise UnprovenExpr(
                    f"whole-array read of {expr.variable.name!r}")
            return self.read_scalar(expr.variable)
        if isinstance(expr, Index):
            return self.read_element(expr.variable,
                                     self.lower(expr.index))
        if isinstance(expr, BinOp):
            lhs = self.lower(expr.lhs)
            rhs = self.lower(expr.rhs)
            op = expr.op
            if op in _DIRECT:
                return ast.BinOp(lhs, _DIRECT[op](), rhs)
            if op in _COMPARE:
                return _truth(_compare(lhs, _COMPARE[op](), rhs))
            if op == "/":
                return call("div", lhs, rhs)
            if op == "mod":
                return call("mod", lhs, rhs)
            if op in ("and", "or"):
                # Eager on both sides, like BinOp.evaluate: a division
                # by zero right of a false `and` must still raise.
                both = ast.BitAnd() if op == "and" else ast.BitOr()
                return _truth(ast.BinOp(
                    _compare(lhs, ast.NotEq(), ast.Constant(0)), both,
                    _compare(rhs, ast.NotEq(), ast.Constant(0))))
            if op in ("min", "max"):
                return call(op, lhs, rhs)
            raise UnprovenExpr(f"unknown binary operator {op!r}")
        if isinstance(expr, UnOp):
            operand = self.lower(expr.operand)
            if expr.op == "-":
                return ast.UnaryOp(ast.USub(), operand)
            if expr.op == "not":
                return _truth(_compare(operand, ast.Eq(),
                                       ast.Constant(0)))
            if expr.op == "abs":
                return call("abs", operand)
            raise UnprovenExpr(f"unknown unary operator {expr.op!r}")
        raise UnprovenExpr(
            f"unsupported expression {type(expr).__name__}")


def reads_contested(stmt: Stmt, facts: BehaviorFacts) -> bool:
    """Does the statement's own evaluation read a contested variable?
    (Statement-level, like the code generator's flush test: nested
    bodies are judged at their own statements.)"""
    return any(read.variable.name in facts.contested
               for read in stmt.reads())


def needs_exact_clock(stmt: Stmt, facts: BehaviorFacts) -> bool:
    """Must the batched clock be provably flushed (``t == 0``) before
    this statement's effects?  ``Call`` is judged at its own site: a
    non-deferred transfer always needs the exact clock, a deferred one
    only when its argument evaluation reads contested storage."""
    if isinstance(stmt, Assign):
        return (stmt.target.variable.name in facts.contested
                or reads_contested(stmt, facts))
    if isinstance(stmt, (If, While)):
        return reads_contested(stmt, facts)
    if isinstance(stmt, For):
        return stmt.var.name in facts.contested
    return False

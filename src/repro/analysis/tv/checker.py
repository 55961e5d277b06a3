"""Lockstep translation validation: behavior IR vs emitted Python.

The checker walks the behavior's statement IR and the generated
``run()`` generator's AST *in lockstep*, discharging one proof
obligation per legal codegen transform:

* **clock telescoping** -- every ``t += n`` must equal the documented
  statement cost, every flush must yield exactly ``W(t)`` and reset,
  the ``While`` chunk flush must use the contract threshold, and the
  error path must flush pending clocks before re-raising (else
  **P801**);
* **effect order** -- before any effect on contested storage (and
  before any non-deferred bus transfer) the pending batch must be
  *provably* zero: the symbolic ``t`` state tracks a known integer or
  ``unknown``, and only an explicit flush restores provability (else
  **P802**);
* **wrap soundness** -- every store carries the dtype wrap; a ``For``
  loop may elide the loop-variable wrap only when the checker's own
  range certificate shows every iterate is representable (else
  **P803**);
* **transfer timing** -- a deferred fused transfer must forward the
  live pending batch as its third argument, zero it afterwards, and is
  only accepted where the call's plan grants deferred arbitration
  (else **P804**);
* **algebra membership** -- any construct outside these patterns is
  unprovable (**P805**);
* **value preservation** -- every lowered expression must be
  alpha-equivalent to the checker's independently derived lowering,
  including eager ``and``/``or`` and constant folds computed with the
  IR's own evaluator (else **P806**).

A refutation aborts the walk with the first failed obligation; the
verdict carries a replayable counterexample recipe
(:func:`repro.analysis.tv.replay_backend_divergence`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
)
from repro.analysis.tv import pyparse as P
from repro.analysis.tv.trace import (
    BehaviorFacts,
    CallPlan,
    ExprLowerer,
    UnprovenExpr,
    assign,
    call,
    checked_index,
    effect,
    name,
    needs_exact_clock,
    reads_contested,
    sanitize,
    scalar_bounds,
    wrap,
)
from repro.errors import AnalysisError
from repro.sim.compiled.codegen import CHUNK_CLOCKS
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


class Refutation(Exception):
    """A proof obligation failed: equivalence cannot be certified."""

    def __init__(self, code: str, message: str,
                 lineno: Optional[int] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.lineno = lineno


@dataclass(frozen=True)
class ProcessVerdict:
    """Per-process outcome of the translation-validation pass."""

    behavior: str
    #: "validated" | "refuted" | "fallback"
    status: str
    obligations: int = 0
    reason: str = ""
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def validated(self) -> bool:
        return self.status == "validated"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    def describe(self) -> str:
        if self.status == "validated":
            return f"validated ({self.obligations} obligations)"
        if self.status == "refuted":
            return f"REFUTED ({self.reason})"
        return "interpreter fallback"


@dataclass
class ValidationReport:
    """Whole-spec validation outcome (one verdict per behavior)."""

    system: str
    verdicts: Dict[str, ProcessVerdict] = field(default_factory=dict)
    #: The schedule the facts were derived under -- the counterexample
    #: schedule to replay a refutation against.
    stages: List[List[str]] = field(default_factory=list)

    @property
    def all_validated(self) -> bool:
        return not self.refutations()

    def refutations(self) -> List[ProcessVerdict]:
        return [v for _, v in sorted(self.verdicts.items())
                if v.refuted]

    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for _, verdict in sorted(self.verdicts.items()):
            out.extend(verdict.diagnostics)
        return out

    def obligations(self) -> int:
        return sum(v.obligations for v in self.verdicts.values())

    def verdict_lines(self) -> Dict[str, str]:
        return {name: verdict.describe()
                for name, verdict in sorted(self.verdicts.items())}

    def render_text(self) -> str:
        lines = [f"translation validation: {self.system}"]
        for name, text in self.verdict_lines().items():
            lines.append(f"  {name}: {text}")
        total = self.obligations()
        refuted = len(self.refutations())
        lines.append(f"  {total} obligation(s) discharged, "
                     f"{refuted} refutation(s)")
        return "\n".join(lines)


class _Cursor:
    """Sequential reader over one generated statement list."""

    def __init__(self, stmts: List[ast.stmt]):
        self.stmts = list(stmts)
        self.index = 0

    def peek(self) -> Optional[ast.stmt]:
        if self.index < len(self.stmts):
            return self.stmts[self.index]
        return None

    def next(self, expect: str) -> ast.stmt:
        stmt = self.peek()
        if stmt is None:
            raise Refutation(
                "P805", f"generated code ends where {expect} is "
                "required")
        self.index += 1
        return stmt

    def done(self) -> bool:
        return self.index >= len(self.stmts)


def _targets_t(stmt: ast.stmt) -> bool:
    """Does this statement write the clock accumulator ``t``?"""
    if isinstance(stmt, ast.AugAssign):
        return P.is_name(stmt.target, "t")
    if isinstance(stmt, ast.Assign):
        return any(P.is_name(t, "t") for t in stmt.targets)
    return False


class _Checker:
    """One behavior's lockstep walk.  Raises :class:`Refutation`."""

    def __init__(self, facts: BehaviorFacts):
        self.facts = facts
        self.obligations = 0
        #: Symbolic pending-clock state: a known int, or None (unknown,
        #: e.g. after a loop join).  Effects on contested storage are
        #: only provable when this is exactly 0.
        self.t: Optional[int] = 0
        # Per-IR-statement renamer pair (actual side / expected side):
        # shared across one statement's line group so a temporary
        # defined on one line must be the one consumed on the next.
        self.ren_a = P.Renamer()
        self.ren_e = P.Renamer()

    def _reset_names(self) -> None:
        self.ren_a = P.Renamer()
        self.ren_e = P.Renamer()

    # -- small steps ---------------------------------------------------

    def _discharge(self, count: int = 1) -> None:
        self.obligations += count

    def _bump(self, clocks: int) -> None:
        if self.t is not None:
            self.t += clocks

    def _consume_flush(self, stmt: ast.stmt) -> None:
        """``if t: yield W(t); t = 0`` -- the only mid-body flush form
        (a flush without the reset would double-count on the next
        yield)."""
        body = stmt.body  # type: ignore[attr-defined]
        ok = (len(body) == 2 and P.is_yield_wait_t(body[0])
              and P.is_t_reset(body[1]))
        if not ok:
            raise Refutation(
                "P801", "flush block does not yield exactly the "
                "pending clocks and reset the accumulator",
                P.line_of(stmt))
        self.t = 0
        self._discharge()

    def maybe_flush(self, cur: _Cursor) -> None:
        """Consume any number of flush blocks: a flush is provably
        legal at every statement boundary."""
        while True:
            stmt = cur.peek()
            if stmt is None or not P.flush_test(stmt):
                return
            cur.next("flush block")
            self._consume_flush(stmt)

    def require_exact_clock(self, what: str,
                            lineno: Optional[int]) -> None:
        if self.t != 0:
            pending = ("an unbounded batch" if self.t is None
                       else f"{self.t} pending clock(s)")
            raise Refutation(
                "P802", f"{what} with {pending} unflushed: the effect "
                "would run at a stale simulated clock", lineno)
        self._discharge()

    def expect_tinc(self, cur: _Cursor, clocks: int,
                    what: str) -> None:
        stmt = cur.next(f"clock increment for {what}")
        got = P.tinc(stmt)
        if got is None:
            raise Refutation(
                "P801", f"expected `t += {clocks}` for {what}, found "
                f"`{P.describe_stmt(stmt)}`", P.line_of(stmt))
        if got != clocks:
            raise Refutation(
                "P801", f"{what} costs {clocks} clock(s) but generated "
                f"code accumulates {got}", P.line_of(stmt))
        self._bump(clocks)
        self._discharge()

    # -- expected-block matching --------------------------------------

    def _block_eq(self, actuals: List[ast.stmt],
                  expected: List[ast.stmt]) -> bool:
        snap_a = self.ren_a.snapshot()
        snap_e = self.ren_e.snapshot()
        ok = all(
            P.alpha_equal(a, e, self.ren_a, self.ren_e)
            for a, e in zip(actuals, expected))
        if not ok:
            self.ren_a.restore(snap_a)
            self.ren_e.restore(snap_e)
        return ok

    def match_block(self, cur: _Cursor, expected: List[ast.stmt],
                    what: str,
                    probe: Optional[List[ast.stmt]] = None) -> None:
        """Consume ``len(expected)`` generated statements and prove
        them alpha-equivalent to the obliged lowering.  ``probe`` is
        the *unsoundly unwrapped* variant: matching it (and not the
        wrapped form) is precisely a dropped wrap -> P803."""
        actuals = [cur.next(what) for _ in expected]
        if self._block_eq(actuals, expected):
            self._discharge(len(expected))
            return
        lineno = P.line_of(actuals[0])
        if probe is not None and self._block_eq(actuals, probe):
            raise Refutation(
                "P803", f"{what} omits the dtype wrap and no range "
                "certificate covers the stored value", lineno)
        if any(_targets_t(a) for a in actuals):
            raise Refutation(
                "P801", f"{what} manipulates the clock accumulator "
                "outside the batching contract", lineno)
        raise self._attribute(actuals, expected, what, lineno)

    def _attribute(self, actuals: List[ast.stmt],
                   expected: List[ast.stmt], what: str,
                   lineno: Optional[int]) -> Refutation:
        """A block mismatch is P806 when the statement *shapes* agree
        (same kinds, same stores) and only a value expression differs;
        anything else is outside the algebra (P805)."""
        for actual, exp in zip(actuals, expected):
            if type(actual) is not type(exp):
                return Refutation(
                    "P805", f"{what}: `{P.describe_stmt(actual)}` is "
                    "not in the validated trace algebra",
                    P.line_of(actual))
            same_shape = True
            if isinstance(actual, ast.Assign):
                a_t = P.simple_assign(actual)
                e_t = P.simple_assign(exp)
                if a_t is None or e_t is None:
                    # Non-Name targets (the element-store subscript):
                    # value mismatch there is an expression defect,
                    # anything structural was already probed.
                    same_shape = a_t is None and e_t is None
                else:
                    same_shape = (
                        P.hint_of(a_t.id) == P.hint_of(e_t.id)
                        or (P.is_temp(a_t.id) and P.is_temp(e_t.id)))
            elif isinstance(actual, ast.Expr):
                a_call = actual.value
                e_call = exp.value
                same_shape = (
                    isinstance(a_call, ast.Call)
                    and isinstance(e_call, ast.Call)
                    and isinstance(a_call.func, ast.Name)
                    and isinstance(e_call.func, ast.Name)
                    and P.hint_of(a_call.func.id)
                    == P.hint_of(e_call.func.id))
            if not same_shape:
                return Refutation(
                    "P805", f"{what}: `{P.describe_stmt(actual)}` "
                    "does not have the obliged statement shape",
                    P.line_of(actual))
        return Refutation(
            "P806", f"{what}: lowered expression "
            f"`{P.describe_stmt(actuals[0])}` is not "
            "alpha-equivalent to the interpreter's evaluation",
            lineno)

    # -- whole-source walk --------------------------------------------

    def check(self, tree: ast.Module) -> int:
        if len(tree.body) != 1 \
                or not isinstance(tree.body[0], ast.FunctionDef) \
                or tree.body[0].name != "run" \
                or tree.body[0].args.args \
                or tree.body[0].decorator_list:
            raise Refutation(
                "P805", "generated module is not a single bare "
                "`def run():`")
        fn = tree.body[0]
        if len(fn.body) != 2 or not P.is_t_reset(fn.body[0]) \
                or not isinstance(fn.body[1], ast.Try):
            raise Refutation(
                "P805", "generated body is not `t = 0` followed by "
                "the guarded statement block")
        self._check_handlers(fn.body[1])
        cur = _Cursor(fn.body[1].body)
        self.match_prologue(cur)
        self.match_body(self.facts.behavior.body, cur)
        self.match_final_flush(cur)
        self.match_epilogue(cur)
        if not cur.done():
            stmt = cur.peek()
            raise Refutation(
                "P805", "generated code continues past the behavior's "
                f"last statement: `{P.describe_stmt(stmt)}`",
                P.line_of(stmt))
        return self.obligations

    def _check_handlers(self, guard: ast.Try) -> None:
        """The error path must flush pending clocks before re-raising,
        so a raising statement surfaces at the interpreter's exact
        clock -- and must not swallow ``GeneratorExit``."""
        handlers = guard.handlers
        ok = (
            not guard.orelse and not guard.finalbody
            and len(handlers) == 2
            and P.is_name(handlers[0].type, "GeneratorExit")
            and len(handlers[0].body) == 1
            and isinstance(handlers[0].body[0], ast.Raise)
            and handlers[0].body[0].exc is None
            and P.is_name(handlers[1].type, "BaseException")
            and len(handlers[1].body) == 2
            and P.flush_test(handlers[1].body[0])
            and len(handlers[1].body[0].body) in (1, 2)
            and P.is_yield_wait_t(handlers[1].body[0].body[0])
            and (len(handlers[1].body[0].body) == 1
                 or P.is_t_reset(handlers[1].body[0].body[1]))
            and isinstance(handlers[1].body[1], ast.Raise)
            and handlers[1].body[1].exc is None
        )
        if not ok:
            raise Refutation(
                "P801", "error path does not flush the pending batched "
                "clocks before re-raising", P.line_of(guard))
        self._discharge()

    def match_prologue(self, cur: _Cursor) -> None:
        self._reset_names()
        expected: List[ast.stmt] = [
            assign(info.label,
                   call("env_read", name(f"v_{sanitize(info.name)}")))
            for _, info in sorted(self.facts.variables.items())
            if info.mode in ("native", "array") and info.loadable]
        if expected:
            self.match_block(cur, expected, "prologue load")

    def match_epilogue(self, cur: _Cursor) -> None:
        self._reset_names()
        expected: List[ast.stmt] = [
            effect(call("env_write", name(f"v_{sanitize(info.name)}"),
                        name(info.label)))
            for _, info in sorted(self.facts.variables.items())
            if info.mode == "native" and info.original]
        if not expected:
            return
        actuals = [cur.next("shared-variable write-back")
                   for _ in expected]
        if not self._block_eq(actuals, expected):
            raise Refutation(
                "P802", "shared-variable write-back is missing or out "
                "of order: an original variable's final value would "
                "not reach the environment", P.line_of(actuals[0]))
        self._discharge(len(expected))

    def match_final_flush(self, cur: _Cursor) -> None:
        stmt = cur.next("the end-of-behavior flush")
        if not P.flush_test(stmt):
            raise Refutation(
                "P801", "behavior does not end with the final flush, "
                "so the finish clock is not exact", P.line_of(stmt))
        body = stmt.body
        ok = (len(body) in (1, 2) and P.is_yield_wait_t(body[0])
              and (len(body) == 1 or P.is_t_reset(body[1])))
        if not ok:
            raise Refutation(
                "P801", "final flush does not yield exactly the "
                "pending clocks", P.line_of(stmt))
        self.t = 0
        self._discharge()

    # -- statements ----------------------------------------------------

    def match_body(self, body, cur: _Cursor) -> None:
        for stmt in body:
            self.match_stmt(stmt, cur)

    def match_stmt(self, stmt: Stmt, cur: _Cursor) -> None:
        kind = type(stmt)
        if kind is Nop:
            return
        if kind is WaitClocks:
            if stmt.clocks:
                self.expect_tinc(cur, stmt.clocks,
                                 f"WaitClocks({stmt.clocks})")
            return
        self._reset_names()
        self.maybe_flush(cur)
        if kind is not Call and kind is not For \
                and needs_exact_clock(stmt, self.facts):
            self.require_exact_clock(
                f"{kind.__name__} touching contested storage",
                P.line_of(cur.peek()) if cur.peek() is not None
                else None)
        if kind is Assign:
            self.match_assign(stmt, cur)
        elif kind is If:
            self.match_if(stmt, cur)
        elif kind is For:
            self.match_for(stmt, cur)
        elif kind is While:
            self.match_while(stmt, cur)
        elif kind is Call:
            self.match_call(stmt, cur)
        else:
            raise Refutation(
                "P805", f"statement {kind.__name__} is outside the "
                "validated trace algebra")

    def _lower(self, low: ExprLowerer, expr) -> ast.expr:
        try:
            return low.lower(expr)
        except UnprovenExpr as exc:
            raise Refutation("P805", str(exc))

    def match_assign(self, stmt: Assign, cur: _Cursor) -> None:
        low = ExprLowerer(self.facts)
        target = stmt.target
        info = self.facts.info(target.variable)
        if isinstance(target, ElementTarget):
            value = low.fresh_temp()
            index = low.fresh_temp()
            computed = [assign(value, self._lower(low, stmt.expr)),
                        assign(index, self._lower(low, target.index))]
            store = checked_index(
                info.label, index, name(index), info.length,
                f"ixchk_{sanitize(target.variable.name)}", ast.Store())
            self.match_block(
                cur,
                computed + [ast.Assign(
                    [store], wrap(info.elem_dtype, name(value)))],
                f"element store to {target.variable.name}",
                probe=computed + [ast.Assign([store], name(value))])
        else:
            vcode = self._lower(low, stmt.expr)
            self.match_block(
                cur, [self._store(info, wrap(info.dtype, vcode))],
                f"assignment to {target.variable.name}",
                probe=[self._store(info, vcode)])
        self.expect_tinc(cur, 1, "the assignment")

    def match_if(self, stmt: If, cur: _Cursor) -> None:
        low = ExprLowerer(self.facts)
        node = cur.next("an if statement")
        if not isinstance(node, ast.If):
            raise Refutation(
                "P805", f"expected a lowered If, found "
                f"`{P.describe_stmt(node)}`", P.line_of(node))
        test = node.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.NotEq)
                and P.is_const(test.comparators[0], 0)):
            raise Refutation(
                "P805", "If condition is not the obliged "
                "`<lowered> != 0` form", P.line_of(node))
        self._match_expr_node(test.left, self._lower(low, stmt.cond),
                              "If condition")
        entry = self.t
        self.t = entry
        then_cur = _Cursor(node.body)
        self.expect_tinc(then_cur, 1, "the taken If branch")
        self.match_body(stmt.then_body, then_cur)
        self._finish_cursor(then_cur, "the If then-branch")
        t_then = self.t
        self.t = entry
        else_cur = _Cursor(node.orelse)
        self.expect_tinc(else_cur, 1, "the not-taken If branch")
        self.match_body(stmt.else_body, else_cur)
        self._finish_cursor(else_cur, "the If else-branch")
        t_else = self.t
        self.t = t_then if t_then == t_else else None

    def match_for(self, stmt: For, cur: _Cursor) -> None:
        info = self.facts.info(stmt.var)
        node = cur.next("a lowered For loop")
        if not (isinstance(node, ast.For) and not node.orelse
                and isinstance(node.target, ast.Name)):
            raise Refutation(
                "P805", f"expected a lowered For, found "
                f"`{P.describe_stmt(node)}`", P.line_of(node))
        rng = node.iter
        ok_range = (
            isinstance(rng, ast.Call) and P.is_name(rng.func, "range")
            and len(rng.args) == 2 and not rng.keywords
            and P.literal_int(rng.args[0]) == stmt.lo
            and P.literal_int(rng.args[1]) == stmt.hi + 1)
        if not ok_range:
            raise Refutation(
                "P801", f"For range is not range({stmt.lo}, "
                f"{stmt.hi + 1}): the trip count (and clock count) "
                "diverges", P.line_of(node))
        body_cur = _Cursor(node.body)
        self.t = None  # arbitrary iteration: pending batch unknown
        target = node.target.id
        if info.mode == "env":
            if not P.is_temp(target):
                raise Refutation(
                    "P802", f"contested loop variable "
                    f"{stmt.var.name!r} is kept native instead of "
                    "written through the environment",
                    P.line_of(node))
            head = body_cur.next("the contested loop-variable flush")
            if not P.flush_test(head):
                raise Refutation(
                    "P802", "contested loop variable is written "
                    "without a flush: iterations would publish at "
                    "stale clocks", P.line_of(head))
            self._consume_flush(head)
            self.match_block(
                body_cur,
                [self._store(info, wrap(info.dtype, name(target)))],
                f"loop-variable write of {stmt.var.name}",
                probe=[self._store(info, name(target))])
        elif target == info.label:
            lo_ok, hi_ok = scalar_bounds(info.dtype)
            if not (lo_ok <= stmt.lo and stmt.hi <= hi_ok):
                raise Refutation(
                    "P803", f"loop-variable wrap elided but the range "
                    f"certificate [{lo_ok}, {hi_ok}] does not cover "
                    f"iterates {stmt.lo}..{stmt.hi}", P.line_of(node))
            self._discharge()
        else:
            if not P.is_temp(target):
                raise Refutation(
                    "P805", f"For target {target!r} is neither the "
                    "loop variable's storage nor a raw temporary",
                    P.line_of(node))
            self.match_block(
                body_cur,
                [self._store(info, wrap(info.dtype, name(target)))],
                f"loop-variable wrap of {stmt.var.name}",
                probe=[self._store(info, name(target))])
        self.expect_tinc(body_cur, 1, "each For iteration")
        self.match_body(stmt.body, body_cur)
        self._finish_cursor(body_cur, "the For body")
        self.t = None

    def match_while(self, stmt: While, cur: _Cursor) -> None:
        low = ExprLowerer(self.facts)
        node = cur.next("a lowered While loop")
        if not (isinstance(node, ast.While)
                and P.is_const(node.test, True) and not node.orelse):
            raise Refutation(
                "P805", f"expected a lowered `while True:`, found "
                f"`{P.describe_stmt(node)}`", P.line_of(node))
        body_cur = _Cursor(node.body)
        self.t = None
        head = body_cur.next("the While chunk flush")
        threshold = P.chunk_flush_threshold(head)
        if threshold is None:
            raise Refutation(
                "P801", "While loop does not begin with the chunk "
                "flush (`if t >= CHUNK_CLOCKS:`): a long-running loop "
                "would overrun the kernel clock guard",
                P.line_of(head))
        if threshold != CHUNK_CLOCKS:
            raise Refutation(
                "P801", f"chunk flush threshold {threshold} differs "
                f"from the contract ({CHUNK_CLOCKS})", P.line_of(head))
        chunk_body = head.body  # type: ignore[attr-defined]
        ok = (len(chunk_body) == 2
              and P.is_yield_wait_t(chunk_body[0])
              and P.is_t_reset(chunk_body[1]))
        if not ok:
            raise Refutation(
                "P801", "chunk flush does not yield exactly the "
                "pending clocks and reset the accumulator",
                P.line_of(head))
        self._discharge()
        if reads_contested(stmt, self.facts):
            nxt = body_cur.next("the contested-condition flush")
            if not P.flush_test(nxt):
                raise Refutation(
                    "P802", "While condition reads contested storage "
                    "but iterations re-evaluate it without a flush",
                    P.line_of(nxt))
            self._consume_flush(nxt)
        else:
            self.maybe_flush(body_cur)
        exit_node = body_cur.next("the While exit test")
        if not (isinstance(exit_node, ast.If) and not exit_node.orelse):
            raise Refutation(
                "P805", "While exit test is not the obliged "
                "`if <lowered> == 0:` form", P.line_of(exit_node))
        test = exit_node.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and P.is_const(test.comparators[0], 0)):
            raise Refutation(
                "P805", "While exit test is not the obliged "
                "`if <lowered> == 0:` form", P.line_of(exit_node))
        self._match_expr_node(test.left, self._lower(low, stmt.cond),
                              "While condition")
        exit_body = exit_node.body
        ok = (len(exit_body) == 2 and P.tinc(exit_body[0]) == 1
              and isinstance(exit_body[1], ast.Break))
        if not ok:
            raise Refutation(
                "P801", "While exit does not cost exactly one clock "
                "before breaking", P.line_of(exit_node))
        self._discharge()
        self.expect_tinc(body_cur, 1, "each While iteration")
        self.match_body(stmt.body, body_cur)
        self._finish_cursor(body_cur, "the While body")
        self.t = None

    # -- calls ---------------------------------------------------------

    def match_call(self, stmt: Call, cur: _Cursor) -> None:
        plan = self.facts.call_plans.get(id(stmt.procedure))
        if plan is None:
            raise Refutation(
                "P805", "call to a procedure with no recomputed "
                "transfer plan")
        low = ExprLowerer(self.facts)
        lineno = P.line_of(cur.peek()) if cur.peek() is not None \
            else None
        if not plan.deferred or reads_contested(stmt, self.facts):
            self.require_exact_clock(
                f"transfer on {plan.bus}.{plan.channel}", lineno)
        args = list(stmt.args)
        addr_name: Optional[str] = None
        if plan.takes_address:
            addr_name = low.fresh_temp()
            acode = self._lower(low, args.pop(0))
            self.match_block(
                cur,
                [assign(addr_name, acode),
                 effect(call(f"ixchk_{sanitize(plan.var_name)}",
                             name(addr_name)))],
                f"address of {plan.proc_name}")
        data_name: Optional[str] = None
        if plan.is_write:
            data_name = low.fresh_temp()
            dcode = self._lower(low, args[0])
            self.match_block(
                cur,
                [assign(data_name,
                        call(f"pack_{sanitize(plan.var_name)}", dcode))],
                f"data pack of {plan.proc_name}")
        result_tmp = low.fresh_temp()
        xf = f"xf_{sanitize(plan.channel)}_{plan.mode}"
        node = cur.next(f"the {plan.proc_name} transfer")
        if self._is_deferred_transfer(node):
            if not plan.deferred:
                raise Refutation(
                    "P804", f"{plan.bus}.{plan.channel} uses the "
                    "deferred-arbitration form but eligibility "
                    "(immediate arbiter + schedule-ordered accessors "
                    "+ fused tier) cannot be re-proven",
                    P.line_of(node))
            self._match_transfer_call(
                node, xf, addr_name, data_name, result_tmp,
                deferred=True, plan=plan)
            reset = cur.next("the post-transfer accumulator reset")
            if not P.is_t_reset(reset):
                raise Refutation(
                    "P804", "deferred transfer does not zero the "
                    "pending batch it forwarded: clocks would be "
                    "counted twice", P.line_of(reset))
            self.t = 0
            self._discharge(2)
        else:
            self._match_acquired_transfer(
                node, cur, xf, addr_name, data_name, result_tmp, plan)
        if plan.is_read:
            value_tmp = low.fresh_temp()
            target = stmt.results[0]
            info = self.facts.info(target.variable)
            decode = assign(value_tmp,
                            call(f"dec_{sanitize(plan.var_name)}",
                                 name(result_tmp)))
            if isinstance(target, ElementTarget):
                index_tmp = low.fresh_temp()
                icode = self._lower(low, target.index)
                self.match_block(
                    cur,
                    [decode, assign(index_tmp, icode),
                     effect(call(
                         "env_write_element",
                         name(f"v_{sanitize(target.variable.name)}"),
                         name(index_tmp), name(value_tmp)))],
                    f"element result store of {plan.proc_name}")
            else:
                self.match_block(
                    cur,
                    [decode,
                     self._store(info, wrap(info.dtype, name(value_tmp)))],
                    f"result store of {plan.proc_name}",
                    probe=[decode, self._store(info, name(value_tmp))])

    @staticmethod
    def _is_deferred_transfer(node: ast.stmt) -> bool:
        target = P.simple_assign(node)
        if target is None:
            return False
        transfer = P.yield_from_call(node.value)  # type: ignore
        return transfer is not None and len(transfer.args) == 3

    def _match_transfer_call(self, node: ast.stmt, xf: str,
                             addr_name: Optional[str],
                             data_name: Optional[str],
                             result_tmp: str, deferred: bool,
                             plan: CallPlan) -> None:
        """``<r> = yield from xf_<ch>_<mode>(addr, data[, t])``."""
        args = [ast.Constant(None) if arg is None else name(arg)
                for arg in (addr_name, data_name)]
        if deferred:
            args.append(name("t"))
        expected = [assign(result_tmp,
                           ast.YieldFrom(call(xf, *args)))]
        if self._block_eq([node], expected):
            self._discharge()
            return
        # Wrong third argument (or a missing one) on an otherwise
        # correct deferred transfer is the virtual-grant defect.
        actual = P.yield_from_call(node.value)  # type: ignore
        if deferred and actual is not None \
                and isinstance(actual.func, ast.Name) \
                and P.hint_of(actual.func.id) == xf \
                and not (len(actual.args) == 3
                         and P.is_name(actual.args[2], "t")):
            raise Refutation(
                "P804", f"deferred transfer on {plan.bus}."
                f"{plan.channel} does not forward the live pending "
                "batch as its virtual-grant timestamp",
                P.line_of(node))
        if actual is not None and isinstance(actual.func, ast.Name) \
                and P.hint_of(actual.func.id) != xf:
            raise Refutation(
                "P804", f"transfer on {plan.bus}.{plan.channel} does "
                f"not use the planned {plan.mode} tier "
                f"(found {P.hint_of(actual.func.id)!r})",
                P.line_of(node))
        raise Refutation(
            "P805", f"transfer of {plan.proc_name} does not have the "
            "obliged form", P.line_of(node))

    def _match_acquired_transfer(self, node: ast.stmt, cur: _Cursor,
                                 xf: str, addr_name: Optional[str],
                                 data_name: Optional[str],
                                 result_tmp: str,
                                 plan: CallPlan) -> None:
        """``yield from acq(<me>)`` / ``try: <transfer> finally:
        rel(<me>)`` -- the non-deferred arbitration protocol."""
        me = ast.Constant(self.facts.name)
        acquire = effect(ast.YieldFrom(
            call(f"acq_{sanitize(plan.bus)}", me)))
        if not self._block_eq([node], [acquire]):
            raise Refutation(
                "P805", f"transfer of {plan.proc_name} does not "
                "acquire the bus in the obliged form",
                P.line_of(node))
        self._discharge()
        guarded = cur.next(f"the guarded {plan.proc_name} transfer")
        if not (isinstance(guarded, ast.Try) and not guarded.handlers
                and not guarded.orelse and len(guarded.body) == 1
                and len(guarded.finalbody) == 1):
            raise Refutation(
                "P802", f"transfer of {plan.proc_name} does not "
                "release the bus on every path", P.line_of(guarded))
        release = effect(call(f"rel_{sanitize(plan.bus)}", me))
        if not self._block_eq(list(guarded.finalbody), [release]):
            raise Refutation(
                "P802", f"transfer of {plan.proc_name} does not "
                "release the bus it acquired", P.line_of(guarded))
        self._match_transfer_call(
            guarded.body[0], xf, addr_name, data_name, result_tmp,
            deferred=False, plan=plan)
        self._discharge()

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _store(info, value: ast.expr) -> ast.stmt:
        """A scalar store: a native local's assignment or a contested
        variable's environment write."""
        if info.mode == "native":
            return assign(info.label, value)
        return effect(call("env_write", name(info.label), value))

    def _match_expr_node(self, actual: ast.expr, expected: ast.expr,
                         what: str) -> None:
        if not P.alpha_equal(actual, expected, self.ren_a, self.ren_e):
            raise Refutation(
                "P806", f"{what} is not alpha-equivalent to the "
                "interpreter's evaluation", P.line_of(actual))
        self._discharge()

    def _finish_cursor(self, cur: _Cursor, what: str) -> None:
        self.maybe_flush(cur)
        if not cur.done():
            stmt = cur.peek()
            raise Refutation(
                "P805", f"{what} contains statements beyond the "
                f"behavior's: `{P.describe_stmt(stmt)}`",
                P.line_of(stmt))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

REPLAY_HINT = ("replay with repro.analysis.tv."
               "replay_backend_divergence() to reproduce the "
               "divergence on the real backends")


def validate_behavior(facts: BehaviorFacts, source: str,
                      ) -> Tuple[ast.Module, ProcessVerdict]:
    """Parse one behavior's generated source and judge the tree against
    its facts.  Returns the tree -- the one the compiled backend then
    compiles, so what runs is what was judged -- and the verdict."""
    tree = ast.parse(source)
    try:
        obligations = _Checker(facts).check(tree)
    except Refutation as refutation:
        detail = (f"line {refutation.lineno}"
                  if refutation.lineno is not None else None)
        diagnostic = Diagnostic(
            code=refutation.code,
            severity=Severity.ERROR,
            message=f"{facts.name}: {refutation.message}",
            location=SourceLocation("behavior", facts.name,
                                    detail=detail),
            hint=REPLAY_HINT,
        )
        return tree, ProcessVerdict(
            behavior=facts.name, status="refuted",
            reason=f"{refutation.code}: {refutation.message}",
            diagnostics=(diagnostic,))
    return tree, ProcessVerdict(behavior=facts.name, status="validated",
                                obligations=obligations)


def validate_program(runtime, program=None) -> ValidationReport:
    """The verdicts of every process of an elaborated
    :class:`~repro.sim.runtime.RefinedSimulation`.

    Each lowered unit was proven when it was built
    (:mod:`repro.sim.compiled.codegen`), against the facts of the plan
    it runs under, so this only assembles the units' verdicts."""
    if program is None:
        program = getattr(runtime, "compiled", None)
    if program is None:
        raise AnalysisError(
            "translation validation needs a compiled program; "
            "elaborate with backend='compiled'")
    units = program.lowering.units
    report = ValidationReport(system=runtime.spec.name,
                              stages=[list(s) for s in runtime._stages])
    for behavior in runtime.spec.behaviors:
        name = behavior.name
        if name in units:
            report.verdicts[name] = units[name][0].verdict
        elif name in program.fallbacks:
            report.verdicts[name] = ProcessVerdict(
                behavior=name, status="fallback",
                reason=program.fallbacks[name])
    return report

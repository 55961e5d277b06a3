"""Source-side parsing of emitted specialized Python into the trace
algebra.

The generated code is ordinary Python; this module gives the checker a
*canonical* view of it:

* **alpha-renaming** (:class:`Renamer` + :func:`alpha_equal`): namespace
  bindings ``_b<k>_<hint>`` reduce to their semantic hint (``env_read``,
  ``div``, ``xf_ch0_specialized``) -- binding numbers depend on bind
  order, the hint is the contract -- and compiler temporaries
  (``_t3``, ``_v7``, ``_i8``, ``_f1``, ``_r2``, ``_adr4``, ``_dat5``
  and the validator's own ``_w<n>``) are renamed to ``_x0, _x1, ...``
  in first-occurrence order.  Two fragments are judged equal iff
  they have the same shape and the same renamed names, which makes
  temp names irrelevant while keeping their order and multiplicity
  significant;
* **pattern accessors** for the clock-batching skeleton: ``t += n``
  increments, ``t = 0`` resets, ``yield W(t)`` waits and the
  three-line flush block, so the checker can consume them without
  re-deriving the AST shapes everywhere.

Nothing here judges correctness -- that is
:mod:`repro.analysis.tv.checker`'s job; this module only answers
"what is this statement, canonically?".
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Optional

#: Namespace binding: ``_b12_env_read`` -> hint ``env_read``.
_BIND_RE = re.compile(r"^_b\d+_(.+)$")
#: Compiler temporaries (codegen's ``temp()`` prefixes + the
#: validator's ``_w<n>`` walrus temps).
_TEMP_RE = re.compile(r"^_(?:t|v|i|f|r|w|adr|dat)\d+$")


class Renamer:
    """Alpha-renaming map for one side of one statement comparison."""

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def rename(self, name: str) -> str:
        if not name.startswith("_"):
            return name
        mapped = self._map.get(name)
        if mapped is not None:
            return mapped
        bind = _BIND_RE.match(name)
        if bind:
            return bind.group(1)
        if _TEMP_RE.match(name):
            return self._map.setdefault(name, f"_x{len(self._map)}")
        return name

    def snapshot(self) -> Dict[str, str]:
        return dict(self._map)

    def restore(self, snap: Dict[str, str]) -> None:
        self._map = dict(snap)


def is_temp(name: str) -> bool:
    """Is ``name`` a compiler temporary (subject to alpha-renaming)?"""
    return _TEMP_RE.match(name) is not None


def alpha_equal(actual: ast.AST, expected: ast.AST, ren_a: Renamer,
                ren_e: Renamer) -> bool:
    """Are two AST fragments equal up to alpha-renaming?

    Decides what comparing the two ``ast.dump(..., annotate_fields=
    False)`` strings would decide after renaming every ``Name`` of each
    side with its renamer: same node types, same renamed ``Name`` ids,
    and the same ``repr`` of every other non-AST field value (so ``1``,
    ``True`` and ``1.0`` differ).  Both trees are walked in lockstep in
    :func:`ast.walk` order, so on equal fragments each renamer advances
    exactly as a walk of its own tree would.  The walk stops at the
    first difference and never mutates a node.
    """
    todo = [(actual, expected)]
    # Appending while iterating visits the pairs breadth first.
    for a, e in todo:
        kind = type(a)
        if kind is not type(e):
            return False
        if kind is ast.Name:
            # A Name's only other field is its childless ``ctx``.
            if (ren_a.rename(a.id) != ren_e.rename(e.id)
                    or type(a.ctx) is not type(getattr(e, "ctx", None))):
                return False
            continue
        for field_name in kind._fields:
            va = getattr(a, field_name, None)
            ve = getattr(e, field_name, None)
            if isinstance(va, ast.AST):
                if not isinstance(ve, ast.AST):
                    return False
                todo.append((va, ve))
            elif isinstance(va, list):
                if not isinstance(ve, list) or len(va) != len(ve):
                    return False
                for ia, ie in zip(va, ve):
                    if isinstance(ia, ast.AST):
                        if not isinstance(ie, ast.AST):
                            return False
                        todo.append((ia, ie))
                    elif not _same_value(ia, ie):
                        return False
            elif not _same_value(va, ve):
                return False
    return True


def _same_value(va: object, ve: object) -> bool:
    """Equal ``repr`` of two non-AST field values."""
    if va is ve:
        return True
    if type(va) is not type(ve):
        # A leaf never shares its repr with another type's value, nor
        # with an AST node or a list.
        return False
    if type(va) is int or type(va) is str:
        return va == ve
    return repr(va) == repr(ve)


def hint_of(name: str) -> str:
    """The semantic hint of a (possibly bound) generated name."""
    bind = _BIND_RE.match(name)
    return bind.group(1) if bind else name


def is_name(node: ast.AST, ident: str) -> bool:
    return isinstance(node, ast.Name) and node.id == ident


def is_const(node: ast.AST, value: object) -> bool:
    return (isinstance(node, ast.Constant) and node.value == value
            and type(node.value) is type(value))


def int_const(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def literal_int(node: ast.AST) -> Optional[int]:
    """Like :func:`int_const` but also reads ``-<n>`` literals (the
    parser represents them as a unary minus)."""
    value = int_const(node)
    if value is not None:
        return value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = int_const(node.operand)
        if inner is not None:
            return -inner
    return None


def tinc(stmt: ast.stmt) -> Optional[int]:
    """``t += n`` -> n; anything else -> None."""
    if (isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.op, ast.Add)
            and is_name(stmt.target, "t")):
        return int_const(stmt.value)
    return None


def is_t_reset(stmt: ast.stmt) -> bool:
    """``t = 0``."""
    return (isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and is_name(stmt.targets[0], "t")
            and is_const(stmt.value, 0))


def yield_wait_arg(stmt: ast.stmt) -> Optional[ast.expr]:
    """``yield W(<arg>)`` -> the arg node; anything else -> None."""
    if not (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Yield)):
        return None
    call = stmt.value.value
    if (isinstance(call, ast.Call) and is_name(call.func, "W")
            and len(call.args) == 1 and not call.keywords):
        return call.args[0]
    return None


def is_yield_wait_t(stmt: ast.stmt) -> bool:
    """``yield W(t)`` exactly."""
    arg = yield_wait_arg(stmt)
    return arg is not None and is_name(arg, "t")


def flush_test(stmt: ast.stmt) -> bool:
    """Is this an ``if t:`` statement (a flush block head)?"""
    return (isinstance(stmt, ast.If) and is_name(stmt.test, "t")
            and not stmt.orelse)


def chunk_flush_threshold(stmt: ast.stmt) -> Optional[int]:
    """``if t >= <K>:`` (a While chunk-flush head) -> K."""
    if not (isinstance(stmt, ast.If) and not stmt.orelse):
        return None
    test = stmt.test
    if (isinstance(test, ast.Compare) and is_name(test.left, "t")
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.GtE)):
        return int_const(test.comparators[0])
    return None


def yield_from_call(node: ast.expr) -> Optional[ast.Call]:
    """``yield from f(...)`` -> the Call node."""
    if isinstance(node, ast.YieldFrom) and isinstance(node.value,
                                                      ast.Call):
        return node.value
    return None


def simple_assign(stmt: ast.stmt) -> Optional[ast.Name]:
    """Single-target ``<name> = ...`` -> the target Name node."""
    if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)):
        return stmt.targets[0]
    return None


def line_of(stmt: ast.stmt) -> Optional[int]:
    return getattr(stmt, "lineno", None)


def describe_stmt(stmt: ast.stmt) -> str:
    """Short source-shaped description for diagnostics."""
    try:
        text = ast.unparse(stmt)
    except Exception:  # pragma: no cover - unparse is best-effort
        text = ast.dump(stmt)
    first = text.splitlines()[0]
    return first if len(first) <= 60 else first[:57] + "..."

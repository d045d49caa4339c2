"""The tree-walking expression interpreter that compiled closures replaced.

A frozen, test-local copy of the per-row ``eval`` the expression nodes
carried before :meth:`repro.engine.expr.Expr.compile` existed: it
re-dispatches on every node for every row and charges each primitive
step to the :class:`EvalContext` as it goes. It is kept only as the
oracle the compiled closures are proven identical against (value,
exception type and message, ``ops`` and ``like_bytes``); nothing in
``src/`` may import it.
"""

from __future__ import annotations

from repro.engine.expr import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    EvalContext,
    Expr,
    ExtractExpr,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    NotExpr,
    RowLayout,
    _like_match,
)
from repro.engine.types import Date, Value
from repro.util.errors import PlanningError

_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

_ARITHMETIC = {"+", "-", "*", "/"}


def reference_eval(expr: Expr, layout: RowLayout, row: tuple,
                   ctx: EvalContext) -> Value:
    """Evaluate *expr* over *row* exactly as the old interpreter did."""
    if isinstance(expr, ColumnRef):
        ctx.ops += 1
        return row[layout.index_of(expr.alias, expr.column)]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp):
        return _binary(expr, layout, row, ctx)
    if isinstance(expr, NotExpr):
        value = reference_eval(expr.operand, layout, row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        return not value
    if isinstance(expr, IsNullExpr):
        value = reference_eval(expr.operand, layout, row, ctx)
        ctx.ops += 1
        is_null = value is None
        return (not is_null) if expr.negated else is_null
    if isinstance(expr, LikeExpr):
        value = reference_eval(expr.operand, layout, row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        if not isinstance(value, str):
            raise PlanningError("LIKE applied to a non-text value")
        ctx.like_bytes += len(value)
        matched = _like_match(value, expr.pattern.split("%"))
        return (not matched) if expr.negated else matched
    if isinstance(expr, InListExpr):
        value = reference_eval(expr.operand, layout, row, ctx)
        ctx.ops += max(1, len(expr.values))
        if value is None:
            return None
        found = any(_compare(value, v) == 0 for v in expr.values if v is not None)
        if not found and any(v is None for v in expr.values):
            return None
        return (not found) if expr.negated else found
    if isinstance(expr, CaseExpr):
        for cond, value in expr.branches:
            ctx.ops += 1
            if reference_eval(cond, layout, row, ctx) is True:
                return reference_eval(value, layout, row, ctx)
        if expr.default is not None:
            return reference_eval(expr.default, layout, row, ctx)
        return None
    if isinstance(expr, ExtractExpr):
        value = reference_eval(expr.operand, layout, row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        if not isinstance(value, Date):
            raise PlanningError("EXTRACT applied to a non-date value")
        if expr.unit == "year":
            return value.year
        if expr.unit == "month":
            return value.month
        if expr.unit == "day":
            return value.day
        raise PlanningError(f"unsupported EXTRACT unit {expr.unit!r}")
    raise AssertionError(f"no reference semantics for {type(expr).__name__}")


def _binary(expr: BinaryOp, layout: RowLayout, row: tuple,
            ctx: EvalContext) -> Value:
    op = expr.op
    if op == "and":
        left = reference_eval(expr.left, layout, row, ctx)
        ctx.ops += 1
        if left is False:
            return False
        right = reference_eval(expr.right, layout, row, ctx)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "or":
        left = reference_eval(expr.left, layout, row, ctx)
        ctx.ops += 1
        if left is True:
            return True
        right = reference_eval(expr.right, layout, row, ctx)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    left = reference_eval(expr.left, layout, row, ctx)
    right = reference_eval(expr.right, layout, row, ctx)
    ctx.ops += 1
    if left is None or right is None:
        return None
    if op in _COMPARISONS:
        return _COMPARISONS[op](_compare(left, right))
    if op in _ARITHMETIC:
        return _arith(op, left, right)
    raise PlanningError(f"unknown operator {op!r}")


def _compare(a: Value, b: Value) -> int:
    if isinstance(a, bool) or isinstance(b, bool):
        a, b = int(a), int(b)  # type: ignore[arg-type]
    try:
        return (a > b) - (a < b)  # type: ignore[operator]
    except TypeError:
        raise PlanningError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        ) from None


def _arith(op: str, a: Value, b: Value) -> Value:
    if isinstance(a, Date) or isinstance(b, Date):
        if op == "-" and isinstance(a, Date) and isinstance(b, Date):
            return a - b
        raise PlanningError(f"unsupported date arithmetic: {op}")
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise PlanningError(f"arithmetic on non-numeric values: {a!r} {op} {b!r}")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        return None
    return a / b

"""Expression trees and their evaluator.

One expression representation is shared by the SQL binder (which
produces it), the optimizer (which estimates selectivities over it),
and the executor (which evaluates it per row). Expressions are bound to
a :class:`RowLayout` — the positional layout of the rows an operator
produces — before evaluation, so evaluation is index-based.

Evaluation is three-valued: comparisons involving NULL yield ``None``
(unknown) and AND/OR follow SQL's truth tables. Filters keep only rows
whose predicate is exactly ``True``.

Every evaluation charges primitive steps to an :class:`EvalContext`, so
the executor can account CPU work per predicate step — the quantity the
paper's ``cpu_operator_cost`` calibration measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.types import Date, Value
from repro.util.errors import PlanningError


class RowLayout:
    """Positional layout of a row: ordered (relation alias, column) slots."""

    def __init__(self, slots: Sequence[Tuple[str, str]]):
        self.slots: Tuple[Tuple[str, str], ...] = tuple(slots)
        self._index: Dict[Tuple[str, str], int] = {}
        for i, slot in enumerate(self.slots):
            # Later duplicates lose; binder guarantees uniqueness.
            self._index.setdefault(slot, i)

    def index_of(self, alias: str, column: str) -> int:
        try:
            return self._index[(alias, column)]
        except KeyError:
            raise PlanningError(
                f"layout has no slot for {alias}.{column}"
            ) from None

    def has(self, alias: str, column: str) -> bool:
        return (alias, column) in self._index

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.slots + other.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return f"RowLayout({['.'.join(s) for s in self.slots]})"


class EvalContext:
    """Accumulates the primitive work performed by expression evaluation."""

    __slots__ = ("ops", "like_bytes")

    def __init__(self):
        self.ops = 0
        self.like_bytes = 0

    def reset(self) -> None:
        self.ops = 0
        self.like_bytes = 0


class Expr:
    """Base class for expression nodes."""

    def bind(self, layout: RowLayout) -> "Expr":
        """Return a copy with column references resolved to slot indexes."""
        raise NotImplementedError

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        raise NotImplementedError

    def columns(self) -> List[Tuple[str, str]]:
        """All (alias, column) references under this node."""
        out: List[Tuple[str, str]] = []
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        raise NotImplementedError

    def op_count(self) -> int:
        """Static count of primitive steps one evaluation performs.

        Used by the optimizer's ``cpu_operator_cost`` charging; the
        executor's dynamic count (which honors short-circuiting) is the
        ground truth.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a column of some relation in scope."""

    alias: str
    column: str
    index: int = -1  # slot position once bound

    def bind(self, layout: RowLayout) -> "ColumnRef":
        return ColumnRef(self.alias, self.column, layout.index_of(self.alias, self.column))

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        ctx.ops += 1
        if self.index < 0:
            raise PlanningError(f"unbound column reference {self.alias}.{self.column}")
        return row[self.index]

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        out.append((self.alias, self.column))

    def op_count(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant."""

    value: Value

    def bind(self, layout: RowLayout) -> "Literal":
        return self

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        return self.value

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        pass

    def op_count(self) -> int:
        return 0

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


#: Comparison operators and their result when compare(a,b) returns c.
_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

_ARITHMETIC = {"+", "-", "*", "/"}


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def bind(self, layout: RowLayout) -> "BinaryOp":
        return BinaryOp(self.op, self.left.bind(layout), self.right.bind(layout))

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        op = self.op
        if op == "and":
            left = self.left.eval(row, ctx)
            ctx.ops += 1
            if left is False:
                return False  # short-circuit
            right = self.right.eval(row, ctx)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.left.eval(row, ctx)
            ctx.ops += 1
            if left is True:
                return True
            right = self.right.eval(row, ctx)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False

        left = self.left.eval(row, ctx)
        right = self.right.eval(row, ctx)
        ctx.ops += 1
        if left is None or right is None:
            return None
        if op in _COMPARISONS:
            return _COMPARISONS[op](_compare(left, right))
        if op in _ARITHMETIC:
            return _arith(op, left, right)
        raise PlanningError(f"unknown operator {op!r}")

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.left._collect_columns(out)
        self.right._collect_columns(out)

    def op_count(self) -> int:
        return 1 + self.left.op_count() + self.right.op_count()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotExpr(Expr):
    """Logical negation (three-valued)."""

    operand: Expr

    def bind(self, layout: RowLayout) -> "NotExpr":
        return NotExpr(self.operand.bind(layout))

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        return not value

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.operand._collect_columns(out)

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class IsNullExpr(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def bind(self, layout: RowLayout) -> "IsNullExpr":
        return IsNullExpr(self.operand.bind(layout), self.negated)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        ctx.ops += 1
        is_null = value is None
        return (not is_null) if self.negated else is_null

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.operand._collect_columns(out)

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def __str__(self) -> str:
        return f"({self.operand} is {'not ' if self.negated else ''}null)"


class LikeExpr(Expr):
    """SQL LIKE with ``%`` and ``_`` wildcards.

    Matching uses the greedy segment algorithm (split the pattern at
    each ``%``, locate every segment left to right), which is linear in
    the subject — a backtracking regex would be quadratic-to-exponential
    on patterns like ``%a%a%a%b``, a denial-of-service a database
    cannot afford.

    Pattern matching is CPU-intensive: evaluation charges one op plus
    the number of subject bytes examined — this is what makes TPC-H Q13
    CPU-bound in this engine, as it is on real hardware.
    """

    __slots__ = ("operand", "pattern", "negated", "_segments")

    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        # Segments between % signs; each is matched literally except
        # that '_' matches any single character.
        self._segments = pattern.split("%")

    def bind(self, layout: RowLayout) -> "LikeExpr":
        return LikeExpr(self.operand.bind(layout), self.pattern, self.negated)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        if not isinstance(value, str):
            raise PlanningError("LIKE applied to a non-text value")
        ctx.like_bytes += len(value)
        matched = _like_match(value, self._segments)
        return (not matched) if self.negated else matched

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.operand._collect_columns(out)

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LikeExpr)
            and self.operand == other.operand
            and self.pattern == other.pattern
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash((type(self), self.operand, self.pattern, self.negated))

    def __str__(self) -> str:
        return f"({self.operand} {'not ' if self.negated else ''}like '{self.pattern}')"


@dataclass(frozen=True)
class InListExpr(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` over constant values."""

    operand: Expr
    values: Tuple[Value, ...]
    negated: bool = False

    def bind(self, layout: RowLayout) -> "InListExpr":
        return InListExpr(self.operand.bind(layout), self.values, self.negated)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        ctx.ops += max(1, len(self.values))
        if value is None:
            return None
        found = any(_compare(value, v) == 0 for v in self.values if v is not None)
        if not found and any(v is None for v in self.values):
            return None  # SQL: x IN (..., NULL) is unknown when not found
        return (not found) if self.negated else found

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.operand._collect_columns(out)

    def op_count(self) -> int:
        return max(1, len(self.values)) + self.operand.op_count()

    def __str__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"({self.operand} {'not ' if self.negated else ''}in ({vals}))"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def bind(self, layout: RowLayout) -> "CaseExpr":
        return CaseExpr(
            tuple((cond.bind(layout), value.bind(layout)) for cond, value in self.branches),
            self.default.bind(layout) if self.default is not None else None,
        )

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        for cond, value in self.branches:
            ctx.ops += 1
            if cond.eval(row, ctx) is True:
                return value.eval(row, ctx)
        if self.default is not None:
            return self.default.eval(row, ctx)
        return None

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        for cond, value in self.branches:
            cond._collect_columns(out)
            value._collect_columns(out)
        if self.default is not None:
            self.default._collect_columns(out)

    def op_count(self) -> int:
        total = 0
        for cond, value in self.branches:
            total += 1 + cond.op_count() + value.op_count()
        if self.default is not None:
            total += self.default.op_count()
        return total

    def __str__(self) -> str:
        parts = " ".join(f"when {c} then {v}" for c, v in self.branches)
        tail = f" else {self.default}" if self.default is not None else ""
        return f"(case {parts}{tail} end)"


@dataclass(frozen=True)
class ExtractExpr(Expr):
    """``EXTRACT(unit FROM date_expr)`` for unit in year/month/day."""

    unit: str
    operand: Expr

    def bind(self, layout: RowLayout) -> "ExtractExpr":
        return ExtractExpr(self.unit, self.operand.bind(layout))

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        ctx.ops += 1
        if value is None:
            return None
        if not isinstance(value, Date):
            raise PlanningError("EXTRACT applied to a non-date value")
        if self.unit == "year":
            return value.year
        if self.unit == "month":
            return value.month
        if self.unit == "day":
            return value.day
        raise PlanningError(f"unsupported EXTRACT unit {self.unit!r}")

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        self.operand._collect_columns(out)

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def __str__(self) -> str:
        return f"extract({self.unit} from {self.operand})"


class SubplanExpr(Expr):
    """Placeholder for an uncorrelated scalar subquery.

    Carries the bound logical query (attached by the binder) and, once
    planned, the costed physical plan (attached by the planner). The
    executor resolves every occurrence to a :class:`Literal` — by
    running the subplan once — before evaluating the enclosing
    expression, so :meth:`eval` is never reached.
    """

    __slots__ = ("logical", "plan")

    def __init__(self, logical, plan=None):
        self.logical = logical
        self.plan = plan

    def bind(self, layout: RowLayout) -> "SubplanExpr":
        return self  # no column references of its own

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        raise PlanningError(
            "scalar subquery was not resolved before evaluation"
        )

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        pass  # uncorrelated: no outer references

    def op_count(self) -> int:
        return 1

    def __str__(self) -> str:
        return "(scalar subquery)"


def map_children(expr: Expr, fn) -> Expr:
    """Rebuild *expr* with *fn* applied to each direct child expression.

    Leaves (column refs, literals, subplans) are returned unchanged;
    callers handle them in their own recursion.
    """
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, NotExpr):
        return NotExpr(fn(expr.operand))
    if isinstance(expr, IsNullExpr):
        return IsNullExpr(fn(expr.operand), expr.negated)
    if isinstance(expr, LikeExpr):
        return LikeExpr(fn(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, InListExpr):
        return InListExpr(fn(expr.operand), expr.values, expr.negated)
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            tuple((fn(c), fn(v)) for c, v in expr.branches),
            fn(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, ExtractExpr):
        return ExtractExpr(expr.unit, fn(expr.operand))
    return expr


def contains_subplan(expr: Optional[Expr]) -> bool:
    """Whether any :class:`SubplanExpr` occurs under *expr*."""
    if expr is None:
        return False
    if isinstance(expr, SubplanExpr):
        return True
    found = False

    def probe(child: Expr) -> Expr:
        nonlocal found
        if contains_subplan(child):
            found = True
        return child

    map_children(expr, probe)
    return found


def _compare(a: Value, b: Value) -> int:
    """Three-way compare of two non-null values."""
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
        # Date arithmetic is normalized by the binder to add_days; here
        # only date - date (day difference) remains meaningful.
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
    if op == "/":
        if b == 0:
            return None  # SQL raises; we follow the "unknown" convention
        return a / b
    raise PlanningError(f"unknown arithmetic operator {op!r}")


def _segment_matches_at(subject: str, position: int, segment: str) -> bool:
    """Whether *segment* (literal text, '_' = any char) matches at *position*."""
    end = position + len(segment)
    if end > len(subject):
        return False
    for offset, ch in enumerate(segment):
        if ch != "_" and subject[position + offset] != ch:
            return False
    return True


def _find_segment(subject: str, start: int, segment: str) -> int:
    """Earliest position >= *start* where *segment* matches, or -1."""
    if not segment:
        return start
    if "_" not in segment:
        return subject.find(segment, start)
    last = len(subject) - len(segment)
    for position in range(start, last + 1):
        if _segment_matches_at(subject, position, segment):
            return position
    return -1


def _like_match(subject: str, segments: List[str]) -> bool:
    """Greedy LIKE matching over pattern *segments* (split at '%').

    A single segment means no '%' in the pattern: exact-length match.
    Otherwise the first segment anchors at the start, the last at the
    end, and every middle segment is located greedily left-to-right —
    the classic linear algorithm for glob matching.
    """
    if len(segments) == 1:
        return len(subject) == len(segments[0]) and \
            _segment_matches_at(subject, 0, segments[0])

    first, *middles, last = segments
    if not _segment_matches_at(subject, 0, first):
        return False
    position = len(first)
    for segment in middles:
        found = _find_segment(subject, position, segment)
        if found < 0:
            return False
        position = found + len(segment)
    tail_start = len(subject) - len(last)
    return tail_start >= position and \
        _segment_matches_at(subject, tail_start, last)


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def and_together(exprs: Sequence[Expr]) -> Optional[Expr]:
    """Combine predicates with AND; ``None`` for an empty list."""
    result: Optional[Expr] = None
    for expr in exprs:
        result = expr if result is None else BinaryOp("and", result, expr)
    return result

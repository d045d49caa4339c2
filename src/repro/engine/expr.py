"""Expression trees and their compiler.

One expression representation is shared by the SQL binder (which
produces it), the optimizer (which estimates selectivities over it),
and the executor. Each executor operator compiles its expressions once,
against the :class:`RowLayout` of the rows it reads (the positional
layout of its input), into closures ``row -> value``: operators and
column slots are chosen at compile time, so no row pays for a dispatch.

Evaluation is three-valued: comparisons involving NULL yield ``None``
(unknown) and AND/OR follow SQL's truth tables. Filters keep only rows
whose predicate is exactly ``True``.

Every evaluation performs primitive steps, the quantity the paper's
``cpu_operator_cost`` calibration measures. A subtree without
``and``/``or``/``CASE`` performs exactly :meth:`Expr.op_count` steps on
every evaluation, NULL or not, so compiling returns that *static* count
and the operator charges ``static x evaluations`` once. Only the
short-circuiting nodes and LIKE's examined subject bytes are counted by
the closures, into an :class:`EvalContext`, as they happen.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.types import Date, Value
from repro.util.errors import PlanningError

#: A compiled expression: the closure and its static op count.
Compiled = Tuple[Callable[[tuple], Value], int]


class RowLayout:
    """Positional layout of a row: ordered (relation alias, column) slots."""

    def __init__(self, slots: Sequence[Tuple[str, str]]):
        self.slots: Tuple[Tuple[str, str], ...] = tuple(slots)
        #: Built on the first lookup: planning makes many layouts (one
        #: per join candidate) that nothing ever looks up.
        self._index: Optional[Dict[Tuple[str, str], int]] = None

    def index_of(self, alias: str, column: str) -> int:
        index = self._index
        if index is None:
            index = self._index = {}
            for i, slot in enumerate(self.slots):
                # Later duplicates lose; binder guarantees uniqueness.
                index.setdefault(slot, i)
        try:
            return index[(alias, column)]
        except KeyError:
            raise PlanningError(
                f"layout has no slot for {alias}.{column}"
            ) from None

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.slots + other.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return f"RowLayout({['.'.join(s) for s in self.slots]})"


class EvalContext:
    """The work compiled closures count as it happens: the steps of
    short-circuiting nodes and the subject bytes LIKE examines."""

    __slots__ = ("ops", "like_bytes", "subplans")

    def __init__(self, subplans: Optional[Dict[int, Value]] = None):
        #: This execution's scalar-subquery values, by ``id`` of their
        #: :class:`SubplanExpr` (see :meth:`SubplanExpr.compile`).
        self.subplans = {} if subplans is None else subplans
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.like_bytes = 0


class Expr:
    """Base class for expression nodes."""

    #: Steps the node itself performs per evaluation, children excluded.
    own_ops = 1

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        """Compile against *layout*: a ``row -> value`` closure and its
        static op count (the steps the closure does not charge to *ctx*).
        """
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Direct child expressions, in evaluation order."""
        return ()

    def columns(self) -> List[Tuple[str, str]]:
        """All (alias, column) references under this node."""
        out: List[Tuple[str, str]] = []
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        for child in self.children():
            child._collect_columns(out)

    def op_count(self) -> int:
        """Primitive steps one evaluation performs.

        Exact for a subtree without ``and``/``or``/``CASE`` (the static
        count :meth:`compile` returns); for those it is the most that can
        happen. The optimizer charges ``cpu_operator_cost`` on it.
        """
        total = self.own_ops
        for child in self.children():
            total += child.op_count()
        return total


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a column of some relation in scope."""

    alias: str
    column: str

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        return operator.itemgetter(layout.index_of(self.alias, self.column)), self.own_ops

    def _collect_columns(self, out: List[Tuple[str, str]]) -> None:
        out.append((self.alias, self.column))

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant."""

    value: Value
    own_ops = 0

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        value = self.value
        return (lambda row: value), self.own_ops

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


#: Comparison operators: the test applied to the three-way compare.
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _divide(a, b):
    return None if b == 0 else a / b  # SQL raises; we follow "unknown"


#: Arithmetic on two plain numbers; anything else goes through _arith.
_ARITHMETIC = {"+": operator.add, "-": operator.sub,
               "*": operator.mul, "/": _divide}
_NUMBERS = frozenset((int, float))
#: Constants a comparison may capture: neither NULL nor bool.
_PLAIN = frozenset((int, float, str, Date))


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        op = self.op
        if op == "and" or op == "or":
            return _connective(self, layout, ctx), 0
        left, left_ops = self.left.compile(layout, ctx)
        right, right_ops = self.right.compile(layout, ctx)
        if op in _COMPARISONS:
            fn = _comparison(_COMPARISONS[op], left, right, self.right)
        elif op in _ARITHMETIC:
            fn = _arithmetic(op, left, right)
        else:
            raise PlanningError(f"unknown operator {op!r}")
        return fn, self.own_ops + left_ops + right_ops

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def op_count(self) -> int:  # the optimizer's hot path: no generic walk
        return self.own_ops + self.left.op_count() + self.right.op_count()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _connective(node: BinaryOp, layout: RowLayout, ctx: EvalContext):
    """AND (decisive value False) or OR (True) over *node*'s left spine.

    ``(a and b) and c`` runs as one loop over a, b, c: each connective
    on the spine takes its step whenever the spine is evaluated, and a
    part runs only while no earlier part was decisive, so the closure
    counts the steps of the parts it reaches.
    """
    op, parts = node.op, []
    while isinstance(node, BinaryOp) and node.op == op:
        parts.append(node.right.compile(layout, ctx))
        node = node.left
    parts.append(node.compile(layout, ctx))
    parts.reverse()
    steps = len(parts) - 1
    decisive = op == "or"

    def connective(row: tuple) -> Value:
        ops = steps
        unknown = False
        for part, part_ops in parts:
            value = part(row)
            ops += part_ops
            if value is decisive:
                ctx.ops += ops
                return decisive
            if value is None:
                unknown = True
        ctx.ops += ops
        return None if unknown else not decisive

    return connective


def _comparison(test, left, right, right_node: Expr):
    """``test(_compare(a, b), 0)``; the three-way formula is inlined for
    every pair but a bool (``_compare`` compares bools as ints). A plain
    literal on the right is held, not called for (~5% of measure_exec)."""
    if isinstance(right_node, Literal) and type(right_node.value) in _PLAIN:
        b = right_node.value

        def compare_constant(row: tuple) -> Value:
            a = left(row)
            if a is None:
                return None
            if type(a) is bool:
                return test(_compare(a, b), 0)
            try:
                return test((a > b) - (a < b), 0)
            except TypeError:
                return test(_compare(a, b), 0)

        return compare_constant

    def compare(row: tuple) -> Value:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        if type(a) is bool or type(b) is bool:
            return test(_compare(a, b), 0)
        try:
            return test((a > b) - (a < b), 0)
        except TypeError:
            return test(_compare(a, b), 0)

    return compare


def _arithmetic(op: str, left, right):
    fast = _ARITHMETIC[op]

    def arithmetic(row: tuple) -> Value:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        if type(a) in _NUMBERS and type(b) in _NUMBERS:
            return fast(a, b)
        return _arith(op, a, b)

    return arithmetic


class _Unary(Expr):
    """A node over one ``operand`` child."""

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)  # type: ignore[attr-defined]

    def op_count(self) -> int:
        return self.own_ops + self.operand.op_count()  # type: ignore[attr-defined]


@dataclass(frozen=True)
class NotExpr(_Unary):
    """Logical negation (three-valued)."""

    operand: Expr

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        operand, ops = self.operand.compile(layout, ctx)

        def negate(row: tuple) -> Value:
            value = operand(row)
            return None if value is None else not value

        return negate, self.own_ops + ops

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class IsNullExpr(_Unary):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        operand, ops = self.operand.compile(layout, ctx)
        if self.negated:
            return (lambda row: operand(row) is not None), self.own_ops + ops
        return (lambda row: operand(row) is None), self.own_ops + ops

    def __str__(self) -> str:
        return f"({self.operand} is {'not ' if self.negated else ''}null)"


@dataclass(frozen=True)
class LikeExpr(_Unary):
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

    operand: Expr
    pattern: str
    negated: bool = False

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        operand, ops = self.operand.compile(layout, ctx)
        # Segments between % signs; each is matched literally except
        # that '_' matches any single character.
        segments, negated = self.pattern.split("%"), self.negated

        def like(row: tuple) -> Value:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise PlanningError("LIKE applied to a non-text value")
            ctx.like_bytes += len(value)
            return _like_match(value, segments) is not negated

        return like, self.own_ops + ops

    def __str__(self) -> str:
        return f"({self.operand} {'not ' if self.negated else ''}like '{self.pattern}')"


@dataclass(frozen=True)
class InListExpr(_Unary):
    """``expr [NOT] IN (v1, v2, ...)`` over constant values."""

    operand: Expr
    values: Tuple[Value, ...]
    negated: bool = False

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        operand, ops = self.operand.compile(layout, ctx)
        present = tuple(v for v in self.values if v is not None)
        # SQL: x IN (..., NULL) is unknown when x matches nothing.
        missing = None if len(present) < len(self.values) else self.negated
        negated = self.negated

        def in_list(row: tuple) -> Value:
            value = operand(row)
            if value is None:
                return None
            for item in present:
                if _compare(value, item) == 0:
                    return not negated
            return missing

        return in_list, self.own_ops + ops

    @property
    def own_ops(self) -> int:
        return max(1, len(self.values))  # one compare step per value

    def __str__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"({self.operand} {'not ' if self.negated else ''}in ({vals}))"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        # A branch costs its test step and condition whenever it is
        # reached, and its value only when taken: counted per row.
        branches = []
        for cond, value in self.branches:
            test, test_ops = cond.compile(layout, ctx)
            result, result_ops = value.compile(layout, ctx)
            branches.append((test, 1 + test_ops, result, result_ops))
        default, default_ops = (
            self.default.compile(layout, ctx) if self.default is not None
            else (None, 0))

        def case(row: tuple) -> Value:
            for test, test_ops, result, result_ops in branches:
                ctx.ops += test_ops
                if test(row) is True:
                    ctx.ops += result_ops
                    return result(row)
            if default is None:
                return None
            ctx.ops += default_ops
            return default(row)

        return case, 0

    def children(self) -> Tuple[Expr, ...]:
        parts = tuple(e for branch in self.branches for e in branch)
        return parts if self.default is None else parts + (self.default,)

    @property
    def own_ops(self) -> int:
        return len(self.branches)  # one test step per branch

    def __str__(self) -> str:
        parts = " ".join(f"when {c} then {v}" for c, v in self.branches)
        tail = f" else {self.default}" if self.default is not None else ""
        return f"(case {parts}{tail} end)"


_EXTRACT_UNITS = {unit: operator.attrgetter(unit)
                  for unit in ("year", "month", "day")}


@dataclass(frozen=True)
class ExtractExpr(_Unary):
    """``EXTRACT(unit FROM date_expr)`` for unit in year/month/day."""

    unit: str
    operand: Expr

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        operand, ops = self.operand.compile(layout, ctx)
        unit = self.unit
        getter = _EXTRACT_UNITS.get(unit)

        def extract(row: tuple) -> Value:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, Date):
                raise PlanningError("EXTRACT applied to a non-date value")
            if getter is None:
                raise PlanningError(f"unsupported EXTRACT unit {unit!r}")
            return getter(value)

        return extract, self.own_ops + ops

    def __str__(self) -> str:
        return f"extract({self.unit} from {self.operand})"


class SubplanExpr(Expr):
    """Placeholder for an uncorrelated scalar subquery.

    Carries the bound logical query (attached by the binder) and, once
    planned, the costed physical plan (attached by the planner). The
    executor runs the subplan once per execution, before the outer
    plan, and hands its value to :meth:`compile` through the context;
    the plan itself is never rewritten, so it can run again. Uncorrelated,
    it has no column references and no children.
    """

    __slots__ = ("logical", "plan")

    def __init__(self, logical, plan=None):
        self.logical = logical
        self.plan = plan

    def compile(self, layout: RowLayout, ctx: EvalContext) -> Compiled:
        try:
            value = ctx.subplans[id(self)]
        except KeyError:
            raise PlanningError(
                "scalar subquery was not resolved before evaluation"
            ) from None
        # Resolved, the subquery is a constant: no steps, like a Literal.
        return (lambda row: value), 0

    def __str__(self) -> str:
        return "(scalar subquery)"


def compile_row(exprs: Sequence[Expr], layout: RowLayout,
                ctx: EvalContext) -> Compiled:
    """Compile *exprs* into one closure building the tuple of their values
    (plain columns and one-element keys skip the list: ~10% each)."""
    compiled = [e.compile(layout, ctx) for e in exprs]
    ops = sum(n for _fn, n in compiled)
    fns = [fn for fn, _n in compiled]
    if len(fns) > 1 and all(isinstance(e, ColumnRef) for e in exprs):
        slots = [layout.index_of(e.alias, e.column) for e in exprs]
        return operator.itemgetter(*slots), ops
    if len(fns) == 1:
        only = fns[0]
        return (lambda row: (only(row),)), ops
    return (lambda row: tuple([fn(row) for fn in fns])), ops


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


def find_subplans(expr: Expr, found: Optional[List[SubplanExpr]] = None
                  ) -> List[SubplanExpr]:
    """All :class:`SubplanExpr` nodes under *expr*, in evaluation order."""
    if found is None:
        found = []
    if isinstance(expr, SubplanExpr):
        found.append(expr)
    else:
        for child in expr.children():
            find_subplans(child, found)
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
    """Arithmetic off the two-plain-numbers path: dates, bools, errors."""
    if isinstance(a, Date) or isinstance(b, Date):
        # Date arithmetic is normalized by the binder to add_days; here
        # only date - date (day difference) remains meaningful.
        if op == "-" and isinstance(a, Date) and isinstance(b, Date):
            return a - b
        raise PlanningError(f"unsupported date arithmetic: {op}")
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise PlanningError(f"arithmetic on non-numeric values: {a!r} {op} {b!r}")
    return _ARITHMETIC[op](a, b)


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

"""Tests for compiled expressions (three-valued logic, LIKE, CASE, op counts)."""

import pytest

from repro.engine.expr import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    EvalContext,
    Expr,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    NotExpr,
    RowLayout,
    and_together,
    conjuncts,
)
from repro.engine.types import Date
from repro.util.errors import PlanningError

LAYOUT = RowLayout([("t", "a"), ("t", "b"), ("t", "c")])


def evaluate(expr: Expr, row: tuple):
    """Compile *expr* against LAYOUT, run it once, charge its static ops."""
    ctx = EvalContext()
    fn, static_ops = expr.compile(LAYOUT, ctx)
    value = fn(row)
    ctx.ops += static_ops
    return value, ctx


def col(name):
    return ColumnRef("t", name)


class TestColumnsAndLiterals:
    def test_column_reads_slot(self):
        value, _ = evaluate(col("b"), (1, 2, 3))
        assert value == 2

    def test_unbound_column_raises(self):
        # A column is resolved to its slot when compiled, not per row.
        with pytest.raises(PlanningError):
            col("a").compile(RowLayout([]), EvalContext())

    def test_unknown_slot_raises(self):
        with pytest.raises(PlanningError):
            ColumnRef("t", "ghost").compile(LAYOUT, EvalContext())

    def test_literal(self):
        value, ctx = evaluate(Literal(42), ())
        assert value == 42
        assert ctx.ops == 0


class TestComparisons:
    @pytest.mark.parametrize("op,expected", [
        ("=", False), ("<>", True), ("<", True),
        ("<=", True), (">", False), (">=", False),
    ])
    def test_operators(self, op, expected):
        value, _ = evaluate(BinaryOp(op, col("a"), col("b")), (1, 2, 3))
        assert value is expected

    def test_null_comparison_is_unknown(self):
        value, _ = evaluate(BinaryOp("=", col("a"), Literal(1)), (None, 2, 3))
        assert value is None

    def test_date_comparison(self):
        row = (Date.parse("1994-01-01"), Date.parse("1994-06-01"), None)
        value, _ = evaluate(BinaryOp("<", col("a"), col("b")), row)
        assert value is True

    def test_mixed_int_float(self):
        value, _ = evaluate(BinaryOp("<", col("a"), Literal(1.5)), (1, 0, 0))
        assert value is True

    def test_incomparable_types_raise(self):
        with pytest.raises(PlanningError):
            evaluate(BinaryOp("<", col("a"), Literal("x")), (1, 0, 0))


class TestBooleanLogic:
    TRUE = Literal(True)
    FALSE = Literal(False)
    NULL = Literal(None)

    @pytest.mark.parametrize("left,right,expected", [
        (TRUE, TRUE, True), (TRUE, FALSE, False), (FALSE, FALSE, False),
        (TRUE, NULL, None), (FALSE, NULL, False), (NULL, NULL, None),
    ])
    def test_and_truth_table(self, left, right, expected):
        value, _ = evaluate(BinaryOp("and", left, right), ())
        assert value is expected

    @pytest.mark.parametrize("left,right,expected", [
        (TRUE, TRUE, True), (TRUE, FALSE, True), (FALSE, FALSE, False),
        (TRUE, NULL, True), (FALSE, NULL, None), (NULL, NULL, None),
    ])
    def test_or_truth_table(self, left, right, expected):
        value, _ = evaluate(BinaryOp("or", left, right), ())
        assert value is expected

    def test_and_short_circuits(self):
        # The right side would raise if evaluated.
        poison = BinaryOp("<", Literal(1), Literal("x"))
        value, _ = evaluate(BinaryOp("and", Literal(False), poison), ())
        assert value is False

    def test_not(self):
        assert evaluate(NotExpr(Literal(True)), ())[0] is False
        assert evaluate(NotExpr(Literal(None)), ())[0] is None


class TestArithmetic:
    def test_basic_math(self):
        expr = BinaryOp("*", BinaryOp("+", col("a"), col("b")), Literal(2))
        assert evaluate(expr, (3, 4, 0))[0] == 14

    def test_division_by_zero_is_null(self):
        assert evaluate(BinaryOp("/", Literal(1), Literal(0)), ())[0] is None

    def test_null_propagates(self):
        assert evaluate(BinaryOp("+", col("a"), Literal(1)), (None, 0, 0))[0] is None

    def test_date_difference(self):
        row = (Date.parse("1994-02-01"), Date.parse("1994-01-01"), None)
        assert evaluate(BinaryOp("-", col("a"), col("b")), row)[0] == 31


class TestLike:
    def test_contains(self):
        expr = LikeExpr(col("c"), "%special%")
        assert evaluate(expr, (0, 0, "a special day"))[0] is True
        assert evaluate(expr, (0, 0, "ordinary"))[0] is False

    def test_anchored(self):
        expr = LikeExpr(col("c"), "PROMO%")
        assert evaluate(expr, (0, 0, "PROMO BRUSHED TIN"))[0] is True
        assert evaluate(expr, (0, 0, "STANDARD PROMO"))[0] is False

    def test_underscore(self):
        expr = LikeExpr(col("c"), "a_c")
        assert evaluate(expr, (0, 0, "abc"))[0] is True
        assert evaluate(expr, (0, 0, "abbc"))[0] is False

    def test_multi_wildcard(self):
        expr = LikeExpr(col("c"), "%special%requests%")
        assert evaluate(expr, (0, 0, "very special customer requests today"))[0] is True
        assert evaluate(expr, (0, 0, "special day no asks"))[0] is False

    def test_negated(self):
        expr = LikeExpr(col("c"), "%x%", negated=True)
        assert evaluate(expr, (0, 0, "abc"))[0] is True

    def test_null_subject(self):
        assert evaluate(LikeExpr(col("c"), "%x%"), (0, 0, None))[0] is None

    def test_regex_metacharacters_escaped(self):
        expr = LikeExpr(col("c"), "a.c")
        assert evaluate(expr, (0, 0, "a.c"))[0] is True
        assert evaluate(expr, (0, 0, "abc"))[0] is False

    def test_charges_bytes(self):
        _value, ctx = evaluate(LikeExpr(col("c"), "%x%"), (0, 0, "hello"))
        assert ctx.like_bytes == 5


class TestOtherPredicates:
    def test_is_null(self):
        assert evaluate(IsNullExpr(col("a")), (None, 0, 0))[0] is True
        assert evaluate(IsNullExpr(col("a")), (1, 0, 0))[0] is False
        assert evaluate(IsNullExpr(col("a"), negated=True), (1, 0, 0))[0] is True

    def test_in_list(self):
        expr = InListExpr(col("a"), (1, 2, 3))
        assert evaluate(expr, (2, 0, 0))[0] is True
        assert evaluate(expr, (9, 0, 0))[0] is False

    def test_in_list_negated(self):
        expr = InListExpr(col("a"), (1, 2), negated=True)
        assert evaluate(expr, (9, 0, 0))[0] is True

    def test_in_list_null_semantics(self):
        # x IN (..., NULL) is unknown when x matches nothing.
        expr = InListExpr(col("a"), (1, None))
        assert evaluate(expr, (9, 0, 0))[0] is None
        assert evaluate(expr, (1, 0, 0))[0] is True

    def test_case(self):
        expr = CaseExpr(
            branches=(
                (BinaryOp("<", col("a"), Literal(10)), Literal("small")),
                (BinaryOp("<", col("a"), Literal(100)), Literal("medium")),
            ),
            default=Literal("large"),
        )
        assert evaluate(expr, (5, 0, 0))[0] == "small"
        assert evaluate(expr, (50, 0, 0))[0] == "medium"
        assert evaluate(expr, (500, 0, 0))[0] == "large"

    def test_case_without_default_yields_null(self):
        expr = CaseExpr(branches=((Literal(False), Literal(1)),))
        assert evaluate(expr, ())[0] is None


class TestExtract:
    def test_units(self):
        from repro.engine.expr import ExtractExpr

        row = (Date.parse("1995-03-17"), 0, 0)
        assert evaluate(ExtractExpr("year", col("a")), row)[0] == 1995
        assert evaluate(ExtractExpr("month", col("a")), row)[0] == 3
        assert evaluate(ExtractExpr("day", col("a")), row)[0] == 17

    def test_null_propagates(self):
        from repro.engine.expr import ExtractExpr

        assert evaluate(ExtractExpr("year", col("a")), (None, 0, 0))[0] is None

    def test_non_date_rejected(self):
        from repro.engine.expr import ExtractExpr

        with pytest.raises(PlanningError):
            evaluate(ExtractExpr("year", col("a")), (5, 0, 0))


class TestHelpers:
    def test_conjuncts_flattens(self):
        expr = BinaryOp("and", BinaryOp("and", Literal(1), Literal(2)), Literal(3))
        assert len(conjuncts(expr)) == 3
        assert conjuncts(None) == []

    def test_and_together_inverse(self):
        parts = [Literal(True), Literal(False), Literal(True)]
        combined = and_together(parts)
        assert conjuncts(combined) == parts
        assert and_together([]) is None

    def test_columns_collects_references(self):
        expr = BinaryOp("and", BinaryOp("<", col("a"), col("b")),
                        LikeExpr(col("c"), "%x%"))
        assert set(expr.columns()) == {("t", "a"), ("t", "b"), ("t", "c")}

    def test_op_count_positive(self):
        expr = BinaryOp("and", BinaryOp("<", col("a"), Literal(1)),
                        IsNullExpr(col("b")))
        assert expr.op_count() >= 4

    def test_layout_concat(self):
        other = RowLayout([("u", "x")])
        combined = LAYOUT.concat(other)
        assert combined.index_of("u", "x") == 3
        assert combined.index_of("t", "a") == 0


class TestCompiledOpCounts:
    """The static count covers plain subtrees; short-circuits count per row."""

    def test_plain_subtree_is_all_static(self):
        expr = BinaryOp("<", BinaryOp("*", col("a"), Literal(2)),
                        InListExpr(col("b"), (1, 2, 3)))
        ctx = EvalContext()
        fn, static_ops = expr.compile(LAYOUT, ctx)
        for row in [(1, 2, 0), (None, None, 0)]:  # NULL skips no step
            fn(row)
        assert static_ops == expr.op_count() == 7
        assert ctx.ops == 0

    def test_and_charges_only_the_parts_it_reaches(self):
        expr = BinaryOp("and", BinaryOp("and", BinaryOp("<", col("a"), Literal(5)),
                                        BinaryOp("<", col("b"), Literal(5))),
                        IsNullExpr(col("c")))
        value, ctx = evaluate(expr, (9, 0, None))
        assert (value, ctx.ops) == (False, 2 + 2)  # both "and" steps, first part
        value, ctx = evaluate(expr, (0, 9, None))
        assert (value, ctx.ops) == (False, 2 + 4)
        value, ctx = evaluate(expr, (0, 0, None))
        assert (value, ctx.ops) == (True, expr.op_count())

    def test_case_charges_the_branch_taken(self):
        expr = CaseExpr(((BinaryOp("<", col("a"), Literal(10)), col("b")),),
                        default=col("c"))
        assert evaluate(expr, (5, 0, 0))[1].ops == 1 + 2 + 1
        assert evaluate(expr, (50, 0, 0))[1].ops == 1 + 2 + 1

    def test_like_bytes_counted_per_row(self):
        ctx = EvalContext()
        fn, _ops = LikeExpr(col("c"), "%x%").compile(LAYOUT, ctx)
        for subject in ("abc", None, "hello"):
            fn((0, 0, subject))
        assert ctx.like_bytes == 8

    def test_children_in_evaluation_order(self):
        expr = CaseExpr(((col("a"), col("b")),), default=col("c"))
        assert expr.children() == (col("a"), col("b"), col("c"))
        assert col("a").children() == ()

"""Property: compiled closures are the old per-row interpreter, exactly.

Random trees over all nine evaluable node kinds, over rows mixing NULL,
bool, int, float (NaN, -0.0, inf), ``Date`` and text, are run through
:meth:`Expr.compile` and through the frozen tree-walking interpreter in
``tests/engine/reference_eval.py``. They must agree on the value (its
type and repr, so ``1``/``True`` and ``0.0``/``-0.0`` differ), on the
exception type and message, and on the work charged: ``ops`` (static
count plus what the closure counted) and ``like_bytes``.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.engine.expr import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    EvalContext,
    ExtractExpr,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    NotExpr,
    RowLayout,
)
from repro.engine.types import Date

from tests.engine.reference_eval import reference_eval

COLUMNS = ("a", "b", "c", "d")
LAYOUT = RowLayout([("t", name) for name in COLUMNS])

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.5, -2.5, math.nan, math.inf]),
    st.sampled_from([Date(1994, 1, 1), Date(1995, 3, 17), Date(1994, 1, 31)]),
    st.text(alphabet="ab", max_size=3),
)
rows = st.tuples(*(values for _ in COLUMNS))

OPERATORS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "and", "or"]


def trees():
    leaves = st.one_of(
        st.sampled_from(COLUMNS).map(lambda name: ColumnRef("t", name)),
        values.map(Literal),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(OPERATORS), children, children).map(
                lambda t: BinaryOp(*t)),
            children.map(NotExpr),
            st.tuples(children, st.booleans()).map(lambda t: IsNullExpr(*t)),
            st.tuples(children, st.text(alphabet="ab%_", max_size=4),
                      st.booleans()).map(lambda t: LikeExpr(*t)),
            st.tuples(children, st.lists(values, max_size=3).map(tuple),
                      st.booleans()).map(lambda t: InListExpr(*t)),
            st.tuples(st.lists(st.tuples(children, children), min_size=1,
                               max_size=2).map(tuple),
                      st.one_of(st.none(), children)).map(lambda t: CaseExpr(*t)),
            st.tuples(st.sampled_from(["year", "month", "day", "week"]),
                      children).map(lambda t: ExtractExpr(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def outcome(value):
    return ("value", type(value), repr(value))


def failure(exc):
    return ("raised", type(exc), str(exc))


def compiled(expr, row):
    ctx = EvalContext()
    try:
        fn, static_ops = expr.compile(LAYOUT, ctx)
        value = fn(row)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return failure(exc), None
    return outcome(value), (ctx.ops + static_ops, ctx.like_bytes)


def interpreted(expr, row):
    ctx = EvalContext()
    try:
        value = reference_eval(expr, LAYOUT, row, ctx)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return failure(exc), None
    return outcome(value), (ctx.ops, ctx.like_bytes)


def short_circuits(expr):
    if isinstance(expr, CaseExpr) or (
            isinstance(expr, BinaryOp) and expr.op in ("and", "or")):
        return True
    return any(short_circuits(child) for child in expr.children())


@given(trees(), rows)
@settings(max_examples=1500, deadline=None)
def test_compiled_matches_reference_interpreter(expr, row):
    # Work charged before an exception is not compared: an operator
    # that raises aborts the plan, and its trace with it.
    assert compiled(expr, row) == interpreted(expr, row)


@given(trees(), st.lists(rows, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_one_compile_serves_many_rows(expr, batch):
    """A closure compiled once charges, over a batch, what the
    interpreter charges row by row."""
    ctx = EvalContext()
    fn, static_ops = expr.compile(LAYOUT, ctx)
    reference = EvalContext()
    for row in batch:
        try:
            expected = outcome(reference_eval(expr, LAYOUT, row, reference))
        except Exception:  # noqa: BLE001 - only clean batches compared
            return
        assert outcome(fn(row)) == expected
    assert ctx.ops + static_ops * len(batch) == reference.ops
    assert ctx.like_bytes == reference.like_bytes
    if not short_circuits(expr):
        assert (ctx.ops, static_ops) == (0, expr.op_count())

"""Property tests: compiled expressions agree with Python semantics.

Random arithmetic/comparison trees over two integer columns are
compiled by the engine and evaluated by a direct Python interpreter;
the results must agree, including SQL's NULL propagation.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.expr import (
    BinaryOp,
    ColumnRef,
    EvalContext,
    IsNullExpr,
    Literal,
    NotExpr,
    RowLayout,
)

LAYOUT = RowLayout([("t", "a"), ("t", "b")])


def run(expr, row, ctx=None):
    """Compile *expr* once and evaluate it over *row*."""
    fn, _static_ops = expr.compile(LAYOUT, ctx if ctx is not None else EvalContext())
    return fn(row)

values = st.one_of(st.integers(min_value=-20, max_value=20), st.none())


def arith_exprs():
    leaves = st.one_of(
        st.just(ColumnRef("t", "a")),
        st.just(ColumnRef("t", "b")),
        st.integers(min_value=-5, max_value=5).map(Literal),
    )

    def extend(children):
        return st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2])
        )

    return st.recursive(leaves, extend, max_leaves=12)


def python_eval(expr, a, b):
    """Reference interpreter with SQL NULL propagation."""
    if isinstance(expr, ColumnRef):
        return a if expr.column == "a" else b
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, NotExpr):
        inner = python_eval(expr.operand, a, b)
        return None if inner is None else (not inner)
    if isinstance(expr, IsNullExpr):
        inner = python_eval(expr.operand, a, b)
        return (inner is not None) if expr.negated else (inner is None)
    assert isinstance(expr, BinaryOp)
    left = python_eval(expr.left, a, b)
    right = python_eval(expr.right, a, b)
    if left is None or right is None:
        return None
    ops = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
        "<": lambda x, y: x < y,
        "<=": lambda x, y: x <= y,
        ">": lambda x, y: x > y,
        ">=": lambda x, y: x >= y,
        "=": lambda x, y: x == y,
        "<>": lambda x, y: x != y,
    }
    return ops[expr.op](left, right)


@given(arith_exprs(), values, values)
@settings(max_examples=200)
def test_arithmetic_matches_python(expr, a, b):
    assert run(expr, (a, b)) == python_eval(expr, a, b)


@given(arith_exprs(), arith_exprs(),
       st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
       values, values)
@settings(max_examples=200)
def test_comparisons_match_python(left, right, op, a, b):
    expr = BinaryOp(op, left, right)
    assert run(expr, (a, b)) == python_eval(expr, a, b)


@given(arith_exprs(), values, values)
@settings(max_examples=100)
def test_is_null_consistent(expr, a, b):
    assert run(IsNullExpr(expr), (a, b)) == (run(expr, (a, b)) is None)


@given(arith_exprs(), values, values)
@settings(max_examples=100)
def test_evaluation_charges_ops(expr, a, b):
    ctx = EvalContext()
    fn, static_ops = expr.compile(LAYOUT, ctx)
    fn((a, b))
    # Literal-only expressions may be free; anything touching a column
    # must charge at least one primitive step. Arithmetic never
    # short-circuits, so every step is static.
    if expr.columns():
        assert static_ops >= 1
    assert (ctx.ops, static_ops) == (0, expr.op_count())

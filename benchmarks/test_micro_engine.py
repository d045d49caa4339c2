"""Engine microbenchmarks.

Unlike the experiment benchmarks (which regenerate the paper's figures
with single-shot runs), these time the substrate's hot paths over many
rounds, so performance regressions in the engine itself are visible in
the pytest-benchmark table: B+-tree lookups, buffer-pool access, LIKE
matching, expression evaluation, and an end-to-end aggregation query.
"""

import pytest

from repro.engine.bufferpool import BufferPool
from repro.engine.database import Database
from repro.engine.expr import (
    BinaryOp,
    ColumnRef,
    EvalContext,
    LikeExpr,
    Literal,
    RowLayout,
)
from repro.engine.index import BPlusTreeIndex
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.trace import WorkTrace


@pytest.fixture(scope="module")
def btree():
    return BPlusTreeIndex.bulk_load("bench", "t", "a", range(100_000))


def test_micro_btree_point_lookup(benchmark, btree):
    def lookups():
        hits = 0
        for key in range(0, 100_000, 997):
            rids, _pages = btree.search(key)
            hits += len(rids)
        return hits

    assert benchmark(lookups) == len(range(0, 100_000, 997))


def test_micro_btree_range_scan(benchmark, btree):
    def scan():
        return sum(1 for _ in btree.range_scan(40_000, 45_000))

    assert benchmark(scan) == 5001


def test_micro_bufferpool_access(benchmark):
    pool = BufferPool(512)
    trace = WorkTrace()

    def churn():
        for page in range(2048):
            pool.access(1, page % 700, trace, sequential=True)
        return pool.hits

    benchmark(churn)


def test_micro_like_matching(benchmark):
    expr = LikeExpr(Literal("the quick brown fox jumps over the lazy dog"),
                    "%quick%lazy%")
    ctx = EvalContext()

    def match():
        result = True
        for _ in range(1000):
            result = expr.eval((), ctx)
        return result

    assert benchmark(match) is True


def test_micro_expression_eval(benchmark):
    layout = RowLayout([("t", "a"), ("t", "b")])
    expr = BinaryOp(
        "and",
        BinaryOp("<", ColumnRef("t", "a"), Literal(500)),
        BinaryOp(">=", BinaryOp("*", ColumnRef("t", "b"), Literal(3)),
                 Literal(10)),
    ).bind(layout)
    rows = [(i, i % 7) for i in range(1000)]
    ctx = EvalContext()

    def evaluate():
        return sum(1 for row in rows if expr.eval(row, ctx) is True)

    benchmark(evaluate)


@pytest.fixture(scope="module")
def agg_db():
    db = Database("micro", memory_pages=4096)
    db.create_table(TableSchema("m", [
        Column("k", ColumnType.INT),
        Column("v", ColumnType.FLOAT),
    ]))
    db.load_rows("m", [(i % 100, float(i)) for i in range(20_000)])
    db.analyze()
    db.warm_cache()
    return db


def test_micro_group_by_query(benchmark, agg_db):
    sql = "select k, sum(v) as s, count(*) as n from m group by k"

    def query():
        return len(agg_db.run_sql(sql).rows)

    assert benchmark(query) == 100

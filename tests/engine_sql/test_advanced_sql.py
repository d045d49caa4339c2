"""Tests for the advanced SQL features: scalar subqueries, DISTINCT
aggregates, and OR-branch factoring."""

import pytest

from repro.engine.database import Database
from repro.engine.expr import BinaryOp, ColumnRef, Literal
from repro.engine.plans import HashJoin, NestedLoopJoin, walk
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.sql.binder import _factor_or
from repro.util.errors import SqlError


@pytest.fixture
def db():
    db = Database("adv", memory_pages=2048)
    db.create_table(TableSchema("t", [
        Column("a", ColumnType.INT),
        Column("b", ColumnType.INT),
    ]))
    db.create_table(TableSchema("u", [
        Column("x", ColumnType.INT),
        Column("y", ColumnType.INT),
    ]))
    db.load_rows("t", [(i, i % 5) for i in range(100)])
    db.load_rows("u", [(i, i * 10) for i in range(20)])
    db.analyze()
    return db


class TestScalarSubqueries:
    def test_in_where(self, db):
        result = db.run_sql(
            "select count(*) as n from t where a > (select avg(x) from u)"
        )
        # avg(u.x) = 9.5; t.a in 10..99 qualify.
        assert result.rows[0][0] == 90

    def test_in_having(self, db):
        result = db.run_sql(
            "select b, sum(a) as s from t group by b "
            "having sum(a) > (select sum(x) from u) order by b"
        )
        # sum(u.x) = 190; per-group sums are 950..1030.
        assert len(result.rows) == 5

    def test_in_select_list(self, db):
        result = db.run_sql(
            "select max(a) - (select max(x) from u) as diff from t"
        )
        assert result.rows[0][0] == 99 - 19

    def test_empty_subquery_yields_null(self, db):
        result = db.run_sql(
            "select count(*) as n from t "
            "where a > (select max(x) from u where x > 1000)"
        )
        assert result.rows[0][0] == 0  # NULL comparison keeps nothing

    def test_multi_column_subquery_rejected(self, db):
        with pytest.raises(SqlError):
            db.run_sql("select a from t where a > (select x, y from u)")

    def test_subquery_executes_once(self, db):
        result = db.run_sql(
            "select count(*) as n from t where a >= (select min(x) from u)"
        )
        # One u-scan charged, not one per t-row: u has 1 page, so the
        # trace's page requests for u stay tiny.
        assert result.rows[0][0] == 100
        assert result.trace.seq_page_requests <= 5

    def test_rerun_plan_runs_its_subquery_again(self, db):
        from repro.optimizer.params import OptimizerParameters
        from repro.optimizer.planner import Planner

        plan = Planner(db.catalog, OptimizerParameters.defaults()).plan_sql(
            "select b, sum(a) as s from t group by b "
            "having sum(a) > (select sum(x) from u where y >= 0) order by b"
        )
        first = db.run_plan(plan)
        second = db.run_plan(plan)  # e.g. a calibration trial after priming
        assert second.rows == first.rows
        assert second.trace.predicate_ops == first.trace.predicate_ops

    def test_nested_subqueries(self, db):
        result = db.run_sql(
            "select count(*) as n from t where a > "
            "(select max(x) from u where x < (select avg(b) from t))"
        )
        # avg(t.b) = 2.0, so the middle query is max(x < 2) = 1.
        assert result.rows[0][0] == 98

    def test_subquery_cost_included_in_estimate(self, db):
        from repro.optimizer.params import OptimizerParameters
        from repro.optimizer.planner import Planner

        planner = Planner(db.catalog, OptimizerParameters.defaults())
        with_sub = planner.plan_sql(
            "select count(*) as n from t where a > (select avg(x) from u)"
        )
        without = planner.plan_sql("select count(*) as n from t where a > 5")
        assert with_sub.est_total_cost > without.est_total_cost


class TestDistinctAggregates:
    def test_count_distinct(self, db):
        result = db.run_sql("select count(distinct b) as n from t")
        assert result.rows[0][0] == 5

    def test_count_distinct_per_group(self, db):
        result = db.run_sql(
            "select b, count(distinct a) as n from t group by b order by b"
        )
        assert all(n == 20 for _b, n in result.rows)

    def test_sum_distinct(self, db):
        db.load_rows("u", [(0, 0), (0, 0)])  # duplicate x=0 rows
        result = db.run_sql("select sum(distinct x) as s from u")
        assert result.rows[0][0] == sum(range(20))

    def test_distinct_and_plain_coexist(self, db):
        result = db.run_sql(
            "select count(distinct b) as d, count(b) as all_rows from t"
        )
        assert result.rows[0] == (5, 100)

    def test_distinct_min_rejected(self, db):
        with pytest.raises(SqlError):
            db.run_sql("select min(distinct a) from t")


class TestOrFactoring:
    def c(self, name):
        return ColumnRef("t", name)

    def test_common_conjunct_extracted(self):
        a = BinaryOp("=", self.c("a"), Literal(1))
        x = BinaryOp("<", self.c("b"), Literal(5))
        y = BinaryOp(">", self.c("b"), Literal(9))
        expr = BinaryOp("or", BinaryOp("and", a, x), BinaryOp("and", a, y))
        factored = _factor_or(expr)
        assert a in factored
        assert len(factored) == 2

    def test_no_common_part_unchanged(self):
        x = BinaryOp("<", self.c("b"), Literal(5))
        y = BinaryOp(">", self.c("b"), Literal(9))
        expr = BinaryOp("or", x, y)
        assert _factor_or(expr) == [expr]

    def test_branch_equal_to_common_collapses(self):
        a = BinaryOp("=", self.c("a"), Literal(1))
        x = BinaryOp("<", self.c("b"), Literal(5))
        expr = BinaryOp("or", BinaryOp("and", a, x), a)
        assert _factor_or(expr) == [a]

    def test_factored_query_matches_naive(self, db):
        sql_or = (
            "select count(*) as n from t, u where "
            "(a = x and b = 0) or (a = x and b = 1)"
        )
        result = db.run_sql(sql_or)
        expected = db.run_sql(
            "select count(*) as n from t, u where a = x and (b = 0 or b = 1)"
        )
        assert result.rows == expected.rows

    def test_factoring_enables_hash_join(self, db):
        result = db.run_sql(
            "select count(*) as n from t, u where "
            "(a = x and b = 0) or (a = x and b = 1)"
        )
        kinds = [type(node) for node in walk(result.plan)]
        assert HashJoin in kinds
        assert NestedLoopJoin not in kinds

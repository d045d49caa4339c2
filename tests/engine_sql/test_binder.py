"""Tests for the binder: name resolution, decorrelation, aggregation."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.expr import ColumnRef, Literal
from repro.engine.plans import AggFunc, JoinType
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.sql.binder import (
    Binder,
    LogicalDerived,
    LogicalJoin,
    LogicalRelation,
)
from repro.engine.types import Date
from repro.util.errors import SqlError


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_table(TableSchema("orders", [
        Column("o_orderkey", ColumnType.INT),
        Column("o_custkey", ColumnType.INT),
        Column("o_orderdate", ColumnType.DATE),
        Column("o_comment", ColumnType.TEXT),
    ]))
    cat.create_table(TableSchema("lineitem", [
        Column("l_orderkey", ColumnType.INT),
        Column("l_quantity", ColumnType.FLOAT),
        Column("l_commitdate", ColumnType.DATE),
        Column("l_receiptdate", ColumnType.DATE),
    ]))
    cat.create_table(TableSchema("customer", [
        Column("c_custkey", ColumnType.INT),
        Column("c_name", ColumnType.TEXT),
    ]))
    return cat


@pytest.fixture
def binder(catalog):
    return Binder(catalog)


class TestNameResolution:
    def test_unqualified_resolves(self, binder):
        query = binder.bind_sql("select o_orderkey from orders")
        assert query.select_exprs == [ColumnRef("orders", "o_orderkey")]
        assert query.select_names == ["o_orderkey"]

    def test_qualified_with_alias(self, binder):
        query = binder.bind_sql("select o.o_orderkey from orders o")
        assert query.select_exprs[0].alias == "o"

    def test_unknown_column(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select nothing from orders")

    def test_unknown_table(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select a from ghost")

    def test_ambiguous_column(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders o1, orders o2"
            )

    def test_duplicate_alias(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select 1 from orders o, lineitem o")

    def test_missing_from_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select 1")


class TestDateFolding:
    def test_date_plus_interval_folds(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders "
            "where o_orderdate < date '1993-07-01' + interval '3' month"
        )
        predicate = query.where[0]
        assert isinstance(predicate.right, Literal)
        assert predicate.right.value == Date.parse("1993-10-01")

    def test_date_minus_interval_days(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders "
            "where o_orderdate <= date '1998-12-01' - interval '90' day"
        )
        assert query.where[0].right.value == Date.parse("1998-09-02")

    def test_interval_on_column_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders "
                "where o_orderdate + interval '1' day > o_orderdate"
            )


class TestDecorrelation:
    def test_exists_becomes_semi_join(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where exists ("
            "  select l_orderkey from lineitem "
            "  where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)"
        )
        join = query.from_tree
        assert isinstance(join, LogicalJoin)
        assert join.join_type is JoinType.SEMI
        assert isinstance(join.right, LogicalRelation)
        assert join.right.table == "lineitem"
        # Both the correlation and the inner predicate ride the condition.
        condition_text = str(join.condition)
        assert "l_orderkey" in condition_text and "o_orderkey" in condition_text
        assert "l_commitdate" in condition_text

    def test_not_exists_becomes_anti_join(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where not exists ("
            "  select 1 from lineitem where l_orderkey = o_orderkey)"
        )
        assert query.from_tree.join_type is JoinType.ANTI

    def test_in_subquery_becomes_semi_join_on_derived(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where o_orderkey in ("
            "  select l_orderkey from lineitem group by l_orderkey "
            "  having sum(l_quantity) > 100)"
        )
        join = query.from_tree
        assert join.join_type is JoinType.SEMI
        assert isinstance(join.right, LogicalDerived)
        assert join.right.query.having is not None

    def test_in_subquery_must_be_single_column(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders where o_orderkey in ("
                "  select l_orderkey, l_quantity from lineitem)"
            )

    def test_exists_in_or_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders "
                "where o_orderkey = 1 or exists (select 1 from lineitem)"
            )


class TestCorrelatedScalarDecorrelation:
    def test_correlated_avg_becomes_grouped_left_join(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where o_custkey < ("
            "  select avg(l_quantity) from lineitem "
            "  where l_orderkey = o_orderkey)"
        )
        join = query.from_tree
        assert isinstance(join, LogicalJoin)
        assert join.join_type is JoinType.LEFT
        derived = join.right
        assert isinstance(derived, LogicalDerived)
        assert derived.column_names[-1] == "scalar_value"
        # The derived query is grouped by the correlation column.
        assert derived.query.group_keys == [ColumnRef("lineitem", "l_orderkey")]
        # The WHERE predicate now compares against the derived column.
        predicate = query.where[0]
        assert ColumnRef(derived.alias, "scalar_value") in (
            predicate.left, predicate.right
        )

    def test_scaled_scalar_also_rewritten(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where o_custkey < ("
            "  select 0.2 * avg(l_quantity) from lineitem "
            "  where l_orderkey = o_orderkey)"
        )
        assert query.from_tree.join_type is JoinType.LEFT

    def test_inner_only_predicates_stay_inside(self, binder):
        query = binder.bind_sql(
            "select o_orderkey from orders where o_custkey < ("
            "  select avg(l_quantity) from lineitem "
            "  where l_orderkey = o_orderkey and l_quantity > 5)"
        )
        derived = query.from_tree.right
        assert len(derived.query.where) == 1  # l_quantity > 5 kept inside

    def test_uncorrelated_scalar_untouched(self, binder):
        from repro.engine.expr import SubplanExpr

        query = binder.bind_sql(
            "select o_orderkey from orders where o_custkey < ("
            "  select avg(l_quantity) from lineitem)"
        )
        assert isinstance(query.from_tree, LogicalRelation)
        predicate = query.where[0]
        assert isinstance(predicate.right, SubplanExpr)

    def test_non_equality_correlation_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders where o_custkey < ("
                "  select avg(l_quantity) from lineitem "
                "  where l_orderkey < o_orderkey)"
            )

    def test_correlated_non_aggregate_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders where o_custkey < ("
                "  select l_quantity from lineitem "
                "  where l_orderkey = o_orderkey)"
            )

    def test_correlated_scalar_in_select_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select (select avg(l_quantity) from lineitem "
                "        where l_orderkey = o_orderkey) from orders"
            )

    def test_correlated_scalar_inside_an_aggregate_rejected(self, binder):
        # The rejection walks aggregate arguments too; it used to stop
        # at the aggregate and leave an unplaceable conjunct to the planner.
        with pytest.raises(SqlError, match="select list"):
            binder.bind_sql(
                "select sum((select avg(l_quantity) from lineitem "
                "            where l_orderkey = o_orderkey)) from orders"
            )


class TestAggregation:
    def test_aggregates_extracted(self, binder):
        query = binder.bind_sql(
            "select o_custkey, count(*) as n, sum(o_orderkey) as s "
            "from orders group by o_custkey"
        )
        assert [spec.func for spec in query.aggregates] == \
            [AggFunc.COUNT_STAR, AggFunc.SUM]
        assert query.group_names == ["o_custkey"]
        # Select expressions reference the aggregate outputs.
        assert query.select_exprs[0] == ColumnRef("_agg", "o_custkey")
        assert query.select_exprs[1] == ColumnRef("_agg", "agg_0")

    def test_expression_over_aggregates(self, binder):
        query = binder.bind_sql(
            "select 100 * sum(o_orderkey) / count(*) from orders"
        )
        expr = query.select_exprs[0]
        refs = {column for _alias, column in expr.columns()}
        assert refs == {"agg_0", "agg_1"}
        assert len(query.aggregates) == 2

    def test_aggregate_under_extract(self, binder):
        # EXTRACT's operand is walked like any other child's.
        query = binder.bind_sql(
            "select extract(year from max(o_orderdate)) from orders"
        )
        assert [spec.func for spec in query.aggregates] == [AggFunc.MAX]
        assert query.select_exprs[0].columns() == [("_agg", "agg_0")]

    def test_duplicate_aggregates_share_spec(self, binder):
        query = binder.bind_sql(
            "select sum(o_orderkey), sum(o_orderkey) from orders"
        )
        assert len(query.aggregates) == 1

    def test_ungrouped_column_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_custkey, count(*) from orders"
            )

    def test_having_rewritten(self, binder):
        query = binder.bind_sql(
            "select o_custkey from orders group by o_custkey "
            "having count(*) > 5"
        )
        refs = {column for _alias, column in query.having.columns()}
        assert refs == {"agg_0"}

    def test_having_without_group_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select o_custkey from orders having o_custkey > 5")

    def test_nested_aggregate_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select sum(count(*)) from orders")

    def test_aggregate_in_where_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql("select 1 from orders where count(*) > 1")


class TestOrderBy:
    def test_by_output_name(self, binder):
        query = binder.bind_sql(
            "select o_custkey, count(*) as n from orders "
            "group by o_custkey order by n desc"
        )
        key = query.order_by[0]
        assert key.expr == ColumnRef("_out", "n")
        assert not key.ascending

    def test_by_matching_expression(self, binder):
        query = binder.bind_sql(
            "select count(*) from orders group by o_custkey order by count(*)"
        )
        assert query.order_by[0].expr.alias == "_out"

    def test_unmatched_expression_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select o_orderkey from orders order by o_custkey + 1"
            )


class TestDerivedTables:
    def test_column_renaming(self, binder):
        query = binder.bind_sql(
            "select c_count, count(*) from ("
            "  select o_custkey, count(*) from orders group by o_custkey"
            ") as co (k, c_count) group by c_count"
        )
        derived = query.from_tree
        assert isinstance(derived, LogicalDerived)
        assert derived.column_names == ["k", "c_count"]

    def test_wrong_column_count_rejected(self, binder):
        with pytest.raises(SqlError):
            binder.bind_sql(
                "select k from (select o_custkey from orders) as d (a, b)"
            )

    def test_left_join_in_from(self, binder):
        query = binder.bind_sql(
            "select c_custkey, count(o_orderkey) from customer "
            "left outer join orders on c_custkey = o_custkey "
            "group by c_custkey"
        )
        join = query.from_tree
        assert join.join_type is JoinType.LEFT
        assert query.aggregates[0].func is AggFunc.COUNT

"""Property tests for the executor's charging and the what-if replay.

Three contracts, each against generated tables (the "seeds"):

* the executor's count-then-charge loops produce the same rows *and*
  the same :class:`WorkTrace` as charging every step one addition at a
  time — the reference is a test-local trace whose bulk-charge method
  always loops — including for operators that start on the fractional
  accumulator a ``Sort`` leaves behind;
* a compiled re-cost program replays the same cost full re-planning
  computes, under arbitrary parameter perturbations;
* the what-if plan-shape cache never serves a program or plan across a
  catalog change — loads, new indexes, and fresh statistics all move
  the fingerprint, and post-change estimates match a fresh planner.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.expr import BinaryOp, ColumnRef, Literal, RowLayout
from repro.engine.plans import (
    AggFunc,
    Aggregate,
    AggSpec,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    Sort,
    SortKey,
)
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.trace import WorkTrace
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.recost import PlanCostRecorder
from repro.optimizer.whatif import WhatIfOptimizer


def build_db(rows, with_index=False):
    db = Database("prop", memory_pages=256)
    db.create_table(TableSchema("t", [
        Column("a", ColumnType.INT),
        Column("b", ColumnType.INT),
        Column("c", ColumnType.TEXT),
    ]))
    db.load_rows("t", rows)
    if with_index:
        db.create_index("t_a_idx", "t", "a")
    db.analyze()
    return db


rows_strategy = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50),
              st.integers(min_value=0, max_value=5),
              st.text(alphabet="abxyz", min_size=0, max_size=8)),
    min_size=0, max_size=120,
)

#: Queries covering the counting operators: scan+filter, aggregation,
#: sort+limit, LIKE byte-matching, and a hash/merge join.
SQLS = (
    "select count(*) as n from t where a < 10",
    "select b, count(*) as n, sum(a) as s from t group by b order by b",
    "select a from t order by a desc limit 7",
    "select count(*) as n from t where c like '%ab%'",
    "select count(*) as n from t t1, t t2 where t1.b = t2.b",
)

#: A ``Sort`` charges before the rest of the plan: a sorted derived
#: table on one join side, and an ``order by … limit`` scalar subquery
#: (subplans run first, so the whole outer query follows the sort).
SORT_FIRST_SQLS = (
    "select count(*) as n, sum(t2.a) as s from "
    "(select a, b from t order by a limit 40) s, t t2 where s.b = t2.b",
    "select b, count(*) as n from t "
    "where a > (select a from t order by a limit 1) group by b",
)


class LoopingTrace(WorkTrace):
    """The reference: every bulk charge is performed one addition at a time."""

    def add_cpu_repeated(self, n, units):
        for _ in range(n):
            self.add_cpu(units)


def _scan(alias):
    node = SeqScan(table_name="t", alias=alias)
    node.layout = RowLayout([(alias, c) for c in ("a", "b", "c")])
    return node


def _sorted(node, alias, ascending=True):
    return Sort(input=node, keys=[SortKey(ColumnRef(alias, "a"), ascending)])


def _count(node, group_by=()):
    return Aggregate(
        input=node, group_keys=list(group_by),
        aggregates=[AggSpec(AggFunc.COUNT_STAR, None, "n"),
                    AggSpec(AggFunc.SUM, ColumnRef("t1", "a"), "s")])


def sorted_side_hash_join():
    """Seq scan, hash join, filter and aggregate, all after a sort."""
    join = HashJoin(outer=_sorted(_scan("t1"), "t1"), inner=_scan("t2"),
                    outer_keys=[ColumnRef("t1", "b")],
                    inner_keys=[ColumnRef("t2", "b")])
    kept = Filter(input=join,
                  predicate=BinaryOp("<", ColumnRef("t2", "a"), Literal(25)))
    return _count(kept, group_by=[ColumnRef("t1", "b")])


def sorted_outer_nested_loop_over_index_scan():
    """Index scan and nested-loop join after a sort + limit."""
    outer = Limit(input=_sorted(_scan("t1"), "t1", ascending=False), count=9)
    inner = IndexScan(table_name="t", alias="t2", index_name="t_a_idx",
                      low=-20, high=20)
    inner.layout = RowLayout([("t2", c) for c in ("a", "b", "c")])
    join = NestedLoopJoin(
        outer=outer, inner=inner,
        predicate=BinaryOp("=", ColumnRef("t1", "b"), ColumnRef("t2", "b")))
    return _count(join)


def merge_join_of_sorted_inputs():
    join = MergeJoin(outer=_sorted(_scan("t1"), "t1"),
                     inner=_sorted(_scan("t2"), "t2"),
                     outer_key=ColumnRef("t1", "a"),
                     inner_key=ColumnRef("t2", "a"))
    return _count(join)


SORT_FIRST_PLANS = (sorted_side_hash_join,
                    sorted_outer_nested_loop_over_index_scan,
                    merge_join_of_sorted_inputs)


def execute(db, plan, trace):
    context = dataclasses.replace(db.execution_context(), trace=trace)
    return Executor(context).run(plan)


@given(rows_strategy)
# Seven rows: 7 * log2(7) sort comparisons leave a fractional accumulator.
@example([(i * 3 - 9, i % 3, "ab" * i) for i in range(7)])
@settings(max_examples=25, deadline=None)
def test_executor_fast_path_bit_identical_to_scalar(rows):
    """Rows and work traces match exactly, plan by plan."""
    fast_db = build_db(rows, with_index=True)
    scalar_db = build_db(rows, with_index=True)
    planner = Planner(fast_db.catalog, OptimizerParameters.defaults())
    plans = [(sql, lambda sql=sql: planner.plan_sql(sql))
             for sql in SQLS + SORT_FIRST_SQLS]
    plans += [(build.__name__, build) for build in SORT_FIRST_PLANS]
    for label, build in plans:
        fast_trace, scalar_trace = WorkTrace(), LoopingTrace()
        fast_rows = execute(fast_db, build(), fast_trace)
        scalar_rows = execute(scalar_db, build(), scalar_trace)
        assert fast_rows == scalar_rows, label
        assert fast_trace == scalar_trace.copy(), label


scale_strategy = st.floats(min_value=0.01, max_value=150.0,
                           allow_nan=False, allow_infinity=False)


@given(rows_strategy,
       st.tuples(scale_strategy, scale_strategy, scale_strategy,
                 scale_strategy))
@settings(max_examples=25, deadline=None)
def test_recost_program_matches_full_replanning(rows, scales):
    """Replayed program cost == full re-plan cost under perturbed P."""
    db = build_db(rows, with_index=True)
    base = OptimizerParameters.defaults()
    perturbed = dataclasses.replace(
        base,
        cpu_tuple_cost=base.cpu_tuple_cost * scales[0],
        cpu_operator_cost=base.cpu_operator_cost * scales[1],
        random_page_cost=base.random_page_cost * scales[2],
        cpu_like_byte_cost=base.cpu_like_byte_cost * scales[3],
    )
    for sql in SQLS:
        recorder = PlanCostRecorder()
        Planner(db.catalog, base).plan_sql(sql, recorder)
        program = recorder.program()
        assert program is not None, (sql, recorder.reason)
        for params in (base, perturbed):
            replayed = program.cost(params)
            full = Planner(db.catalog, params).plan_sql(sql).est_total_cost
            assert replayed == full, (sql, params)


@given(rows_strategy,
       st.lists(st.tuples(st.integers(min_value=-50, max_value=50),
                          st.integers(min_value=0, max_value=5),
                          st.text(alphabet="abxyz", max_size=8)),
                min_size=1, max_size=30))
@settings(max_examples=25, deadline=None)
def test_fingerprint_never_serves_stale_program(rows, extra):
    """Catalog mutations invalidate programs, plans, and estimates."""
    db = build_db(rows)
    optimizer = WhatIfOptimizer(db.catalog)
    sql = "select count(*) as n from t where a < 10"
    optimizer.estimate_query(sql)  # compiles and caches the program

    before = db.catalog.fingerprint()
    db.load_rows("t", extra)
    assert db.catalog.fingerprint() != before, \
        "loading rows must move the fingerprint"
    db.analyze()
    db.create_index("t_b_idx", "t", "b")
    after = db.catalog.fingerprint()
    assert after != before

    # Whatever path answers now (fresh program or fresh plan), it must
    # agree with a from-scratch planner over the mutated catalog.
    estimate = optimizer.estimate_query(sql)
    fresh = Planner(db.catalog, optimizer.params).plan_sql(sql)
    assert estimate.cost_units == fresh.est_total_cost
    # And the program compiled for the new fingerprint replays, under
    # other parameters, the cost a fresh planner computes for them.
    other = dataclasses.replace(optimizer.params, cpu_tuple_cost=0.07)
    assert (optimizer.with_params(other).estimate_query(sql).cost_units
            == Planner(db.catalog, other).plan_sql(sql).est_total_cost)

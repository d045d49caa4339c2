"""Planning and executing a query leave nothing for the cycle collector.

Every statement a design search plans or a measurement executes would
otherwise hand its reference cycles (self-recursive closures, say) to
CPython's full collections, which then walk the whole heap inside some
unrelated operation. The tree walks are plain recursion and the
compiled closures never refer to themselves, so refcounting frees it
all.
"""

import gc

import pytest

from repro import workloads as tpch
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner


def _plan(db, query):
    return Planner(db.catalog, OptimizerParameters.defaults()).plan_sql(
        tpch.tpch_query(query))


# Q11 compares against an uncorrelated scalar subquery, so its run also
# resolves a subplan before compiling the outer expressions.
@pytest.mark.parametrize("query", ["Q1", "Q3", "Q4", "Q11"])
def test_plan_and_run_leave_no_cyclic_garbage(tpch_db, query):
    tpch_db.run_plan(_plan(tpch_db, query))  # first-touch caches
    gc.collect()
    gc.disable()
    try:
        plan = _plan(tpch_db, query)
        assert gc.collect() == 0, f"planning {query} left cyclic garbage"
        result = tpch_db.run_plan(plan)
        del plan, result
        assert gc.collect() == 0, f"running {query} left cyclic garbage"
    finally:
        gc.enable()

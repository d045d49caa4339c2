"""Tests for the virtualization-aware what-if optimizer mode."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.whatif import WhatIfOptimizer

from ..conftest import simple_schema


def plans() -> float:
    """Queries planned so far (a replay or an in-workload repeat is not)."""
    return metrics.counter("optimizer.whatif.estimates").value


@pytest.fixture
def whatif(simple_db):
    return WhatIfOptimizer(simple_db.catalog, OptimizerParameters.defaults())


class TestEstimation:
    def test_estimate_query(self, whatif):
        estimate = whatif.estimate_query("select count(*) as n from t")
        assert estimate.cost_units > 0
        assert estimate.estimated_seconds > 0
        assert estimate.plan is not None

    def test_estimates_deterministic_and_cached(self, whatif):
        sql = "select count(*) as n from t where a < 100"
        first = whatif.estimate_query(sql)
        planned = plans()
        second = whatif.estimate_query(sql)
        assert plans() == planned  # the compiled program replays
        assert second.cost_units.hex() == first.cost_units.hex()
        assert second.estimated_seconds == first.estimated_seconds

    def test_repeats_within_a_workload_are_estimated_once(self, whatif):
        sql = "select count(*) as n from t where a < 100"
        hits = metrics.counter("optimizer.whatif.cache_hits")
        before, planned = hits.value, plans()
        whatif.estimate_workload([sql, sql, sql])
        assert (plans() - planned, hits.value - before) == (1, 2)

    def test_workload_sums_queries(self, whatif):
        sql = "select count(*) as n from t"
        single = whatif.estimate_query(sql).estimated_seconds
        total = whatif.estimate_workload([sql, sql, sql])
        assert total == pytest.approx(3 * single)

    def test_workload_takes_one_fingerprint(self, whatif, monkeypatch):
        statements = ["select count(*) as n from t where a < 10",
                      "select count(*) as n from t",
                      "select count(*) as n from t where a < 10"]
        in_order = sum(whatif.estimate_query(sql).estimated_seconds
                       for sql in statements)
        calls = []
        fingerprint = Catalog.fingerprint
        monkeypatch.setattr(Catalog, "fingerprint",
                            lambda self: calls.append(1) or fingerprint(self))
        assert whatif.estimate_workload(statements) == in_order
        assert len(calls) == 1

    def test_seconds_follow_conversion(self, whatif):
        estimate = whatif.estimate_query("select count(*) as n from t")
        assert estimate.estimated_seconds == pytest.approx(
            whatif.params.cost_to_seconds(estimate.cost_units)
        )


class TestParameterSwapping:
    def test_with_params_does_not_touch_catalog(self, whatif, simple_db):
        tables_before = simple_db.catalog.table_names()
        whatif.with_params(OptimizerParameters.defaults()
                           .with_values(cpu_tuple_cost=99.0))
        assert simple_db.catalog.table_names() == tables_before

    def test_different_params_different_estimates(self, whatif):
        sql = "select count(*) as n from t"
        cheap_cpu = whatif.with_params(
            OptimizerParameters.defaults().with_values(cpu_tuple_cost=0.001)
        ).estimate_query(sql)
        costly_cpu = whatif.with_params(
            OptimizerParameters.defaults().with_values(cpu_tuple_cost=1.0)
        ).estimate_query(sql)
        assert costly_cpu.cost_units > cheap_cpu.cost_units

    def test_parameters_can_flip_plan_choice(self, whatif):
        sql = "select b from t where a between 10 and 30"
        low_random = whatif.with_params(
            OptimizerParameters.defaults().with_values(random_page_cost=0.01)
        ).estimate_query(sql)
        high_random = whatif.with_params(
            OptimizerParameters.defaults().with_values(random_page_cost=1e6)
        ).estimate_query(sql)
        assert "IndexScan" in low_random.plan.explain()
        assert "IndexScan" not in high_random.plan.explain()

    def test_programs_shared_across_with_params(self, whatif):
        sql = "select count(*) as n from t"
        first = whatif.estimate_query(sql)
        planned = plans()
        variant = whatif.with_params(whatif.params)
        assert variant.estimate_query(sql).cost_units.hex() == \
            first.cost_units.hex()
        assert plans() == planned

    def test_compare_lists_all(self, whatif):
        sql = "select count(*) as n from t"
        sets = [OptimizerParameters.defaults().with_values(cpu_tuple_cost=c)
                for c in (0.001, 0.01, 0.1)]
        estimates = whatif.compare(sql, sets)
        costs = [e.cost_units for e in estimates]
        assert costs == sorted(costs)


class TestProgramsBelongToTheCatalog:
    def test_fresh_optimizers_replay_the_catalogs_programs(self, simple_db):
        sqls = ["select count(*) as n from t where a < 100",
                "select b from t where a between 10 and 30"]
        WhatIfOptimizer(simple_db.catalog).estimate_workload(sqls)
        planned = plans()
        other = OptimizerParameters.defaults().with_values(
            cpu_tuple_cost=0.03, random_page_cost=2.0)
        fresh = WhatIfOptimizer(simple_db.catalog, other)
        sibling = fresh.with_params(OptimizerParameters.defaults())
        for optimizer in (fresh, sibling):
            for sql in sqls:
                expected = Planner(simple_db.catalog,
                                   optimizer.params).plan_sql(sql)
                assert optimizer.estimate_query(sql).cost_units.hex() == \
                    expected.est_total_cost.hex()
        assert plans() == planned

    def test_equal_fingerprints_never_share_programs(self, simple_db):
        """Same row counts, different values: equal fingerprints, yet
        each catalog plans against its own statistics."""
        twin = Database("twin", memory_pages=2048)
        twin.create_table(simple_schema())
        twin.load_rows("t", [(i % 50, i % 3, f"row {i}")
                             for i in range(1000)])
        twin.create_index("t_a_idx", "t", "a")
        twin.analyze()
        assert twin.catalog.fingerprint() == simple_db.catalog.fingerprint()

        sql = "select count(*) as n from t where a < 100"
        original = WhatIfOptimizer(simple_db.catalog).estimate_query(sql)
        planned = plans()
        copy = WhatIfOptimizer(twin.catalog).estimate_query(sql)
        assert plans() == planned + 1
        expected = Planner(twin.catalog,
                           OptimizerParameters.defaults()).plan_sql(sql)
        assert copy.cost_units == expected.est_total_cost
        assert copy.cost_units != original.cost_units


    def test_threads_sharing_a_catalog_match_the_planner(self, simple_db):
        """Racing first lookups may each swap in a table and lose a
        recording, but no thread ever replays a wrong program."""
        catalog = simple_db.catalog
        sqls = ["select count(*) as n from t where a < 100",
                "select b from t where a between 10 and 30",
                "select count(*) as n from t where b = 3"]
        sets = [OptimizerParameters.defaults().with_values(
                    cpu_tuple_cost=0.002 * (1 + i), random_page_cost=1.0 + i)
                for i in range(8)]
        expected = [[Planner(catalog, params).plan_sql(sql).est_total_cost.hex()
                     for sql in sqls] for params in sets]

        def estimate(params):
            return [WhatIfOptimizer(catalog, params).estimate_query(sql)
                    .cost_units.hex() for sql in sqls]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(estimate, params)
                           for params in sets * 4]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 4
        planned = plans()
        WhatIfOptimizer(catalog).estimate_workload(sqls)
        assert plans() == planned


class TestExplain:
    def test_explain_mentions_parameters(self, whatif):
        text = whatif.explain("select count(*) as n from t")
        assert "cpu_tuple_cost" in text
        assert "SeqScan" in text or "IndexScan" in text

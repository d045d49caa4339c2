"""Tests for the virtualization-aware what-if optimizer mode."""

import pytest

from repro.engine.catalog import Catalog
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.whatif import WhatIfOptimizer


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
        second = whatif.estimate_query(sql)
        assert first is second  # plan cache hit

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

    def test_plan_cache_shared_across_with_params(self, whatif):
        sql = "select count(*) as n from t"
        variant = whatif.with_params(whatif.params)
        assert variant.estimate_query(sql) is whatif.estimate_query(sql)

    def test_compare_lists_all(self, whatif):
        sql = "select count(*) as n from t"
        sets = [OptimizerParameters.defaults().with_values(cpu_tuple_cost=c)
                for c in (0.001, 0.01, 0.1)]
        estimates = whatif.compare(sql, sets)
        costs = [e.cost_units for e in estimates]
        assert costs == sorted(costs)


class TestExplain:
    def test_explain_mentions_parameters(self, whatif):
        text = whatif.explain("select count(*) as n from t")
        assert "cpu_tuple_cost" in text
        assert "SeqScan" in text or "IndexScan" in text

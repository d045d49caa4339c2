"""Index DDL must invalidate every cost cache, compiled or memoized.

The co-tuning loop re-costs the same (workload, allocation) pair under
many hypothetical index sets. Two layers cache those costs — the
catalog's table of compiled recost ``CostProgram``s and the
``OptimizerCostModel`` memo — and each keys on
``Catalog.fingerprint()``. If any of them survived index DDL, a
candidate's what-if cost would be the *pre*-index cost and every
benefit would be zero. These are the regression tests that pin the
invalidation.
"""

from __future__ import annotations

import gc

import pytest

from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.recost import CostProgram
from repro.optimizer.whatif import _PROGRAMS, WhatIfOptimizer
from repro.workloads import tpch_query

from .conftest import make_cost_model, make_db, make_problem


class TestCatalogFingerprint:
    def test_hypothetical_create_and_drop_change_the_fingerprint(self):
        catalog = make_db("t").catalog
        before = catalog.fingerprint()
        catalog.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        with_index = catalog.fingerprint()
        assert with_index != before
        catalog.drop_index("cdx_orders_o_orderdate")
        assert catalog.fingerprint() == before

    def test_real_and_hypothetical_indexes_fingerprint_differently(self):
        """The hypothetical flag is part of the identity: a run that
        materializes a chosen index must not replay what-if programs."""
        real = make_db("a").catalog
        hypo = make_db("b").catalog
        real.create_index("cdx_orders_o_orderdate", "orders", "o_orderdate")
        hypo.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        assert real.fingerprint() != hypo.fingerprint()


class TestStaleRecostPrograms:
    """A compiled CostProgram from before index DDL is never replayed."""

    def test_ddl_forces_a_fresh_estimate_not_a_recost(self):
        metrics.reset()
        catalog = make_db("t").catalog
        optimizer = WhatIfOptimizer(catalog, OptimizerParameters.defaults())
        sql = tpch_query("Q4")

        optimizer.estimate_query(sql)   # compiles the program
        optimizer.estimate_query(sql)   # same fingerprint: a replay
        estimates_before = metrics.counter("optimizer.whatif.estimates").value
        recosts_before = metrics.counter("optimizer.whatif.recosts").value

        catalog.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        optimizer.estimate_query(sql)

        estimates = metrics.counter("optimizer.whatif.estimates").value
        recosts = metrics.counter("optimizer.whatif.recosts").value
        assert estimates == estimates_before + 1, (
            "post-DDL estimate must re-plan against the new catalog")
        assert recosts == recosts_before, (
            "a CostProgram compiled before index DDL was replayed after it")

    def test_recost_resumes_once_the_new_fingerprint_is_compiled(self):
        """Invalidation is per-fingerprint, not a global flush: the
        post-DDL plan compiles its own program and replays thereafter."""
        metrics.reset()
        catalog = make_db("t").catalog
        sql = tpch_query("Q4")
        base = WhatIfOptimizer(catalog, OptimizerParameters.defaults())
        base.estimate_query(sql)
        catalog.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        base.estimate_query(sql)        # compiles for the new fingerprint
        recosts_before = metrics.counter("optimizer.whatif.recosts").value
        # A different P shares the program store; same fingerprint, so
        # this estimate is exactly the replay path the fast path exists
        # for — and it replays the *post*-DDL program.
        other = base.with_params(
            OptimizerParameters.defaults().with_values(cpu_tuple_cost=0.02))
        other.estimate_query(sql)
        assert (metrics.counter("optimizer.whatif.recosts").value
                == recosts_before + 1)


class TestProgramTable:
    """The catalog's program table holds one fingerprint at a time."""

    def test_create_cost_drop_cycles_keep_one_fingerprint(self):
        problem = make_problem()
        model = make_cost_model(problem, config_aware=True)
        spec = problem.specs[0]
        catalog = spec.database.catalog
        vector = problem.default_allocation().vector_for(spec.name)
        statements = set(spec.workload.statements)

        def live_programs() -> int:
            gc.collect()
            return sum(isinstance(obj, CostProgram)
                       for obj in gc.get_objects())

        before = live_programs()
        model.cost_many([(spec, vector)])
        for column in ("o_orderdate", "o_custkey", "o_totalprice"):
            catalog.create_hypothetical_index(
                f"cdx_orders_{column}", "orders", column)
            assert model.cost_many([(spec, vector)]).fresh == 1
            assert _PROGRAMS[catalog][0] == catalog.fingerprint()
            assert set(_PROGRAMS[catalog][1]) == statements
            catalog.drop_index(f"cdx_orders_{column}")
        # The pre-DDL fingerprint is back; its programs were dropped.
        WhatIfOptimizer(catalog).estimate_workload(spec.workload.statements)
        assert _PROGRAMS[catalog][0] == catalog.fingerprint()
        assert live_programs() - before <= len(statements)


class TestConfigAwareMemo:
    """OptimizerCostModel memo keys fold in the catalog fingerprint."""

    @pytest.fixture()
    def problem(self):
        return make_problem()

    def test_stale_memo_entry_is_never_served_across_ddl(self, problem):
        model = make_cost_model(problem, config_aware=True)
        spec = problem.specs[0]
        vector = problem.default_allocation().vector_for(spec.name)

        first = model.cost_many([(spec, vector)])
        assert first.fresh == 1
        hit = model.cost_many([(spec, vector)])
        assert (hit.fresh, hit.hits) == (0, 1)

        spec.database.catalog.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        after = model.cost_many([(spec, vector)])
        assert after.fresh == 1, (
            "index DDL did not invalidate the cost-model memo: a stale "
            "pre-index cost would zero every candidate benefit")

        spec.database.catalog.drop_index("cdx_orders_o_orderdate")
        back = model.cost_many([(spec, vector)])
        assert (back.fresh, back.hits) == (0, 1)
        assert back.costs == first.costs

    def test_config_blind_model_demonstrates_the_hazard(self, problem):
        """Without config_aware=True the memo *is* blind to DDL — the
        designer's constructor contract exists precisely because of
        this behaviour, so pin it."""
        model = make_cost_model(problem, config_aware=False)
        spec = problem.specs[0]
        vector = problem.default_allocation().vector_for(spec.name)
        model.cost_many([(spec, vector)])
        spec.database.catalog.create_hypothetical_index(
            "cdx_orders_o_orderdate", "orders", "o_orderdate")
        stale = model.cost_many([(spec, vector)])
        assert (stale.fresh, stale.hits) == (0, 1)

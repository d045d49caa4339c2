"""Tests for the optimizer-based and measured cost models."""

import pytest

from repro.core.cost_model import MeasuredCostModel, OptimizerCostModel
from repro.core.problem import WorkloadSpec
from repro.obs import metrics
from repro.virt.resources import ResourceVector
from repro.workloads import build_tpch_database
from repro.workloads.workload import Workload


def alloc(cpu=0.5, memory=0.5, io=0.5):
    return ResourceVector.of(cpu=cpu, memory=memory, io=io)


@pytest.fixture(scope="module")
def spec():
    db = build_tpch_database(scale_factor=0.002, tables=["orders", "lineitem"],
                             name="costmodel")
    workload = Workload.of_queries("probe", ["Q4", "Q12"])
    return WorkloadSpec(workload, db)


class TestOptimizerCostModel:
    def test_positive_and_memoized(self, spec, calibration_cache):
        model = OptimizerCostModel(calibration_cache)
        first = model.cost(spec, alloc())
        evaluations = model.evaluations
        second = model.cost(spec, alloc())
        assert first > 0
        assert second == first
        assert model.evaluations == evaluations  # memo hit

    def test_nothing_executed(self, spec, calibration_cache):
        model = OptimizerCostModel(calibration_cache)
        hits_before = spec.database.buffer_pool.hits + spec.database.buffer_pool.misses
        model.cost(spec, alloc(cpu=0.3))
        after = spec.database.buffer_pool.hits + spec.database.buffer_pool.misses
        assert after == hits_before

    def test_less_cpu_costs_more(self, spec, calibration_cache):
        model = OptimizerCostModel(calibration_cache)
        assert model.cost(spec, alloc(cpu=0.25)) > model.cost(spec, alloc(cpu=0.75))

    def test_models_over_one_catalog_plan_once(self, spec, calibration_cache):
        """Programs live with the catalog: a second model, or a second
        spec carrying the same SQL, replays them without planning."""
        pairs = [(spec, alloc(cpu=0.3)), (spec, alloc(cpu=0.6))]
        first = OptimizerCostModel(calibration_cache).cost_many(pairs).costs
        planned = metrics.counter("optimizer.whatif.estimates").value
        renamed = WorkloadSpec(Workload.of_queries("renamed", ["Q4", "Q12"]),
                               spec.database)
        second = OptimizerCostModel(calibration_cache)
        for batch in (pairs, [(renamed, vector) for _spec, vector in pairs]):
            outcome = second.cost_many(batch)
            assert outcome.fresh == len(batch)
            assert [c.hex() for c in outcome.costs] == [c.hex() for c in first]
        assert metrics.counter("optimizer.whatif.estimates").value == planned

    def test_parameters_for_exposes_calibration(self, spec, calibration_cache):
        model = OptimizerCostModel(calibration_cache)
        params = model.parameters_for(alloc())
        params.validate()


class TestMeasuredCostModel:
    def test_measures_execution(self, spec, lab_machine):
        model = MeasuredCostModel(lab_machine)
        cost = model.cost(spec, alloc())
        assert cost > 0

    def test_less_cpu_never_faster(self, spec, lab_machine):
        model = MeasuredCostModel(lab_machine)
        slow = model.cost(spec, alloc(cpu=0.2))
        fast = model.cost(spec, alloc(cpu=0.8))
        assert slow >= fast

    def test_planning_with_calibrated_params(self, spec, lab_machine,
                                             calibration_cache):
        tuned = MeasuredCostModel(lab_machine, calibration=calibration_cache)
        cost = tuned.cost(spec, alloc())
        assert cost > 0

    def test_deterministic(self, spec, lab_machine):
        a = MeasuredCostModel(lab_machine)
        b = MeasuredCostModel(lab_machine)
        assert a.cost(spec, alloc()) == b.cost(spec, alloc())


class TestModelsAgreeOnRanking:
    def test_estimated_ranks_match_measured_for_cpu_sweep(self, spec,
                                                          lab_machine,
                                                          calibration_cache):
        estimated = OptimizerCostModel(calibration_cache)
        measured = MeasuredCostModel(lab_machine, calibration=calibration_cache)
        allocations = [alloc(cpu=c) for c in (0.25, 0.5, 0.75)]
        est = [estimated.cost(spec, a) for a in allocations]
        act = [measured.cost(spec, a) for a in allocations]
        est_rank = sorted(range(3), key=lambda i: est[i])
        act_rank = sorted(range(3), key=lambda i: act[i])
        assert est_rank == act_rank

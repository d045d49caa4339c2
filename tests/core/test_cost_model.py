"""Tests for the optimizer-based and measured cost models."""

import sys
import threading
from itertools import product

import pytest

from repro.core.cost_model import MeasuredCostModel, OptimizerCostModel
from repro.core.problem import WorkloadSpec
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.parallel import EvaluationEngine
from repro.surrogate.surface import ParameterSurface
from repro.virt.resources import ResourceVector
from repro.workloads import build_tpch_database
from repro.workloads.workload import Workload


def alloc(cpu=0.5, memory=0.5, io=0.5):
    return ResourceVector.of(cpu=cpu, memory=memory, io=io)


def tiny_surface():
    """A 2x2x2 lattice of synthetic parameters: pure, instant lookups."""
    return ParameterSurface({
        (cpu, memory, io): OptimizerParameters().with_values(
            cpu_tuple_cost=0.01 / cpu, random_page_cost=2.0 + 4.0 * memory,
            seconds_per_seq_page=1e-4 / io)
        for cpu, memory, io in product((0.25, 0.75), repeat=3)
    })


def hexes(costs):
    return [cost.hex() for cost in costs]


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

    def test_batch_resolves_each_allocation_once(self, spec,
                                                 calibration_cache):
        """k distinct allocations x n specs cost k lookups of ``P``, in
        any pair order; a single-pair ``cost`` still resolves its own."""
        renamed = WorkloadSpec(Workload.of_queries("lookups", ["Q4"]),
                               spec.database)
        v0, v1, v2 = alloc(cpu=0.25), alloc(), alloc(cpu=0.75)
        pairs = [(spec, v0), (renamed, v1), (renamed, v0), (spec, v2),
                 (spec, v1), (renamed, v2)]
        registry = metrics.get_registry()
        for source, counter in ((calibration_cache,
                                 "calibration.cache.exact_hits"),
                                (tiny_surface(), "surrogate.lookups")):
            for vector in (v0, v1, v2):  # calibrate now: later lookups hit
                source.params_for(vector)
            before = registry.total(counter)
            outcome = OptimizerCostModel(source).cost_many(pairs)
            assert outcome.fresh == len(pairs)
            assert registry.total(counter) - before == 3
            single = OptimizerCostModel(source)
            before = registry.total(counter)
            alone = [single.cost(s, vector) for s, vector in pairs]
            assert registry.total(counter) - before == len(pairs)
            assert hexes(alone) == hexes(outcome.costs)

    def test_interleaved_batches_match_serial_costs(self, spec):
        """Two threads batch different allocations on one model; every
        cost equals the serial one, for serial, thread and process
        evaluation. The resolved ``P`` travels with each batch."""
        surface = tiny_surface()
        renamed = WorkloadSpec(Workload.of_queries("interleaved", ["Q12"]),
                               spec.database)
        batches = [
            [(s, alloc(cpu=cpu)) for cpu in (0.3, 0.4, 0.5)
             for s in (spec, renamed)],
            [(s, alloc(cpu=cpu, memory=0.6, io=0.7)) for cpu in (0.55, 0.65)
             for s in (renamed, spec)],
        ]
        serial = [hexes(OptimizerCostModel(surface).cost_many(batch).costs)
                  for batch in batches]
        with EvaluationEngine(2, "process") as forked:
            model = OptimizerCostModel(surface)
            assert [hexes(model.cost_many(batch, engine=forked).costs)
                    for batch in batches] == serial
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EvaluationEngine(2, "thread") as threaded:
                for engine in (None, threaded):
                    for _round in range(3):
                        model = OptimizerCostModel(surface)
                        got = {}
                        barrier = threading.Barrier(len(batches))

                        def run(index):
                            barrier.wait(timeout=30)
                            got[index] = hexes(model.cost_many(
                                batches[index], engine=engine).costs)

                        threads = [threading.Thread(target=run, args=(i,))
                                   for i in range(len(batches))]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=60)
                            assert not thread.is_alive()
                        assert [got[i] for i in range(len(batches))] == serial
        finally:
            sys.setswitchinterval(switch)

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

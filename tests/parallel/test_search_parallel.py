"""Serial-vs-parallel equivalence for the batched search strategies.

The contract under test: a search run through an
:class:`EvaluationEngine` with N workers is *bit-identical* — same
allocation, same total cost, same evaluation count, same stopped flag —
to the same search at 1 worker and with no engine at all, for every
algorithm and pool kind.

Also home to the evaluation-accounting regression test: two searches
interleaving on one shared cost model must each report exactly their
own spend (the old implementation diffed the shared
``CostModel.evaluations`` counter across the run, attributing the other
search's work to whoever finished last).
"""

import threading

import pytest

from repro.core.cost_model import CostModel
from repro.core.problem import VirtualizationDesignProblem, WorkloadSpec
from repro.core.search import ALGORITHMS, make_algorithm
from repro.engine.database import Database
from repro.parallel import EvaluationEngine
from repro.virt.machine import PhysicalMachine
from repro.virt.resources import ResourceKind, ResourceVector
from repro.workloads.workload import Workload


class SyntheticCostModel(CostModel):
    """cost_i(R) = cpu_weight_i / cpu + mem_weight_i / memory.

    Pure and stateless per pair, so it is honestly ``parallel_safe`` —
    the same property the optimizer cost model has.
    """

    kind = "synthetic"
    parallel_safe = True

    def __init__(self, weights):
        super().__init__()
        self._weights = weights

    def _cost(self, spec, allocation: ResourceVector) -> float:
        cpu_weight, mem_weight = self._weights[spec.name]
        cost = 0.0
        if cpu_weight:
            cost += cpu_weight / max(allocation.cpu, 1e-9)
        if mem_weight:
            cost += mem_weight / max(allocation.memory, 1e-9)
        return cost


WEIGHTS = {"cpu-hungry": (10.0, 1.0), "mem-hungry": (1.0, 10.0)}


def make_problem(weights, controlled=(ResourceKind.CPU, ResourceKind.MEMORY)):
    specs = [
        WorkloadSpec(Workload(name, ["select 1 from t"]), Database(name))
        for name in weights
    ]
    problem = VirtualizationDesignProblem(
        machine=PhysicalMachine(), specs=specs,
        controlled_resources=controlled,
    )
    return problem, SyntheticCostModel(weights)


def run_search(algorithm, engine, grid=6, weights=WEIGHTS, **kwargs):
    problem, model = make_problem(weights)
    result = make_algorithm(algorithm, grid=grid, engine=engine,
                            **kwargs).search(problem, model)
    return result, model


def fingerprint(result):
    """Everything a search reports, as comparable plain data."""
    return {
        "allocation": {
            name: result.allocation.vector_for(name).as_tuple()
            for name in result.allocation.workload_names()
        },
        "total_cost": result.total_cost,
        "per_workload": result.per_workload_costs,
        "evaluations": result.evaluations,
        "stopped": result.stopped,
    }


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_four_workers_match_one(self, algorithm, pool):
        with EvaluationEngine(workers=1) as serial:
            baseline, _ = run_search(algorithm, serial)
        with EvaluationEngine(workers=4, pool=pool) as engine:
            result, _ = run_search(algorithm, engine)
        assert fingerprint(result) == fingerprint(baseline)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_budget_stop_parity(self, algorithm):
        # A tight budget must trip at the same point (same spend, same
        # best-so-far allocation) with no engine, one worker or four,
        # because batch boundaries never depend on the engine.
        baseline, _ = run_search(algorithm, None, max_evaluations=5)
        assert baseline.stopped
        for workers in (1, 4):
            with EvaluationEngine(workers=workers, pool="thread") as engine:
                result, _ = run_search(algorithm, engine, max_evaluations=5)
            assert fingerprint(result) == fingerprint(baseline), workers


class TestEvaluationAccounting:
    """Regression: interleaved searches must not steal each other's spend."""

    def test_interleaved_searches_report_their_own_counts(self):
        weights = {"a": (3.0, 1.0), "b": (1.0, 3.0),
                   "c": (8.0, 2.0), "d": (2.0, 8.0)}
        specs = {
            name: WorkloadSpec(Workload(name, ["select 1 from t"]),
                               Database(name))
            for name in weights
        }
        machine = PhysicalMachine()

        def problem_for(names):
            return VirtualizationDesignProblem(
                machine=machine, specs=[specs[n] for n in names],
                controlled_resources=(ResourceKind.CPU, ResourceKind.MEMORY),
            )

        # Expected spend: each search alone on a fresh model.
        expected = {}
        for names in (("a", "b"), ("c", "d")):
            solo = make_algorithm("exhaustive", grid=6).search(
                problem_for(names), SyntheticCostModel(weights))
            expected[names] = solo.evaluations
            assert solo.evaluations > 0

        # Now interleave both searches on ONE shared model, from two
        # threads, so their cost_many calls genuinely overlap.
        shared = SyntheticCostModel(weights)
        results = {}
        barrier = threading.Barrier(2)

        def run(names):
            barrier.wait()
            results[names] = make_algorithm("exhaustive", grid=6).search(
                problem_for(names), shared)

        threads = [threading.Thread(target=run, args=(names,))
                   for names in (("a", "b"), ("c", "d"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Disjoint workloads -> disjoint memo keys -> each search's
        # reported spend equals its solo spend, and the shared model's
        # total is exactly the sum (nothing double- or mis-counted).
        for names, result in results.items():
            assert result.evaluations == expected[names]
        assert shared.evaluations == sum(expected.values())

    def test_sequential_searches_on_shared_model_stay_disjoint(self):
        # Second search over the same problem is all memo hits: it must
        # report zero spend, not inherit the first search's.
        problem, model = make_problem(WEIGHTS)
        first = make_algorithm("exhaustive", grid=5).search(problem, model)
        second = make_algorithm("exhaustive", grid=5).search(problem, model)
        assert first.evaluations > 0
        assert second.evaluations == 0
        assert second.total_cost == first.total_cost

"""Tests for the combinatorial search algorithms.

A synthetic, analytically known cost model keeps these fast and lets
optimality be checked exactly: DP and exhaustive search must agree, and
greedy must never beat them.
"""

import gc
import itertools
import tracemalloc
import weakref

import pytest

from repro.core.cost_model import CostModel
from repro.core.problem import VirtualizationDesignProblem, WorkloadSpec
from repro.core.search import (
    DynamicProgrammingSearch,
    ExhaustiveSearch,
    GreedySearch,
    compositions,
    make_algorithm,
)
from repro.engine.database import Database
from repro.parallel import EvaluationEngine
from repro.util.errors import AllocationError
from repro.virt.machine import PhysicalMachine
from repro.virt.resources import ResourceKind, ResourceVector
from repro.workloads.workload import Workload


class SyntheticCostModel(CostModel):
    """cost_i(R) = cpu_weight_i / cpu + mem_weight_i / memory."""

    def __init__(self, weights):
        super().__init__()
        self._weights = weights  # name -> (cpu_weight, mem_weight)

    def _cost(self, spec, allocation: ResourceVector) -> float:
        cpu_weight, mem_weight = self._weights[spec.name]
        cost = 0.0
        if cpu_weight:
            cost += cpu_weight / max(allocation.cpu, 1e-9)
        if mem_weight:
            cost += mem_weight / max(allocation.memory, 1e-9)
        return cost


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


def brute_force_optimum(weights, grid, controlled=2):
    """Independent reference optimum over the same discretization."""
    names = sorted(weights)
    best = float("inf")
    splits = list(compositions(grid, len(names)))
    axes = [splits] * controlled
    for combo in itertools.product(*axes):
        total = 0.0
        for i, name in enumerate(names):
            cpu = combo[0][i] / grid
            mem = (combo[1][i] / grid) if controlled > 1 else 1.0 / len(names)
            cpu_w, mem_w = weights[name]
            total += cpu_w / cpu + (mem_w / mem if mem_w else 0.0)
        best = min(best, total)
    return best


class TestCompositions:
    def test_enumerates_all(self):
        assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]

    def test_minimum_respected(self):
        assert all(min(c) >= 2 for c in compositions(8, 3, minimum=2))

    def test_infeasible_is_empty(self):
        assert list(compositions(2, 3)) == []

    def test_single_part(self):
        assert list(compositions(5, 1)) == [(5,)]


WEIGHTS_SKEWED = {"cpu-hungry": (10.0, 1.0), "mem-hungry": (1.0, 10.0)}
WEIGHTS_EQUAL = {"a": (5.0, 5.0), "b": (5.0, 5.0)}


class TestExhaustive:
    def test_finds_brute_force_optimum(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        result = ExhaustiveSearch(grid=4).search(problem, model)
        assert result.total_cost == pytest.approx(
            brute_force_optimum(WEIGHTS_SKEWED, 4)
        )

    def test_skewed_demands_get_skewed_shares(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        result = ExhaustiveSearch(grid=4).search(problem, model)
        assert result.allocation.vector_for("cpu-hungry").cpu > 0.5
        assert result.allocation.vector_for("mem-hungry").memory > 0.5

    def test_equal_demands_get_equal_shares(self):
        problem, model = make_problem(WEIGHTS_EQUAL)
        result = ExhaustiveSearch(grid=4).search(problem, model)
        assert result.allocation.vector_for("a").cpu == pytest.approx(0.5)

    def test_allocation_always_full(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        result = ExhaustiveSearch(grid=5).search(problem, model)
        result.allocation.validate(require_full=True)

    def test_uncontrolled_resource_fixed(self):
        problem, model = make_problem(WEIGHTS_SKEWED,
                                      controlled=(ResourceKind.CPU,))
        result = ExhaustiveSearch(grid=4).search(problem, model)
        assert result.allocation.vector_for("cpu-hungry").memory == 0.5

    def test_three_workloads(self):
        weights = {"a": (8.0, 1.0), "b": (1.0, 8.0), "c": (4.0, 4.0)}
        problem, model = make_problem(weights)
        result = ExhaustiveSearch(grid=6).search(problem, model)
        assert result.total_cost == pytest.approx(
            brute_force_optimum(weights, 6)
        )

    def test_enumeration_holds_a_bounded_chunk_of_combinations(self):
        # 29 241 combinations; on a warm memo a chunk meets no uncosted
        # pair, so a chunk ended only by new pairs would hold all of
        # them at once (~1.2 MiB traced). A one-worker engine and
        # engine=None run the same enumeration.
        weights = {"a": (8.0, 1.0), "b": (1.0, 8.0), "c": (4.0, 4.0)}
        problem, model = make_problem(weights)
        with EvaluationEngine(workers=1) as engine:
            cold = ExhaustiveSearch(grid=20, engine=engine).search(
                problem, model)
            tracemalloc.start()
            try:
                warm = ExhaustiveSearch(grid=20, engine=engine).search(
                    problem, model)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert warm.evaluations == 0
        assert warm.total_cost == cold.total_cost
        assert peak < 0.75 * 2**20


class TestDynamicProgramming:
    def test_matches_exhaustive(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        exhaustive = ExhaustiveSearch(grid=6).search(problem, model)
        dp = DynamicProgrammingSearch(grid=6).search(problem, model)
        assert dp.total_cost == pytest.approx(exhaustive.total_cost)

    def test_matches_exhaustive_three_workloads(self):
        weights = {"a": (9.0, 2.0), "b": (2.0, 9.0), "c": (5.0, 5.0)}
        problem, model = make_problem(weights)
        exhaustive = ExhaustiveSearch(grid=6).search(problem, model)
        dp = DynamicProgrammingSearch(grid=6).search(problem, model)
        assert dp.total_cost == pytest.approx(exhaustive.total_cost)

    def test_allocation_full(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        result = DynamicProgrammingSearch(grid=5).search(problem, model)
        result.allocation.validate(require_full=True)

    def test_reconstruction_consistent_with_cost(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        result = DynamicProgrammingSearch(grid=6).search(problem, model)
        recomputed = sum(
            model.cost(problem.spec(name), result.allocation.vector_for(name))
            for name in problem.workload_names()
        )
        assert recomputed == pytest.approx(result.total_cost)


class TestGreedy:
    def test_never_beats_exhaustive(self):
        for weights in (WEIGHTS_SKEWED, WEIGHTS_EQUAL,
                        {"a": (3.0, 7.0), "b": (6.0, 2.0)}):
            problem, model = make_problem(weights)
            exhaustive = ExhaustiveSearch(grid=6).search(problem, model)
            greedy = GreedySearch(grid=6).search(problem, model)
            assert greedy.total_cost >= exhaustive.total_cost - 1e-9

    def test_improves_on_default_for_skewed(self):
        problem, model = make_problem(WEIGHTS_SKEWED)
        greedy = GreedySearch(grid=6).search(problem, model)
        default_cost = sum(
            model.cost(spec, problem.default_allocation().vector_for(spec.name))
            for spec in problem.specs
        )
        assert greedy.total_cost < default_cost

    def test_finds_optimum_on_convex_costs(self):
        # 1/x costs are convex, so single-unit hill climbing is exact.
        problem, model = make_problem(WEIGHTS_SKEWED)
        exhaustive = ExhaustiveSearch(grid=8).search(problem, model)
        greedy = GreedySearch(grid=8).search(problem, model)
        assert greedy.total_cost == pytest.approx(exhaustive.total_cost)

    def test_fewer_evaluations_than_exhaustive(self):
        weights = {"a": (8.0, 1.0), "b": (1.0, 8.0), "c": (4.0, 4.0)}
        problem_g, model_g = make_problem(weights)
        greedy = GreedySearch(grid=8).search(problem_g, model_g)
        problem_e, model_e = make_problem(weights)
        exhaustive = ExhaustiveSearch(grid=8).search(problem_e, model_e)
        assert greedy.evaluations < exhaustive.evaluations


class TestValidation:
    def test_grid_too_coarse(self):
        weights = {"a": (1, 1), "b": (1, 1), "c": (1, 1)}
        problem, model = make_problem(weights)
        with pytest.raises(AllocationError):
            GreedySearch(grid=2).search(problem, model)

    def test_grid_must_be_positive(self):
        with pytest.raises(AllocationError):
            ExhaustiveSearch(grid=0)

    def test_make_algorithm(self):
        assert isinstance(make_algorithm("greedy", 4), GreedySearch)
        assert isinstance(make_algorithm("exhaustive", 4), ExhaustiveSearch)
        assert isinstance(make_algorithm("dynamic-programming", 4),
                          DynamicProgrammingSearch)
        with pytest.raises(AllocationError):
            make_algorithm("annealing", 4)


class TestBudgets:
    """Evaluation budgets and deadlines stop searches gracefully."""

    WEIGHTS = {"a": (3.0, 1.0), "b": (1.0, 2.0), "c": (2.0, 1.0)}

    def test_unbudgeted_search_never_stops_early(self):
        problem, model = make_problem(self.WEIGHTS)
        result = ExhaustiveSearch(grid=6).search(problem, model)
        assert result.stopped is False

    def test_exhaustive_stops_on_evaluation_budget(self):
        problem, model = make_problem(self.WEIGHTS)
        result = ExhaustiveSearch(grid=6, max_evaluations=5).search(
            problem, model)
        assert result.stopped is True
        # Best-so-far is still a feasible full allocation.
        shares = [result.allocation.vector_for(n).cpu for n in self.WEIGHTS]
        assert sum(shares) == pytest.approx(1.0)

    def test_greedy_stops_on_evaluation_budget(self):
        problem, model = make_problem(self.WEIGHTS)
        result = GreedySearch(grid=6, max_evaluations=4).search(problem, model)
        assert result.stopped is True

    def test_dp_degrades_to_equal_shares(self):
        problem, model = make_problem(self.WEIGHTS)
        result = DynamicProgrammingSearch(grid=6, max_evaluations=1).search(
            problem, model)
        assert result.stopped is True
        shares = [result.allocation.vector_for(n).cpu for n in self.WEIGHTS]
        assert shares == pytest.approx([2 / 6] * 3)

    def test_deadline_stops_search(self):
        problem, model = make_problem(self.WEIGHTS)
        result = ExhaustiveSearch(grid=6, deadline_seconds=1e-9).search(
            problem, model)
        assert result.stopped is True

    def test_budget_stop_counted(self):
        from repro.obs import metrics

        before = metrics.get_registry().total("search.budget_stops")
        problem, model = make_problem(self.WEIGHTS)
        ExhaustiveSearch(grid=6, max_evaluations=2).search(problem, model)
        after = metrics.get_registry().total("search.budget_stops")
        assert after - before == 1  # counted once, not per check

    def test_budgeted_result_no_worse_than_equal_shares(self):
        problem, model = make_problem(self.WEIGHTS)
        budgeted = GreedySearch(grid=6, max_evaluations=6).search(
            problem, model)
        equal = 0.0
        for name, (cpu_w, mem_w) in self.WEIGHTS.items():
            equal += cpu_w / (2 / 6) + mem_w / (2 / 6)
        assert budgeted.total_cost <= equal + 1e-9

    def test_make_algorithm_forwards_budget(self):
        algorithm = make_algorithm("greedy", 4, max_evaluations=7,
                                   deadline_seconds=2.5)
        assert algorithm.max_evaluations == 7
        assert algorithm.deadline_seconds == 2.5

    def test_budget_validation(self):
        with pytest.raises(AllocationError):
            ExhaustiveSearch(grid=4, max_evaluations=0)
        with pytest.raises(AllocationError):
            ExhaustiveSearch(grid=4, deadline_seconds=0.0)


@pytest.mark.parametrize("algorithm",
                         ["exhaustive", "greedy", "dynamic-programming"])
def test_search_frees_the_cost_model_without_the_cycle_collector(algorithm):
    # A reference cycle through a search's closures would keep the cost
    # model (for the optimizer model: every what-if optimizer and memo
    # entry) alive until the next full garbage collection.
    problem, model = make_problem(WEIGHTS_SKEWED)
    freed = weakref.ref(model)
    gc.disable()
    try:
        make_algorithm(algorithm, grid=6).search(problem, model)
        del model
        assert freed() is None
    finally:
        gc.enable()

"""Combinatorial search over resource allocations (paper, Section 3).

Overview
--------
The paper anticipates that "any standard combinatorial search algorithm
such as greedy search or dynamic programming" applies once the cost
model exists. This module provides three, all operating on a shared
discretization (each controlled resource split into ``grid`` units,
every workload receiving at least one unit):

* :class:`ExhaustiveSearch` — enumerate every full allocation; the
  oracle for solution quality.
* :class:`GreedySearch` — start from equal shares and repeatedly move
  the single unit whose transfer most reduces total cost. Fast, can
  stop in a local minimum.
* :class:`DynamicProgrammingSearch` — exact for this separable
  objective: workloads are considered one at a time against the vector
  of remaining units per resource.

Accounting
----------
Because ``Cost(W_i, R_i)`` is separable, all three report both the
chosen matrix and how many distinct cost-model evaluations they used —
the currency that matters when each evaluation is an optimizer call (or
worse, a measured run). ``SearchResult.evaluations`` counts *uncached*
evaluations spent by this search (deltas of
``CostModel.evaluations``).

Budgets
-------
A degraded cost model (one falling back to fresh calibrations, or
retrying a faulty environment) can make each evaluation arbitrarily
expensive, and an unbounded search would hang the designer. Every
algorithm therefore accepts an optional evaluation budget
(``max_evaluations``) and host-time deadline (``deadline_seconds``).
When either trips, the search stops early and returns the best
allocation found so far (the dynamic program falls back to equal
shares when it has no complete solution yet); ``SearchResult.stopped``
records that, and the ``search.budget_stops`` counter (labelled
``algorithm=<name>``) makes it visible in run reports. Budget spend is
accounted from the fresh-evaluation counts the batch API returns —
never by diffing ``CostModel.evaluations``, which misattributes spend
when two searches interleave on a shared model.

Batched evaluation
------------------
Each algorithm has one strategy, built on
:meth:`~repro.core.cost_model.CostModel.cost_many`: greedy evaluates
its whole single-unit-move frontier per step in one batch, exhaustive
and dynamic-programming chunk their enumerations into
budget-capped batches (at most :data:`BATCH_TARGET` pairs each, never
fewer than one full combination or one option), and evaluation budgets
are re-checked at every batch boundary — an in-flight batch always
completes (see ``docs/parallelism.md``). The optional
:class:`~repro.parallel.EvaluationEngine` (the ``engine`` argument,
``--workers N`` on the CLI) only decides where a batch's fresh pairs
run; ``engine=None`` evaluates them in this process. Batch boundaries
are a function of the problem and budget alone, never of the engine or
its worker count, so every engine configuration is bit-identical.

Continuous allocations
----------------------
With ``continuous=True`` the search is no longer confined to the coarse
grid: greedy climbs with shrinking step sizes (halving the step each
time it stalls, down to ``1/(grid * fine_factor)``), while exhaustive
and dynamic programming enumerate a fine grid of
``grid * fine_factor`` units. Continuous mode only makes economic sense
with a cost model whose parameter source answers arbitrary allocations
without fresh experiments — a fitted
:class:`~repro.surrogate.ParameterSurface` (``repro design
--continuous``, see ``docs/surrogate.md``). Refinement stages count on
``search.step_refinements`` (labelled ``algorithm=<name>``); all
bit-identity guarantees carry over, since every stage reuses the
ordinary batched strategies.

Observability
-------------
Each run opens a ``search`` span tagged with the algorithm and grid and
increments the ``search.runs`` and ``search.evaluations`` counters
(labelled ``algorithm=<name>``), so a :class:`repro.obs.report.RunReport`
can break evaluation spend down per algorithm. The counters agree with
``SearchResult.evaluations`` by construction.

API
---
Use :func:`make_algorithm` (or the ``ALGORITHMS`` mapping) to construct
an algorithm by name, then ``algorithm.search(problem, cost_model)``.
"""

from __future__ import annotations

import itertools
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.cost_model import CostModel
from repro.core.problem import AllocationMatrix, VirtualizationDesignProblem
from repro.obs import metrics
from repro.obs.spans import span
from repro.util.errors import AllocationError
from repro.virt.resources import ALL_RESOURCES, ResourceKind, ResourceVector
from repro.virt.vm import MIN_GUEST_MEMORY_MIB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.engine import EvaluationEngine

#: Upper bound on the pairs per ``cost_many`` batch in the batched
#: search strategies. Deliberately independent of the engine's worker
#: count: batch boundaries decide where budgets are checked, and those
#: decisions must be identical for every worker count for parallel and
#: serial runs to be bit-identical.
BATCH_TARGET = 256

#: Upper bound on the combinations an exhaustive chunk holds before
#: they are scored. Once every distinct ``(workload, choice)`` pair has
#: been costed a chunk meets no new pairs, and without this bound it
#: would hold every remaining combination at once. Scoring early moves
#: neither a budget check nor the scoring order.
CHUNK_COMBINATIONS = 1024


@dataclass
class SearchResult:
    """Outcome of one search."""

    algorithm: str
    allocation: AllocationMatrix
    total_cost: float
    per_workload_costs: Dict[str, float] = field(default_factory=dict)
    evaluations: int = 0
    #: True when the search stopped early on its evaluation budget or
    #: deadline; the allocation is then best-so-far, not exhaustive.
    stopped: bool = False


class _Budget:
    """Tracks one search's evaluation/deadline budget.

    Spend is reported explicitly by the search (the ``fresh`` counts
    its batches paid for) via :meth:`add`, so two searches interleaving
    on one shared cost model each account only their own work.
    """

    def __init__(self, algorithm: str,
                 max_evaluations: Optional[int],
                 deadline_seconds: Optional[float]):
        self._algorithm = algorithm
        self._max_evaluations = max_evaluations
        self._deadline_seconds = deadline_seconds
        self._started = time.monotonic()
        self.spent = 0
        self.stopped = False

    def add(self, fresh: int) -> None:
        """Record *fresh* uncached evaluations spent by this search."""
        self.spent += fresh

    def remaining(self) -> Optional[int]:
        """Evaluations left before the budget trips (None = unbounded)."""
        if self._max_evaluations is None:
            return None
        return max(0, self._max_evaluations - self.spent)

    def cap(self, target: int, floor: int = 1) -> int:
        """Batch-size cap: *target* pairs, but never past the budget.

        The floor keeps forward progress — the first unit of work (one
        full allocation, one DP option) is always evaluated whole, so a
        search overshoots its budget by at most one batch.
        """
        remaining = self.remaining()
        if remaining is None:
            return target
        return max(floor, min(target, remaining))

    def exhausted(self) -> bool:
        """Whether the budget has tripped (counts the first trip)."""
        if self.stopped:
            return True
        if (self._max_evaluations is not None
                and self.spent >= self._max_evaluations):
            self._trip()
        elif (self._deadline_seconds is not None
                and time.monotonic() - self._started >= self._deadline_seconds):
            self._trip()
        return self.stopped

    def _trip(self) -> None:
        self.stopped = True
        metrics.counter("search.budget_stops",
                        algorithm=self._algorithm).inc()


def compositions(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    """All ways to split *total* units into *parts* parts, each >= minimum."""
    if parts <= 0:
        raise AllocationError("parts must be positive")
    spare = total - parts * minimum
    if spare < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


class SearchAlgorithm(ABC):
    """Base class for allocation searches."""

    name = "base"

    #: How :attr:`continuous` mode refines this algorithm's resolution:
    #: ``"fine-grid"`` multiplies the grid by :attr:`fine_factor` up
    #: front (exhaustive, DP); ``"shrinking-steps"`` starts at the base
    #: grid and halves the step size whenever the climb stalls (greedy).
    continuous_strategy = "fine-grid"

    def __init__(self, grid: int = 4,
                 max_evaluations: Optional[int] = None,
                 deadline_seconds: Optional[float] = None,
                 engine: Optional["EvaluationEngine"] = None,
                 continuous: bool = False, fine_factor: int = 8):
        if grid < 1:
            raise AllocationError("grid must be at least 1")
        if max_evaluations is not None and max_evaluations < 1:
            raise AllocationError("max_evaluations must be at least 1")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise AllocationError("deadline_seconds must be positive")
        if continuous and fine_factor < 2:
            raise AllocationError("fine_factor must be at least 2")
        self.grid = grid
        #: The coarse grid the caller asked for; in continuous mode
        #: :attr:`grid` is the *effective* resolution, up to
        #: ``base_grid * fine_factor``.
        self.base_grid = grid
        self.continuous = continuous
        self.fine_factor = fine_factor
        if continuous and self.continuous_strategy == "fine-grid":
            self.grid = grid * fine_factor
        self.max_evaluations = max_evaluations
        self.deadline_seconds = deadline_seconds
        self.engine = engine

    def search(self, problem: VirtualizationDesignProblem,
               cost_model: CostModel) -> SearchResult:
        """Find a (locally) optimal allocation matrix.

        Template method: opens a ``search`` span tagged with the
        algorithm and grid, then delegates to :meth:`_search`.
        """
        with span("search", algorithm=self.name, grid=str(self.grid),
                  continuous=str(self.continuous).lower()):
            return self._search(problem, cost_model)

    @abstractmethod
    def _search(self, problem: VirtualizationDesignProblem,
                cost_model: CostModel) -> SearchResult:
        """The algorithm body; must end via :meth:`_finish`."""

    # -- shared helpers -----------------------------------------------------

    def _min_units(self, problem: VirtualizationDesignProblem,
                   kind: ResourceKind) -> int:
        """Smallest grid allotment a workload may receive for *kind*.

        One unit by default; for memory the floor is raised so every
        candidate VM can actually boot (the hypervisor refuses guests
        below :data:`MIN_GUEST_MEMORY_MIB`) — the search must never
        probe allocations that are physically inadmissible.
        """
        if kind is ResourceKind.MEMORY:
            min_share = MIN_GUEST_MEMORY_MIB / problem.machine.memory_mib
            return max(1, math.ceil(min_share * self.grid - 1e-9))
        return 1

    def _vector(self, problem: VirtualizationDesignProblem, name: str,
                units: Dict[ResourceKind, int]) -> ResourceVector:
        """Share vector from controlled units plus fixed shares."""
        shares = {}
        for kind in ALL_RESOURCES:
            if kind in problem.controlled_resources:
                shares[kind] = units[kind] / self.grid
            else:
                shares[kind] = problem.fixed_share_for(kind, name)
        return ResourceVector(shares)

    def _matrix(self, problem: VirtualizationDesignProblem,
                units_by_name: Dict[str, Dict[ResourceKind, int]]) -> AllocationMatrix:
        return AllocationMatrix({
            name: self._vector(problem, name, units)
            for name, units in units_by_name.items()
        })

    def _evaluate(self, problem: VirtualizationDesignProblem,
                  cost_model: CostModel,
                  matrix: AllocationMatrix,
                  budget: Optional[_Budget] = None
                  ) -> Tuple[float, Dict[str, float]]:
        """Cost one full allocation matrix (one pair per workload).

        Goes through :meth:`CostModel.cost_many` so the fresh-evaluation
        count lands in *budget* — the per-search accounting that stays
        correct when several searches share one cost model.
        """
        pairs = [(spec, matrix.vector_for(spec.name))
                 for spec in problem.specs]
        outcome = cost_model.cost_many(pairs, engine=self.engine)
        if budget is not None:
            budget.add(outcome.fresh)
        per_workload = {
            spec.name: cost
            for spec, cost in zip(problem.specs, outcome.costs)
        }
        return sum(per_workload.values()), per_workload

    def _equal_units(self, problem: VirtualizationDesignProblem
                     ) -> Dict[str, Dict[ResourceKind, int]]:
        """Start point: units split as evenly as the grid allows."""
        n = problem.n_workloads
        if self.grid < n:
            raise AllocationError(
                f"grid {self.grid} too coarse for {n} workloads "
                f"(each needs at least one unit)"
            )
        base, remainder = divmod(self.grid, n)
        units_by_name: Dict[str, Dict[ResourceKind, int]] = {}
        for i, spec in enumerate(problem.specs):
            per_kind = {}
            for kind in problem.controlled_resources:
                per_kind[kind] = base + (1 if i < remainder else 0)
            units_by_name[spec.name] = per_kind
        for kind in problem.controlled_resources:
            needed = self._min_units(problem, kind) * n
            if needed > self.grid:
                raise AllocationError(
                    f"grid {self.grid} cannot give {n} workloads the "
                    f"minimum feasible {kind} allotment"
                )
        return units_by_name

    def _budget(self) -> _Budget:
        return _Budget(self.name, self.max_evaluations,
                       self.deadline_seconds)

    def _finish(self, problem: VirtualizationDesignProblem,
                cost_model: CostModel,
                units_by_name: Dict[str, Dict[ResourceKind, int]],
                budget: _Budget, stopped: bool = False) -> SearchResult:
        matrix = self._matrix(problem, units_by_name)
        # The final evaluation is usually all memo hits, but a search
        # that degraded to a fallback allocation pays for it here — the
        # budget keeps the complete spend either way.
        total, per_workload = self._evaluate(problem, cost_model, matrix,
                                             budget)
        evaluations = budget.spent
        metrics.counter("search.runs", algorithm=self.name).inc()
        metrics.counter("search.evaluations", algorithm=self.name).inc(evaluations)
        return SearchResult(
            algorithm=self.name, allocation=matrix, total_cost=total,
            per_workload_costs=per_workload, evaluations=evaluations,
            stopped=stopped,
        )


class ExhaustiveSearch(SearchAlgorithm):
    """Enumerate every full allocation of the grid; the oracle."""

    name = "exhaustive"

    def _search(self, problem: VirtualizationDesignProblem,
                cost_model: CostModel) -> SearchResult:
        names = problem.workload_names()
        n = len(names)
        resources = list(problem.controlled_resources)
        budget = self._budget()
        splits_per_resource = [
            list(compositions(self.grid, n,
                              minimum=self._min_units(problem, kind)))
            for kind in resources
        ]
        best_units = self._enumerate(problem, cost_model, budget, names,
                                     resources, splits_per_resource)
        if best_units is None:
            raise AllocationError("no feasible allocation for this grid")
        return self._finish(problem, cost_model, best_units,
                            budget, stopped=budget.stopped)

    def _enumerate(self, problem, cost_model, budget, names, resources,
                   splits_per_resource):
        """Chunked enumeration exploiting the separable objective.

        The objective sums per-workload terms, and each workload's term
        depends only on its own unit choice — so the enumeration costs
        each distinct ``(workload, choice)`` pair once (in first-
        appearance order, through one ``cost_many`` batch per chunk)
        and scores every combination with plain float sums. A chunk
        ends — and the budget is checked — once it has met the
        budget-capped :data:`BATCH_TARGET` uncosted pairs; the floor of
        one full combination guarantees that even an instantly
        exhausted budget yields one feasible candidate. Within a chunk,
        every :data:`CHUNK_COMBINATIONS` combinations are scored as
        soon as their pairs are costed. Chunk boundaries depend on the
        problem and budget alone, never the worker count.
        """
        n = len(names)
        width = range(len(resources))
        local: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        #: Uncosted pairs met so far, in first-appearance order.
        pending: Dict[Tuple[int, Tuple[int, ...]], None] = {}
        held: List[tuple] = []
        best_units: Optional[Dict[str, Dict[ResourceKind, int]]] = None
        best_cost = float("inf")

        def score_held() -> None:
            """Cost the pending pairs, then score the held combinations."""
            nonlocal best_units, best_cost
            if pending:
                pairs = []
                for i, choice in pending:
                    units = {kind: choice[r]
                             for r, kind in enumerate(resources)}
                    pairs.append((problem.spec(names[i]),
                                  self._vector(problem, names[i], units)))
                outcome = cost_model.cost_many(pairs, engine=self.engine)
                budget.add(outcome.fresh)
                local.update(zip(pending, outcome.costs))
                pending.clear()
            for combo in held:
                total = 0.0
                for i in range(n):
                    total += local[(i, tuple(combo[r][i] for r in width))]
                if total < best_cost:
                    best_cost = total
                    best_units = {
                        names[i]: {kind: combo[r][i]
                                   for r, kind in enumerate(resources)}
                        for i in range(n)
                    }
            held.clear()

        combos = itertools.product(*splits_per_resource)
        while True:
            cap = budget.cap(BATCH_TARGET, floor=n)
            met = 0
            finished = True
            for combo in combos:
                held.append(combo)
                for i in range(n):
                    key = (i, tuple(combo[r][i] for r in width))
                    if key not in local and key not in pending:
                        pending[key] = None
                        met += 1
                if met >= cap:
                    finished = False
                    break
                if len(held) >= CHUNK_COMBINATIONS:
                    score_held()
            score_held()
            if budget.exhausted() or finished:
                return best_units


class GreedySearch(SearchAlgorithm):
    """Hill climbing by single-unit transfers, starting from equal shares.

    In continuous mode the climb runs with *shrinking step sizes*: it
    starts at the base grid (step ``1/grid``) and, whenever no
    single-unit move improves the cost, doubles the grid resolution —
    halving the step — and resumes from the same point, until the step
    reaches ``1/(grid * fine_factor)``. Every stage reuses the ordinary
    single-unit-move frontier, so the batched strategy (and its
    bit-identical-across-workers guarantee) carries over unchanged.
    """

    name = "greedy"

    continuous_strategy = "shrinking-steps"

    def _search(self, problem: VirtualizationDesignProblem,
                cost_model: CostModel) -> SearchResult:
        names = problem.workload_names()
        budget = self._budget()
        units_by_name = self._equal_units(problem)

        matrix = self._matrix(problem, units_by_name)
        current_cost, _ = self._evaluate(problem, cost_model, matrix, budget)

        base_grid = self.grid
        try:
            units_by_name, current_cost = self._climb(
                problem, cost_model, budget, names, units_by_name,
                current_cost)
            while (self.continuous and not budget.exhausted()
                   and self.grid * 2 <= base_grid * self.fine_factor):
                # Halve the step: double the resolution, rescale the
                # current point, and climb again from where we stand.
                self.grid *= 2
                units_by_name = {
                    name: {kind: value * 2 for kind, value in units.items()}
                    for name, units in units_by_name.items()
                }
                metrics.counter("search.step_refinements",
                                algorithm=self.name).inc()
                units_by_name, current_cost = self._climb(
                    problem, cost_model, budget, names, units_by_name,
                    current_cost)
            return self._finish(problem, cost_model, units_by_name,
                                budget, stopped=budget.stopped)
        finally:
            self.grid = base_grid

    def _climb(self, problem, cost_model, budget, names, units_by_name,
               current_cost):
        """Hill-climb at the current resolution until no move improves."""
        improved = True
        while improved and not budget.exhausted():
            improved = False
            best_move, best_cost = self._best_move(
                problem, cost_model, budget, names, units_by_name,
                current_cost)
            if best_move is not None:
                units_by_name = best_move
                current_cost = best_cost
                improved = True
        return units_by_name, current_cost

    def _moves(self, problem: VirtualizationDesignProblem, names,
               units_by_name) -> Iterator[Dict[str, Dict[ResourceKind, int]]]:
        """The single-unit-move frontier, in deterministic order."""
        for kind in problem.controlled_resources:
            min_units = self._min_units(problem, kind)
            for donor in names:
                if units_by_name[donor][kind] <= min_units:
                    continue
                for recipient in names:
                    if recipient == donor:
                        continue
                    candidate = {
                        name: dict(units)
                        for name, units in units_by_name.items()
                    }
                    candidate[donor][kind] -= 1
                    candidate[recipient][kind] += 1
                    yield candidate

    def _best_move(self, problem, cost_model, budget, names,
                   units_by_name, current_cost):
        """Evaluate the whole move frontier in one ``cost_many`` batch.

        The frontier of one greedy step is a single in-flight batch:
        the budget is re-checked at the step boundary, never inside it.
        The first candidate in frontier order that beats the best cost
        so far by more than 1e-12 wins.
        """
        candidates = list(self._moves(problem, names, units_by_name))
        if not candidates:
            return None, current_cost
        specs = list(problem.specs)
        pairs = []
        for candidate in candidates:
            matrix = self._matrix(problem, candidate)
            for spec in specs:
                pairs.append((spec, matrix.vector_for(spec.name)))
        outcome = cost_model.cost_many(pairs, engine=self.engine)
        budget.add(outcome.fresh)
        best_move = None
        best_cost = current_cost
        n = len(specs)
        for j, candidate in enumerate(candidates):
            total = sum(outcome.costs[j * n:(j + 1) * n])
            if total < best_cost - 1e-12:
                best_cost = total
                best_move = candidate
        budget.exhausted()
        return best_move, best_cost


class DynamicProgrammingSearch(SearchAlgorithm):
    """Exact DP over workloads with a remaining-units state vector."""

    name = "dynamic-programming"

    def _search(self, problem: VirtualizationDesignProblem,
                cost_model: CostModel) -> SearchResult:
        names = problem.workload_names()
        n = len(names)
        resources = list(problem.controlled_resources)
        budget = self._budget()
        memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[float, Optional[tuple]]] = {}
        #: Per-(workload, choice) option costs — the DP's own view of the
        #: cost surface, filled in budget-capped batches state by state.
        local: Dict[Tuple[int, Tuple[int, ...]], float] = {}

        min_units = [self._min_units(problem, kind) for kind in resources]

        def options(i: int, remaining: Tuple[int, ...]) -> Iterable[Tuple[int, ...]]:
            """Feasible unit choices for workload *i* given what's left."""
            left_after = n - i - 1  # workloads still to serve
            ranges = []
            for r, rem in enumerate(remaining):
                # Leave each downstream workload its feasible minimum.
                high = rem - left_after * min_units[r]
                if high < min_units[r]:
                    return
                if i == n - 1:
                    ranges.append([rem])  # last workload takes the rest
                else:
                    ranges.append(list(range(min_units[r], high + 1)))
            yield from itertools.product(*ranges)

        def pair_for(i: int, choice: Tuple[int, ...]):
            units = {kind: choice[r] for r, kind in enumerate(resources)}
            return (problem.spec(names[i]),
                    self._vector(problem, names[i], units))

        def fill_local(i: int, choices: List[Tuple[int, ...]]) -> None:
            """Cost this state's uncached options in capped batches.

            Fills ``local`` as a prefix of the option order, so a budget
            trip mid-state leaves the state a prefix of its options.
            """
            missing = [choice for choice in choices
                       if (i, choice) not in local]
            pos = 0
            while pos < len(missing) and not budget.exhausted():
                cap = budget.cap(BATCH_TARGET)
                part = missing[pos:pos + cap]
                pos += len(part)
                outcome = cost_model.cost_many(
                    [pair_for(i, choice) for choice in part],
                    engine=self.engine)
                budget.add(outcome.fresh)
                for choice, value in zip(part, outcome.costs):
                    local[(i, choice)] = value

        def solve(i: int, remaining: Tuple[int, ...]) -> Tuple[float, Optional[tuple]]:
            if i == n:
                return (0.0, None) if all(r == 0 for r in remaining) else (float("inf"), None)
            key = (i, remaining)
            if key in memo:
                return memo[key]
            best = (float("inf"), None)
            choices = list(options(i, remaining))
            fill_local(i, choices)
            for choice in choices:
                if (i, choice) not in local:
                    break  # budget tripped before this option was costed
                here = local[(i, choice)]
                rest, _ = solve(
                    i + 1,
                    tuple(rem - c for rem, c in zip(remaining, choice)),
                )
                total = here + rest
                if total < best[0]:
                    best = (total, choice)
            memo[key] = best
            return best

        start = tuple(self.grid for _ in resources)
        total_cost, _ = solve(0, start)
        # ``solve`` calls itself through its closure cell: a reference
        # cycle that would keep the cost model, and every what-if
        # optimizer and memo entry it holds, alive until the next full
        # garbage collection. Dropping the name breaks the cycle.
        del solve
        if total_cost == float("inf"):
            if budget.stopped:
                # The budget tripped before any complete solution was
                # assembled; degrade to the equal-share starting point.
                return self._finish(problem, cost_model,
                                    self._equal_units(problem),
                                    budget, stopped=True)
            raise AllocationError("no feasible allocation for this grid")

        # Reconstruct the chosen allocation.
        units_by_name: Dict[str, Dict[ResourceKind, int]] = {}
        remaining = start
        for i, name in enumerate(names):
            _cost, choice = memo[(i, remaining)]  # solved on the way down
            assert choice is not None
            units_by_name[name] = {
                kind: choice[r] for r, kind in enumerate(resources)
            }
            remaining = tuple(rem - c for rem, c in zip(remaining, choice))

        return self._finish(problem, cost_model, units_by_name,
                            budget, stopped=budget.stopped)


ALGORITHMS = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    GreedySearch.name: GreedySearch,
    DynamicProgrammingSearch.name: DynamicProgrammingSearch,
}


def make_algorithm(name: str, grid: int,
                   max_evaluations: Optional[int] = None,
                   deadline_seconds: Optional[float] = None,
                   engine: Optional["EvaluationEngine"] = None,
                   continuous: bool = False,
                   fine_factor: int = 8) -> SearchAlgorithm:
    """Instantiate a search algorithm by name."""
    try:
        return ALGORITHMS[name](grid=grid, max_evaluations=max_evaluations,
                                deadline_seconds=deadline_seconds,
                                engine=engine, continuous=continuous,
                                fine_factor=fine_factor)
    except KeyError:
        raise AllocationError(
            f"unknown search algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None

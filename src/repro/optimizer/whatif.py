"""The virtualization-aware what-if optimizer mode.

This is the paper's instrument: optimize a workload's queries under an
arbitrary parameter set ``P`` — typically one calibrated for a resource
allocation ``R`` — and report estimated execution times *without
executing anything*. Access paths and database statistics are used
unchanged; only ``P`` varies, exactly as Section 4 of the paper
prescribes. Estimates are intended for *ranking* alternatives, not as
absolute predictions.

Optimize once, re-cost many: the first time a query is optimized, the
planner also records a :class:`~repro.optimizer.recost.CostProgram` —
a replayable cost expression whose structure (candidate plan shapes,
join lattice, row estimates) is ``P``-independent. Subsequent
estimates of the same query under *different* parameter sets replay
the program instead of re-planning, producing bit-identical costs at a
fraction of the work. Design search sweeps dozens of allocations over
one workload, so this turns its optimizer bill from
``O(queries x allocations)`` plans into ``O(queries)`` plans plus
cheap re-costs. Programs are guarded by the catalog fingerprint: any
DDL, data load, or ``analyze`` changes the fingerprint and invalidates
them.

Observability: full optimizations increment
``optimizer.whatif.estimates``; program replays increment
``optimizer.whatif.recosts``; estimates answered from the shared
(query, ``P``, catalog) cache increment
``optimizer.whatif.cache_hits``. Together they show how much true
re-optimization the what-if mode performs across a design run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.plans import PlanNode
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.recost import CostProgram, PlanCostRecorder


@dataclass
class QueryEstimate:
    """What-if estimate for one query.

    Estimates produced by program replay carry no materialized plan —
    re-costing is the point of skipping plan construction — but
    :attr:`plan` stays available: accessing it plans the query on
    demand under the estimate's parameter set.
    """

    sql: str
    cost_units: float
    estimated_seconds: float
    _plan: Optional[PlanNode] = field(default=None, repr=False)
    _plan_factory: Optional[Callable[[], PlanNode]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def plan(self) -> Optional[PlanNode]:
        if self._plan is None and self._plan_factory is not None:
            self._plan = self._plan_factory()
        return self._plan


class WhatIfOptimizer:
    """Optimizes and costs queries under a swappable parameter set."""

    def __init__(self, catalog: Catalog, params: Optional[OptimizerParameters] = None):
        self._catalog = catalog
        self._params = params or OptimizerParameters.defaults()
        #: (P, catalog fingerprint) -> sql -> estimate.
        self._plan_cache: Dict[tuple, Dict[str, QueryEstimate]] = {}
        #: (sql, catalog fingerprint) -> compiled program, or None when
        #: the query's plan structure depends on P (not replayable).
        self._programs: Dict[tuple, Optional[CostProgram]] = {}

    @property
    def params(self) -> OptimizerParameters:
        return self._params

    def with_params(self, params: OptimizerParameters) -> "WhatIfOptimizer":
        """A what-if instance for a different environment ``P``.

        The catalog (access paths, statistics), the estimate cache, and
        the compiled cost programs are shared — changing ``P`` must
        never touch the database itself, and programs are exactly the
        artifact that makes alternating between parameter sets cheap.
        """
        other = WhatIfOptimizer(self._catalog, params)
        other._plan_cache = self._plan_cache
        other._programs = self._programs
        return other

    # -- estimation ---------------------------------------------------------

    def estimate_query(self, sql: str) -> QueryEstimate:
        """Optimize *sql* under the current ``P`` and estimate its time."""
        return self._estimates([sql])[0]

    def estimate_workload(self, statements: Sequence[str]) -> float:
        """Sum of estimated execution seconds over a workload.

        This is the paper's ``Cost(W_i, R_i)``: the query optimizer's
        estimated total resource consumption for the workload under the
        parameters calibrated for allocation ``R_i``. Nothing in one
        call mutates the catalog, so its fingerprint is taken once for
        the whole workload; the sum runs in statement order.
        """
        return sum(estimate.estimated_seconds
                   for estimate in self._estimates(statements))

    def _estimates(self, statements: Sequence[str]) -> List[QueryEstimate]:
        """Estimate each statement against one catalog fingerprint."""
        fingerprint = self._catalog.fingerprint()
        cache = self._plan_cache.setdefault((self._params, fingerprint), {})
        out, hits = [], 0
        for sql in statements:
            estimate = cache.get(sql)
            if estimate is None:
                estimate = cache[sql] = self._estimate(sql, fingerprint)
            else:
                hits += 1
            out.append(estimate)
        if hits:
            metrics.counter("optimizer.whatif.cache_hits").inc(hits)
        return out

    def _estimate(self, sql: str, fingerprint: tuple) -> QueryEstimate:
        """Replay *sql*'s program under ``P``, or plan it (and record one)."""
        program_key = (sql, fingerprint)
        program = self._programs.get(program_key)
        if program is not None:
            # Replay the recorded cost tape under the current P —
            # bit-identical to re-planning, without building a plan.
            metrics.counter("optimizer.whatif.recosts").inc()
            params = self._params
            cost = program.cost(params)
            catalog = self._catalog
            return QueryEstimate(
                sql=sql,
                cost_units=cost,
                estimated_seconds=params.cost_to_seconds(cost),
                _plan_factory=lambda: Planner(catalog, params).plan_sql(sql),
            )

        metrics.counter("optimizer.whatif.estimates").inc()
        planner = Planner(self._catalog, self._params)
        if program_key in self._programs:
            # Known non-compilable: its plan structure depends on P.
            plan = planner.plan_sql(sql)
        else:
            recorder = PlanCostRecorder()
            plan = planner.plan_sql(sql, recorder)
            self._programs[program_key] = recorder.program(
                fingerprint, plan.est_rows
            )
        return QueryEstimate(
            sql=sql,
            cost_units=plan.est_total_cost,
            estimated_seconds=self._params.cost_to_seconds(plan.est_total_cost),
            _plan=plan,
        )

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan text under the current ``P``."""
        estimate = self.estimate_query(sql)
        header = (
            f"What-if plan (cpu_tuple_cost={self._params.cpu_tuple_cost:.4g}, "
            f"cpu_operator_cost={self._params.cpu_operator_cost:.4g}, "
            f"random_page_cost={self._params.random_page_cost:.4g})"
        )
        return "\n".join([header, estimate.plan.explain()])

    def compare(self, sql: str,
                parameter_sets: Sequence[OptimizerParameters]) -> List[QueryEstimate]:
        """Estimate the same query under several environments."""
        return [self.with_params(p).estimate_query(sql) for p in parameter_sets]

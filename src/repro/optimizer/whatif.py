"""The virtualization-aware what-if optimizer mode.

This is the paper's instrument: optimize a workload's queries under an
arbitrary parameter set ``P`` — typically one calibrated for a resource
allocation ``R`` — and report estimated execution times *without
executing anything*. Access paths and database statistics are used
unchanged; only ``P`` varies, exactly as Section 4 of the paper
prescribes. Estimates are intended for *ranking* alternatives, not as
absolute predictions.

Plan once per catalog, re-cost many: the first time a query is
optimized against a catalog, the planner also records a
:class:`~repro.optimizer.recost.CostProgram` — a replayable cost
expression whose structure (candidate plan shapes, join lattice, row
estimates) is ``P``-independent. Later estimates of the query against
that catalog, by any optimizer under any ``P``, replay the program
instead of re-planning, bit-identically and at a fraction of the work.
However many cost models a design run builds, it pays ``O(queries)``
plans per catalog plus cheap re-costs.

The programs live in a table keyed weakly by catalog (they die with
it; ``repro.engine`` stays optimizer-free) holding one ``(fingerprint,
{sql: program})`` pair: the first lookup under a new
:meth:`~repro.engine.catalog.Catalog.fingerprint` (any DDL, load or
``analyze``) swaps in an empty table. Catalogs never share programs,
however equal their fingerprints.

Observability: full optimizations increment
``optimizer.whatif.estimates``, program replays
``optimizer.whatif.recosts``, and repeats of a statement within one
workload (estimated once) ``optimizer.whatif.cache_hits``: together
they show how much true re-optimization a design run performs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog
from repro.engine.plans import PlanNode
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.planner import Planner
from repro.optimizer.recost import CostProgram, PlanCostRecorder

#: sql -> compiled program, or ``None`` when the query's plan structure
#: depends on ``P`` (not replayable).
Programs = Dict[str, Optional[CostProgram]]
#: Catalog -> (its fingerprint, the programs recorded under it).
_PROGRAMS: "weakref.WeakKeyDictionary[Catalog, Tuple[tuple, Programs]]" = \
    weakref.WeakKeyDictionary()


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

    @property
    def params(self) -> OptimizerParameters:
        return self._params

    def with_params(self, params: OptimizerParameters) -> "WhatIfOptimizer":
        """A what-if instance over the same catalog for a different ``P``.

        Changing ``P`` never touches the database itself; the compiled
        cost programs live with the catalog, so the new instance
        replays them like this one does.
        """
        return WhatIfOptimizer(self._catalog, params)

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
        """Estimate each distinct statement once, at one fingerprint."""
        catalog, fingerprint = self._catalog, self._catalog.fingerprint()
        entry = _PROGRAMS.get(catalog)
        if entry is None or entry[0] != fingerprint:
            # A new fingerprint drops the old programs. The pair swaps
            # whole: racing threads can lose a recording, never mix them.
            entry = _PROGRAMS[catalog] = (fingerprint, {})
        programs = entry[1]
        seen: Dict[str, QueryEstimate] = {}
        out = []
        for sql in statements:
            estimate = seen.get(sql)
            if estimate is None:
                estimate = seen[sql] = self._estimate(sql, programs)
            out.append(estimate)
        hits = len(out) - len(seen)
        if hits:
            metrics.counter("optimizer.whatif.cache_hits").inc(hits)
        return out

    def _estimate(self, sql: str, programs: Programs) -> QueryEstimate:
        """Replay *sql*'s program under ``P``, or plan it (and record one)."""
        program = programs.get(sql)
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
        if sql in programs:
            # Known non-compilable: its plan structure depends on P.
            plan = planner.plan_sql(sql)
        else:
            recorder = PlanCostRecorder()
            plan = planner.plan_sql(sql, recorder)
            programs[sql] = recorder.program()
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

"""Cost models for the virtualization design problem.

``Cost(W_i, R_i)`` — the objective's inner term — comes in two flavours:

* :class:`OptimizerCostModel` is the paper's proposal: ask the query
  optimizer, running in its virtualization-aware what-if mode under the
  parameters calibrated for ``R_i``, for the estimated total execution
  time of the workload. Nothing is executed.
* :class:`MeasuredCostModel` actually runs the workload in a VM at
  ``R_i`` and reports simulated wall-clock time. It is the ground truth
  the experiments validate against (and an upper bound on what any
  search could use in practice — measuring every candidate is exactly
  what the what-if mode avoids).

Both memoize per (workload, allocation): the search algorithms probe
the same allocations repeatedly.

Batched evaluation
------------------
:meth:`CostModel.cost_many` evaluates a whole batch of
``(spec, allocation)`` pairs at once: duplicate pairs are evaluated
once, memo hits are served without recomputation, and the fresh
remainder can be fanned out over a
:class:`repro.parallel.EvaluationEngine`; the optimizer model resolves
each distinct allocation's ``P`` once per batch and hands it to every
evaluation there. The returned
:class:`BatchOutcome` carries the number of fresh (uncached)
evaluations the batch actually paid for — searches account their spend
from these counts instead of diffing the shared
:attr:`CostModel.evaluations` total, which misattributes work when two
searches interleave on one model (see
``tests/parallel/test_search_parallel.py``). The memo and the
evaluation counter are lock-protected so concurrent callers stay
consistent.

Observability: every uncached evaluation increments the
``cost_model.evaluations`` counter (labelled by model kind) and is
timed into the ``cost_model.seconds`` histogram; memo hits increment
``cost_model.memo_hits``; every batch observes its size on the
``cost_model.batch_size`` histogram. The counters reconcile exactly
with ``SearchResult.evaluations`` (see
``tests/obs/test_instrumentation.py``).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.calibration.cache import CalibrationCache
from repro.core.measure import WorkloadRunner
from repro.core.problem import WorkloadSpec
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.whatif import WhatIfOptimizer
from repro.virt.machine import PhysicalMachine
from repro.virt.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.engine import EvaluationEngine


def _allocation_key(allocation: ResourceVector) -> Tuple[float, float, float]:
    return tuple(round(s, 6) for s in allocation.as_tuple())


def memo_key(spec: WorkloadSpec, allocation: ResourceVector):
    """The memoization key ``CostModel.cost`` uses for one evaluation.

    The workload's statements are part of the key: the same named
    workload may change content across phases (dynamic case). The
    statement hash is only stable within one process
    (``PYTHONHASHSEED``), so keys must never be persisted — journal
    replay re-derives them through this function instead.
    """
    return (spec.name, hash(spec.workload.statements),
            _allocation_key(allocation))


@dataclass
class BatchOutcome:
    """What one :meth:`CostModel.cost_many` call produced.

    ``costs[i]`` corresponds to ``pairs[i]`` — duplicates included, in
    input order. ``fresh`` counts the evaluations the batch actually
    computed (the budget currency); ``hits`` counts the lookups served
    by the memo (duplicates within the batch count as hits too).
    """

    costs: List[float]
    fresh: int = 0
    hits: int = 0


class CostModel(ABC):
    """Interface: estimated cost (seconds) of a workload at an allocation."""

    #: Label for the ``cost_model.*`` metrics ("optimizer", "measured", ...).
    kind = "generic"

    #: Whether :meth:`_cost` tolerates concurrent invocations (distinct
    #: pairs only). The measured model mutates one shared simulated
    #: database per run, so it evaluates batches sequentially even when
    #: an engine is supplied.
    parallel_safe = False

    def __init__(self):
        self._memo: Dict[tuple, float] = {}
        self._memo_lock = threading.Lock()
        self.evaluations = 0

    def _key(self, spec: WorkloadSpec, allocation: ResourceVector) -> tuple:
        """The memo key for one evaluation (overridable).

        The default keys on (workload, allocation) via :func:`memo_key`.
        Models whose costs also depend on mutable per-spec configuration
        — the co-design model, where index DDL changes what-if costs —
        override this to fold that configuration in, so a stale value
        is never served across a configuration change.
        """
        return memo_key(spec, allocation)

    def seed(self, spec: WorkloadSpec, allocation: ResourceVector,
             value: float) -> None:
        """Pre-load the memo with a known evaluation (journal replay)."""
        with self._memo_lock:
            self._memo[self._key(spec, allocation)] = value

    def cost(self, spec: WorkloadSpec, allocation: ResourceVector) -> float:
        key = self._key(spec, allocation)
        with self._memo_lock:
            cached = self._memo.get(key)
        if cached is not None:
            metrics.counter("cost_model.memo_hits", model=self.kind).inc()
            return cached
        with metrics.timer("cost_model.seconds", model=self.kind):
            value = self._cost(spec, allocation)
        with self._memo_lock:
            self._memo[key] = value
            self.evaluations += 1
        metrics.counter("cost_model.evaluations", model=self.kind).inc()
        return value

    def cost_many(self, pairs: Sequence[Tuple[WorkloadSpec, ResourceVector]],
                  engine: Optional["EvaluationEngine"] = None) -> BatchOutcome:
        """Evaluate a batch of ``(spec, allocation)`` pairs.

        Duplicate pairs are computed once; memo hits cost nothing; the
        fresh remainder is evaluated through *engine* when one is given
        and the model is :attr:`parallel_safe` (serially otherwise).
        Results arrive in input order and are bit-identical for every
        engine configuration: fresh work is keyed by the pair, never by
        the worker that happened to run it.
        """
        pairs = list(pairs)
        metrics.histogram("cost_model.batch_size",
                          model=self.kind).observe(len(pairs))
        keys = [self._key(spec, allocation) for spec, allocation in pairs]
        values: Dict[tuple, float] = {}
        todo: List[Tuple[WorkloadSpec, ResourceVector]] = []
        todo_keys: List[tuple] = []
        pending = set()
        with self._memo_lock:
            for key, pair in zip(keys, pairs):
                if key in values or key in pending:
                    continue
                cached = self._memo.get(key)
                if cached is not None:
                    values[key] = cached
                else:
                    todo.append(pair)
                    todo_keys.append(key)
                    pending.add(key)
        hits = len(pairs) - len(todo)
        if hits:
            metrics.counter("cost_model.memo_hits",
                            model=self.kind).inc(hits)

        fresh = 0
        if todo:
            items = self._prepare_batch(todo)
            if (engine is not None and engine.workers > 1
                    and self.parallel_safe and len(todo) > 1):
                timed = engine.map(self._timed_cost, items)
            else:
                timed = [self._timed_cost(item) for item in items]
            with self._memo_lock:
                for key, (value, seconds) in zip(todo_keys, timed):
                    # Another caller may have raced us to this pair;
                    # first write wins so every reader agrees.
                    if key not in self._memo:
                        self._memo[key] = value
                        self.evaluations += 1
                        fresh += 1
                    values[key] = self._memo[key]
            for _value, seconds in timed:
                metrics.histogram("cost_model.seconds",
                                  model=self.kind).observe(seconds)
            if fresh:
                metrics.counter("cost_model.evaluations",
                                model=self.kind).inc(fresh)
        return BatchOutcome(costs=[values[key] for key in keys],
                            fresh=fresh, hits=hits)

    def _timed_cost(self, item: tuple) -> Tuple[float, float]:
        """One uncached evaluation plus its host seconds (engine task)."""
        start = time.perf_counter()
        value = self._cost(*item)
        return value, time.perf_counter() - start

    def _prepare_batch(self, todo: List[Tuple[WorkloadSpec, ResourceVector]]
                       ) -> List[tuple]:
        """Hook: turn the fresh pairs into :meth:`_cost` argument tuples.

        Runs serially in deterministic (first-appearance) order, so
        anything order-sensitive — calibration experiments — happens
        identically for every worker count, and the fanned-out
        :meth:`_cost` calls touch only read-mostly state. What it
        resolves travels in the items, never on the model: two batches
        may interleave on one model.
        """
        return todo

    @abstractmethod
    def _cost(self, spec: WorkloadSpec, allocation: ResourceVector) -> float:
        """Compute the cost (uncached)."""


class OptimizerCostModel(CostModel):
    """The paper's what-if cost model over calibrated parameters."""

    kind = "optimizer"
    #: What-if estimation only reads the catalog and the (pre-resolved)
    #: calibrated parameters, so distinct pairs may evaluate concurrently.
    parallel_safe = True

    def __init__(self, calibration: CalibrationCache,
                 config_aware: bool = False):
        super().__init__()
        self._calibration = calibration
        self._prepare_lock = threading.Lock()
        #: Fold each spec's catalog fingerprint into memo keys, so index
        #: DDL between evaluations invalidates instead of serving stale
        #: costs. Off by default: allocation-only searches never touch
        #: the catalog mid-search, and the narrower key is cheaper.
        self._config_aware = config_aware

    def _key(self, spec: WorkloadSpec, allocation: ResourceVector) -> tuple:
        base = memo_key(spec, allocation)
        if not self._config_aware:
            return base
        return base + (spec.database.catalog.fingerprint(),)

    def parameters_for(self, allocation: ResourceVector) -> OptimizerParameters:
        return self._calibration.params_for(allocation)

    def _prepare_batch(self, todo) -> List[tuple]:
        """Resolve each distinct allocation's ``P`` once, serially.

        Calibration experiments draw from sequential RNG/fault streams,
        so they must never run from pool workers; resolving every
        unique allocation here (in first-appearance order) and handing
        its ``P`` to each evaluation at it leaves the fanned-out
        estimates with no lookup at all. The order is a function of the
        batch alone, which is what makes 1-worker and N-worker runs
        bit-identical.
        """
        with self._prepare_lock:
            resolved: Dict[tuple, OptimizerParameters] = {}
            for _spec, allocation in todo:
                key = allocation.as_tuple()
                if key not in resolved:
                    resolved[key] = self.parameters_for(allocation)
        return [(spec, allocation, resolved[allocation.as_tuple()])
                for spec, allocation in todo]

    def _cost(self, spec: WorkloadSpec, allocation: ResourceVector,
              params: Optional[OptimizerParameters] = None) -> float:
        optimizer = WhatIfOptimizer(
            spec.database.catalog, params or self.parameters_for(allocation))
        return optimizer.estimate_workload(spec.workload.statements)


class MeasuredCostModel(CostModel):
    """Ground truth: execute the workload at the allocation and time it.

    Runs mutate one shared simulated database (buffer pool, VM boot),
    so ``parallel_safe`` stays ``False``: ``cost_many`` still dedupes
    and batch-accounts, but evaluates misses sequentially in
    first-appearance order regardless of the engine supplied.
    """

    kind = "measured"

    def __init__(self, machine: PhysicalMachine,
                 calibration: Optional[CalibrationCache] = None,
                 noise_sigma: float = 0.0):
        super().__init__()
        self._runner = WorkloadRunner(machine, noise_sigma=noise_sigma)
        self._calibration = calibration

    def _cost(self, spec: WorkloadSpec, allocation: ResourceVector) -> float:
        planning_params = (
            self._calibration.params_for(allocation)
            if self._calibration is not None else None
        )
        run = self._runner.run(
            spec.workload, spec.database, allocation,
            planning_params=planning_params,
        )
        return run.total_seconds

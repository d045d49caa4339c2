"""The design service: warm state, batching, and the degradation ladder.

:class:`DesignService` is the long-lived core behind ``repro serve``.
It holds the session's *warm state* — the boot-time
:class:`~repro.surrogate.ParameterSurface` fit, the journal-backed v3
:class:`~repro.calibration.cache.CalibrationCache`, the workload
catalog, and the incumbent allocation — and answers the two request
kinds of :mod:`repro.serve.requests`. The surface is immutable once
fit: request handling never mutates it in place, it is *replaced*
atomically when the fresh tier refreshes knots, so concurrent readers
(batched what-ifs in flight) always see a consistent fit.

What-if batching
----------------
Concurrent what-ifs drain from the daemon queue into a single
:meth:`~repro.core.cost_model.CostModel.cost_many` call through the
shared :class:`~repro.parallel.EvaluationEngine`: duplicate
(workload, allocation) pairs collapse to one evaluation and the memo
serves repeats across batches, so a batch of 16 requests usually pays
for far fewer than 16 evaluations. Simulated time is charged per
*fresh* evaluation plus a per-batch overhead; the conservative
worst-case charge is checked against every member's deadline *before*
the batch runs, so a request is refused (typed, within its deadline)
rather than answered late.

The degradation ladder
----------------------
Design requests walk four rungs, each gated on the request's remaining
deadline budget and the circuit breaker (``docs/serve.md``):

1. **fresh** — re-validate the incumbent-region knots through the
   breaker-guarded calibration path (stale knots are kept on permanent
   failure, the PR 2 fallback contract), then a cold continuous search
   capped by the affordable evaluation budget.
2. **warm** — :func:`~repro.surrogate.warm_start` descent from the
   incumbent allocation projected onto the post-delta workload set,
   reusing every valid calibration via the warm surface.
3. **stale** — serve the projected incumbent as-is, costed through the
   (hull-clamped) surrogate.
4. **refusal** — a typed :class:`~repro.util.errors.DeadlineExceeded`
   when even the stale rung cannot fit the remaining budget.

A rung below the request's preferred tier (or a budget-capped search)
answers with status ``degraded`` — served, honestly labelled.

Crash safety
------------
State-changing units journal through the supervisor's
:class:`~repro.recovery.journal.BudgetedJournal`: each fresh knot
re-validation is a ``recalibration`` record keyed by (design sequence,
knot) and each committed incumbent an ``incumbent`` record keyed by
design sequence. Everything between those units — trace generation,
admission, batching, searches — is deterministic arithmetic on the
simulated clock, so a killed session resumes bit-identically (see
``tests/serve/test_chaos.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.calibration.runner import CalibrationRunner
from repro.core.cost_model import OptimizerCostModel
from repro.core.designer import Design, VirtualizationDesigner
from repro.core.problem import (
    AllocationMatrix,
    VirtualizationDesignProblem,
    WorkloadSpec,
)
from repro.obs import metrics
from repro.serve.breaker import CircuitBreaker
from repro.serve.clock import SimulatedClock
from repro.serve.requests import (
    ANSWERED,
    DEGRADED,
    REJECTED,
    TIER_BATCHED,
    TIER_CLAMPED,
    TIER_FRESH,
    TIER_STALE,
    TIER_WARM,
    DesignRequest,
    ServeResponse,
    WhatIfRequest,
)
from repro.surrogate import warm_start
from repro.surrogate.surface import ParameterSurface, knot_key
from repro.util.errors import (
    CalibrationError,
    MeasurementFault,
    ReproError,
    ServeError,
)
from repro.virt.resources import ALL_RESOURCES, ResourceVector
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ServeConfig:
    """The service's timing model, floors, and admission knobs.

    Work is charged on the simulated clock: ``eval_seconds`` per fresh
    cost-model evaluation, ``calibration_seconds`` per calibration
    request (attempted, replayed, or failed — identical charges keep a
    resumed session's clock bit-identical), ``batch_overhead_seconds``
    per queue drain. The floors decide the cheapest ladder rung a
    remaining deadline budget can still afford.
    """

    eval_seconds: float = 0.004
    batch_overhead_seconds: float = 0.002
    calibration_seconds: float = 0.5
    #: Incumbent-region knots the fresh tier re-validates.
    refresh_knots: int = 2
    #: Minimum affordable evaluations to attempt a fresh cold search.
    fresh_floor_evals: int = 128
    #: Minimum affordable evaluations to attempt a warm-start descent.
    warm_floor_evals: int = 24
    #: Admission: bounded queue length and per-drain batch cap.
    max_queue: int = 32
    max_batch: int = 16
    #: Per-tenant token bucket (tokens, tokens per simulated second).
    quota_capacity: float = 8.0
    quota_refill_rate: float = 4.0
    #: Consecutive transient-rooted calibration failures that trip the
    #: breaker.
    breaker_trip_after: int = 3

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeConfig":
        return cls(**data)


@dataclass
class _CatalogEntry:
    """One workload the service knows how to (re)build at any repeat."""

    unit: Tuple[str, ...]
    database: Any


def _empty_replay() -> Dict[str, Any]:
    return {"recalibrations": {}, "incumbents": {}}


class DesignService:
    """Shared warm state plus the request handlers (see module doc)."""

    def __init__(self, problem: VirtualizationDesignProblem,
                 surface: ParameterSurface, incumbent: Design, *,
                 config: Optional[ServeConfig] = None,
                 clock: Optional[SimulatedClock] = None,
                 runner: Optional[CalibrationRunner] = None,
                 journal=None, replay: Optional[Dict[str, Any]] = None,
                 engine=None,
                 breaker: Optional[CircuitBreaker] = None):
        self._config = config or ServeConfig()
        self._clock = clock or SimulatedClock()
        self._runner = runner
        self._journal = journal
        self._replay = replay if replay is not None else _empty_replay()
        self._engine = engine
        self._breaker = breaker or CircuitBreaker(
            self._config.breaker_trip_after)
        self._surface = surface
        self._incumbent = incumbent
        self._problem = problem
        self._algorithm = "greedy"
        self._grid = 4
        self._fine_factor = 8
        self._design_seq = 0
        # The immutable catalog: how to rebuild any workload this
        # service has ever served, at any repeat count.
        self._catalog: Dict[str, _CatalogEntry] = {}
        self._repeats: Dict[str, int] = {}
        for spec in problem.specs:
            unit = tuple(dict.fromkeys(spec.workload.statements))
            self._catalog[spec.name] = _CatalogEntry(unit, spec.database)
            self._repeats[spec.name] = (
                len(spec.workload.statements) // max(1, len(unit)))
        # Uncontrolled shares are pinned at their boot values for the
        # whole session: the surface hull was fit against them.
        self._fixed_shares = {
            kind: {name: problem.fixed_share_for(kind, name)
                   for name in self._catalog}
            for kind in ALL_RESOURCES
            if kind not in problem.controlled_resources
        }
        self._whatif_model = OptimizerCostModel(surface)

    # -- read-only state ---------------------------------------------------

    @property
    def clock(self) -> SimulatedClock:
        return self._clock

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def surface(self) -> ParameterSurface:
        return self._surface

    @property
    def incumbent(self) -> Design:
        return self._incumbent

    @property
    def problem(self) -> VirtualizationDesignProblem:
        return self._problem

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def design_seq(self) -> int:
        return self._design_seq

    def configure_search(self, algorithm: str, grid: int,
                         fine_factor: int) -> None:
        self._algorithm = algorithm
        self._grid = grid
        self._fine_factor = fine_factor

    # -- batch entry point -------------------------------------------------

    def process_batch(self, batch: Sequence[Any]) -> List[ServeResponse]:
        """Answer one queue drain; responses align 1:1 with *batch*.

        What-ifs are answered first as a single ``cost_many`` batch
        (they are cheap and latency-sensitive); design requests then
        run serially in arrival order — batch composition can change
        what-if latencies but never the incumbent trajectory, which is
        what makes kill→resume bit-identity independent of batching.
        """
        whatifs = [r for r in batch if isinstance(r, WhatIfRequest)]
        designs = [r for r in batch if isinstance(r, DesignRequest)]
        by_id: Dict[int, ServeResponse] = {}
        if whatifs:
            for request, response in zip(whatifs,
                                         self._answer_whatifs(whatifs)):
                by_id[id(request)] = response
        for request in designs:
            by_id[id(request)] = self._guarded_design(request)
        responses = [by_id[id(request)] for request in batch]
        for response in responses:
            self._account(response)
        return responses

    def _account(self, response: ServeResponse) -> None:
        request = response.request
        metrics.counter("serve.requests", kind=request.kind).inc()
        if response.status == REJECTED:
            metrics.counter("serve.rejected",
                            reason=response.reason or "unknown").inc()
        else:
            if response.status == DEGRADED:
                metrics.counter("serve.degraded", tier=response.tier).inc()
            else:
                metrics.counter("serve.answered", tier=response.tier).inc()
            metrics.histogram("serve.latency_seconds",
                              kind=request.kind).observe(
                response.latency_seconds)

    # -- what-ifs ----------------------------------------------------------

    def _answer_whatifs(self, batch: Sequence[WhatIfRequest]
                        ) -> List[ServeResponse]:
        now = self._clock.now
        responses: List[Optional[ServeResponse]] = [None] * len(batch)
        runnable: List[Tuple[int, WhatIfRequest, Any, ResourceVector]] = []
        for index, request in enumerate(batch):
            if request.deadline_at <= now:
                # Expired while queued: abandoned at the deadline
                # instant (the response timestamp says so).
                responses[index] = ServeResponse(
                    request=request, status=REJECTED,
                    error="DeadlineExceeded", reason="deadline",
                    completed_at=request.deadline_at)
                continue
            try:
                spec = self._problem.spec(request.workload)
            except ReproError:
                responses[index] = ServeResponse(
                    request=request, status=REJECTED, error="ServeError",
                    reason="unknown-workload", completed_at=now)
                continue
            vector = ResourceVector.of(*request.allocation)
            runnable.append((index, request, spec, vector))

        # Conservative worst-case charge for the whole sub-batch; any
        # member that cannot be guaranteed an in-deadline answer is
        # refused now, before its deadline passes.
        config = self._config
        unique = {(spec.name, knot_key(vector.as_tuple()))
                  for _, _, spec, vector in runnable}
        worst = (config.batch_overhead_seconds
                 + len(unique) * config.eval_seconds)
        kept: List[Tuple[int, WhatIfRequest, Any, ResourceVector]] = []
        for index, request, spec, vector in runnable:
            if request.deadline_at < now + worst:
                responses[index] = ServeResponse(
                    request=request, status=REJECTED,
                    error="DeadlineExceeded", reason="deadline",
                    completed_at=now)
            else:
                kept.append((index, request, spec, vector))

        if kept:
            pairs = [(spec, vector) for _, _, spec, vector in kept]
            outcome = self._whatif_model.cost_many(pairs,
                                                   engine=self._engine)
            self._clock.advance(config.batch_overhead_seconds
                                + outcome.fresh * config.eval_seconds)
            completed = self._clock.now
            for (index, request, _, vector), cost in zip(kept,
                                                         outcome.costs):
                clamped = not self._surface.covers(vector)
                responses[index] = ServeResponse(
                    request=request,
                    status=DEGRADED if clamped else ANSWERED,
                    tier=TIER_CLAMPED if clamped else TIER_BATCHED,
                    cost=cost, completed_at=completed)
        return [response for response in responses if response is not None]

    # -- design requests ---------------------------------------------------

    def _guarded_design(self, request: DesignRequest) -> ServeResponse:
        """Run the ladder; convert any library error to a typed refusal."""
        try:
            return self._handle_design(request)
        except ReproError as error:
            return ServeResponse(
                request=request, status=REJECTED,
                error=type(error).__name__, reason="error",
                completed_at=self._clock.now)

    def _handle_design(self, request: DesignRequest) -> ServeResponse:
        now = self._clock.now
        if request.deadline_at <= now:
            return ServeResponse(
                request=request, status=REJECTED, error="DeadlineExceeded",
                reason="deadline", completed_at=request.deadline_at)
        try:
            problem, repeats = self._apply_delta(request.delta)
        except ServeError as error:
            return ServeResponse(
                request=request, status=REJECTED,
                error=type(error).__name__, reason="bad-delta",
                completed_at=now)
        start = self._project_incumbent(problem)
        config = self._config
        seq = self._design_seq
        surface = self._surface
        n = problem.n_workloads

        remaining = request.deadline_at - self._clock.now
        stale_cost = config.batch_overhead_seconds + n * config.eval_seconds
        if remaining < stale_cost:
            # Not even the stale rung fits: typed refusal, in deadline.
            return ServeResponse(
                request=request, status=REJECTED, error="DeadlineExceeded",
                reason="refused", completed_at=self._clock.now)

        tier = None
        design: Optional[Design] = None
        fresh_cost = (config.refresh_knots * config.calibration_seconds
                      + config.fresh_floor_evals * config.eval_seconds)
        # state() (not allow()) keeps the half-open probe slot for the
        # per-knot checks inside the refresh itself.
        breaker_open = (self._breaker.state(self._clock.now)
                        == CircuitBreaker.OPEN)
        if breaker_open and request.prefer_fresh:
            metrics.counter("serve.breaker", event="refused").inc()
        if (request.prefer_fresh and self._runner is not None
                and remaining >= fresh_cost + stale_cost
                and not breaker_open):
            surface = self._refresh_knots(seq, surface)
            design = self._fresh_search(request, problem, surface)
            if design is not None:
                tier = TIER_FRESH
        if design is None:
            design = self._warm_search(request, problem, surface, start)
            if design is not None:
                tier = TIER_WARM
        if design is None:
            design = self._stale_answer(request, problem, surface, start)
            tier = TIER_STALE

        # Commit: the workload set changed, so even a stale answer
        # becomes the incumbent for subsequent requests.
        self._problem = problem
        self._repeats = repeats
        self._surface = surface
        self._whatif_model = OptimizerCostModel(surface)
        self._incumbent = design
        self._design_seq = seq + 1
        self._journal_incumbent(seq, tier, design, repeats)
        metrics.counter("serve.redesigns", tier=tier).inc()

        preferred = TIER_FRESH if request.prefer_fresh else TIER_WARM
        degraded = (tier != preferred and not (
            tier == TIER_FRESH and preferred == TIER_WARM)) or design.stopped
        return ServeResponse(
            request=request,
            status=DEGRADED if degraded else ANSWERED,
            tier=tier, cost=design.predicted_total_cost,
            allocation={
                name: design.allocation.vector_for(name).as_tuple()
                for name in design.allocation.workload_names()
            },
            completed_at=self._clock.now)

    # -- ladder rungs ------------------------------------------------------

    def _refresh_knots(self, seq: int,
                       surface: ParameterSurface) -> ParameterSurface:
        """Fresh rung, step 1: re-validate incumbent-region knots.

        Every attempt — fresh, replayed, or failed — charges the same
        simulated calibration time, so a resumed session's clock stays
        bit-identical. Failed knots keep their stale parameters (the
        PR 2 stale-knot fallback) and feed the breaker.
        """
        config = self._config
        knots: List[Tuple[float, ...]] = []
        for name in self._incumbent.allocation.workload_names():
            vector = self._incumbent.allocation.vector_for(name)
            if not surface.covers(vector):
                continue
            for knot in surface.region_corners(surface.region_of(vector)):
                if knot not in knots:
                    knots.append(knot)
        updates = {}
        for knot in knots[:config.refresh_knots]:
            if not self._breaker.allow(self._clock.now):
                break
            self._clock.advance(config.calibration_seconds)
            key = (seq, knot_key(knot))
            params = self._replay["recalibrations"].get(key)
            if params is None:
                try:
                    params = self._runner.parameters_for(
                        ResourceVector.of(cpu=knot[0], memory=knot[1],
                                          io=knot[2]))
                except CalibrationError as error:
                    transient = isinstance(error.__cause__,
                                           MeasurementFault)
                    self._breaker.record_failure(self._clock.now, transient)
                    metrics.counter("serve.refresh",
                                    outcome="failed").inc()
                    continue
                self._journal_append("recalibration", {
                    "design_seq": seq,
                    "allocation": list(key[1]),
                    "parameters": params.as_dict(),
                })
                self._replay["recalibrations"][key] = params
            self._breaker.record_success()
            metrics.counter("serve.refresh", outcome="ok").inc()
            updates[key[1]] = params
        if updates:
            surface = surface.with_knots(updates)
        return surface

    def _search_cap(self, request: DesignRequest,
                    problem: VirtualizationDesignProblem) -> int:
        """Affordable search evaluations under the remaining budget.

        The searches enforce ``max_evaluations`` at batch/step
        boundaries, so they can overshoot by one frontier; the
        allowance below covers that, and :meth:`_charge` clamps at the
        deadline as a final backstop.
        """
        config = self._config
        budget = (request.deadline_at - self._clock.now
                  - config.batch_overhead_seconds)
        n = problem.n_workloads
        allowance = 16 * n * n * max(1, len(problem.controlled_resources))
        return int(budget / config.eval_seconds) - allowance

    def _fresh_search(self, request: DesignRequest,
                      problem: VirtualizationDesignProblem,
                      surface: ParameterSurface) -> Optional[Design]:
        cap = self._search_cap(request, problem)
        if cap < self._config.fresh_floor_evals:
            return None
        model = OptimizerCostModel(surface)
        designer = VirtualizationDesigner(problem, model)
        design = designer.design(
            self._algorithm, grid=self._grid, max_evaluations=cap,
            engine=self._engine, continuous=True,
            fine_factor=self._fine_factor)
        self._charge(design.evaluations, request.deadline_at)
        return design

    def _warm_search(self, request: DesignRequest,
                     problem: VirtualizationDesignProblem,
                     surface: ParameterSurface,
                     start: AllocationMatrix) -> Optional[Design]:
        cap = self._search_cap(request, problem)
        if cap < self._config.warm_floor_evals:
            return None
        design = warm_start(
            problem, surface, start, grid=self._grid,
            fine_factor=self._fine_factor,
            algorithm_label=f"serve-warm-{self._algorithm}",
            max_evaluations=cap)
        self._charge(design.evaluations, request.deadline_at)
        return design

    def _stale_answer(self, request: DesignRequest,
                      problem: VirtualizationDesignProblem,
                      surface: ParameterSurface,
                      start: AllocationMatrix) -> Design:
        model = OptimizerCostModel(surface)
        designer = VirtualizationDesigner(problem, model)
        costs = designer.evaluate(start)
        self._charge(len(costs), request.deadline_at)
        total = sum(costs.values())
        return Design(
            problem=problem, allocation=start,
            predicted_total_cost=total, predicted_costs=costs,
            default_allocation=start, default_total_cost=total,
            default_costs=costs, algorithm="serve-stale",
            evaluations=len(costs), stopped=True)

    def _charge(self, evaluations: int, deadline_at: float) -> None:
        """Charge simulated work, cut off at the request's deadline.

        The clamp is the last line of the in-deadline guarantee: if a
        search overshoots its evaluation cap by a batch boundary, the
        session behaves as if it was interrupted exactly at the
        deadline instant — deterministically, so a resumed run clamps
        identically.
        """
        charge = (self._config.batch_overhead_seconds
                  + evaluations * self._config.eval_seconds)
        available = max(0.0, deadline_at - self._clock.now)
        self._clock.advance(min(charge, available))

    # -- delta / projection ------------------------------------------------

    def _apply_delta(self, delta: Dict[str, int]
                     ) -> Tuple[VirtualizationDesignProblem, Dict[str, int]]:
        repeats = dict(self._repeats)
        for name, count in sorted(delta.items()):
            if name not in self._catalog:
                raise ServeError(f"unknown workload {name!r} in delta "
                                 f"(catalog: {sorted(self._catalog)})")
            if count < 0:
                raise ServeError(f"negative repeat count for {name!r}")
            repeats[name] = int(count)
        live = {name: count for name, count in repeats.items() if count > 0}
        if not live:
            raise ServeError("delta removes every workload")
        specs = []
        for name in sorted(live):
            entry = self._catalog[name]
            specs.append(WorkloadSpec(
                Workload(name, entry.unit * live[name]), entry.database))
        problem = VirtualizationDesignProblem(
            machine=self._problem.machine, specs=specs,
            controlled_resources=self._problem.controlled_resources,
            fixed_shares=self._fixed_shares)
        return problem, repeats

    def _project_incumbent(self, problem: VirtualizationDesignProblem
                           ) -> AllocationMatrix:
        """The incumbent allocation carried onto the new workload set.

        Survivors keep their controlled shares; newcomers split the
        leftover headroom evenly (or an equal share when there is
        none); oversubscription renormalizes. Uncontrolled shares stay
        at their pinned boot values.
        """
        old = self._incumbent.allocation
        old_names = set(old.workload_names())
        names = sorted(problem.workload_names())
        vectors: Dict[str, Dict[Any, float]] = {
            name: {} for name in names}
        for kind in ALL_RESOURCES:
            if kind not in problem.controlled_resources:
                for name in names:
                    vectors[name][kind] = problem.fixed_share_for(kind, name)
                continue
            shares: Dict[str, Optional[float]] = {}
            for name in names:
                shares[name] = (old.vector_for(name).share(kind)
                                if name in old_names else None)
            newcomers = [name for name in names if shares[name] is None]
            survived = sum(value for value in shares.values()
                           if value is not None)
            if newcomers:
                leftover = max(0.0, 1.0 - survived)
                each = (leftover / len(newcomers) if leftover > 1e-9
                        else 1.0 / len(names))
                for name in newcomers:
                    shares[name] = each
            total = sum(shares.values())
            scale = 1.0 / total if total > 1.0 else 1.0
            for name in names:
                vectors[name][kind] = round(shares[name] * scale, 6)
        return AllocationMatrix({
            name: ResourceVector(vectors[name]) for name in names})

    # -- journaling --------------------------------------------------------

    def _journal_append(self, kind: str, data: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(kind, data)

    def _journal_incumbent(self, seq: int, tier: str, design: Design,
                           repeats: Dict[str, int]) -> None:
        if seq in self._replay["incumbents"]:
            return
        record = {
            "design_seq": seq,
            "tier": tier,
            "allocation": design.allocation.as_record(),
            "predicted_total_cost": design.predicted_total_cost,
            "repeats": {name: count for name, count in sorted(
                repeats.items()) if count > 0},
        }
        self._journal_append("incumbent", record)
        self._replay["incumbents"][seq] = record

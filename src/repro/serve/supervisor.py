"""Crash-recoverable serving sessions: boot, serve, journal, resume.

:class:`ServeSupervisor` is the serve counterpart of the drift loop's
:class:`~repro.drift.loop.OnlineSupervisor`: one complete serving
session — a continuous-mode boot fit, then a whole open-loop request
trace driven through the daemon — checkpointed unit by unit into a
:class:`~repro.recovery.journal.RunJournal`:

* a ``calibration`` record per knot of the boot fit (appended by the
  :class:`~repro.calibration.cache.CalibrationCache`, exactly as in a
  supervised offline run);
* a ``recalibration`` record per knot the fresh tier re-validated,
  keyed by (design sequence, knot);
* an ``incumbent`` record per committed design-request answer — the
  service's state-changing unit;
* a final ``result`` record.

Everything between journaled units is deterministic arithmetic: the
trace is a pure function of the scenario, admission and batching run
on the simulated clock, searches are pure surrogate arithmetic, and
per-unit fault streams depend only on the plan and the knot. So a
session killed at *any* unit boundary (the ``BudgetedJournal`` crash
point — including mid-batch, between a batch's journaled units) and
resumed produces a bit-identical incumbent trajectory, journal, and
response stream (asserted in ``tests/serve/test_chaos.py``).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.calibration.cache import CalibrationCache
from repro.core.problem import VirtualizationDesignProblem
from repro.faults import FaultPlan, RetryPolicy
from repro.optimizer.params import OptimizerParameters
from repro.recovery.kernel import (
    JournaledRun,
    RunOutcome,
    calibrating_stack,
    plan_meta,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.clock import SimulatedClock
from repro.serve.daemon import ServeDaemon
from repro.serve.requests import ANSWERED, DEGRADED, REJECTED, ServeResponse
from repro.serve.service import DesignService, ServeConfig
from repro.serve.trace import ServeScenario, generate_trace
from repro.surrogate import design_continuous
from repro.surrogate.surface import knot_key


def quantile(sorted_values: List[float], q: float) -> float:
    """Exact empirical quantile (nearest-rank) of pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(len(sorted_values), rank) - 1]


@dataclass
class SessionStats:
    """Aggregate accounting over one session's responses."""

    requests: int = 0
    answered: int = 0
    degraded: int = 0
    rejected: int = 0
    #: Load-shedding rejections (queue full + quota), a subset of
    #: ``rejected``.
    shed: int = 0
    by_tier: Dict[str, int] = field(default_factory=dict)
    by_reason: Dict[str, int] = field(default_factory=dict)
    #: Latency percentiles over served (answered + degraded) requests,
    #: simulated seconds.
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def degraded_fraction(self) -> float:
        served = self.answered + self.degraded
        return self.degraded / served if served else 0.0

    @classmethod
    def from_responses(cls, responses: List[ServeResponse]
                       ) -> "SessionStats":
        stats = cls(requests=len(responses))
        latencies: List[float] = []
        for response in responses:
            if response.status == ANSWERED:
                stats.answered += 1
            elif response.status == DEGRADED:
                stats.degraded += 1
            else:
                stats.rejected += 1
                reason = response.reason or "unknown"
                stats.by_reason[reason] = stats.by_reason.get(reason, 0) + 1
                if reason in ("overloaded", "quota"):
                    stats.shed += 1
            if response.status in (ANSWERED, DEGRADED):
                tier = response.tier or "unknown"
                stats.by_tier[tier] = stats.by_tier.get(tier, 0) + 1
                latencies.append(response.latency_seconds)
        latencies.sort()
        stats.p50_seconds = quantile(latencies, 0.50)
        stats.p99_seconds = quantile(latencies, 0.99)
        return stats

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "answered": self.answered,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "shed": self.shed,
            "by_tier": dict(sorted(self.by_tier.items())),
            "by_reason": dict(sorted(self.by_reason.items())),
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
        }


@dataclass
class ServeRun(RunOutcome):
    """What one :meth:`ServeSupervisor.run` invocation produced;
    ``design`` is the final incumbent (None when killed during the
    boot fit or before any trace processing)."""

    responses: List[ServeResponse] = field(default_factory=list)
    stats: Optional[SessionStats] = None
    #: Design requests committed over the whole session.
    design_seq: int = 0
    breaker_trips: int = 0
    surface: Any = None


class ServeSupervisor:
    """Drives a crash-recoverable serving session."""

    def __init__(self, problem: VirtualizationDesignProblem,
                 journal_path, plan: Optional[FaultPlan] = None, *,
                 scenario: Optional[ServeScenario] = None,
                 config: Optional[ServeConfig] = None,
                 algorithm: str = "greedy", grid: int = 4,
                 fine_factor: int = 8, surrogate_tol: float = 0.05,
                 surrogate_budget: Optional[int] = 24,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_units: Optional[int] = None,
                 extra_meta: Optional[Dict[str, Any]] = None,
                 workbench=None,
                 workers: Optional[int] = None, pool: str = "thread"):
        self._problem = problem
        self._journal_path = journal_path
        self._plan = plan or FaultPlan(name="none")
        self._scenario = scenario or ServeScenario()
        self._config = config or ServeConfig()
        self._algorithm = algorithm
        self._grid = grid
        self._fine_factor = fine_factor
        self._surrogate_tol = surrogate_tol
        self._surrogate_budget = surrogate_budget
        self._retry_policy = retry_policy or RetryPolicy.resilient()
        self._max_units = max_units
        self._extra_meta = dict(extra_meta or {})
        # Like the other supervisors: workbench and engine shape are
        # not part of the journal identity.
        self._workbench = workbench
        self._workers = workers
        self._pool = pool
        #: Populated by :meth:`run`, for inspection.
        self.cache: Optional[CalibrationCache] = None
        self.service: Optional[DesignService] = None

    # -- run identity ------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        meta = {
            "run_kind": "serve",
            "plan": plan_meta(self._plan),
            "scenario": self._scenario.as_dict(),
            "config": self._config.as_dict(),
            "algorithm": self._algorithm,
            "grid": self._grid,
            "machine": self._problem.machine.name,
            "workloads": self._problem.workload_names(),
            "controlled": [str(kind) for kind
                           in self._problem.controlled_resources],
            "workers": self._workers,
            "fine_factor": self._fine_factor,
            "surrogate_tol": self._surrogate_tol,
            "surrogate_budget": self._surrogate_budget,
        }
        meta.update(self._extra_meta)
        return meta

    _IDENTITY_KEYS = ("run_kind", "plan", "scenario", "config",
                      "algorithm", "grid", "machine", "workloads",
                      "controlled", "fine_factor", "surrogate_tol",
                      "surrogate_budget")

    # -- the run -----------------------------------------------------------

    def run(self, resume: bool = False) -> ServeRun:
        """Execute (or resume) the serving session; see module doc."""
        # Generating the trace is pure and cheap; doing it first means a
        # misconfigured scenario fails fast (typed, exit code 2) before
        # any journal is created or calibration spent.
        trace = generate_trace(self._scenario,
                               self._problem.workload_names())
        session = ServeRun(design=None)
        with (JournaledRun(self._journal_path, self._meta(),
                           self._IDENTITY_KEYS, resume=resume,
                           max_units=self._max_units) as run,
              calibrating_stack(
                  run.journal, self._problem.machine, plan=self._plan,
                  retry_policy=self._retry_policy,
                  workbench=self._workbench, workers=self._workers,
                  pool=self._pool) as (_injector, engine, runner, cache)):
            self.cache = cache
            # Journaled units the service consults instead of redoing:
            # (design_seq, knot) -> parameters; design_seq -> record.
            replay: Dict[str, Any] = {"recalibrations": {}, "incumbents": {}}

            def recalibration(data: Dict[str, Any]) -> None:
                key = (int(data["design_seq"]), knot_key(data["allocation"]))
                replay["recalibrations"][key] = (
                    OptimizerParameters.from_dict(data["parameters"]))

            def incumbent(data: Dict[str, Any]) -> None:
                replay["incumbents"][int(data["design_seq"])] = data

            run.replay({"calibration": cache.replay_record,
                        "recalibration": recalibration,
                        "incumbent": incumbent})
            outcome = design_continuous(
                self._problem, cache, algorithm=self._algorithm,
                grid=self._grid, fine_factor=self._fine_factor,
                tolerance=self._surrogate_tol,
                max_calibrations=self._surrogate_budget, engine=engine)
            service = DesignService(
                self._problem, outcome.surface, outcome.design,
                config=self._config, clock=SimulatedClock(),
                runner=runner, journal=run.journal, replay=replay,
                engine=engine,
                breaker=CircuitBreaker(self._config.breaker_trip_after,
                                       self._retry_policy))
            service.configure_search(self._algorithm, self._grid,
                                     self._fine_factor)
            self.service = service
            session.responses = asyncio.run(
                ServeDaemon(service).run_trace(trace))
            session.design = service.incumbent
            session.surface = service.surface
            session.design_seq = service.design_seq
            session.breaker_trips = service.breaker.trips
            session.stats = SessionStats.from_responses(session.responses)
            run.commit(self._result_record(session))
        return run.settle(session)

    def _result_record(self, run: ServeRun) -> Dict[str, Any]:
        stats = run.stats
        record: Dict[str, Any] = {
            "design_seq": run.design_seq,
            "breaker_trips": run.breaker_trips,
        }
        if stats is not None:
            record.update(stats.as_dict())
        design = run.design
        if design is not None:
            record["allocation"] = design.allocation.as_record()
            record["predicted_total_cost"] = design.predicted_total_cost
        return record

"""The closed loop: observe, detect drift, recalibrate, redesign.

:class:`OnlineSupervisor` is the drift-aware counterpart of
:class:`~repro.recovery.supervisor.RunSupervisor`: one complete
*online* run — an initial continuous-mode design, then ``epochs``
rounds of deploy-observe-detect-repair against a
:class:`~repro.drift.world.DegradingWorld` — checkpointed unit by unit
into a :class:`~repro.recovery.journal.RunJournal`:

* a ``calibration`` record per knot of the initial fit (appended by
  the :class:`~repro.calibration.cache.CalibrationCache`, exactly as
  in a supervised offline run);
* an ``observation`` record per executed workload measurement — the
  expensive, engine-backed unit of the online phase;
* a ``drift`` record per detected drift event (cheap, but a unit
  boundary: a kill between detection and repair resumes into the
  repair);
* a ``recalibration`` record per knot a drift repair re-measured on
  the *degraded* host;
* a ``redesign`` record per warm-started re-design;
* a final ``result`` record.

Everything between journaled units is deterministic arithmetic — the
world's capacity trajectory is a pure function of the fault plan and is
re-advanced from epoch zero on resume, predictions and detection state
are pure functions of the journaled observations, and the warm-started
search is deterministic — so a run killed at *any* unit boundary and
resumed produces a bit-identical journal, design, and budget spend
(asserted in ``tests/drift/``). The recalibration budget counts
*requests* with replays included (the
:meth:`~repro.surrogate.SurrogateBuilder.refit` convention), which is
what makes the budget's stop decision resume-stable.

Fault handling follows the PR 2 contract: measurements during both the
initial fit and drift repairs run under the plan's per-unit fault
injector with the resilient retry policy; a repair whose calibration
fails permanently keeps the stale knot and counts a fallback instead
of aborting the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.calibration.cache import CalibrationCache
from repro.calibration.runner import CalibrationRunner
from repro.core.cost_model import MeasuredCostModel, OptimizerCostModel
from repro.core.designer import Design
from repro.core.problem import VirtualizationDesignProblem
from repro.drift.monitor import DriftEvent, DriftMonitor
from repro.drift.observe import Observation, ObservationLog
from repro.drift.planner import RecalibrationPlanner
from repro.drift.world import DegradingWorld
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.recovery.journal import BudgetedJournal
from repro.recovery.kernel import (
    JournaledRun,
    RunOutcome,
    calibrating_stack,
    plan_meta,
)
from repro.surrogate import SurrogateBuilder, design_continuous, warm_start
from repro.surrogate.surface import Knot, knot_key
from repro.util.errors import DriftError
from repro.virt.resources import ResourceVector

#: Default epochs for an online run.
DEFAULT_EPOCHS = 8

#: Default Page–Hinkley threshold (log-residual units; ~0.15 alarms
#: once observed times run ≳15% away from predictions for a few epochs).
DEFAULT_DRIFT_THRESHOLD = 0.15

#: Default calibration-request budget for drift repairs.
DEFAULT_RECAL_BUDGET = 12


@dataclass
class OnlineRun(RunOutcome):
    """What one :meth:`OnlineSupervisor.run` invocation produced;
    ``design`` is the final incumbent (None when killed during the
    initial fit), units are of every journaled kind."""

    #: Epochs fully processed by this invocation.
    epochs: int = 0
    #: Every drift event detected, in detection order.
    events: List[DriftEvent] = field(default_factory=list)
    #: Knots overwritten with fresh parameters by drift repairs.
    recalibrations: int = 0
    #: Warm-started re-designs executed.
    redesigns: int = 0
    #: Recalibration requests spent (replays included).
    budget_spent: int = 0
    #: Requests left in the recalibration budget (None = unbounded).
    budget_remaining: Optional[int] = None
    #: Per-epoch summaries: epoch, capacity, observed/predicted
    #: seconds, drift events, refits.
    trajectory: List[Dict[str, Any]] = field(default_factory=list)
    #: The full observation history.
    observations: Optional[ObservationLog] = None
    #: The surface as last repaired (None when killed during the fit).
    surface: Any = None


class OnlineSupervisor:
    """Drives a crash-recoverable closed-loop online design run."""

    def __init__(self, problem: VirtualizationDesignProblem,
                 journal_path, plan: Optional[FaultPlan] = None, *,
                 epochs: int = DEFAULT_EPOCHS,
                 drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
                 recal_budget: Optional[int] = DEFAULT_RECAL_BUDGET,
                 algorithm: str = "greedy", grid: int = 4,
                 fine_factor: int = 8, surrogate_tol: float = 0.05,
                 surrogate_budget: Optional[int] = 24,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_evaluations: Optional[int] = None,
                 max_units: Optional[int] = None,
                 extra_meta: Optional[Dict[str, Any]] = None,
                 workbench=None,
                 workers: Optional[int] = None, pool: str = "thread"):
        if epochs < 1:
            raise DriftError("an online run needs at least one epoch")
        if recal_budget is not None and recal_budget < 1:
            raise DriftError("recal_budget must be at least 1 (or None)")
        self._problem = problem
        self._journal_path = journal_path
        self._plan = plan or FaultPlan(name="none")
        self._epochs = epochs
        self._drift_threshold = drift_threshold
        self._recal_budget = recal_budget
        self._algorithm = algorithm
        self._grid = grid
        self._fine_factor = fine_factor
        self._surrogate_tol = surrogate_tol
        self._surrogate_budget = surrogate_budget
        self._retry_policy = retry_policy or RetryPolicy.resilient()
        self._max_evaluations = max_evaluations
        self._max_units = max_units
        self._extra_meta = dict(extra_meta or {})
        # Like RunSupervisor: the workbench and the engine shape are
        # not part of the journal identity.
        self._workbench = workbench
        self._workers = workers
        self._pool = pool
        #: Populated by :meth:`run`, for inspection.
        self.cache: Optional[CalibrationCache] = None

    # -- run identity ------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        meta = {
            "run_kind": "drift",
            "plan": plan_meta(self._plan),
            "epochs": self._epochs,
            "drift_threshold": self._drift_threshold,
            "recal_budget": self._recal_budget,
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

    _IDENTITY_KEYS = ("run_kind", "plan", "epochs", "drift_threshold",
                      "recal_budget", "algorithm", "grid", "machine",
                      "workloads", "controlled", "fine_factor",
                      "surrogate_tol", "surrogate_budget")

    # -- the run -----------------------------------------------------------

    def run(self, resume: bool = False) -> OnlineRun:
        """Execute (or resume) the online loop; see the module docstring."""
        online = OnlineRun(design=None)
        with (JournaledRun(self._journal_path, self._meta(),
                           self._IDENTITY_KEYS, resume=resume,
                           max_units=self._max_units) as run,
              calibrating_stack(
                  run.journal, self._problem.machine, plan=self._plan,
                  retry_policy=self._retry_policy,
                  workbench=self._workbench, workers=self._workers,
                  pool=self._pool) as (injector, engine, _runner, cache)):
            self.cache = cache
            replay = self._replay(run, cache)
            outcome = design_continuous(
                self._problem, cache, algorithm=self._algorithm,
                grid=self._grid, fine_factor=self._fine_factor,
                tolerance=self._surrogate_tol,
                max_calibrations=self._surrogate_budget,
                max_evaluations=self._max_evaluations, engine=engine)
            self._online_phase(outcome, online, run.journal, replay,
                               injector, engine)
            run.commit(self._result_record(online))
        return run.settle(online)

    # -- replay ------------------------------------------------------------

    @staticmethod
    def _replay(run: JournaledRun, cache: CalibrationCache) -> Dict:
        """Load journaled units into replay maps (and the cache)."""
        replay: Dict[str, Any] = {
            "observations": {},    # (epoch, workload) -> observed seconds
            "recalibrations": {},  # (epoch, knot) -> OptimizerParameters
            "drift": set(),        # (epoch, region)
            "redesigns": set(),    # epoch
        }

        def observation(data: Dict[str, Any]) -> None:
            key = (int(data["epoch"]), str(data["workload"]))
            replay["observations"][key] = float(data["observed"])

        def recalibration(data: Dict[str, Any]) -> None:
            key = (int(data["epoch"]), knot_key(data["allocation"]))
            replay["recalibrations"][key] = (
                OptimizerParameters.from_dict(data["parameters"]))

        run.replay({
            "calibration": cache.replay_record,
            "observation": observation,
            "recalibration": recalibration,
            "drift": lambda data: replay["drift"].add(
                (int(data["epoch"]), tuple(data["region"]))),
            "redesign": lambda data: replay["redesigns"].add(
                int(data["epoch"])),
        })
        return replay

    # -- the online phase --------------------------------------------------

    def _online_phase(self, outcome, run: OnlineRun,
                      budgeted: BudgetedJournal, replay: Dict,
                      injector: Optional[FaultInjector], engine) -> None:
        surface = outcome.surface
        incumbent = outcome.design
        world = DegradingWorld(self._problem.machine, self._plan)
        monitor = DriftMonitor(self._drift_threshold)
        log = ObservationLog()
        builder = SurrogateBuilder(self.cache,
                                   tolerance=self._surrogate_tol,
                                   max_calibrations=self._recal_budget)
        planner = RecalibrationPlanner(builder)
        run.observations = log
        run.budget_remaining = planner.remaining
        self._set_budget_gauge(planner)

        for epoch in range(self._epochs):
            capacity = world.advance()
            machine_now = world.machine
            epoch_events = self._observe_epoch(
                epoch, capacity, machine_now, surface, incumbent,
                monitor, log, budgeted, replay, run)
            refits = 0
            if epoch_events:
                surface, refits = self._repair(
                    epoch, machine_now, surface, epoch_events, monitor,
                    planner, budgeted, replay, injector, engine)
                run.recalibrations += refits
                incumbent = self._redesign(epoch, surface, incumbent,
                                           budgeted, replay, run)
                # The model was re-anchored: detection state measured
                # against the pre-repair fit must not keep alarming.
                monitor.reset()
            run.trajectory.append({
                "epoch": epoch,
                "capacity": capacity,
                "observed_seconds": log.epoch_total(epoch),
                "drift_events": len(epoch_events),
                "refits": refits,
            })
            run.epochs = epoch + 1
            metrics.counter("drift.epochs").inc()

        run.design = incumbent
        run.surface = surface
        run.budget_spent = planner.spent
        run.budget_remaining = planner.remaining

    def _observe_epoch(self, epoch: int, capacity: float, machine_now,
                       surface, incumbent: Design, monitor: DriftMonitor,
                       log: ObservationLog, budgeted: BudgetedJournal,
                       replay: Dict, run: OnlineRun) -> List[DriftEvent]:
        """Execute every workload once; feed residuals to the monitor.

        Fresh measurements journal an ``observation`` unit; replayed
        epochs take the observed time from the journal without
        re-executing. Predictions are recomputed either way — they are
        pure surrogate arithmetic over the current (deterministic)
        surface, so the resumed residual stream is bit-identical.
        """
        model = OptimizerCostModel(surface)
        measured = MeasuredCostModel(machine_now, calibration=surface)
        events: List[DriftEvent] = []
        for name in sorted(self._problem.workload_names()):
            spec = self._problem.spec(name)
            allocation = incumbent.allocation.vector_for(name)
            predicted = model.cost(spec, allocation)
            key = (epoch, name)
            if key in replay["observations"]:
                observed = replay["observations"][key]
            else:
                observed = measured.cost(spec, allocation)
                budgeted.append("observation", {
                    "epoch": epoch,
                    "workload": name,
                    "allocation": list(allocation.as_tuple()),
                    "predicted": predicted,
                    "observed": observed,
                    "capacity": capacity,
                })
            observation = Observation(
                epoch=epoch, workload=name,
                allocation=knot_key(allocation.as_tuple()),
                predicted=predicted, observed=observed)
            log.record(observation)
            region = surface.region_of(allocation)
            event = monitor.observe(observation, region)
            if event is not None:
                events.append(event)
                run.events.append(event)
                drift_key = (epoch, tuple(event.region))
                if drift_key not in replay["drift"]:
                    budgeted.append("drift", {
                        "epoch": event.epoch,
                        "region": list(event.region),
                        "statistic": event.statistic,
                        "mean_residual": event.mean_residual,
                        "observations": event.observations,
                    })
                    replay["drift"].add(drift_key)
        return events

    def _repair(self, epoch: int, machine_now, surface,
                events: List[DriftEvent], monitor: DriftMonitor,
                planner: RecalibrationPlanner, budgeted: BudgetedJournal,
                replay: Dict, injector: Optional[FaultInjector],
                engine) -> Tuple[Any, int]:
        """Targeted recalibration of the drifted regions, on budget.

        Fresh knots re-measure on the *degraded* host through a runner
        that carries the per-unit fault injector and the resilient
        retry policy — drift repairs face the same hostile environment
        as the original calibration (PR 2 contract). Each fresh knot
        journals a ``recalibration`` unit; replayed knots answer from
        the journal but still spend budget, keeping the stop decision
        resume-stable.
        """
        plan = planner.plan(surface, events, monitor.signals())
        if plan.is_empty:
            return surface, 0
        recal_runner = CalibrationRunner(
            machine_now, workbench=self._workbench, injector=injector,
            retry_policy=self._retry_policy, engine=engine)

        def calibrate(knot: Knot):
            key = (epoch, knot)
            params = replay["recalibrations"].get(key)
            if params is not None:
                return params
            params = recal_runner.parameters_for(
                ResourceVector.of(cpu=knot[0], memory=knot[1], io=knot[2]))
            budgeted.append("recalibration", {
                "epoch": epoch,
                "allocation": list(knot),
                "parameters": params.as_dict(),
            })
            return params

        report = planner.execute(surface, plan, calibrate)
        if report.refits:
            attempted = set(plan.knots[:report.requests])
            touched = sum(
                1 for region in plan.regions
                if any(knot in attempted
                       for knot in surface.region_corners(region)))
            metrics.counter("drift.recalibrations").inc(report.refits)
            metrics.counter("drift.regions_refit").inc(touched)
        self._set_budget_gauge(planner)
        return report.surface, report.refits

    def _redesign(self, epoch: int, surface, incumbent: Design,
                  budgeted: BudgetedJournal, replay: Dict,
                  run: OnlineRun) -> Design:
        """Warm-started re-design from the incumbent allocation.

        The search is pure surrogate arithmetic and deterministic, so
        (like continuous-mode searches in the offline supervisor) it
        re-runs on resume; only the outcome is journaled, once per
        epoch, as an audit-trail unit.
        """
        design = warm_start(
            self._problem, surface, incumbent.allocation,
            grid=self._grid, fine_factor=self._fine_factor,
            algorithm_label=f"warm-{self._algorithm}")
        if epoch not in replay["redesigns"]:
            budgeted.append("redesign", {
                "epoch": epoch,
                "allocation": design.allocation.as_record(),
                "predicted_total_cost": design.predicted_total_cost,
            })
            replay["redesigns"].add(epoch)
        run.redesigns += 1
        metrics.counter("drift.redesigns").inc()
        return design

    @staticmethod
    def _set_budget_gauge(planner: RecalibrationPlanner) -> None:
        remaining = planner.remaining
        if remaining is not None:
            metrics.gauge("drift.budget_remaining").set(remaining)

    def _result_record(self, run: OnlineRun) -> Dict[str, Any]:
        design = run.design
        record: Dict[str, Any] = {
            "epochs": run.epochs,
            "drift_events": len(run.events),
            "redesigns": run.redesigns,
            "budget_spent": run.budget_spent,
            "budget_remaining": run.budget_remaining,
        }
        if design is not None:
            record["allocation"] = design.allocation.as_record()
            record["predicted_total_cost"] = design.predicted_total_cost
        return record

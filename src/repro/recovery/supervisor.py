"""The run supervisor: design runs that survive being killed.

:class:`RunSupervisor` drives one complete design run — calibrations,
the combinatorial search, and a watchdog-supervised deployment — under
a fault plan, checkpointing every completed unit of work into a
:class:`~repro.recovery.journal.RunJournal`:

* a ``calibration`` record per freshly calibrated allocation
  (appended by :class:`~repro.calibration.cache.CalibrationCache`);
* an ``evaluation`` record per fresh cost-model evaluation
  (appended by :class:`JournalingCostModel`) — grid mode only: in
  continuous mode evaluations are pure surrogate arithmetic, so only
  the calibrations (the expensive, experiment-backed units) journal
  and the fit/polish/search pipeline simply re-runs on resume;
* a final ``result`` record carrying the design summary and the
  watchdog's recovery actions.

Resume (:meth:`RunSupervisor.run` with ``resume=True``) replays the
journal into the calibration cache and the cost-model memo, then
continues from the first unit the journal does not cover. Because the
fault injector runs in *per-unit* mode, the fault stream inside each
unit depends only on the unit's label — so a resumed run observes
exactly the faults the uninterrupted run would have, and produces
**bit-identical** parameters and design. The equivalence tests in
``tests/recovery`` assert this after killing a run at every unit
boundary.

A "kill" is modeled by ``max_units``: the supervisor raises an internal
stop after that many *new* journal commits, leaving the journal exactly
as a ``kill -9`` between two appends would. (A kill mid-append leaves a
torn tail instead; reopening the journal drops it, which simply re-runs
that one unit.) The protocol itself — open or create, identity check,
replay, budget, result commit — is :class:`~repro.recovery.kernel.
JournaledRun`'s; this module supplies only what is the design run's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Dict, List, Optional

from repro.calibration.cache import CalibrationCache
from repro.core.cost_model import (
    BatchOutcome,
    CostModel,
    OptimizerCostModel,
)
from repro.core.designer import Design, VirtualizationDesigner
from repro.core.problem import VirtualizationDesignProblem
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.recovery.kernel import (
    JournaledRun,
    RunOutcome,
    calibrating_stack,
    plan_meta,
)
from repro.util.errors import RecoveryError
from repro.virt.health import HealthMonitor, RecoveryAction
from repro.virt.monitor import VirtualMachineMonitor
from repro.virt.resources import ResourceVector


class JournalingCostModel(CostModel):
    """Wraps a cost model so every fresh evaluation is journaled.

    Replayed evaluations are seeded into this wrapper's memo (via
    :meth:`CostModel.seed`) and never reach the inner model, so resume
    neither repeats the work nor re-journals the record.

    A subclass whose costs depend on more than (workload, allocation)
    folds the extra component into :meth:`_key` and
    :meth:`_evaluation_record` — the co-tuning model adds the index
    configuration; the journaling itself exists only here.
    """

    kind = "journaling"

    def __init__(self, inner: CostModel, journal):
        super().__init__()
        self._inner = inner
        self._journal = journal

    def _key(self, spec, allocation) -> tuple:
        # Mirror the inner model's keying (e.g. a config-aware
        # optimizer model folds the catalog fingerprint in), so the
        # wrapper never serves a value the inner model would recompute.
        # Inner models outside the CostModel hierarchy (test doubles)
        # fall back to the default (workload, allocation) key.
        inner_key = getattr(self._inner, "_key", None)
        if inner_key is not None:
            return inner_key(spec, allocation)
        return super()._key(spec, allocation)

    def _evaluation_record(self, spec, allocation,
                           value: float) -> Dict[str, Any]:
        return {
            "workload": spec.name,
            "allocation": list(allocation.as_tuple()),
            "cost": value,
        }

    def replayer(self, specs):
        """Replay handler seeding journaled ``evaluation`` records."""
        by_name = {spec.name: spec for spec in specs}

        def replay(data: Dict[str, Any]) -> None:
            spec = by_name.get(data["workload"])
            if spec is None:
                raise RecoveryError(f"journal evaluation names unknown "
                                    f"workload {data['workload']!r}")
            self._seed_record(spec, data)
        return replay

    def _seed_record(self, spec, data: Dict[str, Any]) -> None:
        shares = data["allocation"]
        self.seed(spec, ResourceVector.of(cpu=shares[0], memory=shares[1],
                                          io=shares[2]), float(data["cost"]))

    def _commit(self, key: tuple, spec, allocation, value: float) -> None:
        self._journal.append(
            "evaluation", self._evaluation_record(spec, allocation, value))
        self._memo[key] = value
        self.evaluations += 1

    def cost(self, spec, allocation) -> float:
        key = self._key(spec, allocation)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self._inner.cost(spec, allocation)
        self._commit(key, spec, allocation, value)
        return value

    def cost_many(self, pairs, engine=None) -> BatchOutcome:
        """Batched evaluation with per-result journaling.

        Misses are computed through the inner model's batch API (which
        may fan out over *engine*), then journaled one record per pair
        in first-appearance order — so a kill mid-batch commits a
        deterministic prefix and resume re-runs exactly the uncommitted
        tail. ``fresh`` counts wrapper-memo misses, matching what
        :meth:`cost` journals: a value the inner model happened to have
        memoized but the journal never recorded still gets a record.
        """
        pairs = list(pairs)
        keys = [self._key(spec, allocation) for spec, allocation in pairs]
        values: Dict[tuple, float] = {}
        todo = []
        todo_keys = []
        pending = set()
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
        fresh = 0
        if todo:
            inner = self._inner.cost_many(todo, engine=engine)
            for key, (spec, allocation), value in zip(todo_keys, todo,
                                                      inner.costs):
                self._commit(key, spec, allocation, value)
                fresh += 1
                values[key] = value
        return BatchOutcome(costs=[values[key] for key in keys],
                            fresh=fresh, hits=hits)

    def _cost(self, spec, allocation) -> float:  # pragma: no cover
        return self._inner.cost(spec, allocation)


@dataclass
class SupervisedRun(RunOutcome):
    """What one :meth:`RunSupervisor.run` invocation produced; units are
    calibrations + evaluations."""

    #: Watchdog recovery actions taken during the deployment phase.
    actions: List[RecoveryAction] = field(default_factory=list)


class RunSupervisor:
    """Drives a crash-recoverable design run under a fault plan."""

    def __init__(self, problem: VirtualizationDesignProblem,
                 journal_path, plan: Optional[FaultPlan] = None,
                 algorithm: str = "greedy", grid: int = 4,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_evaluations: Optional[int] = None,
                 watchdog_probes: int = 0,
                 max_units: Optional[int] = None,
                 extra_meta: Optional[Dict[str, Any]] = None,
                 workbench=None,
                 workers: Optional[int] = None, pool: str = "thread",
                 continuous: bool = False, fine_factor: int = 8,
                 surrogate_tol: float = 0.05,
                 surrogate_budget: Optional[int] = 24):
        self._problem = problem
        self._journal_path = journal_path
        self._plan = plan or FaultPlan(name="none")
        self._algorithm = algorithm
        self._grid = grid
        self._retry_policy = retry_policy or RetryPolicy.resilient()
        self._max_evaluations = max_evaluations
        self._watchdog_probes = watchdog_probes
        self._max_units = max_units
        self._extra_meta = dict(extra_meta or {})
        #: Continuous-allocation mode: fit a calibration surrogate
        #: (journaled knot by knot, so the fit is crash-recoverable)
        #: and search continuous allocations against it. Part of the
        #: journal identity — a continuous run cannot resume as a
        #: grid run or vice versa. The surrogate budget counts
        #: calibration *requests* (replayed knots included), so a
        #: resumed fit stops at exactly the same point.
        self._continuous = continuous
        self._fine_factor = fine_factor
        self._surrogate_tol = surrogate_tol
        self._surrogate_budget = surrogate_budget
        #: Optional calibration workbench override (smaller synthetic
        #: databases make the equivalence tests affordable). Not part of
        #: the journal identity: the caller must supply the same one on
        #: resume, exactly as they must supply the same problem.
        self._workbench = workbench
        #: Worker count / pool kind for the evaluation engine. Recorded
        #: in the journal meta for observability but deliberately NOT
        #: part of the journal identity: a run journaled at 4 workers is
        #: bit-identical to one at 1 worker, so resuming with a
        #: different count is legitimate (and tested).
        self._workers = workers
        self._pool = pool
        #: Populated by :meth:`run`; useful for parameter inspection.
        self.cache: Optional[CalibrationCache] = None
        self.health: Optional[HealthMonitor] = None

    # -- run identity ------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        plan = plan_meta(self._plan)
        # The design-run header has never recorded the degrade severity
        # (drift and serve headers do); plan dicts compare wholesale on
        # resume and journal bytes are the contract, so it stays out.
        del plan["host_degrade_factor"]
        meta = {
            "plan": plan,
            "algorithm": self._algorithm,
            "grid": self._grid,
            "machine": self._problem.machine.name,
            "workloads": self._problem.workload_names(),
            "controlled": [str(kind) for kind
                           in self._problem.controlled_resources],
            "watchdog_probes": self._watchdog_probes,
            "workers": self._workers,
            "continuous": self._continuous,
            "fine_factor": self._fine_factor,
            "surrogate_tol": self._surrogate_tol,
            "surrogate_budget": self._surrogate_budget,
        }
        meta.update(self._extra_meta)
        return meta

    _IDENTITY_KEYS = ("plan", "algorithm", "grid", "machine", "workloads",
                      "controlled", "watchdog_probes", "continuous",
                      "fine_factor", "surrogate_tol", "surrogate_budget")

    # -- the run -----------------------------------------------------------

    def run(self, resume: bool = False) -> SupervisedRun:
        """Execute (or resume) the design run; see the module docstring."""
        design, actions = None, []
        with (JournaledRun(self._journal_path, self._meta(),
                           self._IDENTITY_KEYS, resume=resume,
                           max_units=self._max_units) as run,
              calibrating_stack(
                  run.journal, self._problem.machine, plan=self._plan,
                  retry_policy=self._retry_policy,
                  workbench=self._workbench, workers=self._workers,
                  pool=self._pool) as (injector, engine, _runner, cache)):
            self.cache = cache
            cost_model = JournalingCostModel(OptimizerCostModel(cache),
                                             run.journal)
            run.replay({"calibration": cache.replay_record,
                        "evaluation": cost_model.replayer(
                            self._problem.specs)})
            if self._continuous:
                # Continuous mode journals only calibrations: every
                # knot the fit/polish pays for commits the moment it
                # completes, while the searches between calibrations
                # are pure surrogate arithmetic — cheap to re-run on
                # resume and impossible to double-charge. Journaling
                # their evaluations would poison the polish loop: a
                # memoized cost from an earlier, coarser surface would
                # shadow the refitted one.
                from repro.surrogate import design_continuous

                outcome = design_continuous(
                    self._problem, cache, algorithm=self._algorithm,
                    grid=self._grid, fine_factor=self._fine_factor,
                    tolerance=self._surrogate_tol,
                    max_calibrations=self._surrogate_budget,
                    max_evaluations=self._max_evaluations,
                    engine=engine)
                design = outcome.design
                designer = VirtualizationDesigner(
                    self._problem, OptimizerCostModel(outcome.surface))
            else:
                designer = VirtualizationDesigner(self._problem, cost_model)
                design = designer.design(
                    self._algorithm, grid=self._grid,
                    max_evaluations=self._max_evaluations,
                    engine=engine, continuous=False,
                    fine_factor=self._fine_factor)
            actions = self._deploy_and_watch(designer, design, injector)
            run.commit(self._result_record(design, actions))
        return run.settle(SupervisedRun(design=design, actions=actions))

    # -- the watchdog-supervised deployment phase --------------------------

    def _deploy_and_watch(self, designer: VirtualizationDesigner,
                          design: Design,
                          injector: Optional[FaultInjector]
                          ) -> List[RecoveryAction]:
        """Apply the design to a two-host VMM and run the watchdog.

        The standby host exists so migrate-on-host-degrade has somewhere
        to go; a single-host deployment could only restart or evict.
        Entirely simulated and deterministic (the injector's dedicated
        ops stream), so re-running it on resume reproduces the same
        actions the uninterrupted run saw.
        """
        if self._watchdog_probes <= 0:
            return []
        machine = self._problem.machine
        standby = dc_replace(machine, name=machine.name + "-standby")
        vmm = VirtualMachineMonitor([machine, standby])
        designer.apply(vmm, design, machine_name=machine.name)
        health = HealthMonitor(vmm, injector=injector)
        for name in design.allocation.workload_names():
            health.register(name)
        for _probe in range(self._watchdog_probes):
            health.probe()
        self.health = health
        return list(health.actions)

    def _result_record(self, design: Design,
                       actions: List[RecoveryAction]) -> Dict[str, Any]:
        return {
            "algorithm": design.algorithm,
            "stopped": design.stopped,
            "predicted_total_cost": design.predicted_total_cost,
            "allocation": design.allocation.as_record(),
            "actions": [action.as_dict() for action in actions],
        }

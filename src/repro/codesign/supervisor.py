"""Crash-recoverable co-tuning runs.

A co-tuning run interleaves calibrations, candidate what-ifs, and
allocation searches; :class:`CodesignSupervisor` journals each paid-for
unit into a :class:`~repro.recovery.journal.RunJournal` so a killed run
resumes without repeating work — and, because the alternation is
deterministic, resumes to a **bit-identical** co-design (asserted by
``tests/codesign/test_supervisor.py`` at every unit boundary, the same
way the single-host and fleet equivalence suites assert it).

Units of work:

* a ``calibration`` record per freshly calibrated allocation (appended
  by :class:`~repro.calibration.cache.CalibrationCache`);
* an ``evaluation`` record per fresh what-if evaluation, carrying the
  workload, the allocation, **and the index configuration** it was
  costed under — the configuration is part of the replay key, so a
  cost measured with a hypothetical index in place can never be
  replayed into a different configuration (the memo analogue of the
  ``Catalog.fingerprint()`` invalidation the program table uses).

Replay seeds the journaling model's memo; the resumed run re-walks the
deterministic alternation, hits the memo for every journaled unit, and
continues at exactly the unit the killed run stopped at. Worker count
and pool kind are recorded for observability but are not identity: a
run journaled at 4 workers resumes serially bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.calibration.cache import CalibrationCache
from repro.codesign.designer import CodesignDesigner, CoDesign, IndexChoice
from repro.core.cost_model import OptimizerCostModel, _allocation_key
from repro.core.problem import VirtualizationDesignProblem
from repro.recovery.kernel import (
    JournaledRun,
    RunOutcome,
    calibrating_stack,
    journaled_result,
)
from repro.recovery.supervisor import JournalingCostModel


def _config_of(spec) -> tuple:
    """The spec's current index configuration, as a stable tuple.

    Every index — real or hypothetical — participates: what-if costs
    depend on all of them. Sorted, so the key is independent of DDL
    order.
    """
    catalog = spec.database.catalog
    config = []
    for table_name in catalog.table_names():
        for idx in catalog.table(table_name).indexes.values():
            config.append((idx.name, idx.table_name, idx.column_name,
                           bool(idx.hypothetical)))
    return tuple(sorted(config))


class JournalingCodesignModel(JournalingCostModel):
    """Journals fresh what-if evaluations keyed by (workload, allocation,
    index configuration).

    The configuration must be in the key: the co-tuning loop evaluates
    the *same* (workload, allocation) pair under many hypothetical
    index sets, and replay happens before any DDL has been re-applied —
    a configuration-blind key would seed one configuration's cost into
    all of them.
    """

    kind = "codesign-journaling"

    def _key(self, spec, allocation) -> tuple:
        return (spec.name, _allocation_key(allocation), _config_of(spec))

    def _evaluation_record(self, spec, allocation,
                           value: float) -> Dict[str, Any]:
        record = super()._evaluation_record(spec, allocation, value)
        record["config"] = [list(entry) for entry in _config_of(spec)]
        return record

    def _seed_record(self, spec, data: Dict[str, Any]) -> None:
        config = tuple(
            (str(n), str(t), str(c), bool(h))
            for n, t, c, h in data["config"]
        )
        shares = data["allocation"]
        key = (spec.name, tuple(round(float(s), 6) for s in shares), config)
        with self._memo_lock:
            self._memo[key] = float(data["cost"])


@dataclass
class CodesignRun(RunOutcome):
    """What one :meth:`CodesignSupervisor.run` invocation produced: the
    :class:`CoDesign`; units are calibrations + evaluations."""


class CodesignSupervisor:
    """Drives a journaled, resumable co-tuning run."""

    def __init__(self, problem: VirtualizationDesignProblem, journal_path,
                 *, storage_budget: int,
                 algorithm: str = "greedy", grid: int = 4,
                 max_rounds: int = 6,
                 max_evaluations: Optional[int] = None,
                 max_units: Optional[int] = None,
                 scenario: Optional[Dict[str, Any]] = None,
                 workbench=None,
                 workers: Optional[int] = None, pool: str = "thread",
                 extra_meta: Optional[Dict[str, Any]] = None):
        self._problem = problem
        self._journal_path = journal_path
        self._storage_budget = storage_budget
        self._algorithm = algorithm
        self._grid = grid
        self._max_rounds = max_rounds
        self._max_evaluations = max_evaluations
        self._max_units = max_units
        #: Scenario parameters that rebuilt *problem*, if any; recorded
        #: so ``repro resume`` can reconstruct the problem alone.
        self._scenario = dict(scenario) if scenario else None
        self._workbench = workbench
        self._workers = workers
        self._pool = pool
        self._extra_meta = dict(extra_meta or {})
        #: Populated by :meth:`run` for parameter inspection.
        self.cache: Optional[CalibrationCache] = None

    # -- run identity ------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        meta = {
            "run_kind": "codesign",
            "machine": self._problem.machine.name,
            "workloads": self._problem.workload_names(),
            "controlled": [str(kind) for kind
                           in self._problem.controlled_resources],
            "algorithm": self._algorithm,
            "grid": self._grid,
            "storage_budget": self._storage_budget,
            "max_rounds": self._max_rounds,
            "workers": self._workers,
        }
        if self._scenario is not None:
            meta["scenario"] = dict(self._scenario)
        meta.update(self._extra_meta)
        return meta

    _IDENTITY_KEYS = ("run_kind", "machine", "workloads", "controlled",
                      "algorithm", "grid", "storage_budget", "max_rounds")

    # -- the run -----------------------------------------------------------

    def run(self, resume: bool = False) -> CodesignRun:
        """Execute (or resume) the co-tuning run."""
        design = None
        with (JournaledRun(self._journal_path, self._meta(),
                           self._IDENTITY_KEYS, resume=resume,
                           max_units=self._max_units) as run,
              calibrating_stack(
                  run.journal, self._problem.machine,
                  workbench=self._workbench, workers=self._workers,
                  pool=self._pool) as (_injector, engine, _runner, cache)):
            self.cache = cache
            cost_model = JournalingCodesignModel(
                OptimizerCostModel(cache, config_aware=True), run.journal)
            run.replay({"calibration": cache.replay_record,
                        "evaluation": cost_model.replayer(
                            self._problem.specs)})
            design = CodesignDesigner(
                self._problem, cost_model,
                storage_budget=self._storage_budget,
                algorithm=self._algorithm, grid=self._grid,
                max_rounds=self._max_rounds,
                max_evaluations=self._max_evaluations,
                engine=engine).design()
            run.commit(self._result_record(design))
        return run.settle(CodesignRun(design=design))

    @staticmethod
    def _result_record(design: CoDesign) -> Dict[str, Any]:
        return {
            "algorithm": design.algorithm,
            "total_cost": design.total_cost,
            "initial_cost": design.initial_total_cost,
            "rounds": design.rounds,
            "converged": design.converged,
            "trajectory": list(design.trajectory),
            "storage_budget": design.storage_budget,
            "allocation": design.allocation.as_record(),
            "indexes": {
                name: [choice.as_dict() for choice in choices]
                for name, choices in sorted(design.indexes.items())
            },
            "pages_used": dict(sorted(design.pages_used.items())),
            # Deliberately no evaluation count: fresh-work accounting is
            # invocation-relative (a resumed run pays fewer evaluations),
            # and the result record must be bit-identical either way.
        }


#: The journaled result record of a finished co-tuning run, if any.
replay_result = journaled_result


def choices_from_record(data: Dict[str, Any]) -> Dict[str, List[IndexChoice]]:
    """Decode a result record's per-workload index choices."""
    return {
        name: [IndexChoice.from_dict(entry) for entry in entries]
        for name, entries in data.get("indexes", {}).items()
    }

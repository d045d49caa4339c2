"""Crash-recoverable fleet placement runs.

A fleet run over hundreds of hosts solves thousands of per-host
allocation searches; :class:`FleetSupervisor` journals each completed
host design into a :class:`~repro.recovery.journal.RunJournal` so a
killed run resumes without repeating paid-for work — and, because the
placement loop is deterministic, resumes to a **bit-identical** final
placement (asserted by ``tests/fleet/test_supervisor.py`` exactly the
way the single-host equivalence suite asserts it).

The unit of work is one fresh host design: the designer's recorder
hook fires in deterministic order before each design enters the solve
cache, the journal commits it durably, and a kill between compute and
commit (simulated with ``max_units`` through
:class:`~repro.recovery.journal.BudgetedJournal`) simply re-runs that
one unit on resume. Replay seeds the solve cache, so every journaled
design is a cache hit and the resumed run's journal appends continue
at exactly the sequence number the killed run stopped at.

Journal identity covers the problem fingerprint (hosts, profiles,
grid), the clustering and search knobs, and the synthetic-scenario
parameters when the problem came from
:func:`~repro.fleet.scenario.synthetic_fleet` — the CLI's ``repro
resume`` rebuilds the problem from those recorded parameters alone.
Worker count and pool kind are recorded for observability but are
deliberately *not* identity: a run journaled at 8 process workers may
resume serially and still match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.fleet.placement import FleetDesign, FleetDesigner, HostDesign
from repro.fleet.problem import FleetProblem
from repro.recovery.kernel import JournaledRun, RunOutcome
from repro.util.errors import RecoveryError


@dataclass
class FleetRun(RunOutcome):
    """What one :meth:`FleetSupervisor.run` invocation produced: the
    converged :class:`FleetDesign`; units are host designs."""


class FleetSupervisor:
    """Drives a journaled, resumable fleet placement run."""

    def __init__(self, problem: FleetProblem, journal_path,
                 scenario: Optional[Dict[str, Any]] = None,
                 clusters: Optional[int] = None,
                 algorithm: str = "greedy",
                 max_rounds: int = 8,
                 move_fraction: float = 0.05,
                 candidates_per_move: int = 4,
                 max_units: Optional[int] = None,
                 engine=None,
                 extra_meta: Optional[Dict[str, Any]] = None):
        self._problem = problem
        self._journal_path = journal_path
        #: The synthetic-scenario parameters that rebuilt *problem*, if
        #: any; recorded in the meta so ``repro resume`` can
        #: reconstruct the problem without the caller.
        self._scenario = dict(scenario) if scenario else None
        self._clusters = clusters
        self._algorithm = algorithm
        self._max_rounds = max_rounds
        self._move_fraction = move_fraction
        self._candidates = candidates_per_move
        self._max_units = max_units
        self._engine = engine
        self._extra_meta = dict(extra_meta or {})

    # -- run identity ------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        meta = {
            "run_kind": "fleet",
            "fingerprint": self._problem.fingerprint(),
            "hosts": len(self._problem.hosts),
            "workloads": len(self._problem.profiles),
            "grid": self._problem.grid,
            "clusters": self._clusters,
            "algorithm": self._algorithm,
            "max_rounds": self._max_rounds,
            "move_fraction": self._move_fraction,
            "candidates_per_move": self._candidates,
        }
        if self._scenario is not None:
            meta["scenario"] = dict(self._scenario)
        meta.update(self._extra_meta)
        return meta

    _IDENTITY_KEYS = ("run_kind", "fingerprint", "grid", "clusters",
                      "algorithm", "max_rounds", "move_fraction",
                      "candidates_per_move")

    # -- the run -----------------------------------------------------------

    def run(self, resume: bool = False) -> FleetRun:
        """Execute (or resume) the placement run."""
        design = None
        with JournaledRun(self._journal_path, self._meta(),
                          self._IDENTITY_KEYS, resume=resume,
                          max_units=self._max_units) as run:
            # The engine is the caller's: the run uses it, never closes it.
            designer = FleetDesigner(
                self._problem,
                clusters=self._clusters,
                algorithm=self._algorithm,
                engine=self._engine,
                max_rounds=self._max_rounds,
                move_fraction=self._move_fraction,
                candidates_per_move=self._candidates,
                recorder=lambda host_design: run.journal.append(
                    "host-design", host_design.as_dict()),
            )
            run.replay({"host-design": self._host_design_replayer(designer)})
            design = designer.design()
            run.commit(self._result_record(design))
        return run.settle(FleetRun(design=design))

    # -- replay ------------------------------------------------------------

    def _host_design_replayer(self, designer: FleetDesigner):
        known = set(self._problem.host_names())
        workloads = set(self._problem.workload_names())

        def replay(data: Dict[str, Any]) -> None:
            design = HostDesign.from_dict(data)
            if design.host not in known:
                raise RecoveryError(
                    f"journal host-design names unknown host "
                    f"{design.host!r}")
            unknown = set(design.tenants) - workloads
            if unknown:
                raise RecoveryError(
                    f"journal host-design names unknown workload(s) "
                    f"{sorted(unknown)}")
            designer.seed_host_design(design)
        return replay

    @staticmethod
    def _result_record(design: FleetDesign) -> Dict[str, Any]:
        return {
            "total_cost": design.total_cost,
            "rounds": design.rounds,
            "moves": design.moves,
            "converged": design.converged,
            "trajectory": list(design.cost_trajectory),
            "assignment": dict(sorted(design.assignment.items())),
        }

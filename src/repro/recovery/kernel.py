"""The journaled-run kernel: the one protocol every supervisor shares.

Every run kind — supervised design run, co-tuning, serving session,
fleet placement, online drift loop — checkpoints its paid-for units the
same way (``docs/robustness.md``, "How a journaled run works"), and
:class:`JournaledRun` owns that sequence:

1. **open or create** — a new run writes its meta header; a resume
   reopens the journal and is refused unless every *identity* key of
   the header equals what the resuming supervisor would write;
2. **replay** — committed records go, by kind, to the supervisor's
   handlers, which seed caches and memos so no journaled unit re-runs;
3. **run under a budget** — units commit through a ``BudgetedJournal``;
   its simulated kill ends the run *not completed* and resumable;
4. **commit the result** — exactly one ``result`` record, on the raw
   journal: the finish line, not a unit the kill may interrupt.

A supervisor supplies only what is its own: meta, identity keys, replay
handlers, the body, the result record. The kernel never references the
calibration cache or runner, so a finished (or killed) run's workbench
is freed with its supervisor, by refcount.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence

from repro.calibration.cache import CalibrationCache
from repro.calibration.runner import CalibrationRunner
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.parallel import make_engine
from repro.recovery.journal import (
    BudgetedJournal,
    RunJournal,
    UnitBudgetExceeded,
)
from repro.util.errors import RecoveryError

#: The fault-plan fields a journal header records (and ``repro resume``
#: rebuilds the plan from).
PLAN_META_FIELDS = (
    "name", "seed", "transient_rate", "outlier_rate", "hang_rate",
    "boot_failure_rate", "vm_crash_rate", "host_degrade_rate",
    "host_degrade_factor", "migration_failure_rate")


def plan_meta(plan: FaultPlan) -> Dict[str, Any]:
    """The journal-header form of a fault plan."""
    return {name: getattr(plan, name) for name in PLAN_META_FIELDS}


@dataclass
class RunOutcome:
    """What one supervisor ``run()`` invocation produced — the part
    every run kind's result type (``SupervisedRun``, ...) extends."""

    #: The finished design (or final incumbent); ``None`` when the run
    #: was killed before one existed.
    design: Optional[Any]
    #: True when the run finished (a ``result`` record is journaled).
    completed: bool = False
    #: Units replayed from the journal.
    replayed_units: int = 0
    #: Units freshly computed and committed by this invocation.
    new_units: int = 0


class JournaledRun:
    """One journaled run, from open-or-create to the ``result`` record.

    A context manager around everything that may commit units: build
    what journals through ``run.journal``, ``run.replay(handlers)``,
    run the body, ``run.commit(result_record)``. A simulated kill
    inside the block leaves ``completed`` False and ends the block
    quietly; every other exception propagates.
    """

    def __init__(self, path, meta: Mapping[str, Any],
                 identity_keys: Sequence[str], *, resume: bool,
                 max_units: Optional[int]):
        if resume:
            raw = RunJournal.open(path)
            recorded = raw.meta
            # Identity keys absent from the recorded meta (a journal
            # written before that key existed) are skipped rather than
            # treated as a mismatch, so old journals stay resumable.
            mismatched = sorted(
                key for key in identity_keys
                if key in recorded and recorded[key] != meta[key])
            if mismatched:
                kind = meta.get("run_kind")
                raise RecoveryError(
                    f"journal {path} was written by a different "
                    f"{kind + ' ' if kind else ''}run: mismatched "
                    f"{', '.join(mismatched)} (resume must use the same "
                    f"{', '.join(identity_keys)})")
        else:
            raw = RunJournal.create(path, meta)
        self._raw = raw
        #: The journal units commit through (and the kill point).
        self.journal = BudgetedJournal(raw, max_units)
        #: Units replayed from the journal: records a handler accepted.
        self.replayed_units = 0
        #: True once the ``result`` record is journaled.
        self.completed = False

    def replay(self, handlers: Mapping[str, Callable]) -> None:
        """Feed each committed record's data to its kind's handler.

        Kinds without a handler — ``result``, and anything a later
        version may add — are skipped and do not count as units.
        """
        for record in self._raw.records:
            handler = handlers.get(record.kind)
            if handler is not None:
                handler(record.data)
                self.replayed_units += 1

    def commit(self, result: Dict[str, Any]) -> None:
        """Journal the ``result`` record (once) and mark the run done.

        Resuming an already-completed journal re-runs the body against
        a fully seeded memo and must not append a second result.
        """
        if not self._raw.records_of("result"):
            self._raw.append("result", result)
        self.completed = True

    def settle(self, outcome: RunOutcome) -> RunOutcome:
        """Stamp *outcome* with how the run ended, and return it."""
        outcome.completed = self.completed
        outcome.replayed_units = self.replayed_units
        outcome.new_units = self.journal.new_units
        return outcome

    def __enter__(self) -> "JournaledRun":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        return exc_type is not None and issubclass(exc_type,
                                                   UnitBudgetExceeded)


def journaled_result(path) -> Optional[Dict[str, Any]]:
    """The journaled result record of a finished run, if any."""
    results = RunJournal.open(path).records_of("result")
    return results[-1].data if results else None


@contextmanager
def calibrating_stack(journal, machine, *, plan: Optional[FaultPlan] = None,
                      retry_policy: Optional[RetryPolicy] = None,
                      workbench=None, workers: Optional[int] = None,
                      pool: str = "thread") -> Iterator[tuple]:
    """``(injector, engine, runner, cache)`` journaling through *journal*.

    The injector runs in *per-unit* mode (the fault stream inside a
    unit depends only on the unit's label, which is what makes resume
    bit-identical); the cache appends a ``calibration`` record per
    fresh calibration. The engine is closed when the block ends,
    however it ends.
    """
    injector = (None if plan is None or plan.is_benign
                else FaultInjector(plan, per_unit=True))
    engine = make_engine(workers, pool)
    try:
        runner = CalibrationRunner(
            machine, workbench=workbench, injector=injector,
            retry_policy=retry_policy, engine=engine)
        yield injector, engine, runner, CalibrationCache(runner,
                                                         journal=journal)
    finally:
        if engine is not None:
            engine.close()

"""Parallel supervised runs are bit-identical and stay crash-recoverable.

The tentpole determinism contract, applied at the top of the stack: a
journaled design run at ``workers=4`` commits the same records — the
same calibrated parameters, the same evaluations in the same order, the
same final design — as a run at ``workers=1``, under a turbulent fault
plan. And the crash-recovery property composes with it: a run killed at
a unit boundary under one worker count can be resumed under another,
because the journal's identity deliberately excludes the worker count.

(Without an engine the searches are the same, but the calibration
runner draws every trial from one sequential fault stream instead of a
forked stream per trial — the only engine-dependent difference left —
so an engine-less run is only comparable to engine runs under a benign
plan; that cross-path check lives here too.)
"""

import pytest

from repro.faults import FaultPlan
from repro.recovery import RunJournal

from tests.recovery.conftest import journal_fingerprint, make_supervisor

pytestmark = pytest.mark.recovery


@pytest.fixture(scope="module")
def parallel_baseline(recovery_problem, turbulent_plan, tmp_path_factory):
    """One uninterrupted run at workers=1 through the engine path.

    This is the reference the worker-count equivalence tests compare
    against. It is NOT the package ``baseline`` fixture: that one runs
    without an engine, where calibration trials share one sequential
    fault stream instead of the engine's per-trial forked streams.
    """
    path = tmp_path_factory.mktemp("parallel-baseline") / "run.journal"
    supervisor = make_supervisor(recovery_problem, path, turbulent_plan,
                                 workers=1)
    run = supervisor.run()
    assert run.completed
    return {
        "run": run,
        "fingerprint": journal_fingerprint(RunJournal.open(path)),
        "total_units": run.new_units,
    }


class TestWorkerCountEquivalence:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_four_workers_journal_matches_one_worker(
            self, parallel_baseline, recovery_problem, turbulent_plan,
            tmp_path, pool):
        path = tmp_path / "run.journal"
        run = make_supervisor(recovery_problem, path, turbulent_plan,
                              workers=4, pool=pool).run()
        assert run.completed
        assert run.new_units == parallel_baseline["total_units"]
        fingerprint = journal_fingerprint(RunJournal.open(path))
        assert fingerprint == parallel_baseline["fingerprint"], (
            f"a 4-worker {pool}-pool run journaled different records "
            f"than the 1-worker run")

    def test_design_object_matches_across_worker_counts(
            self, parallel_baseline, recovery_problem, turbulent_plan,
            tmp_path):
        run = make_supervisor(recovery_problem, tmp_path / "run.journal",
                              turbulent_plan, workers=4).run()
        base = parallel_baseline["run"]
        names = base.design.allocation.workload_names()
        assert run.design.allocation.workload_names() == names
        for name in names:
            assert (run.design.allocation.vector_for(name).as_tuple()
                    == base.design.allocation.vector_for(name).as_tuple())
        assert (run.design.predicted_total_cost
                == base.design.predicted_total_cost)


class TestKillResumeAcrossWorkerCounts:
    def test_kill_parallel_resume_parallel(
            self, parallel_baseline, recovery_problem, turbulent_plan,
            tmp_path):
        """Kill a 4-worker run at every unit boundary; resume at 4."""
        total = parallel_baseline["total_units"]
        for k in range(1, total):
            path = tmp_path / f"kill-at-{k}.journal"
            killed = make_supervisor(recovery_problem, path, turbulent_plan,
                                     workers=4, max_units=k).run()
            assert not killed.completed
            assert killed.new_units == k
            resumed = make_supervisor(recovery_problem, path, turbulent_plan,
                                      workers=4).run(resume=True)
            assert resumed.completed
            assert resumed.replayed_units == k
            fingerprint = journal_fingerprint(RunJournal.open(path))
            assert fingerprint == parallel_baseline["fingerprint"], (
                f"4-worker kill/resume diverged at unit {k}")

    def test_kill_at_one_count_resume_at_another(
            self, parallel_baseline, recovery_problem, turbulent_plan,
            tmp_path):
        """Workers are not journal identity: a run killed at 4 workers
        resumes at 1 (and vice versa) onto the same records."""
        for kill_workers, resume_workers in ((4, 1), (1, 4)):
            path = tmp_path / f"{kill_workers}-to-{resume_workers}.journal"
            make_supervisor(recovery_problem, path, turbulent_plan,
                            workers=kill_workers, max_units=3).run()
            resumed = make_supervisor(recovery_problem, path, turbulent_plan,
                                      workers=resume_workers).run(resume=True)
            assert resumed.completed
            fingerprint = journal_fingerprint(RunJournal.open(path))
            assert fingerprint == parallel_baseline["fingerprint"], (
                f"kill at {kill_workers} workers / resume at "
                f"{resume_workers} diverged")


class TestLegacyPathAgreementUnderBenignPlan:
    def test_engineless_and_parallel_agree_without_faults(
            self, recovery_problem, tmp_path):
        """With no faults and no noise there is only one truth: an
        engine-less run and a 4-worker engine run must journal identical
        records (the calibration trial stream, the one thing the engine
        changes, only differs under faults)."""
        benign = FaultPlan(name="none")
        engineless_path = tmp_path / "engineless.journal"
        make_supervisor(recovery_problem, engineless_path, benign,
                        watchdog_probes=0).run()
        engine_path = tmp_path / "engine.journal"
        make_supervisor(recovery_problem, engine_path, benign,
                        watchdog_probes=0, workers=4).run()
        assert (journal_fingerprint(RunJournal.open(engine_path))
                == journal_fingerprint(RunJournal.open(engineless_path)))

"""Generate the journal fixtures the identity test resumes.

For each of the five journaled run kinds this writes two journals next
to this file, using the test suites' small problems and the reduced
calibration workbench:

* ``<kind>.completed.journal`` — one uninterrupted run;
* ``<kind>.killed.journal`` — the same run killed at
  ``max_units = total // 2``.

The committed fixtures were generated at commit
``008c204a675d0ad1a38904abbb574ed4f8c8510c`` (PR 11, the parent of the
journaled-run kernel refactor) — they are what the *old* per-supervisor
protocol wrote. ``tests/recovery/test_fixture_identity.py`` resumes each
killed journal with the current code and requires the bytes of the
completed one, which is the proof that journals written before the
refactor stay resumable bit for bit.

To regenerate (only when the journal format itself changes on purpose),
check that commit out and run, from the checkout's root::

    PYTHONPATH=src:. python <this file>

The script only needs the supervisors' public constructors, so it runs
unchanged on either side of the refactor.
"""

from __future__ import annotations

import pathlib
import tempfile

from repro.codesign import CodesignSupervisor
from repro.faults import FaultPlan
from repro.fleet import FleetSupervisor, synthetic_fleet

from tests.codesign import conftest as codesign
from tests.drift import conftest as drift
from tests.recovery import conftest as recovery
from tests.serve import conftest as serve

HERE = pathlib.Path(__file__).parent

FLEET_SCENARIO = {"n_hosts": 4, "n_workloads": 12, "seed": 3, "grid": 8}


def _supervised(path, max_units=None):
    return recovery.make_supervisor(
        serve.build_problem(), path, FaultPlan.named("turbulent"),
        max_units=max_units)


def _codesign(path, max_units=None):
    return CodesignSupervisor(
        codesign.make_problem(), path,
        storage_budget=codesign.STORAGE_BUDGET, grid=codesign.GRID,
        workbench=codesign.tiny_workbench(), max_units=max_units)


def _serve(path, max_units=None):
    return serve.make_supervisor(
        serve.build_problem(), path, FaultPlan.named("turbulent"),
        max_units=max_units)


def _fleet(path, max_units=None):
    scenario = FLEET_SCENARIO
    problem = synthetic_fleet(scenario["n_hosts"], scenario["n_workloads"],
                              seed=scenario["seed"], grid=scenario["grid"])
    return FleetSupervisor(problem, path, scenario=dict(scenario),
                           move_fraction=0.25, max_units=max_units)


def _drift(path, max_units=None):
    plan = FaultPlan.named("turbulent").with_overrides(
        host_degrade_rate=0.35, host_degrade_factor=0.8)
    return drift.make_supervisor(serve.build_problem(), path, plan,
                                 max_units=max_units)


#: run kind -> ``factory(path, max_units=None)`` building its supervisor.
SUPERVISORS = {
    "supervised": _supervised,
    "codesign": _codesign,
    "serve": _serve,
    "fleet": _fleet,
    "drift": _drift,
}

#: The four kinds whose supervisor builds a calibration workbench.
CALIBRATING = ("supervised", "codesign", "serve", "drift")


def fixture_path(kind: str, state: str) -> pathlib.Path:
    return HERE / f"{kind}.{state}.journal"


def main() -> None:
    for kind, factory in SUPERVISORS.items():
        for state in ("completed", "killed"):
            fixture_path(kind, state).unlink(missing_ok=True)
        run = factory(fixture_path(kind, "completed")).run()
        assert run.completed, kind
        total = run.new_units
        killed = factory(fixture_path(kind, "killed"),
                         max_units=total // 2).run()
        assert not killed.completed, kind
        # Self-check on the generating commit: the killed journal must
        # resume to the completed one's bytes.
        with tempfile.TemporaryDirectory() as scratch:
            copy = pathlib.Path(scratch) / "resumed.journal"
            copy.write_bytes(fixture_path(kind, "killed").read_bytes())
            assert factory(copy).run(resume=True).completed, kind
            assert (copy.read_bytes()
                    == fixture_path(kind, "completed").read_bytes()), kind
        print(f"{kind}: {total} unit(s), killed at {total // 2}")


if __name__ == "__main__":
    main()

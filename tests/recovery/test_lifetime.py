"""A finished run frees its calibration workbench by refcount alone.

One calibration workbench is tens of MiB resident. Callers that kill a
run and resume it with a second supervisor (``bench_e2e``'s
``supervised_resume``, the equivalence suites) only stay at one
workbench's peak memory because CPython frees the first supervisor's
stack the moment it is dropped — which a reference cycle through the
journaled-run kernel, or a run object that kept the cache alive, would
silently defer to the cycle collector. With the collector off, dropping
the supervisor must be enough, while the returned run is still held.

The workbench's catalog is watched beside its ``Database``: an executor
closure or a retried calibration's traceback that reached the catalog
would keep the whole loaded workbench (every page, index and statistic)
alive as cyclic garbage even after the ``Database`` object died.
"""

import gc
import weakref

import pytest

from repro.calibration import CalibrationCache, CalibrationRunner
from repro.faults.retry import RetryPolicy
from repro.virt.machine import laboratory_machine
from repro.virt.resources import ResourceVector
from tests.recovery.fixtures.generate import CALIBRATING, SUPERVISORS

pytestmark = pytest.mark.recovery


def _workbench_refs(runner) -> dict:
    return {"runner": weakref.ref(runner),
            "workbench database": weakref.ref(runner._database),
            "workbench catalog": weakref.ref(runner._database.catalog)}


def _leaked(alive: dict) -> list:
    return sorted(name for name, ref in alive.items() if ref() is not None)


@pytest.mark.parametrize("max_units", [2, None], ids=["killed", "completed"])
@pytest.mark.parametrize("kind", CALIBRATING)
def test_dropping_the_supervisor_frees_the_workbench(kind, max_units,
                                                     tmp_path):
    gc.collect()
    gc.disable()
    try:
        supervisor = SUPERVISORS[kind](tmp_path / "run.journal",
                                       max_units=max_units)
        run = supervisor.run()
        assert run.completed == (max_units is None)
        alive = {"cache": weakref.ref(supervisor.cache),
                 **_workbench_refs(supervisor.cache._runner)}
        del supervisor
        leaked = _leaked(alive)
        assert not leaked, (
            f"{kind} run kept its {', '.join(leaked)} alive after the "
            f"supervisor was dropped (held run: {type(run).__name__})")
    finally:
        gc.enable()


def test_a_retried_calibration_failure_frees_the_workbench():
    # At io = 0.25 the workbench's huge-index query outlasts the
    # resilient policy's deadline on every attempt: the lookup fails,
    # is retried, and falls back — through the re-raise path.
    gc.collect()
    gc.disable()
    try:
        cache = CalibrationCache(CalibrationRunner(
            laboratory_machine(), retry_policy=RetryPolicy.resilient()))
        cache.params_for(ResourceVector.of(cpu=0.5, memory=0.5, io=0.25))
        assert [event.kind for event in cache.fallback_log] == ["default"]
        alive = {"cache": weakref.ref(cache),
                 **_workbench_refs(cache._runner)}
        del cache
        leaked = _leaked(alive)
        assert not leaked, (
            f"a failed calibration kept its {', '.join(leaked)} alive")
    finally:
        gc.enable()

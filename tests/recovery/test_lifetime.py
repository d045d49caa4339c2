"""A finished run frees its calibration workbench by refcount alone.

One calibration workbench is tens of MiB resident. Callers that kill a
run and resume it with a second supervisor (``bench_e2e``'s
``supervised_resume``, the equivalence suites) only stay at one
workbench's peak memory because CPython frees the first supervisor's
stack the moment it is dropped — which a reference cycle through the
journaled-run kernel, or a run object that kept the cache alive, would
silently defer to the cycle collector. With the collector off, dropping
the supervisor must be enough, while the returned run is still held.
"""

import gc
import weakref

import pytest

from tests.recovery.fixtures.generate import CALIBRATING, SUPERVISORS

pytestmark = pytest.mark.recovery


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
        runner = supervisor.cache._runner
        alive = {"cache": weakref.ref(supervisor.cache),
                 "runner": weakref.ref(runner),
                 "workbench database": weakref.ref(runner._database)}
        del supervisor, runner
        leaked = sorted(name for name, ref in alive.items()
                        if ref() is not None)
        assert not leaked, (
            f"{kind} run kept its {', '.join(leaked)} alive after the "
            f"supervisor was dropped (held run: {type(run).__name__})")
    finally:
        gc.enable()

"""The evaluation engine: deterministic fan-out for batched work.

Overview
--------
Cost-model evaluations are "the currency that matters" in this
reproduction — every search step and every calibration experiment is
bottlenecked on them. An :class:`EvaluationEngine` is the one place
that knows how to spend that currency concurrently: callers hand it a
pure function and an ordered list of work items, and it returns the
results *in item order*, no matter how many workers ran them or which
worker finished first.

Pools
-----
Three pool kinds, selected by the ``pool`` argument (``--pool`` on the
CLI):

* ``serial`` — no concurrency; the reference implementation every other
  pool must be bit-identical to.
* ``thread`` (default) — a shared :class:`ThreadPoolExecutor`. Python's
  GIL serializes pure-Python work, so threads mostly buy overlap for
  code that releases the GIL; the batched call structure (one batch
  instead of N calls) is where single-core wins come from.
* ``process`` — a fork-based worker pool giving true CPU parallelism on
  multi-core hosts. Each batch forks workers that inherit the parent's
  state by copy-on-write, evaluate their slice, and ship results back;
  nothing a worker mutates is visible to the parent, which is exactly
  what makes the merge deterministic.

Determinism contract
--------------------
``map(fn, items)`` returns ``[fn(items[0]), fn(items[1]), ...]`` — the
same values, in the same order, for every pool kind and worker count.
The engine guarantees ordering; the *caller* guarantees that ``fn`` is
hermetic (each item's result must not depend on the execution of other
items). Library callers achieve that by forking per-item RNG and
fault-injector streams before submitting (see
:meth:`repro.faults.FaultInjector.fork_stream`), never by relying on
shared sequential state. The contract is spelled out in
``docs/parallelism.md`` and enforced by ``tests/parallel`` and the
serial-vs-parallel property tests.

Errors raised by tasks are re-raised in item order: if items 3 and 7
both fail, every run reports item 3's exception, so a parallel run
fails the same way a serial one does.

Observability
-------------
Creating an engine sets the ``parallel.workers`` gauge (labelled
``pool=<kind>``); every ``map`` call increments ``parallel.batches``
and adds the item count to ``parallel.tasks``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.obs import metrics
from repro.util.errors import AllocationError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Recognized pool kinds, in documentation order.
POOL_KINDS = ("serial", "thread", "process")

#: Module-level slot the fork-based pool reads through copy-on-write.
#: Only ever set immediately before forking and cleared right after;
#: worker processes see the value frozen at fork time.
_FORK_PAYLOAD: Optional[tuple] = None


def _fork_call(index: int):
    """Run one item of the payload inside a forked worker.

    Counter increments the task makes land in the worker's
    copy-on-write clone of the metrics registry, invisible to the
    parent — so the worker diffs its counter state around the task and
    ships the increments back with the result for the parent to replay
    (in item order), keeping every counter bit-identical to a serial
    run. Worker-side *histograms* (only the wall-clock
    ``optimizer.plan_seconds`` timer) are not marshalled; host-time
    telemetry is nondeterministic by nature and outside the contract.
    """
    fn, items = _FORK_PAYLOAD  # type: ignore[misc]
    registry = metrics.get_registry()
    before = registry.counter_state()
    try:
        ok, value = True, fn(items[index])
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        ok, value = False, exc
    deltas = tuple(
        (key, after_value - before.get(key, 0.0))
        for key, after_value in sorted(registry.counter_state().items())
        if after_value - before.get(key, 0.0) > 0)
    return (index, ok, value, deltas)


class EvaluationEngine:
    """Runs batches of hermetic tasks with deterministic ordering."""

    def __init__(self, workers: int = 1, pool: str = "thread"):
        if workers < 1:
            raise AllocationError("workers must be at least 1")
        if pool not in POOL_KINDS:
            raise AllocationError(
                f"unknown pool kind {pool!r}; available: {list(POOL_KINDS)}")
        if workers == 1:
            pool = "serial"  # one worker needs no pool machinery
        self.workers = workers
        self.pool = pool
        self._executor: Optional[ThreadPoolExecutor] = None
        metrics.gauge("parallel.workers", pool=pool).set(workers)

    # -- the one entry point -------------------------------------------------

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are always in item order; the first raising item's
        exception (by index, not by completion time) propagates.
        """
        items = list(items)
        if not items:
            return []
        metrics.counter("parallel.batches", pool=self.pool).inc()
        metrics.counter("parallel.tasks", pool=self.pool).inc(len(items))
        if self.pool == "serial" or len(items) == 1:
            return [fn(item) for item in items]
        if self.pool == "thread":
            return self._map_threaded(fn, items)
        return self._map_forked(fn, items)

    # -- pool plumbing -------------------------------------------------------

    def _threads(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-eval")
        return self._executor

    def _map_threaded(self, fn, items: list) -> list:
        """Fan a batch out over the shared thread pool, in slices.

        Submitting one future per item makes dispatch overhead rival
        the work when tasks are sub-millisecond, so items are submitted
        as contiguous slices (a few per worker, preserving order) and
        each slice runs serially inside one future. Slicing changes
        scheduling only, never results: slices partition the item list
        in order, so the flattened result list is identical for every
        slice size.
        """
        slice_size = max(1, -(-len(items) // (self.workers * 4)))
        slices = [items[i:i + slice_size]
                  for i in range(0, len(items), slice_size)]
        futures = [self._threads().submit(lambda part=part: [fn(item) for item in part])
                   for part in slices]
        results: List[_R] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            # Futures are consumed in slice (= item) order, so the
            # earliest failing item's exception wins, as in serial runs.
            try:
                results.extend(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def _map_forked(self, fn, items: list) -> list:
        """Fan a batch out over forked worker processes.

        The payload travels to the workers by fork-time copy-on-write
        (no pickling of ``fn`` or the items), and only the results are
        pickled back. Falls back to serial execution where the ``fork``
        start method does not exist (e.g. Windows).
        """
        global _FORK_PAYLOAD
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return [fn(item) for item in items]
        _FORK_PAYLOAD = (fn, items)
        try:
            with context.Pool(processes=min(self.workers, len(items))) as pool:
                raw = pool.map(_fork_call, range(len(items)),
                               chunksize=max(1, len(items) // self.workers))
        finally:
            _FORK_PAYLOAD = None
        results: List[object] = [None] * len(items)
        first_error: Optional[tuple] = None
        registry = metrics.get_registry()
        for index, ok, value, deltas in sorted(raw):
            # Replay in item order (failed items included, as in a
            # serial run where increments before the raise persist).
            registry.apply_counter_deltas(deltas)
            if ok:
                results[index] = value
            elif first_error is None or index < first_error[0]:
                first_error = (index, value)
        if first_error is not None:
            raise first_error[1]
        return results

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvaluationEngine(workers={self.workers}, pool={self.pool!r})"


def make_engine(workers: Optional[int],
                pool: str = "thread") -> Optional[EvaluationEngine]:
    """Engine from CLI-style arguments; ``None`` workers means serial.

    ``workers=None`` (flag absent) returns ``None``: searches run the
    same batched strategy and evaluate each batch in the calling
    process. ``workers=0`` sizes the pool to the host's CPU count.
    """
    if workers is None:
        return None
    if workers == 0:
        workers = os.cpu_count() or 1
    return EvaluationEngine(workers=workers, pool=pool)

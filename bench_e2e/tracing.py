"""Span recording around public callables, from outside ``src/``.

The traced pass of a workload installs timing wrappers on the fixed
:data:`SPAN_TABLE` of public callables, runs its ops, and restores the
originals. Spans nest through a stack (everything wrapped is
synchronous, so the stack is the call chain even under asyncio), carry
the id of the op that caused them, stay in memory, and are written out
only when the run ends. :func:`aggregate` turns the raw spans into
per-name call counts, total time and *self* time — a span's duration
minus the part its child spans cover.

Nothing here is installed during the untraced pass: end-to-end metrics
are measured with the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: The root span a workload driver opens around each op; its self time
#: is the time no wrapped layer accounts for ("dark" time).
ROOT_SPAN = "bench.op"


class Span(NamedTuple):
    """One finished span. The hot path stores plain tuples of this shape."""

    name: str
    op: Any
    #: Index of the enclosing span in the tracer's list (None for a root).
    parent: Optional[int]
    start_ns: int
    end_ns: int


class SpanTotals(NamedTuple):
    calls: int
    #: Wall time under this name, nested same-name spans counted once.
    total_ns: int
    #: Duration minus the time covered by direct child spans.
    self_ns: int


def aggregate(spans: Iterable[Tuple]) -> Dict[str, SpanTotals]:
    """Per-name calls, total and self time of a finished span list."""
    spans = list(spans)
    child_ns = [0] * len(spans)
    for _name, _op, parent, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    sums: Dict[str, List[int]] = {}
    for index, (name, _op, parent, start, end) in enumerate(spans):
        entry = sums.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[2] += (end - start) - child_ns[index]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][2]
        if parent is None:
            entry[1] += end - start
    return {name: SpanTotals(*entry) for name, entry in sums.items()}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple]] = []
        #: Id stamped on every span opened from now on; the workload
        #: driver sets it before each op.
        self.op_id: Any = None
        #: ``id(request) -> op id`` for work done on a request's behalf
        #: by another task (the serve batcher).
        self.ops_by_object: Dict[int, Any] = {}
        self._stack: List[int] = []
        self._open_iterators: List["_TimedIterator"] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span from benchmark code (the per-op root span)."""
        index = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(index, name, start, time.perf_counter_ns())

    def record(self, name: str, op: Any, start_ns: int, end_ns: int) -> None:
        """Add a root span the caller timed itself (an awaited latency)."""
        self.spans.append((name, op, None, start_ns, end_ns))

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _exit(self, index: int, name: str, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        self.spans[index] = (name, self.op_id, stack[-1] if stack else None,
                             start, end)

    def wrap(self, name: str, fn: Callable,
             op_of: Optional[Callable[[tuple], Any]] = None) -> Callable:
        """*fn* timed as a span called *name*.

        *op_of* maps the call's positional arguments to the op the work
        belongs to, for callables that serve ops other than the one
        whose id is current (it applies to the span and its children).
        """
        enter, leave, clock = self._enter, self._exit, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prior_op = self.op_id
            if op_of is not None:
                self.op_id = op_of(args)
            index = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index, name, start, clock())
                self.op_id = prior_op

        return traced

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """*fn* returns an iterator; time spent inside it becomes one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(self, name, fn(*args, **kwargs))

        return traced

    def finish(self) -> List[Tuple]:
        """Close iterators abandoned mid-way; return the finished spans."""
        for iterator in list(self._open_iterators):
            iterator.close()
        return [span for span in self.spans if span is not None]

    def write(self, path) -> int:
        """Write the finished spans as JSON lines; returns the count."""
        spans = self.finish()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(Span(*span)._asdict()) + "\n")
        return len(spans)


class _TimedIterator:
    """Accumulates the time spent producing items into one span.

    The span's parent is whatever span is open at the first ``next()``
    — the consumer — so the producer's time leaves the consumer's self
    time, wherever the iterator was created.
    """

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)
        self._index: Optional[int] = None
        self._meta: Tuple = ()
        self._busy = 0

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        clock = time.perf_counter_ns
        start = clock()
        if self._index is None:
            tracer = self._tracer
            self._index = len(tracer.spans)
            tracer.spans.append(None)
            stack = tracer._stack
            self._meta = (tracer.op_id, stack[-1] if stack else None, start)
            tracer._open_iterators.append(self)
        try:
            value = next(self._inner)
        except StopIteration:
            self._busy += clock() - start
            self.close()
            raise
        self._busy += clock() - start
        return value

    def close(self) -> None:
        if self._index is None or self not in self._tracer._open_iterators:
            return
        op, parent, first = self._meta
        self._tracer.spans[self._index] = (self._name, op, parent, first,
                                           first + self._busy)
        self._tracer._open_iterators.remove(self)


# -- the fixed table of wrapped callables ---------------------------------

#: ``(span name, kind, targets)``. A target is ``module:attr`` or
#: ``module:Class.attr``; a function imported by name elsewhere is
#: listed once per namespace that holds it. Kinds: ``call`` (plain),
#: ``iter`` (time inside the returned iterator), ``batch`` (the op is
#: the one registered for the first request of the batch argument).
SPAN_TABLE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("workloads.build_db", "call", (
        "repro.workloads.tpch_data:build_tpch_database",
        "repro.workloads:build_tpch_database")),
    ("workloads.generate", "iter", (
        "repro.workloads.tpch_data:TpchDataGenerator.rows_for",)),
    ("engine.load", "call", ("repro.engine.database:Database.load_rows",)),
    ("engine.index_build", "call", (
        "repro.engine.database:Database.create_index",)),
    ("engine.analyze", "call", ("repro.engine.database:Database.analyze",)),
    ("engine.execute", "call", ("repro.engine.database:Database.run_plan",)),
    ("virt.perf", "call", (
        "repro.virt.perf:VMPerfModel.elapsed",
        "repro.virt.perf:VMPerfModel.breakdown")),
    ("calibration.workbench_build", "call", (
        "repro.calibration.synthetic:CalibrationWorkbench.build_database",)),
    ("calibration.calibrate", "call", (
        "repro.calibration.runner:CalibrationRunner.calibrate",)),
    ("calibration.lookup", "call", (
        "repro.calibration.cache:CalibrationCache.params_for",)),
    ("optimizer.estimate", "call", (
        "repro.optimizer.whatif:WhatIfOptimizer.estimate_workload",)),
    ("optimizer.plan", "call", ("repro.optimizer.planner:Planner.plan_sql",)),
    ("optimizer.recost", "call", ("repro.optimizer.recost:CostProgram.cost",)),
    ("core.measure", "call", ("repro.core.measure:WorkloadRunner.run",)),
    ("core.search", "call", (
        "repro.core.designer:VirtualizationDesigner.design",)),
    ("core.cost_many", "call", (
        "repro.core.cost_model:CostModel.cost_many",
        "repro.recovery.supervisor:JournalingCostModel.cost_many")),
    ("surrogate.interpolate", "call", (
        "repro.surrogate.surface:ParameterSurface.params_for",)),
    ("surrogate.warm_start", "call", (
        "repro.surrogate.polish:warm_start",
        "repro.surrogate:warm_start",
        "repro.serve.service:warm_start")),
    ("recovery.supervised_run", "call", (
        "repro.recovery.supervisor:RunSupervisor.run",)),
    ("recovery.journal_append", "call", (
        "repro.recovery.journal:RunJournal.append",)),
    ("recovery.journal_open", "call", (
        "repro.recovery.journal:RunJournal.open",)),
    ("serve.admit", "call", ("repro.serve.daemon:ServeDaemon.try_admit",)),
    ("serve.process_batch", "batch", (
        "repro.serve.service:DesignService.process_batch",)),
)

#: The one span benchmark code records itself: client-side latency of
#: ``await ServeDaemon.submit(request)``.
SUBMIT_SPAN = "serve.submit"

SPAN_NAMES: Tuple[str, ...] = tuple(
    name for name, _kind, _targets in SPAN_TABLE) + (SUBMIT_SPAN,)

#: One installed wrapper: where it sits and what it replaced.
Patch = Tuple[Any, str, Any]


def resolve(target: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a :data:`SPAN_TABLE` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Wrap the function inside a class/static method, keeping its kind."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every :data:`SPAN_TABLE` target; returns what to restore."""
    patches: List[Patch] = []
    try:
        for name, kind, targets in SPAN_TABLE:
            if kind == "iter":
                wrap = functools.partial(tracer.wrap_iterator, name)
            elif kind == "batch":
                wrap = functools.partial(
                    tracer.wrap, name,
                    op_of=lambda args: tracer.ops_by_object.get(id(args[1][0])))
            else:
                wrap = functools.partial(tracer.wrap, name)
            for target in targets:
                owner, attr = resolve(target)
                raw = vars(owner)[attr]
                setattr(owner, attr, _rewrap(raw, wrap))
                patches.append((owner, attr, raw))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: List[Patch]) -> None:
    """Put every original back, last wrapped first."""
    while patches:
        owner, attr, raw = patches.pop()
        setattr(owner, attr, raw)


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Wrappers installed for the duration of the block, then restored."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        restore(patches)

"""Process-wide metrics: counters, gauges, histograms, timers.

Overview
--------
Everything this library optimizes for is *counted work* — optimizer
calls, calibration experiments, buffer-pool hits, simulated seconds.
Before this module those counts lived on whichever object happened to
do the work (``SearchResult.evaluations``, ``CalibrationCache``
internals, ``WorkTrace`` fields). A :class:`MetricsRegistry` gives them
one process-wide surface so a whole design run can be accounted for and
compared across PRs without threading counters through every call.

The registry is dependency-free (standard library only), thread-safe,
and cheap: recording a sample on an already-created instrument is one
lock acquisition and one or two float updates.

Instruments
-----------
* :class:`Counter` — monotonically non-decreasing total
  (``inc(amount)``). Fractional amounts are allowed so simulated
  seconds can be accumulated.
* :class:`Gauge` — last-write-wins value (``set(value)``), for levels
  like buffer-pool hit ratio or resident pages.
* :class:`Histogram` — ``observe(value)`` keeps exact count/sum/min/max
  plus a bounded sample reservoir for quantile estimates.
* Timers are histograms observed through
  :meth:`MetricsRegistry.timer`, a context manager that records elapsed
  host seconds.

Every instrument is identified by a dotted name plus optional labels
(``counter("search.evaluations", algorithm="greedy")``); distinct label
sets are distinct series. Re-requesting a name with a different
instrument kind raises :class:`~repro.util.errors.ObservabilityError`.

Usage
-----
Instrumented library code uses the module-level helpers, which proxy a
process-wide default registry::

    from repro.obs import metrics

    metrics.counter("cost_model.evaluations", model="optimizer").inc()
    with metrics.timer("search.seconds", algorithm="greedy"):
        ...

Tests needing isolation either construct a private
:class:`MetricsRegistry` or call :func:`reset` first;
:meth:`MetricsRegistry.snapshot` returns plain dicts detached from the
live instruments, so a captured snapshot never changes retroactively.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util.errors import ObservabilityError

#: Cap on stored histogram samples; beyond it the reservoir keeps every
#: k-th observation so long runs stay bounded in memory.
HISTOGRAM_SAMPLE_CAP = 1024

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0) to the total."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-write-wins level (may move in either direction)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A distribution: exact count/sum/min/max + sampled quantiles."""

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_samples", "_stride", "_seen", "_lock")

    def __init__(self, name: str, labels: Dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = dict(labels)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1  # keep every _stride-th observation
        self._seen = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._seen += 1
            if self._seen % self._stride == 0:
                self._samples.append(value)
                if len(self._samples) > HISTOGRAM_SAMPLE_CAP:
                    # Decimate: keep every other sample, double the stride.
                    self._samples = self._samples[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate *q*-quantile (0..1) from the sample reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(q * len(samples)))
        return samples[index]


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments are created on first request and shared afterwards;
    ``snapshot()`` serializes the whole registry to plain data and
    ``reset()`` clears it (instrument handles held by callers are
    dropped, not zeroed — re-request after a reset).
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelsKey], object] = {}
        self._kinds: Dict[str, str] = {}
        #: ``(kind, name, *labels.items())`` -> instrument: O(1) repeats.
        self._handles: Dict[tuple, object] = {}

    # -- instrument access -------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, str]):
        handle = (kind, name, *labels.items())
        instrument = self._handles.get(handle)
        if instrument is not None:
            return instrument
        key = (name, _labels_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a "
                    f"{existing_kind}, not a {kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._KINDS[kind](name, labels, self._lock)
                self._instruments[key] = instrument
                self._kinds[name] = kind
            if all(type(value) is str for value in labels.values()):
                # 1, 1.0 and True hash alike but label apart.
                self._handles[handle] = instrument
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter *name* for this label set."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge *name* for this label set."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram *name* for this label set."""
        return self._get("histogram", name, labels)

    @contextmanager
    def timer(self, name: str, **labels: str) -> Iterator[Histogram]:
        """Record elapsed host seconds of the ``with`` body into *name*."""
        histogram = self.histogram(name, **labels)
        start = time.perf_counter()
        try:
            yield histogram
        finally:
            histogram.observe(time.perf_counter() - start)

    # -- reading ------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0.0 if absent)."""
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            return 0.0
        return instrument.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all label sets (0.0 if absent)."""
        with self._lock:
            instruments = [i for (n, _k), i in self._instruments.items()
                           if n == name]
        return sum(getattr(i, "value", 0.0) for i in instruments)

    def snapshot(self) -> Dict[str, list]:
        """Plain-data copy of every instrument, isolated from later updates."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, list] = {"counters": [], "gauges": [], "histograms": []}
        for instrument in instruments:
            if isinstance(instrument, Counter):
                out["counters"].append({
                    "name": instrument.name, "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            elif isinstance(instrument, Gauge):
                out["gauges"].append({
                    "name": instrument.name, "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            else:
                out["histograms"].append({
                    "name": instrument.name, "labels": dict(instrument.labels),
                    "count": instrument.count, "sum": instrument.total,
                    "min": instrument.min, "max": instrument.max,
                    "mean": instrument.mean,
                    "p50": instrument.quantile(0.5),
                    "p95": instrument.quantile(0.95),
                })
        for series in out.values():
            series.sort(key=lambda entry: (entry["name"],
                                           sorted(entry["labels"].items())))
        return out

    def counter_state(self) -> Dict[Tuple[str, LabelsKey], float]:
        """Point-in-time counter values, keyed by (name, labels).

        The shape is designed for delta replay across process
        boundaries (see :meth:`apply_counter_deltas`): keys are plain
        picklable tuples, and subtracting two states yields the
        increments that happened in between.
        """
        with self._lock:
            return {key: instrument.value
                    for key, instrument in self._instruments.items()
                    if isinstance(instrument, Counter)}

    def apply_counter_deltas(
            self,
            deltas: Iterable[Tuple[Tuple[str, LabelsKey], float]]) -> None:
        """Replay counter increments captured in another process.

        Forked pool workers mutate a copy-on-write clone of this
        registry that the parent never sees; the evaluation engine has
        each worker diff its :meth:`counter_state` around the task and
        ship the increments back, and the coordinator replays them here
        in task order — which is what keeps every counter bit-identical
        between process-pool and serial runs.
        """
        for (name, labels_key), amount in deltas:
            if amount > 0:
                self.counter(name, **dict(labels_key)).inc(amount)

    def reset(self) -> None:
        """Drop every instrument (a fresh accounting period)."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._handles.clear()


#: The process-wide default registry used by the library's own
#: instrumentation and by the module-level helpers below.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def counter(name: str, **labels: str) -> Counter:
    """``get_registry().counter(...)``."""
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    """``get_registry().gauge(...)``."""
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    """``get_registry().histogram(...)``."""
    return _DEFAULT.histogram(name, **labels)


def timer(name: str, **labels: str):
    """``get_registry().timer(...)``."""
    return _DEFAULT.timer(name, **labels)


def reset() -> None:
    """Reset the default registry (tests, or a new accounting period)."""
    _DEFAULT.reset()

"""Unit tests for the metrics registry."""

import threading

import pytest

from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_CAP,
    MetricsRegistry,
)
from repro.util.errors import ObservabilityError


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("work.done")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_same_name_same_labels_is_same_series(self, registry):
        registry.counter("hits").inc()
        registry.counter("hits").inc()
        assert registry.value("hits") == 2.0

    def test_label_sets_are_distinct_series(self, registry):
        registry.counter("evals", algorithm="greedy").inc(3)
        registry.counter("evals", algorithm="exhaustive").inc(5)
        assert registry.value("evals", algorithm="greedy") == 3.0
        assert registry.value("evals", algorithm="exhaustive") == 5.0
        assert registry.total("evals") == 8.0

    def test_label_order_does_not_matter(self, registry):
        registry.counter("c", a="1", b="2").inc()
        registry.counter("c", b="2", a="1").inc()
        assert registry.value("c", a="1", b="2") == 2.0

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("c").inc(-1)
        assert registry.value("c") == 0.0

    def test_absent_series_reads_zero(self, registry):
        assert registry.value("never.touched") == 0.0
        assert registry.total("never.touched") == 0.0


class TestGauge:
    def test_last_write_wins(self, registry):
        g = registry.gauge("pool.resident")
        g.set(10)
        g.set(4)
        assert g.value == 4.0

    def test_add_moves_both_directions(self, registry):
        g = registry.gauge("level")
        g.add(5)
        g.add(-2)
        assert g.value == 3.0


class TestHistogram:
    def test_exact_statistics(self, registry):
        h = registry.histogram("latency")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.min == 1.0
        assert h.max == 10.0
        assert h.mean == 4.0

    def test_quantiles_from_reservoir(self, registry):
        h = registry.histogram("latency")
        for v in range(100):
            h.observe(float(v))
        assert h.quantile(0.0) == 0.0
        assert 45 <= h.quantile(0.5) <= 55
        assert h.quantile(1.0) == 99.0
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_reservoir_stays_bounded_but_stats_exact(self, registry):
        h = registry.histogram("big")
        n = HISTOGRAM_SAMPLE_CAP * 4
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert h.total == float(n * (n - 1) // 2)
        assert h.max == float(n - 1)
        assert len(h._samples) <= HISTOGRAM_SAMPLE_CAP

    def test_empty_histogram(self, registry):
        h = registry.histogram("empty")
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0


class TestTimer:
    def test_timer_observes_elapsed_seconds(self, registry):
        with registry.timer("step.seconds"):
            pass
        h = registry.histogram("step.seconds")
        assert h.count == 1
        assert h.min is not None and h.min >= 0.0

    def test_timer_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timer("step.seconds"):
                raise RuntimeError("boom")
        assert registry.histogram("step.seconds").count == 1


class TestKindClash:
    def test_name_cannot_change_kind(self, registry):
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")

    def test_clash_detected_across_label_sets(self, registry):
        registry.counter("x", a="1")
        with pytest.raises(ObservabilityError):
            registry.gauge("x", b="2")

    def test_clash_detected_after_a_cached_handle(self, registry):
        registry.counter("x", a="1")
        registry.counter("x", a="1")  # served from the handle table
        with pytest.raises(ObservabilityError):
            registry.gauge("x", a="1")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")


class TestHandles:
    def test_keyword_order_maps_to_one_instrument(self, registry):
        first = registry.counter("c", a="1", b="2")
        assert registry.counter("c", b="2", a="1") is first
        assert registry.counter("c", a="1", b="2") is first
        assert len(registry.snapshot()["counters"]) == 1

    def test_equal_hashing_labels_keep_distinct_series(self, registry):
        registry.counter("c", k=1).inc()
        registry.counter("c", k=1.0).inc(2)
        registry.counter("c", k=True).inc(4)
        assert registry.value("c", k="1") == 1.0
        assert registry.value("c", k="1.0") == 2.0
        assert registry.value("c", k="True") == 4.0

    def test_reset_drops_handles(self, registry):
        stale = registry.counter("x", a="1")
        registry.reset()
        fresh = registry.gauge("x", a="1")  # no clash: the kind is gone
        assert fresh is not stale
        registry.reset()
        assert registry.counter("x", a="1") is not stale


class TestSnapshotAndReset:
    def test_snapshot_shape(self, registry):
        registry.counter("c", k="v").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == [{"name": "c", "labels": {"k": "v"},
                                     "value": 2.0}]
        assert snap["gauges"] == [{"name": "g", "labels": {}, "value": 7.0}]
        (h,) = snap["histograms"]
        assert h["name"] == "h" and h["count"] == 1 and h["sum"] == 1.0

    def test_snapshot_isolated_from_later_updates(self, registry):
        c = registry.counter("c")
        c.inc()
        snap = registry.snapshot()
        c.inc(10)
        assert snap["counters"][0]["value"] == 1.0

    def test_mutating_snapshot_does_not_affect_registry(self, registry):
        registry.counter("c", k="v").inc()
        snap = registry.snapshot()
        snap["counters"][0]["labels"]["k"] = "tampered"
        snap["counters"][0]["value"] = 999
        fresh = registry.snapshot()
        assert fresh["counters"][0]["labels"] == {"k": "v"}
        assert fresh["counters"][0]["value"] == 1.0

    def test_snapshot_sorted_by_name_then_labels(self, registry):
        registry.counter("b").inc()
        registry.counter("a", z="2").inc()
        registry.counter("a", z="1").inc()
        names = [(e["name"], e["labels"]) for e in
                 registry.snapshot()["counters"]]
        assert names == [("a", {"z": "1"}), ("a", {"z": "2"}), ("b", {})]

    def test_reset_drops_everything_and_allows_kind_change(self, registry):
        registry.counter("x").inc(5)
        registry.reset()
        assert registry.value("x") == 0.0
        assert registry.snapshot() == {"counters": [], "gauges": [],
                                       "histograms": []}
        registry.gauge("x").set(1)  # no clash after reset

    def test_registries_are_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        assert b.value("c") == 0.0


class TestThreadSafety:
    def test_concurrent_increments_all_land(self, registry):
        c = registry.counter("c")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000.0

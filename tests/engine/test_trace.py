"""Tests for work-trace accounting."""

import pytest

from repro.engine.trace import CPU_TUPLE_UNITS, WorkTrace


class TestCharging:
    def test_add_cpu(self):
        trace = WorkTrace()
        trace.add_cpu(100.0)
        assert trace.cpu_units == 100.0

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            WorkTrace().add_cpu(-1)

    def test_add_tuples_charges_cpu(self):
        trace = WorkTrace()
        trace.add_tuples(10)
        assert trace.tuples_processed == 10
        assert trace.cpu_units == 10 * CPU_TUPLE_UNITS

    def test_add_tuples_custom_rate(self):
        trace = WorkTrace()
        trace.add_tuples(5, 2.0)
        assert trace.cpu_units == 10.0

    def test_add_cpu_repeated_on_integers_is_one_multiply(self):
        trace = WorkTrace(cpu_units=2000.0)
        trace.add_cpu_repeated(1000, 45.0)
        assert trace.cpu_units == 47000.0
        trace.add_cpu_repeated(0, 12.0)
        assert trace.cpu_units == 47000.0

    def test_add_cpu_repeated_on_a_fraction_lands_where_the_additions_do(self):
        # A start where the sum of 100 additions and the single
        # multiply-and-add round to different doubles.
        start, n, units = 1 / 3, 100, 120.0
        expected = start
        for _ in range(n):
            expected += units
        assert expected != start + n * units
        trace = WorkTrace(cpu_units=start)
        trace.add_cpu_repeated(n, units)
        assert trace.cpu_units == expected

    @pytest.mark.parametrize("n, units", [(-1, 12.0), (1, -12.0)])
    def test_negative_repeated_charge_rejected(self, n, units):
        with pytest.raises(ValueError):
            WorkTrace().add_cpu_repeated(n, units)

    def test_buffer_hit_charges_cpu(self):
        trace = WorkTrace()
        trace.add_buffer_hit(3)
        assert trace.buffer_hits == 3
        assert trace.cpu_units > 0

    def test_io_counters(self):
        trace = WorkTrace()
        trace.add_seq_read(5)
        trace.add_random_read(2)
        trace.add_page_write(1)
        assert trace.total_page_reads == 7
        assert trace.page_writes == 1

    @pytest.mark.parametrize("method", [
        "add_seq_read", "add_random_read", "add_buffer_hit", "add_page_write",
    ])
    def test_negative_pages_rejected(self, method):
        with pytest.raises(ValueError):
            getattr(WorkTrace(), method)(-1)


class TestAggregates:
    def test_hit_ratio(self):
        trace = WorkTrace()
        assert trace.hit_ratio() == 1.0
        trace.add_seq_read(3)
        trace.add_buffer_hit(1)
        assert trace.hit_ratio() == pytest.approx(0.25)

    def test_merge_sums_everything(self):
        a = WorkTrace()
        a.add_cpu(10)
        a.add_seq_read(1)
        a.predicate_ops = 5
        b = WorkTrace()
        b.add_cpu(20)
        b.add_random_read(2)
        b.like_bytes = 7
        a.merge(b)
        assert a.cpu_units == 30
        assert a.total_page_reads == 3
        assert a.predicate_ops == 5
        assert a.like_bytes == 7

    def test_copy_is_independent(self):
        a = WorkTrace()
        a.add_cpu(10)
        b = a.copy()
        b.add_cpu(5)
        assert a.cpu_units == 10
        assert b.cpu_units == 15

"""Tests for the calibration runner (both protocols).

These run real (simulated) calibrations on the laboratory machine, so
they are the slowest unit tests in the suite; the session-scoped runner
amortizes the synthetic database build.
"""

import pytest

from repro import obs
from repro.calibration import CalibrationRunner
from repro.calibration.synthetic import (
    HUGE_TABLE,
    SMALL_TABLE,
    CalibrationWorkbench,
)
from repro.util.errors import CalibrationError
from repro.virt.resources import ResourceVector


def alloc(cpu=0.5, memory=0.5, io=0.5):
    return ResourceVector.of(cpu=cpu, memory=memory, io=io)


@pytest.fixture(scope="module")
def mid_report(calibration_runner):
    return calibration_runner.calibrate(alloc())


class TestSequentialProtocol:
    def test_produces_valid_parameters(self, mid_report):
        params = mid_report.parameters
        params.validate()
        assert params.seq_page_cost == 1.0
        assert params.seconds_per_seq_page > 0

    def test_measurements_recorded(self, mid_report):
        names = {m.query_name.split("#")[0] for m in mid_report.measurements}
        assert "small_count" in names
        assert "huge_index" in names
        assert any(name.startswith("scan_") for name in names)

    def test_design_rows_match_category_count(self, mid_report):
        assert all(len(m.design_row) == 6 for m in mid_report.measurements)

    def test_cpu_share_changes_cpu_parameters(self, calibration_runner):
        low = calibration_runner.parameters_for(alloc(cpu=0.25))
        high = calibration_runner.parameters_for(alloc(cpu=0.75))
        # Less CPU -> each tuple costs more relative to a page fetch.
        assert low.cpu_tuple_cost > high.cpu_tuple_cost
        assert low.cpu_operator_cost > high.cpu_operator_cost

    def test_memory_share_changes_seq_page_time(self, calibration_runner):
        low = calibration_runner.parameters_for(alloc(memory=0.25))
        high = calibration_runner.parameters_for(alloc(memory=0.75))
        # More memory -> more of the scan ladder cached -> faster pages.
        assert high.seconds_per_seq_page < low.seconds_per_seq_page
        # ... which makes CPU work relatively more expensive.
        assert high.cpu_tuple_cost > low.cpu_tuple_cost

    def test_io_share_changes_page_times(self, calibration_runner):
        low = calibration_runner.parameters_for(alloc(io=0.25))
        high = calibration_runner.parameters_for(alloc(io=0.75))
        assert high.seconds_per_seq_page < low.seconds_per_seq_page

    def test_effective_cache_size_tracks_memory(self, calibration_runner):
        low = calibration_runner.parameters_for(alloc(memory=0.25))
        high = calibration_runner.parameters_for(alloc(memory=0.75))
        assert high.effective_cache_size > low.effective_cache_size

    def test_random_page_cost_above_sequential(self, mid_report):
        assert mid_report.parameters.random_page_cost >= 1.0

    def test_deterministic(self, calibration_runner):
        a = calibration_runner.parameters_for(alloc())
        b = calibration_runner.parameters_for(alloc())
        assert a == b


class TestLstsqProtocol:
    def test_lstsq_runs_and_validates(self, lab_machine):
        runner = CalibrationRunner(lab_machine, method="lstsq")
        report = runner.calibrate(alloc())
        report.parameters.validate()
        assert report.method == "lstsq"

    def test_unknown_method_rejected(self, lab_machine):
        with pytest.raises(CalibrationError):
            CalibrationRunner(lab_machine, method="magic")


class TestExecutionReplay:
    """A long-lived runner replays executions a fresh runner must redo."""

    @pytest.mark.parametrize("method", ["sequential", "lstsq"])
    def test_long_lived_runner_matches_a_fresh_runner_per_allocation(
            self, lab_machine, method):
        def runner():
            return CalibrationRunner(
                lab_machine, method=method,
                workbench=CalibrationWorkbench(rows={
                    SMALL_TABLE: 200, "cal_scan_a": 1000, "cal_scan_b": 2000,
                    "cal_scan_c": 3000, HUGE_TABLE: 4000}))

        def hits():
            return obs.get_registry().value("calibration.trace_cache_hits")

        # One memory share, so one pool size: only the first allocation
        # executes anything on the long-lived runner.
        allocations = [alloc(cpu=0.25), alloc(), alloc(cpu=0.75, io=0.25)]
        before = hits()
        long_lived = runner()
        replayed = [long_lived.parameters_for(a) for a in allocations]
        assert hits() > before

        before = hits()
        fresh = [runner().parameters_for(a) for a in allocations]
        assert hits() == before
        assert replayed == fresh

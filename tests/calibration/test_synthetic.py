"""Tests for the calibration workbench."""

import pytest

from repro.calibration.synthetic import (
    HUGE_TABLE,
    SCAN_TABLES,
    SMALL_TABLE,
    CalibrationWorkbench,
)
from repro.engine.plans import Aggregate, IndexScan, SeqScan, walk


@pytest.fixture(scope="module")
def workbench():
    return CalibrationWorkbench(rows={
        SMALL_TABLE: 200,
        "cal_scan_a": 1000,
        "cal_scan_b": 2000,
        "cal_scan_c": 3000,
        HUGE_TABLE: 4000,
    })


@pytest.fixture(scope="module")
def db(workbench):
    return workbench.build_database()


class TestDatabase:
    def test_all_tables_present(self, db):
        expected = {SMALL_TABLE, HUGE_TABLE, *SCAN_TABLES}
        assert set(db.catalog.table_names()) == expected

    def test_row_counts_honoured(self, db, workbench):
        for table, n_rows in workbench.rows.items():
            assert db.catalog.table(table).heap.n_rows == n_rows

    def test_b_column_is_permutation(self, db):
        info = db.catalog.table(SMALL_TABLE)
        b_values = sorted(row[1] for row in info.heap.rows)
        assert b_values == list(range(info.heap.n_rows))

    def test_indexes_built(self, db):
        assert db.catalog.index_on_column(HUGE_TABLE, "b") is not None
        assert db.catalog.index_on_column(SMALL_TABLE, "b") is not None

    def test_statistics_ready(self, db):
        stats = db.catalog.stats(HUGE_TABLE)
        assert stats.column("a").n_distinct == 4000

    def test_deterministic(self, workbench):
        other = CalibrationWorkbench(rows=dict(workbench.rows)).build_database()
        mine = workbench.build_database()
        a = mine.catalog.table(SMALL_TABLE).heap.rows
        b = other.catalog.table(SMALL_TABLE).heap.rows
        assert a == b


class TestDesignedQueries:
    def test_always_true_predicate_is_always_true(self, workbench, db):
        predicate = workbench.always_true_predicate(4, SMALL_TABLE)
        plan = workbench.plan_small_pred(db)
        result = db.run_plan(plan)
        assert result.rows[0][0] == workbench.rows[SMALL_TABLE]

    def test_like_never_matches(self, workbench, db):
        result = db.run_plan(workbench.plan_small_like(db))
        assert result.rows[0][0] == 0
        assert result.trace.like_bytes > 0

    def test_index_plan_has_intended_shape(self, workbench, db):
        plan = workbench.plan_huge_index(db)
        kinds = [type(node) for node in walk(plan)]
        assert Aggregate in kinds and IndexScan in kinds
        assert SeqScan not in kinds

    def test_ladder_scans_cover_all_sizes(self, workbench):
        assert workbench.scan_ladder() == list(SCAN_TABLES) + [HUGE_TABLE]

    def test_suite_names_unique(self, workbench):
        names = [q.name for q in workbench.suite()]
        assert len(names) == len(set(names))

    def test_suite_queries_executable(self, workbench, db):
        for query in workbench.suite():
            result = db.run_plan(query.build_plan(db))
            assert len(result.rows) == 1  # all are count(*) aggregates

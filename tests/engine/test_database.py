"""Tests for the database facade."""

import pytest

from repro.engine.database import (
    BUFFER_POOL_FRACTION,
    MIN_BUFFER_POOL_PAGES,
    MIN_SORT_MEM_PAGES,
    Database,
)
from tests.conftest import simple_schema


class TestMemoryManagement:
    def test_memory_split(self):
        db = Database("d", memory_pages=1000)
        assert db.buffer_pool.capacity == int(1000 * BUFFER_POOL_FRACTION)
        assert db.sort_mem_pages == 1000 - db.buffer_pool.capacity

    def test_resize_memory(self):
        db = Database("d", memory_pages=1000)
        db.resize_memory(2000)
        assert db.buffer_pool.capacity == int(2000 * BUFFER_POOL_FRACTION)

    def test_shrink_evicts(self):
        db = Database("d", memory_pages=4000)
        db.create_table(simple_schema())
        db.load_rows("t", [(i, i, "x") for i in range(5000)])
        db.warm_cache()
        db.resize_memory(200)
        assert len(db.buffer_pool) <= db.buffer_pool.capacity

    def test_floors_enforced(self):
        db = Database("d", memory_pages=1)
        assert db.buffer_pool.capacity >= MIN_BUFFER_POOL_PAGES
        assert db.sort_mem_pages >= MIN_SORT_MEM_PAGES


class TestDdlAndQueries:
    @pytest.fixture
    def db(self):
        db = Database("d", memory_pages=2048)
        db.create_table(simple_schema())
        db.load_rows("t", [(i, i % 3, f"text {i}") for i in range(300)])
        db.create_index("t_a", "t", "a")
        db.analyze()
        return db

    def test_run_sql_end_to_end(self, db):
        result = db.run_sql("select b, count(*) as n from t group by b order by b")
        assert result.column_names == ["b", "n"]
        assert result.rows == [(0, 100), (1, 100), (2, 100)]
        assert result.plan is not None
        assert result.trace.tuples_processed >= 300

    def test_run_sql_with_filter(self, db):
        result = db.run_sql("select a from t where a < 5 order by a")
        assert [row[0] for row in result.rows] == [0, 1, 2, 3, 4]

    def test_result_len(self, db):
        assert len(db.run_sql("select a from t where a < 5")) == 5

    def test_warm_cache_prewarms(self, db):
        db.cold_restart()
        db.warm_cache(["t"])
        result = db.run_sql("select count(*) as n from t")
        assert result.trace.seq_page_reads == 0

    def test_cold_restart_clears(self, db):
        db.warm_cache()
        db.cold_restart()
        result = db.run_sql("select count(*) as n from t")
        assert result.trace.seq_page_reads > 0

    def test_deep_copyable_for_appliances(self, db):
        import copy

        clone = copy.deepcopy(db)
        clone.load_rows("t", [(999, 0, "new")])
        assert len(clone.run_sql("select a from t where a = 999")) == 1
        assert len(db.run_sql("select a from t where a = 999")) == 0


class TestAllOrNothingLoadRows:
    @pytest.fixture
    def db(self):
        from repro.engine.schema import Column, ColumnType, TableSchema

        db = Database("d", memory_pages=2048)
        db.create_table(TableSchema("u", [Column("k", ColumnType.INT),
                                          Column("v", ColumnType.INT)]))
        db.load_rows("u", [(k, 0) for k in range(10)])
        db.create_index("u_k", "u", "k", unique=True)
        db.create_index("u_v", "u", "v")
        db.analyze()
        return db

    def _state(self, db):
        info = db.catalog.table("u")
        return (info.heap.n_rows, info.heap.n_pages,
                [(i.name, i.index.n_entries) for i in info.indexes.values()])

    @pytest.mark.parametrize("batch", [
        [(100, 0), (3, 0), (101, 0)],    # clashes with the index
        [(100, 0), (102, 0), (100, 0)],  # clashes within the batch
    ], ids=["existing", "in-batch"])
    def test_unique_violation_keeps_nothing(self, db, batch):
        from repro.util.errors import StorageError

        before = self._state(db)
        with pytest.raises(StorageError, match="duplicate key .* unique index 'u_k'"):
            db.load_rows("u", batch)
        assert self._state(db) == before
        assert db.run_sql("select count(*) as n from u where k = 3").rows == [(1,)]

    def test_bad_row_keeps_nothing(self, db):
        from repro.util.errors import CatalogError

        before = self._state(db)
        with pytest.raises(CatalogError):
            db.load_rows("u", [(200, 0), ("bad", 0)])
        assert self._state(db) == before

    def test_indexed_load_maintains_every_index(self, db):
        assert db.load_rows("u", [(k, k % 2) for k in range(10, 400)]) == 390
        info = db.catalog.table("u")
        entries = {i.name: list(i.index.items()) for i in info.indexes.values()}
        by_rid = dict(info.heap.scan_rids())
        assert len(entries["u_k"]) == len(entries["u_v"]) == 400
        assert all(by_rid[rid][0] == key for key, rid in entries["u_k"])
        assert all(by_rid[rid][1] == key for key, rid in entries["u_v"])

"""Tests for heap files and pages."""

import pytest

from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import HeapFile, RecordId
from repro.util.errors import CatalogError, StorageError
from repro.util.units import PAGE_SIZE


def make_heap(text_width=20):
    schema = TableSchema("t", [
        Column("a", ColumnType.INT),
        Column("c", ColumnType.TEXT, avg_width=text_width),
    ])
    return HeapFile(schema)


class TestAppend:
    def test_append_and_fetch(self):
        heap = make_heap()
        rid = heap.append((1, "hello"))
        assert heap.fetch(rid) == (1, "hello")
        assert heap.n_rows == 1

    def test_rows_span_pages(self):
        heap = make_heap()
        per_page = heap.rows_per_page()
        for i in range(per_page + 1):
            heap.append((i, "x"))
        assert heap.n_pages == 2
        assert len(heap.page(0)) == per_page
        assert len(heap.page(1)) == 1

    def test_rows_per_page_matches_width(self):
        heap = make_heap()
        expected = (PAGE_SIZE - 64) // heap.schema.row_width
        assert heap.rows_per_page() == expected

    def test_bulk_load_counts(self):
        heap = make_heap()
        n = heap.bulk_load([(i, "r") for i in range(500)])
        assert n == 500
        assert heap.n_rows == 500

    def test_schema_validated_on_append(self):
        heap = make_heap()
        with pytest.raises(CatalogError):
            heap.append(("wrong", 1))


class TestScan:
    def test_scan_rids_in_physical_order(self):
        heap = make_heap()
        rids = [heap.append((i, "x")) for i in range(300)]
        scanned = list(heap.scan_rids())
        assert [rid for rid, _row in scanned] == rids
        assert [row[0] for _rid, row in scanned] == list(range(300))

    def test_pages_iterates_all(self):
        heap = make_heap()
        heap.bulk_load([(i, "x") for i in range(700)])
        total = sum(len(page) for page in heap.pages())
        assert total == 700


class TestErrors:
    def test_fetch_bad_page(self):
        heap = make_heap()
        with pytest.raises(StorageError):
            heap.fetch(RecordId(5, 0))

    def test_fetch_bad_slot(self):
        heap = make_heap()
        heap.append((1, "x"))
        with pytest.raises(StorageError):
            heap.fetch(RecordId(0, 99))

    def test_distinct_file_ids(self):
        assert make_heap().file_id != make_heap().file_id


class TestAllOrNothingLoad:
    def test_row_wider_than_a_page_is_rejected_without_leaving_pages(self):
        heap = make_heap(text_width=9000)
        for _attempt in range(2):
            with pytest.raises(StorageError, match="does not fit"):
                heap.append((1, "x"))
        with pytest.raises(StorageError, match="does not fit"):
            heap.bulk_load([(1, "x")])
        with pytest.raises(StorageError, match="does not fit"):
            heap.rows_per_page()
        assert (heap.n_pages, heap.n_rows) == (0, 0)

    def test_bad_row_mid_batch_keeps_nothing(self):
        heap = HeapFile(TableSchema("t", [Column("a", ColumnType.INT)]))
        with pytest.raises(CatalogError) as batch_error:
            heap.bulk_load([(1,), (2,), ("bad",), (4,)])
        with pytest.raises(CatalogError) as row_error:
            heap.schema.validate_row(("bad",))
        assert str(batch_error.value) == str(row_error.value)
        assert (heap.n_pages, heap.n_rows) == (0, 0)

    def test_first_bad_row_names_the_error(self):
        heap = make_heap()
        heap.bulk_load([(0, "kept")])
        with pytest.raises(CatalogError, match="has 1 values"):
            heap.bulk_load([(1, "x"), (2,), (3.5, "y")])
        with pytest.raises(CatalogError, match=r"value 3\.5 is not valid"):
            heap.bulk_load([(1, "x"), (3.5, "y"), (2,)])
        assert [row for _rid, row in heap.scan_rids()] == [(0, "kept")]

    def test_type_check_matches_isinstance(self):
        heap = HeapFile(TableSchema("t", [Column("i", ColumnType.INT),
                                         Column("f", ColumnType.FLOAT)]))
        heap.bulk_load([(True, 1), (None, None), (2, 2.5)])
        assert heap.n_rows == 3
        with pytest.raises(CatalogError):
            heap.bulk_load([(1, "2.5")])

    def test_batch_fills_the_last_page_before_opening_one(self):
        heap = make_heap()
        per_page = heap.rows_per_page()
        heap.bulk_load([(i, "x") for i in range(per_page - 3)])
        rid = heap.append((-1, "y"))
        assert rid == RecordId(0, per_page - 3)
        heap.bulk_load([(i, "z") for i in range(2 * per_page + 4)])
        assert [len(page) for page in heap.pages()] == [per_page] * 3 + [2]
        assert heap.n_rows == 3 * per_page + 2
        assert [r for r, _row in heap.scan_rids()][-1] == RecordId(3, 1)

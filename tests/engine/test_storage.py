"""Tests for heap files and their page geometry."""

import pytest

from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import HeapFile
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
        position = heap.append((1, "hello"))
        assert position == 0
        assert heap.fetch(position) == (1, "hello")
        assert heap.n_rows == 1

    def test_rows_span_pages(self):
        heap = make_heap()
        per_page = heap.rows_per_page()
        for i in range(per_page + 1):
            heap.append((i, "x"))
        assert heap.n_pages == 2
        assert len(heap.rows) == per_page + 1

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
    def test_rows_in_physical_order(self):
        heap = make_heap()
        positions = [heap.append((i, "x")) for i in range(300)]
        assert positions == list(range(300))
        assert [row[0] for row in heap.rows] == list(range(300))
        assert [heap.fetch(p) for p in positions] == heap.rows

    def test_pages_iterates_all(self):
        heap = make_heap()
        heap.bulk_load([(i, "x") for i in range(700)])
        per_page = heap.rows_per_page()
        pages = [heap.rows[p * per_page:(p + 1) * per_page]
                 for p in range(heap.n_pages)]
        assert sum(map(len, pages)) == len(heap.rows) == 700
        assert all(len(page) == per_page for page in pages[:-1])


class TestErrors:
    def test_fetch_bad_page(self):
        heap = make_heap()
        for position in (0, 5 * heap.rows_per_page()):
            with pytest.raises(StorageError):
                heap.fetch(position)

    def test_fetch_bad_slot(self):
        heap = make_heap()
        heap.append((1, "x"))
        with pytest.raises(StorageError):
            heap.fetch(99)  # page 0, an empty slot

    @pytest.mark.parametrize("n_rows", [1, 300])
    def test_fetch_rejects_every_position_outside_the_rows(self, n_rows):
        heap = make_heap()
        heap.bulk_load([(i, "x") for i in range(n_rows)])
        for position in (-1, -n_rows, n_rows, n_rows + 1):
            with pytest.raises(StorageError, match=f"no row at position {position}"):
                heap.fetch(position)
        assert heap.fetch(n_rows - 1) == (n_rows - 1, "x")

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
        assert heap.rows == [(0, "kept")]

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
        position = heap.append((-1, "y"))
        assert divmod(position, per_page) == (0, per_page - 3)
        assert heap.n_pages == 1
        heap.bulk_load([(i, "z") for i in range(2 * per_page + 4)])
        assert heap.n_pages == 4
        assert heap.n_rows == 3 * per_page + 2
        assert divmod(heap.n_rows - 1, per_page) == (3, 1)
        assert heap.rows[per_page - 3] == (-1, "y")
        assert heap.rows[per_page - 2] == (0, "z")

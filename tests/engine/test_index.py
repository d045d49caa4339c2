"""Tests for the B+-tree index."""

import pytest

from repro.engine.index import BPlusTreeIndex
from repro.util.errors import StorageError


def bulk(keys, **kwargs):
    return BPlusTreeIndex.bulk_load("idx", "t", "a", keys, **kwargs)


class TestBulkLoad:
    def test_all_entries_retained_sorted(self):
        keys = [5, 3, 8, 1, 9, 2, 7]
        tree = bulk(keys)
        assert [k for k, _r in tree.items()] == sorted(keys)
        assert tree.n_entries == len(keys)

    def test_duplicates_allowed(self):
        tree = bulk([4, 4, 4, 2])
        positions, _pages = tree.search(4)
        assert positions == [0, 1, 2]

    def test_payloads_are_positions_ascending_within_a_key(self):
        keys = [3, 1, 3, None, 1, 3]
        tree = bulk(keys)
        assert list(tree.items()) == [(1, 1), (1, 4), (3, 0), (3, 2), (3, 5)]

    def test_null_keys_are_not_indexed(self):
        tree = bulk([None, 2, None])
        assert tree.n_entries == 1
        assert list(tree.items()) == [(2, 1)]

    def test_unique_rejects_duplicates(self):
        with pytest.raises(StorageError):
            bulk([1, 1], unique=True)

    def test_empty_tree(self):
        tree = bulk([])
        assert tree.n_entries == 0
        assert tree.search(1) == ([], [0])
        assert list(tree.range_scan()) == []

    def test_large_bulk_load_builds_levels(self):
        tree = bulk(list(range(50_000)))
        assert tree.height >= 2
        assert [k for k, _ in tree.items()] == list(range(50_000))


class TestSearch:
    def test_point_lookup(self):
        tree = bulk(list(range(0, 1000, 2)))
        positions, pages = tree.search(500)
        assert positions == [250]
        assert len(pages) == tree.height

    def test_missing_key(self):
        tree = bulk(list(range(0, 1000, 2)))
        positions, _pages = tree.search(501)
        assert positions == []

    def test_descend_pages_path_length(self):
        tree = bulk(list(range(10_000)))
        assert len(tree.descend_pages(5000)) == tree.height

    def test_descend_pages_none_goes_leftmost(self):
        tree = bulk(list(range(100)))
        path = tree.descend_pages(None)
        assert len(path) == tree.height


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        return bulk(list(range(100)))

    def test_closed_range(self, tree):
        keys = [k for k, _r, _p in tree.range_scan(10, 20)]
        assert keys == list(range(10, 21))

    def test_open_low(self, tree):
        keys = [k for k, _r, _p in tree.range_scan(None, 5)]
        assert keys == [0, 1, 2, 3, 4, 5]

    def test_open_high(self, tree):
        keys = [k for k, _r, _p in tree.range_scan(95, None)]
        assert keys == [95, 96, 97, 98, 99]

    def test_exclusive_bounds(self, tree):
        keys = [k for k, _r, _p in tree.range_scan(
            10, 20, low_inclusive=False, high_inclusive=False)]
        assert keys == list(range(11, 20))

    def test_empty_range(self, tree):
        assert list(tree.range_scan(50, 40)) == []

    def test_leaf_pages_reported(self, tree):
        pages = {p for _k, _r, p in tree.range_scan(0, 99)}
        assert len(pages) >= 1

    def test_string_keys(self):
        tree = bulk(["pear", "apple", "fig"], key_width=16)
        assert [k for k, _ in tree.items()] == ["apple", "fig", "pear"]


class TestInsert:
    def test_insert_into_empty(self):
        tree = BPlusTreeIndex("idx", "t", "a")
        tree.insert(5, 0)
        assert tree.search(5)[0] == [0]

    def test_insert_many_with_splits(self):
        tree = BPlusTreeIndex("idx", "t", "a")
        n = 5000
        for i in range(n):
            tree.insert((i * 37) % n, i)  # scrambled order
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys)
        assert tree.n_entries == n
        assert tree.height >= 2

    def test_insert_duplicate_key_appends_rid(self):
        tree = BPlusTreeIndex("idx", "t", "a")
        tree.insert(1, 0)
        tree.insert(1, 1)
        assert tree.search(1)[0] == [0, 1]

    def test_unique_insert_rejects_duplicate(self):
        tree = BPlusTreeIndex("idx", "t", "a", unique=True)
        tree.insert(1, 0)
        with pytest.raises(StorageError):
            tree.insert(1, 1)

    def test_insert_then_range_scan_consistent(self):
        tree = BPlusTreeIndex("idx", "t", "a")
        for i in reversed(range(1000)):
            tree.insert(i, i)
        assert [k for k, _r, _p in tree.range_scan(100, 110)] == list(range(100, 111))


class TestGeometry:
    def test_pages_grow_with_entries(self):
        small = bulk(list(range(100)))
        large = bulk(list(range(20_000)))
        assert large.n_pages > small.n_pages

    def test_fanout_depends_on_key_width(self):
        narrow = BPlusTreeIndex("i1", "t", "a", key_width=8)
        wide = BPlusTreeIndex("i2", "t", "a", key_width=100)
        assert narrow.fanout > wide.fanout

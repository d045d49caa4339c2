"""Property tests: the B+-tree agrees with a sorted-list oracle."""

from hypothesis import given, settings, strategies as st

from repro.engine.index import BPlusTreeIndex

keys_lists = st.lists(st.integers(min_value=-1000, max_value=1000),
                      min_size=0, max_size=300)


def build_insert(keys):
    tree = BPlusTreeIndex("idx", "t", "a", key_width=8)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    return tree


@given(keys_lists)
def test_items_sorted_and_complete(keys):
    tree = build_insert(keys)
    assert sorted(keys) == [k for k, _r in tree.items()]


@given(keys_lists)
def test_bulk_load_equals_insert_build(keys):
    inserted = build_insert(keys)
    bulk = BPlusTreeIndex.bulk_load("idx2", "t", "a", keys, key_width=8)
    assert list(inserted.items()) == list(bulk.items())


@given(keys_lists, st.integers(min_value=-1000, max_value=1000))
def test_search_matches_count(keys, probe):
    tree = build_insert(keys)
    positions, _pages = tree.search(probe)
    assert positions == [i for i, key in enumerate(keys) if key == probe]


@given(keys_lists,
       st.integers(min_value=-1100, max_value=1100),
       st.integers(min_value=-1100, max_value=1100))
def test_range_scan_matches_filter(keys, a, b):
    low, high = min(a, b), max(a, b)
    tree = build_insert(keys)
    scanned = [k for k, _r, _p in tree.range_scan(low, high)]
    assert scanned == sorted(k for k in keys if low <= k <= high)


@given(keys_lists)
@settings(max_examples=50)
def test_entry_count_invariant(keys):
    tree = build_insert(keys)
    assert tree.n_entries == len(keys)
    assert tree.n_pages >= tree.height

"""B+-tree secondary indexes.

Keys are single column values; payloads are plain ``int`` row
positions in the table's :class:`~repro.engine.storage.HeapFile`
(duplicates allowed; a key's positions ascend). Nodes occupy one page
each and carry page numbers so index traversal can be charged to the
buffer pool like heap access. The tree supports bulk loading from a
column's keys (how the TPC-H kit builds its OSDB-style index set),
ordinary inserts with splits, point lookups, and ordered range scans
over the leaf chain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count, groupby
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.engine.types import Value
from repro.util.errors import StorageError
from repro.util.units import PAGE_SIZE

_index_file_ids = count(100_000)

#: Bytes of node overhead per page.
NODE_HEADER_BYTES = 64
#: Accounting size of one (key, child/position) entry given a key width.
ENTRY_OVERHEAD_BYTES = 16


def _fanout(key_width: int) -> int:
    per_entry = key_width + ENTRY_OVERHEAD_BYTES
    return max(8, (PAGE_SIZE - NODE_HEADER_BYTES) // per_entry)


class _Node:
    __slots__ = ("page_no", "keys")

    def __init__(self, page_no: int):
        self.page_no = page_no
        self.keys: List[Value] = []


class _Leaf(_Node):
    __slots__ = ("positions", "next_leaf")

    def __init__(self, page_no: int):
        super().__init__(page_no)
        self.positions: List[List[int]] = []
        self.next_leaf: Optional["_Leaf"] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, page_no: int):
        super().__init__(page_no)
        self.children: List[_Node] = []


class BPlusTreeIndex:
    """A B+-tree over one column of a heap file."""

    def __init__(self, name: str, table_name: str, column_name: str,
                 key_width: int = 8, unique: bool = False):
        self.name = name
        self.table_name = table_name
        self.column_name = column_name
        self.unique = unique
        self.file_id = next(_index_file_ids)
        self._fanout = _fanout(key_width)
        self._n_pages = 0
        self._n_entries = 0
        self._root: _Node = self._new_leaf()

    # -- geometry --------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive."""
        levels = 1
        node = self._root
        while isinstance(node, _Internal):
            levels += 1
            node = node.children[0]
        return levels

    def _new_leaf(self) -> _Leaf:
        leaf = _Leaf(self._n_pages)
        self._n_pages += 1
        return leaf

    def _new_internal(self) -> _Internal:
        node = _Internal(self._n_pages)
        self._n_pages += 1
        return node

    # -- bulk load ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, name: str, table_name: str, column_name: str,
                  column: Sequence[Value],
                  key_width: int = 8, unique: bool = False) -> "BPlusTreeIndex":
        """Build a tree over a column whose row at position *i* has key
        ``column[i]``; NULL keys are not indexed.

        The non-NULL positions are sorted stably by key alone, so each
        key's positions come out ascending. Leaves are packed to ~90%
        like a real bulk load, keeping page counts realistic for the
        optimizer's index-size estimates.
        """
        index = cls(name, table_name, column_name, key_width=key_width, unique=unique)
        key_of = column.__getitem__
        order = [pos for pos, key in enumerate(column) if key is not None]
        order.sort(key=key_of)
        index._n_entries = len(order)
        keys: List[Value] = []
        positions: List[List[int]] = []
        for key, group in groupby(order, key=key_of):
            keys.append(key)
            positions.append(list(group))
            if unique and len(positions[-1]) > 1:
                raise StorageError(f"duplicate key {key!r} in unique index {name!r}")

        fill = max(2, int(index._fanout * 0.9))
        leaves: List[_Leaf] = []
        for start in range(0, len(keys), fill):
            leaf = index._new_leaf() if leaves else index._root
            leaf.keys = keys[start:start + fill]
            leaf.positions = positions[start:start + fill]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        if not leaves:
            return index

        # Build internal levels bottom-up.
        level: List[_Node] = leaves
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start:start + fill]
                parent = index._new_internal()
                parent.children = list(group)
                parent.keys = [_subtree_min(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        index._root = level[0]
        return index

    # -- inserts -----------------------------------------------------------------------

    def insert(self, key: Value, position: int) -> None:
        """Insert one entry, splitting nodes on overflow."""
        split = self._insert_into(self._root, key, position)
        if split is not None:
            sep_key, right = split
            new_root = self._new_internal()
            new_root.children = [self._root, right]
            new_root.keys = [sep_key]
            self._root = new_root
        self._n_entries += 1

    def _insert_into(self, node: _Node, key: Value,
                     position: int) -> Optional[Tuple[Value, _Node]]:
        if isinstance(node, _Leaf):
            return self._insert_into_leaf(node, key, position)
        assert isinstance(node, _Internal)
        child_pos = bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_pos], key, position)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(child_pos, sep_key)
        node.children.insert(child_pos + 1, right)
        if len(node.children) <= self._fanout:
            return None
        mid = len(node.keys) // 2
        up_key = node.keys[mid]
        sibling = self._new_internal()
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return up_key, sibling

    def _insert_into_leaf(self, leaf: _Leaf, key: Value,
                          position: int) -> Optional[Tuple[Value, _Node]]:
        pos = bisect_left(leaf.keys, key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            if self.unique:
                raise StorageError(f"duplicate key {key!r} in unique index {self.name!r}")
            leaf.positions[pos].append(position)
            return None
        leaf.keys.insert(pos, key)
        leaf.positions.insert(pos, [position])
        if len(leaf.keys) <= self._fanout:
            return None
        mid = len(leaf.keys) // 2
        sibling = self._new_leaf()
        sibling.keys = leaf.keys[mid:]
        sibling.positions = leaf.positions[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.positions = leaf.positions[:mid]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling
        return sibling.keys[0], sibling

    # -- lookups ---------------------------------------------------------------------------

    def _descend(self, key: Value) -> Tuple[_Leaf, List[int]]:
        """Leaf responsible for *key* plus the page numbers on the path."""
        pages = [self._root.page_no]
        node = self._root
        while isinstance(node, _Internal):
            pos = bisect_right(node.keys, key)
            node = node.children[pos]
            pages.append(node.page_no)
        assert isinstance(node, _Leaf)
        return node, pages

    def search(self, key: Value) -> Tuple[List[int], List[int]]:
        """Row positions matching *key* and the index pages touched."""
        leaf, pages = self._descend(key)
        pos = bisect_left(leaf.keys, key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return list(leaf.positions[pos]), pages
        return [], pages

    def range_scan(self, low: Optional[Value] = None, high: Optional[Value] = None,
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> Iterator[Tuple[Value, int, int]]:
        """Yield (key, position, leaf page number) over [low, high] in key order.

        Open bounds are expressed by passing ``None``. The caller charges
        page accesses: the descent pages via :meth:`descend_pages`, each
        distinct leaf page number as it appears in the stream.
        """
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            pos = 0
        else:
            leaf, _ = self._descend(low)
            pos = bisect_left(leaf.keys, low)
            if not low_inclusive:
                while pos < len(leaf.keys) and leaf.keys[pos] == low:
                    pos += 1
        while leaf is not None:
            while pos < len(leaf.keys):
                key = leaf.keys[pos]
                if high is not None:
                    if high_inclusive and key > high:
                        return
                    if not high_inclusive and key >= high:
                        return
                for position in leaf.positions[pos]:
                    yield key, position, leaf.page_no
                pos += 1
            leaf = leaf.next_leaf
            pos = 0

    def descend_pages(self, key: Value) -> List[int]:
        """Page numbers on the root-to-leaf path for *key* (or leftmost)."""
        if key is None:
            pages = [self._root.page_no]
            node = self._root
            while isinstance(node, _Internal):
                node = node.children[0]
                pages.append(node.page_no)
            return pages
        return self._descend(key)[1]

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        return node

    def items(self) -> Iterator[Tuple[Value, int]]:
        """All (key, position) entries in key order (testing / verification helper)."""
        for key, position, _page in self.range_scan():
            yield key, position

    def __repr__(self) -> str:
        return (
            f"BPlusTreeIndex({self.name!r} on {self.table_name}.{self.column_name}, "
            f"entries={self._n_entries}, pages={self._n_pages}, height={self.height})"
        )


def _subtree_min(node: _Node) -> Value:
    while isinstance(node, _Internal):
        node = node.children[0]
    assert isinstance(node, _Leaf)
    if not node.keys:
        raise StorageError("empty leaf in bulk-loaded tree")
    return node.keys[0]


class HypotheticalIndex:
    """A what-if index: B+-tree geometry without the tree.

    Exposes the same ``fanout``/``height``/``n_pages``/``n_entries``
    surface the planner and storage accounting read from
    :class:`BPlusTreeIndex`, derived from table statistics with the
    same arithmetic :meth:`BPlusTreeIndex.bulk_load` uses (distinct
    keys per ~90%-filled leaf, internal levels grouped bottom-up), so
    a what-if cost matches what materializing the index would cost.
    Any attempt to actually read it raises :class:`StorageError`.
    """

    def __init__(self, name: str, table_name: str, column_name: str,
                 n_entries: int, n_keys: int, key_width: int = 8,
                 unique: bool = False):
        self.name = name
        self.table_name = table_name
        self.column_name = column_name
        self.unique = unique
        self._fanout = _fanout(key_width)
        self._n_entries = max(0, int(n_entries))
        n_keys = max(0, min(int(n_keys), self._n_entries))
        fill = max(2, int(self._fanout * 0.9))
        # Mirror bulk_load: one (key, positions) slot per distinct key,
        # `fill` slots per leaf, then internal levels in groups of `fill`.
        leaves = max(1, -(-n_keys // fill))
        pages, height, level = leaves, 1, leaves
        while level > 1:
            level = -(-level // fill)
            pages += level
            height += 1
        self._n_pages = pages
        self._height = height

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def height(self) -> int:
        return self._height

    def _unreadable(self) -> StorageError:
        return StorageError(
            f"hypothetical index {self.name!r} cannot be read; "
            f"materialize it with Catalog.create_index first"
        )

    def search(self, key: Value):
        raise self._unreadable()

    def range_scan(self, *args, **kwargs):
        raise self._unreadable()

    def descend_pages(self, key: Value):
        raise self._unreadable()

    def items(self):
        raise self._unreadable()

    def __repr__(self) -> str:
        return (
            f"HypotheticalIndex({self.name!r} on "
            f"{self.table_name}.{self.column_name}, "
            f"entries={self._n_entries}, pages={self._n_pages}, "
            f"height={self._height})"
        )

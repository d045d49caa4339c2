"""Heap storage with page geometry.

A table's rows live in one list, :attr:`HeapFile.rows`, in physical
order; a row's address is its position in that list. Pages are
geometry, not containers: rows are Python tuples, every row of a
schema has the same accounting width, so a page holds exactly
:meth:`HeapFile.rows_per_page` of them — the fan-out a real slotted
8 KiB page of that row width would have — and the row at position *i*
sits on page ``i // rows_per_page()``. "Disk" is simply the heap file;
whether touching a page costs a physical read or a buffer hit is
decided by the buffer pool.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from repro.engine.schema import TableSchema
from repro.engine.types import Value
from repro.util.errors import StorageError
from repro.util.units import PAGE_SIZE

#: Bytes per page reserved for the page header and slot directory.
PAGE_HEADER_BYTES = 64

_file_ids = itertools.count(1)


class HeapFile:
    """An append-oriented heap file for one table.

    Every page but the last is full, so position *i* lives in slot
    ``i % rows_per_page()`` of page ``i // rows_per_page()``.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.file_id = next(_file_ids)
        #: Every row in physical order; a row's position is its address.
        self.rows: List[tuple] = []
        # Stored, not derived: the catalog fingerprint reads it per lookup.
        self._n_pages = 0

    # -- geometry ----------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def rows_per_page(self) -> int:
        """Rows of this schema's width one page holds."""
        per_page = (PAGE_SIZE - PAGE_HEADER_BYTES) // self.schema.row_width
        if per_page < 1:
            raise StorageError(
                f"a {self.schema.row_width}-byte row of {self.schema.name!r} "
                f"does not fit a {PAGE_SIZE}-byte page")
        return per_page

    # -- writes ----------------------------------------------------------------

    def append(self, row: Sequence[Value]) -> int:
        """Validate and append one row; returns its position."""
        self.bulk_load((row,))
        return len(self.rows) - 1

    def bulk_load(self, rows: Iterable[Sequence[Value]]) -> int:
        """Validate and append a batch of rows; returns the number loaded.

        All or nothing: a row that does not fit the schema (or a schema
        whose rows do not fit a page) raises before the heap changes.
        """
        per_page = self.rows_per_page()
        batch = list(map(tuple, rows))
        self.schema.validate_rows(batch)
        self.rows.extend(batch)
        self._n_pages = -(-len(self.rows) // per_page)
        return len(batch)

    # -- reads -----------------------------------------------------------------

    def fetch(self, position: int) -> tuple:
        """The row at *position*, which must lie in ``[0, n_rows)``."""
        if not 0 <= position < len(self.rows):
            raise StorageError(
                f"no row at position {position} in {self.schema.name!r} "
                f"({len(self.rows)} rows)")
        return self.rows[position]

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.schema.name!r}, rows={len(self.rows)}, "
            f"pages={self._n_pages})"
        )

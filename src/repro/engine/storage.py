"""Paged heap storage.

Tables live in heap files made of fixed-size pages (8 KiB). Rows are
Python tuples; every row of a schema has the same accounting width, so a
page holds exactly :meth:`HeapFile.rows_per_page` of them, the fan-out a
real slotted page of that row width would have. "Disk" is simply the
heap file — whether touching a page costs a physical read or a buffer
hit is decided by the buffer pool.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from repro.engine.schema import TableSchema
from repro.engine.types import Value
from repro.util.errors import StorageError
from repro.util.units import PAGE_SIZE

#: Bytes per page reserved for the page header and slot directory.
PAGE_HEADER_BYTES = 64

_file_ids = itertools.count(1)


class RecordId(NamedTuple):
    """Physical address of a tuple: (page number, slot in page)."""

    page_no: int
    slot: int

    def __repr__(self) -> str:
        return f"Rid({self.page_no}, {self.slot})"


class Page:
    """One heap page holding whole rows."""

    __slots__ = ("page_no", "rows")

    def __init__(self, page_no: int, rows: List[tuple]):
        self.page_no = page_no
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


class HeapFile:
    """An append-oriented heap file for one table.

    Every page but the last is full, so row *i* of the file lives at
    ``RecordId(*divmod(i, rows_per_page()))``.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.file_id = next(_file_ids)
        self._pages: List[Page] = []
        self._n_rows = 0

    # -- geometry ----------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def rows_per_page(self) -> int:
        """Rows of this schema's width one page holds."""
        per_page = (PAGE_SIZE - PAGE_HEADER_BYTES) // self.schema.row_width
        if per_page < 1:
            raise StorageError(
                f"a {self.schema.row_width}-byte row of {self.schema.name!r} "
                f"does not fit a {PAGE_SIZE}-byte page")
        return per_page

    # -- writes ----------------------------------------------------------------

    def append(self, row: Sequence[Value]) -> RecordId:
        """Validate and append one row; returns its record id."""
        self.bulk_load((row,))
        return RecordId(*divmod(self._n_rows - 1, self.rows_per_page()))

    def bulk_load(self, rows: Iterable[Sequence[Value]]) -> int:
        """Validate and append a batch of rows; returns the number loaded.

        All or nothing: a row that does not fit the schema (or a schema
        whose rows do not fit a page) raises before any page changes.
        """
        per_page = self.rows_per_page()
        batch = list(map(tuple, rows))
        self.schema.validate_rows(batch)
        pages = self._pages
        start = 0
        if pages:
            start = per_page - len(pages[-1].rows)
            pages[-1].rows.extend(batch[:start])
        for offset in range(start, len(batch), per_page):
            pages.append(Page(len(pages), batch[offset:offset + per_page]))
        self._n_rows += len(batch)
        return len(batch)

    # -- reads -----------------------------------------------------------------

    def page(self, page_no: int) -> Page:
        try:
            return self._pages[page_no]
        except IndexError:
            raise StorageError(
                f"heap file for {self.schema.name!r} has no page {page_no}"
            ) from None

    def pages(self) -> Iterator[Page]:
        """Pages in physical order (a sequential scan's access pattern)."""
        return iter(self._pages)

    def fetch(self, rid: RecordId) -> tuple:
        """The row at *rid*."""
        page = self.page(rid.page_no)
        try:
            return page.rows[rid.slot]
        except IndexError:
            raise StorageError(f"no tuple at {rid!r} in {self.schema.name!r}") from None

    def scan_rids(self) -> Iterator[Tuple[RecordId, tuple]]:
        """All (rid, row) pairs in physical order."""
        for page in self._pages:
            page_no = page.page_no
            for slot, row in enumerate(page.rows):
                yield RecordId(page_no, slot), row

    def __repr__(self) -> str:
        return (
            f"HeapFile({self.schema.name!r}, rows={self._n_rows}, "
            f"pages={self.n_pages})"
        )

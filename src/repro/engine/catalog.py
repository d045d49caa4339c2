"""The system catalog: tables, indexes, and their statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.index import BPlusTreeIndex, HypotheticalIndex
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStats, analyze_table
from repro.engine.storage import HeapFile, RecordId
from repro.util.errors import CatalogError


@dataclass
class IndexInfo:
    """Catalog entry for one index (real or hypothetical)."""

    name: str
    table_name: str
    column_name: str
    index: BPlusTreeIndex
    unique: bool = False
    #: What-if entry: costed by the planner, unreadable by the executor.
    hypothetical: bool = False


@dataclass
class TableInfo:
    """Catalog entry for one table."""

    schema: TableSchema
    heap: HeapFile
    stats: Optional[TableStats] = None
    indexes: Dict[str, IndexInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.schema.name


class Catalog:
    """Registry of tables and indexes for one database."""

    def __init__(self):
        self._tables: Dict[str, TableInfo] = {}

    # -- tables ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableInfo:
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        info = TableInfo(schema=schema, heap=HeapFile(schema))
        self._tables[schema.name] = info
        return info

    def drop_table(self, name: str) -> None:
        self.table(name)  # raise if absent
        del self._tables[name]

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- indexes ----------------------------------------------------------------

    def create_index(self, index_name: str, table_name: str, column_name: str,
                     unique: bool = False) -> IndexInfo:
        """Build a B+-tree over an existing table column (bulk load)."""
        info = self.table(table_name)
        if not info.schema.has_column(column_name):
            raise CatalogError(
                f"table {table_name!r} has no column {column_name!r}"
            )
        for table in self._tables.values():
            if index_name in table.indexes:
                raise CatalogError(f"index {index_name!r} already exists")
        col_pos = info.schema.column_index(column_name)
        key_width = info.schema.columns[col_pos].avg_width
        entries = [
            (row[col_pos], RecordId(page.page_no, slot))
            for page in info.heap.pages()
            for slot, row in enumerate(page.rows)
            if row[col_pos] is not None
        ]
        tree = BPlusTreeIndex.bulk_load(
            index_name, table_name, column_name, entries,
            key_width=key_width, unique=unique,
        )
        index_info = IndexInfo(
            name=index_name, table_name=table_name,
            column_name=column_name, index=tree, unique=unique,
        )
        info.indexes[index_name] = index_info
        return index_info

    def create_hypothetical_index(self, index_name: str, table_name: str,
                                  column_name: str,
                                  unique: bool = False) -> IndexInfo:
        """Register a what-if index: costed by planning, never built.

        Geometry (pages, height, fanout) is estimated from the table's
        statistics with the same arithmetic a real bulk load uses, so
        what-if plans price it like the materialized tree would. Shows
        up in :meth:`fingerprint` like real DDL — cached plans and
        compiled recost programs invalidate on create *and* drop.
        """
        info = self.table(table_name)
        if not info.schema.has_column(column_name):
            raise CatalogError(
                f"table {table_name!r} has no column {column_name!r}"
            )
        for table in self._tables.values():
            if index_name in table.indexes:
                raise CatalogError(f"index {index_name!r} already exists")
        if info.stats is None:
            self.analyze(table_name)
        stats = info.stats
        assert stats is not None
        col_pos = info.schema.column_index(column_name)
        key_width = info.schema.columns[col_pos].avg_width
        col_stats = stats.column(column_name)
        if col_stats is not None:
            n_entries = round(stats.n_rows * (1.0 - col_stats.null_fraction))
            n_keys = round(col_stats.n_distinct)
        else:
            n_entries = stats.n_rows
            n_keys = stats.n_rows
        tree = HypotheticalIndex(
            index_name, table_name, column_name,
            n_entries=n_entries, n_keys=n_keys,
            key_width=key_width, unique=unique,
        )
        index_info = IndexInfo(
            name=index_name, table_name=table_name,
            column_name=column_name, index=tree, unique=unique,
            hypothetical=True,
        )
        info.indexes[index_name] = index_info
        return index_info

    def drop_index(self, index_name: str) -> None:
        """Drop an index (real or hypothetical) by name."""
        for table in self._tables.values():
            if index_name in table.indexes:
                del table.indexes[index_name]
                return
        raise CatalogError(f"unknown index {index_name!r}")

    def indexes_on(self, table_name: str) -> List[IndexInfo]:
        return list(self.table(table_name).indexes.values())

    def index_on_column(self, table_name: str, column_name: str) -> Optional[IndexInfo]:
        """The first index over (table, column), if any."""
        for index_info in self.table(table_name).indexes.values():
            if index_info.column_name == column_name:
                return index_info
        return None

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """A hashable summary of everything planning depends on.

        Covers, per table: the row/page population, whether statistics
        are present (and how many rows they describe), and the index
        set. Cached plans and compiled recost programs key on this —
        any DDL, load, or ``analyze`` that could change a plan changes
        the fingerprint (see :mod:`repro.optimizer.recost`).
        """
        tables = []
        for name in self.table_names():
            info = self._tables[name]
            stats = info.stats
            tables.append((
                name,
                info.heap.n_rows,
                info.heap.n_pages,
                None if stats is None else (stats.n_rows, stats.n_pages),
                tuple(sorted(
                    (idx.name, idx.column_name, idx.unique, idx.hypothetical)
                    for idx in info.indexes.values()
                )),
            ))
        return tuple(tables)

    # -- statistics --------------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> None:
        """Refresh statistics for one table or all tables."""
        names = [table_name] if table_name is not None else self.table_names()
        for name in names:
            info = self.table(name)
            info.stats = analyze_table(info.heap)

    def stats(self, table_name: str) -> TableStats:
        info = self.table(table_name)
        if info.stats is None:
            raise CatalogError(
                f"table {table_name!r} has no statistics; run analyze() first"
            )
        return info.stats

    def __repr__(self) -> str:
        return f"Catalog(tables={self.table_names()})"

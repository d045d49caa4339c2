"""A relational database engine substrate.

Implements the pieces of a PostgreSQL-class system that the paper's
method touches: paged heap storage, a clock-sweep buffer pool, B+-tree
indexes, table statistics, an iterator executor whose operators mirror
the optimizer's plan shapes, and a SQL front end. Execution produces
correct answers *and* a :class:`~repro.engine.trace.WorkTrace` of the
CPU and I/O work performed, which the virtualization layer converts to
simulated wall-clock time.
"""

from repro.engine.types import Date, Value
from repro.engine.schema import Column, ColumnType, TableSchema
from repro.engine.storage import HeapFile
from repro.engine.bufferpool import BufferPool
from repro.engine.index import BPlusTreeIndex
from repro.engine.statistics import ColumnStats, TableStats, analyze_table
from repro.engine.catalog import Catalog, IndexInfo, TableInfo
from repro.engine.trace import WorkTrace
from repro.engine.database import Database, QueryResult

__all__ = [
    "Date",
    "Value",
    "Column",
    "ColumnType",
    "TableSchema",
    "HeapFile",
    "BufferPool",
    "BPlusTreeIndex",
    "ColumnStats",
    "TableStats",
    "analyze_table",
    "Catalog",
    "IndexInfo",
    "TableInfo",
    "WorkTrace",
    "Database",
    "QueryResult",
]

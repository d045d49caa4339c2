"""The database facade.

A :class:`Database` bundles a catalog, a buffer pool, and an execution
entry point. It is designed to live inside a
:class:`repro.virt.vm.VirtualMachine`: when the VM's memory share
changes, the VM calls :meth:`Database.resize_memory` and the buffer
pool and sort memory are re-sized accordingly — the interaction between
the virtualization knobs and the database knobs that the paper points
out must be tuned together.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.plans import PlanNode
from repro.engine.schema import TableSchema
from repro.engine.storage import RecordId
from repro.engine.trace import WorkTrace
from repro.util.errors import StorageError

#: Fraction of database memory given to the buffer pool; the rest backs
#: per-query sort/hash work memory.
BUFFER_POOL_FRACTION = 0.75
#: Minimum sizes so a tiny VM still runs (thrashing, but running).
MIN_BUFFER_POOL_PAGES = 64
MIN_SORT_MEM_PAGES = 16


@dataclass
class QueryResult:
    """Rows plus the work performed to produce them."""

    rows: List[tuple]
    column_names: List[str]
    trace: WorkTrace
    plan: Optional[PlanNode] = None

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """One database instance: catalog + buffer pool + executor."""

    def __init__(self, name: str, memory_pages: int = 4096):
        self.name = name
        self.catalog = Catalog()
        self._memory_pages = max(
            memory_pages, MIN_BUFFER_POOL_PAGES + MIN_SORT_MEM_PAGES
        )
        self.buffer_pool = BufferPool(self._buffer_pages(self._memory_pages))
        self.sort_mem_pages = self._sort_pages(self._memory_pages)

    @staticmethod
    def _buffer_pages(total: int) -> int:
        return max(MIN_BUFFER_POOL_PAGES, int(total * BUFFER_POOL_FRACTION))

    @staticmethod
    def _sort_pages(total: int) -> int:
        return max(MIN_SORT_MEM_PAGES, total - Database._buffer_pages(total))

    @property
    def memory_pages(self) -> int:
        return self._memory_pages

    def resize_memory(self, memory_pages: int) -> None:
        """Re-size buffer pool and sort memory to a new total budget.

        Called by the hosting VM when its memory share changes.
        """
        self._memory_pages = max(
            memory_pages, MIN_BUFFER_POOL_PAGES + MIN_SORT_MEM_PAGES
        )
        self.buffer_pool.resize(self._buffer_pages(self._memory_pages))
        self.sort_mem_pages = self._sort_pages(self._memory_pages)

    # -- DDL / loading -------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)

    def load_rows(self, table_name: str, rows) -> int:
        """Bulk load rows into a table; returns the count loaded.

        All or nothing: rows are validated and unique keys checked
        against the batch and the existing indexes before the heap or
        any index changes. Existing indexes are then maintained by
        insertion (loading before creating indexes is still preferable —
        bulk-loaded trees pack better than insert-built ones).
        """
        info = self.catalog.table(table_name)
        heap = info.heap
        batch = list(map(tuple, rows))
        indexes = [(index.index, info.schema.column_index(index.column_name))
                   for index in info.indexes.values() if not index.hypothetical]
        if indexes:
            info.schema.validate_rows(batch)
        for tree, pos in indexes:
            if not tree.unique:
                continue
            seen = set()
            for key in map(itemgetter(pos), batch):
                if key is not None and (key in seen or tree.search(key)[0]):
                    raise StorageError(
                        f"duplicate key {key!r} in unique index {tree.name!r}")
                seen.add(key)
        first = heap.n_rows
        heap.bulk_load(batch)
        per_page = heap.rows_per_page()
        for tree, pos in indexes:
            for row_no, row in enumerate(batch, first):
                if row[pos] is not None:
                    tree.insert(row[pos], RecordId(*divmod(row_no, per_page)))
        return len(batch)

    def create_index(self, index_name: str, table_name: str,
                     column_name: str, unique: bool = False) -> None:
        self.catalog.create_index(index_name, table_name, column_name, unique=unique)

    def analyze(self, table_name: Optional[str] = None) -> None:
        self.catalog.analyze(table_name)

    # -- execution -------------------------------------------------------------

    def execution_context(self) -> ExecutionContext:
        return ExecutionContext(
            catalog=self.catalog,
            buffer_pool=self.buffer_pool,
            sort_mem_pages=self.sort_mem_pages,
        )

    def run_plan(self, plan: PlanNode) -> QueryResult:
        """Execute a pre-built physical plan."""
        context = self.execution_context()
        rows = Executor(context).run(plan)
        names = [column for _alias, column in plan.layout.slots]
        self._publish_trace(context.trace)
        return QueryResult(rows=rows, column_names=names, trace=context.trace, plan=plan)

    def _publish_trace(self, trace: WorkTrace) -> None:
        """Fold one execution's page accounting into the metrics registry.

        Done once per statement so the per-page path stays free of
        metric lookups; the counters make I/O behaviour visible in run
        reports instead of staying buried in per-query traces.
        """
        from repro.obs import metrics

        if trace.seq_page_reads:
            metrics.counter("engine.pages.seq_reads").inc(trace.seq_page_reads)
        if trace.random_page_reads:
            metrics.counter("engine.pages.random_reads").inc(
                trace.random_page_reads)
        if trace.buffer_hits:
            metrics.counter("engine.pages.buffer_hits").inc(trace.buffer_hits)
        if trace.page_writes:
            metrics.counter("engine.pages.writes").inc(trace.page_writes)
        metrics.counter("engine.cpu_units").inc(trace.cpu_units)
        self.buffer_pool.publish_metrics()

    def run_sql(self, sql: str) -> QueryResult:
        """Parse, optimize (under this database's default parameters),
        and execute a SQL query."""
        # Imported here: the optimizer depends on the engine, not vice versa.
        from repro.optimizer.planner import Planner
        from repro.optimizer.params import OptimizerParameters

        planner = Planner(self.catalog, OptimizerParameters.defaults())
        plan = planner.plan_sql(sql)
        return self.run_plan(plan)

    def explain_analyze(self, sql: str) -> str:
        """Execute *sql* and render the plan with actual row counts.

        The per-node "actual rows" next to the optimizer's estimates
        expose cardinality estimation errors the way PostgreSQL's
        ``EXPLAIN ANALYZE`` does.
        """
        result = self.run_sql(sql)
        assert result.plan is not None
        return result.plan.explain(analyze=True)

    def warm_cache(self, table_names: Optional[Sequence[str]] = None) -> None:
        """Prewarm the buffer pool with the given tables (or all)."""
        names = list(table_names) if table_names is not None else self.catalog.table_names()
        for name in names:
            info = self.catalog.table(name)
            self.buffer_pool.prewarm(info.heap.file_id, info.heap.n_pages)

    def cold_restart(self) -> None:
        """Drop all cached pages (simulates a VM restart)."""
        self.buffer_pool.clear()

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, tables={self.catalog.table_names()}, "
            f"buffer={self.buffer_pool.capacity}p)"
        )

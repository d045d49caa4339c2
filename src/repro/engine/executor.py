"""The plan executor.

Executes physical plans against the catalog, producing correct results
while charging every unit of work to a :class:`WorkTrace`: page
requests go through the buffer pool (which decides hit vs sequential or
random read), tuples and predicate steps are charged at the rates in
:mod:`repro.engine.trace`, sorts spill to simulated temp files when the
input exceeds sort memory. The trace a plan produces is defined by
row-by-row charging order; operators count their per-row steps and
charge them through :meth:`WorkTrace.add_cpu_repeated`, which lands on
the double those additions would.

Operators materialize their outputs as lists of tuples. At the scales
this library runs (TPC-H scale factors well below 0.1) materialization
is cheaper than iterator plumbing and makes the accounting exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Catalog
from repro.engine.expr import EvalContext, Expr
from repro.engine.plans import (
    AggFunc,
    Aggregate,
    Filter,
    HashJoin,
    IndexScan,
    JoinType,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    SortKey,
)
from repro.engine.trace import (
    CPU_AGG_TRANSITION_UNITS,
    CPU_HASH_UNITS,
    CPU_INDEX_TUPLE_UNITS,
    CPU_LIKE_BYTE_UNITS,
    CPU_OPERATOR_STARTUP_UNITS,
    CPU_OPERATOR_UNITS,
    CPU_PAGE_PROCESS_UNITS,
    CPU_SORT_COMPARE_UNITS,
    CPU_TUPLE_UNITS,
    WorkTrace,
)
from repro.engine.types import Value
from repro.obs import metrics
from repro.util.errors import PlanningError
from repro.util.units import PAGE_SIZE


@dataclass
class ExecutionContext:
    """Everything an execution needs: data, cache, and the meter."""

    catalog: Catalog
    buffer_pool: BufferPool
    trace: WorkTrace = field(default_factory=WorkTrace)
    #: Pages of memory available to a single sort before spilling.
    sort_mem_pages: int = 256

    def charge_eval(self, ctx: EvalContext) -> None:
        """Flush accumulated expression-evaluation work into the trace."""
        if ctx.ops:
            self.trace.add_cpu(ctx.ops * CPU_OPERATOR_UNITS)
            self.trace.predicate_ops += ctx.ops
        if ctx.like_bytes:
            self.trace.add_cpu(ctx.like_bytes * CPU_LIKE_BYTE_UNITS)
            self.trace.like_bytes += ctx.like_bytes
        ctx.reset()


class Executor:
    """Executes physical plans."""

    def __init__(self, context: ExecutionContext):
        self._ctx = context

    @property
    def trace(self) -> WorkTrace:
        return self._ctx.trace

    def run(self, plan: PlanNode) -> List[tuple]:
        """Execute *plan* and return its result rows."""
        metrics.counter("engine.executor.plans").inc()
        self._ctx.trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        self._resolve_subplans(plan)
        return self._execute(plan)

    # -- scalar subqueries ----------------------------------------------------

    def _resolve_subplans(self, plan: PlanNode) -> None:
        """Run every scalar subplan once and fold its value in as a literal.

        Uncorrelated scalar subqueries are constants with respect to the
        outer query, so they execute exactly once (their work is charged
        to this execution's trace) before the outer plan runs.
        """
        from repro.engine.expr import SubplanExpr, map_children
        from repro.engine.plans import walk

        values: Dict[int, Value] = {}

        def resolve(expr: Expr) -> Expr:
            if isinstance(expr, SubplanExpr):
                key = id(expr)
                if key not in values:
                    if expr.plan is None:
                        raise PlanningError(
                            "scalar subquery was never planned"
                        )
                    rows = self._execute(expr.plan)
                    if len(rows) > 1:
                        raise PlanningError(
                            "scalar subquery returned more than one row"
                        )
                    values[key] = rows[0][0] if rows else None
                from repro.engine.expr import Literal

                return Literal(values[key])
            return map_children(expr, resolve)

        def resolve_optional(expr: Optional[Expr]) -> Optional[Expr]:
            return resolve(expr) if expr is not None else None

        try:
            for node in walk(plan):
                if isinstance(node, (SeqScan, IndexScan)):
                    node.filter_expr = resolve_optional(node.filter_expr)
                elif isinstance(node, HashJoin):
                    node.outer_keys = [resolve(k) for k in node.outer_keys]
                    node.inner_keys = [resolve(k) for k in node.inner_keys]
                    node.residual = resolve_optional(node.residual)
                elif isinstance(node, NestedLoopJoin):
                    node.predicate = resolve_optional(node.predicate)
                elif isinstance(node, MergeJoin):
                    node.outer_key = resolve(node.outer_key)
                    node.inner_key = resolve(node.inner_key)
                elif isinstance(node, Sort):
                    for key in node.keys:
                        key.expr = resolve(key.expr)
                elif isinstance(node, Aggregate):
                    node.group_keys = [resolve(k) for k in node.group_keys]
                    for spec in node.aggregates:
                        if spec.arg is not None:
                            spec.arg = resolve(spec.arg)
                    node.having = resolve_optional(node.having)
                elif isinstance(node, Filter):
                    node.predicate = resolve(node.predicate)
                elif isinstance(node, Project):
                    node.exprs = [resolve(e) for e in node.exprs]
        finally:
            # ``resolve`` refers to itself (and so to this executor and
            # its catalog) through its closure cell; clearing the cell
            # lets the whole database die by refcount.
            del resolve

    # -- dispatch -----------------------------------------------------------

    def _execute(self, plan: PlanNode) -> List[tuple]:
        rows = self._execute_node(plan)
        plan.actual_rows = len(rows)  # EXPLAIN ANALYZE bookkeeping
        return rows

    def _execute_node(self, plan: PlanNode) -> List[tuple]:
        if isinstance(plan, SeqScan):
            return self._seq_scan(plan)
        if isinstance(plan, IndexScan):
            return self._index_scan(plan)
        if isinstance(plan, HashJoin):
            return self._hash_join(plan)
        if isinstance(plan, NestedLoopJoin):
            return self._nested_loop_join(plan)
        if isinstance(plan, MergeJoin):
            return self._merge_join(plan)
        if isinstance(plan, Sort):
            return self._sort(plan)
        if isinstance(plan, Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, Filter):
            return self._filter(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Limit):
            return self._limit(plan)
        raise PlanningError(f"executor cannot run node {type(plan).__name__}")

    # -- scans ---------------------------------------------------------------

    def _seq_scan(self, plan: SeqScan) -> List[tuple]:
        info = self._ctx.catalog.table(plan.table_name)
        heap = info.heap
        pool = self._ctx.buffer_pool
        trace = self._ctx.trace
        use_ring = pool.should_use_ring(heap.n_pages)
        predicate = _bind_optional(plan.filter_expr, plan.layout)
        eval_ctx = EvalContext()
        rows = heap.rows
        # An empty heap has no pages (and its schema may not fit one).
        per_page = heap.rows_per_page() if rows else 1
        # Pages in physical order; the predicate's work goes to eval_ctx,
        # charged after the pages, so the rows are filtered in one pass.
        for page_no in range(heap.n_pages):
            pool.access(heap.file_id, page_no, trace,
                        sequential=True, bypass=use_ring)
            trace.add_cpu(CPU_PAGE_PROCESS_UNITS)
            trace.add_tuples(min(per_page, len(rows) - page_no * per_page),
                             CPU_TUPLE_UNITS)
        if predicate is None:
            out = list(rows)
        else:
            out = [row for row in rows if predicate.eval(row, eval_ctx) is True]
        self._ctx.charge_eval(eval_ctx)
        return out

    def _index_scan(self, plan: IndexScan) -> List[tuple]:
        info = self._ctx.catalog.table(plan.table_name)
        index_info = info.indexes.get(plan.index_name)
        if index_info is None:
            raise PlanningError(
                f"table {plan.table_name!r} has no index {plan.index_name!r}"
            )
        if index_info.hypothetical:
            raise PlanningError(
                f"index {plan.index_name!r} is hypothetical (what-if only); "
                f"materialize it with Catalog.create_index before executing"
            )
        tree = index_info.index
        heap = info.heap
        rows = heap.rows
        per_page = heap.rows_per_page() if rows else 1
        pool = self._ctx.buffer_pool
        trace = self._ctx.trace
        predicate = _bind_optional(plan.filter_expr, plan.layout)
        eval_ctx = EvalContext()
        out: List[tuple] = []
        per_tuple_units = CPU_INDEX_TUPLE_UNITS + CPU_TUPLE_UNITS

        for page_no in tree.descend_pages(plan.low):
            pool.access(tree.file_id, page_no, trace, sequential=False)
        last_leaf = -1
        for _key, position, leaf_page in tree.range_scan(
            plan.low, plan.high, plan.low_inclusive, plan.high_inclusive
        ):
            if leaf_page != last_leaf:
                pool.access(tree.file_id, leaf_page, trace, sequential=False)
                last_leaf = leaf_page
            # Charged per fetch: the buffer-hit charges of the page
            # accesses above fall between consecutive tuples.
            pool.access(heap.file_id, position // per_page, trace,
                        sequential=False)
            trace.add_tuples(1, per_tuple_units)
            trace.index_tuples += 1
            row = rows[position]
            if predicate is None or predicate.eval(row, eval_ctx) is True:
                out.append(row)
        self._ctx.charge_eval(eval_ctx)
        return out

    # -- joins -----------------------------------------------------------------

    def _hash_join(self, plan: HashJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()

        outer_keys = [k.bind(plan.outer.layout) for k in plan.outer_keys]
        inner_keys = [k.bind(plan.inner.layout) for k in plan.inner_keys]
        residual = _bind_optional(
            plan.residual, plan.outer.layout.concat(plan.inner.layout))

        # Build phase on the inner side: one hash charge per row.
        trace.add_cpu_repeated(len(inner_rows), CPU_HASH_UNITS)
        table: Dict[tuple, List[tuple]] = {}
        for row in inner_rows:
            key = tuple(k.eval(row, eval_ctx) for k in inner_keys)
            if any(part is None for part in key):
                continue  # NULL keys never join
            table.setdefault(key, []).append(row)

        # Probe phase: a hash charge per outer row, then a step per
        # candidate match. The two rates alternate, so they are summed
        # in that order in a local and stored back once.
        cpu = trace.cpu_units
        null_inner = (None,) * len(plan.inner.layout)
        out: List[tuple] = []
        for row in outer_rows:
            key = tuple(k.eval(row, eval_ctx) for k in outer_keys)
            cpu += CPU_HASH_UNITS
            matches = [] if any(part is None for part in key) else table.get(key, [])
            matched = False
            for inner_row in matches:
                cpu += CPU_OPERATOR_UNITS
                if residual is not None:
                    combined = row + inner_row
                    if residual.eval(combined, eval_ctx) is not True:
                        continue
                matched = True
                if plan.join_type in (JoinType.INNER, JoinType.LEFT):
                    out.append(row + inner_row)
                elif plan.join_type is JoinType.SEMI:
                    break
            if plan.join_type is JoinType.SEMI and matched:
                out.append(row)
            elif plan.join_type is JoinType.ANTI and not matched:
                out.append(row)
            elif plan.join_type is JoinType.LEFT and not matched:
                out.append(row + null_inner)
        trace.cpu_units = cpu
        self._ctx.charge_eval(eval_ctx)
        return out

    def _nested_loop_join(self, plan: NestedLoopJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)  # materialized once
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()
        combined_layout = plan.outer.layout.concat(plan.inner.layout)
        predicate = _bind_optional(plan.predicate, combined_layout)
        null_inner = (None,) * len(plan.inner.layout)
        out: List[tuple] = []
        pairs_examined = 0
        for row in outer_rows:
            matched = False
            for inner_row in inner_rows:
                pairs_examined += 1
                combined = row + inner_row
                if predicate is not None and predicate.eval(combined, eval_ctx) is not True:
                    continue
                matched = True
                if plan.join_type in (JoinType.INNER, JoinType.LEFT):
                    out.append(combined)
                elif plan.join_type is JoinType.SEMI:
                    break
            if plan.join_type is JoinType.SEMI and matched:
                out.append(row)
            elif plan.join_type is JoinType.ANTI and not matched:
                out.append(row)
            elif plan.join_type is JoinType.LEFT and not matched:
                out.append(row + null_inner)
        trace.add_cpu_repeated(pairs_examined, CPU_OPERATOR_UNITS)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _merge_join(self, plan: MergeJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()
        outer_key = plan.outer_key.bind(plan.outer.layout)
        inner_key = plan.inner_key.bind(plan.inner.layout)

        out: List[tuple] = []
        i = j = 0
        n_outer, n_inner = len(outer_rows), len(inner_rows)
        steps = 0
        while i < n_outer and j < n_inner:
            ok = outer_key.eval(outer_rows[i], eval_ctx)
            ik = inner_key.eval(inner_rows[j], eval_ctx)
            steps += 1
            if ok is None:
                i += 1
                continue
            if ik is None:
                j += 1
                continue
            if ok < ik:
                i += 1
            elif ok > ik:
                j += 1
            else:
                # Emit the cross product of the equal groups.
                j_end = j
                while j_end < n_inner:
                    k = inner_key.eval(inner_rows[j_end], eval_ctx)
                    if k != ok:
                        break
                    j_end += 1
                i_run = i
                while i_run < n_outer:
                    k = outer_key.eval(outer_rows[i_run], eval_ctx)
                    if k != ok:
                        break
                    for jj in range(j, j_end):
                        steps += 1
                        out.append(outer_rows[i_run] + inner_rows[jj])
                    i_run += 1
                i = i_run
                j = j_end
        trace.add_cpu_repeated(steps, CPU_OPERATOR_UNITS)
        self._ctx.charge_eval(eval_ctx)
        return out

    # -- sort / aggregate / project ------------------------------------------------

    def _sort(self, plan: Sort) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()
        keys = [SortKey(k.expr.bind(plan.input.layout), k.ascending) for k in plan.keys]

        n = len(rows)
        if n > 1:
            comparisons = n * math.log2(n) * max(1, len(keys))
            trace.add_cpu(comparisons * CPU_SORT_COMPARE_UNITS)
        # External sort: if the input exceeds sort memory, charge the
        # spill passes (write out runs, read them back to merge).
        row_bytes = max(16, 24 + 8 * len(plan.input.layout))
        input_pages = (n * row_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        if input_pages > self._ctx.sort_mem_pages and input_pages > 0:
            trace.add_page_write(input_pages)
            trace.add_seq_read(input_pages)

        # Stable multi-pass sort, last key first; NULLs sort last.
        for key in reversed(keys):
            expr = key.expr
            if key.ascending:
                rows.sort(key=lambda row: _asc_key(expr.eval(row, eval_ctx)))
            else:
                rows.sort(key=lambda row: _desc_key(expr.eval(row, eval_ctx)),
                          reverse=True)
        self._ctx.charge_eval(eval_ctx)
        return rows

    def _aggregate(self, plan: Aggregate) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()
        group_keys = [k.bind(plan.input.layout) for k in plan.group_keys]
        agg_args = [
            spec.arg.bind(plan.input.layout) if spec.arg is not None else None
            for spec in plan.aggregates
        ]

        per_row_units = (CPU_HASH_UNITS
                         + CPU_AGG_TRANSITION_UNITS * max(1, len(plan.aggregates)))
        trace.add_cpu_repeated(len(rows), per_row_units)

        groups: Dict[tuple, List[_AggState]] = {}
        order: List[tuple] = []
        if (rows and not group_keys
                and all(spec.func is AggFunc.COUNT_STAR
                        for spec in plan.aggregates)):
            # Global COUNT(*): no keys to evaluate, no args to feed —
            # the whole input collapses to one count per state.
            states = [_AggState(spec.func, spec.distinct)
                      for spec in plan.aggregates]
            for state in states:
                state.count = len(rows)
            groups[()] = states
            order.append(())
        else:
            for row in rows:
                key = tuple(k.eval(row, eval_ctx) for k in group_keys)
                states = groups.get(key)
                if states is None:
                    states = [_AggState(spec.func, spec.distinct)
                              for spec in plan.aggregates]
                    groups[key] = states
                    order.append(key)
                for state, arg in zip(states, agg_args):
                    value = arg.eval(row, eval_ctx) if arg is not None else None
                    state.update(value)

        if not group_keys and not groups:
            # Global aggregate over an empty input still yields one row.
            groups[()] = [_AggState(spec.func, spec.distinct)
                          for spec in plan.aggregates]
            order.append(())

        having = _bind_optional(plan.having, plan.layout)
        out: List[tuple] = []
        for key in order:
            result = key + tuple(state.finalize() for state in groups[key])
            if having is not None:
                trace.add_cpu(CPU_OPERATOR_UNITS)
                if having.eval(result, eval_ctx) is not True:
                    continue
            out.append(result)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _filter(self, plan: Filter) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        eval_ctx = EvalContext()
        predicate = plan.predicate.bind(plan.input.layout)
        trace.add_cpu_repeated(len(rows), CPU_OPERATOR_UNITS)
        out = [row for row in rows if predicate.eval(row, eval_ctx) is True]
        self._ctx.charge_eval(eval_ctx)
        return out

    def _project(self, plan: Project) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext()
        exprs = [e.bind(plan.input.layout) for e in plan.exprs]
        out = [tuple(e.eval(row, eval_ctx) for e in exprs) for row in rows]
        self._ctx.charge_eval(eval_ctx)
        return out

    def _limit(self, plan: Limit) -> List[tuple]:
        rows = self._execute(plan.input)
        return rows[: plan.count]


class _AggState:
    """Running state of one aggregate."""

    __slots__ = ("func", "count", "total", "extreme", "seen", "distinct_values")

    def __init__(self, func: AggFunc, distinct: bool = False):
        self.func = func
        self.count = 0
        self.total: float = 0.0
        self.extreme: Optional[Value] = None
        self.seen = False
        # Membership only, never iterated: the set's hash-salted order
        # cannot reach a result.
        self.distinct_values: Optional[set] = set() if distinct else None

    def update(self, value: Value) -> None:
        func = self.func
        if func is AggFunc.COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct_values is not None:
            if value in self.distinct_values:
                return
            self.distinct_values.add(value)
        self.seen = True
        if func is AggFunc.COUNT:
            self.count += 1
        elif func in (AggFunc.SUM, AggFunc.AVG):
            self.count += 1
            self.total += value  # type: ignore[operator]
        elif func is AggFunc.MIN:
            if self.extreme is None or value < self.extreme:  # type: ignore[operator]
                self.extreme = value
        elif func is AggFunc.MAX:
            if self.extreme is None or value > self.extreme:  # type: ignore[operator]
                self.extreme = value

    def finalize(self) -> Value:
        func = self.func
        if func in (AggFunc.COUNT, AggFunc.COUNT_STAR):
            return self.count
        if func is AggFunc.SUM:
            return self.total if self.seen else None
        if func is AggFunc.AVG:
            return (self.total / self.count) if self.count else None
        return self.extreme


def _bind_optional(expr: Optional[Expr], layout) -> Optional[Expr]:
    return expr.bind(layout) if expr is not None else None


def _asc_key(value: Value):
    return (value is None, value)


def _desc_key(value: Value):
    return (value is not None, value)

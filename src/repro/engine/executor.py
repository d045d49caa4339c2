"""The plan executor.

Executes physical plans against the catalog, producing correct results
while charging every unit of work to a :class:`WorkTrace`: page
requests go through the buffer pool (which decides hit vs sequential or
random read), tuples and predicate steps are charged at the rates in
:mod:`repro.engine.trace`, sorts spill to simulated temp files when the
input exceeds sort memory. The trace a plan produces is defined by
row-by-row charging order; operators count their per-row steps and
charge them through :meth:`WorkTrace.add_cpu_repeated`, which lands on
the double those additions would. Each operator compiles its
expressions once (:meth:`repro.engine.expr.Expr.compile`) and charges
their static step count times the number of evaluations after its row
loop; only short-circuit steps and LIKE bytes are counted per row.

Operators materialize their outputs as lists of tuples. At the scales
this library runs (TPC-H scale factors well below 0.1) materialization
is cheaper than iterator plumbing and makes the accounting exact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Catalog
from repro.engine.expr import (
    Compiled,
    EvalContext,
    Expr,
    Literal,
    RowLayout,
    compile_row,
    find_subplans,
)
from repro.engine.plans import (
    AggFunc,
    Aggregate,
    AggSpec,
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
    walk,
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
        #: The current execution's scalar-subquery values (see run()).
        self._subplans: Dict[int, Value] = {}

    @property
    def trace(self) -> WorkTrace:
        return self._ctx.trace

    def run(self, plan: PlanNode) -> List[tuple]:
        """Execute *plan* and return its result rows."""
        metrics.counter("engine.executor.plans").inc()
        self._ctx.trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        self._subplans = {}
        self._resolve_subplans(plan)
        return self._execute(plan)

    # -- scalar subqueries ----------------------------------------------------

    def _resolve_subplans(self, plan: PlanNode) -> None:
        """Run every scalar subplan under *plan* once, for this execution.

        Uncorrelated scalar subqueries are constants with respect to the
        outer query, so they execute exactly once per execution (their
        work is charged to this execution's trace) before the outer plan
        runs, in plan order. Their values go to this run's map, which
        :meth:`SubplanExpr.compile` reads; the plan is left as it was.
        """
        for node in walk(plan):
            for expr in _expressions(node):
                for subplan in find_subplans(expr):
                    if id(subplan) in self._subplans:
                        continue
                    if subplan.plan is None:
                        raise PlanningError("scalar subquery was never planned")
                    self._resolve_subplans(subplan.plan)
                    rows = self._execute(subplan.plan)
                    if len(rows) > 1:
                        raise PlanningError(
                            "scalar subquery returned more than one row")
                    self._subplans[id(subplan)] = rows[0][0] if rows else None

    # -- dispatch -----------------------------------------------------------

    def _execute(self, plan: PlanNode) -> List[tuple]:
        rows = self._execute_node(plan)
        plan.actual_rows = len(rows)  # EXPLAIN ANALYZE bookkeeping
        return rows

    def _execute_node(self, plan: PlanNode) -> List[tuple]:
        operator = _OPERATORS.get(type(plan))
        if operator is None:
            raise PlanningError(f"executor cannot run node {type(plan).__name__}")
        return operator(self, plan)

    # -- scans ---------------------------------------------------------------

    def _seq_scan(self, plan: SeqScan) -> List[tuple]:
        info = self._ctx.catalog.table(plan.table_name)
        heap = info.heap
        pool = self._ctx.buffer_pool
        trace = self._ctx.trace
        use_ring = pool.should_use_ring(heap.n_pages)
        eval_ctx = EvalContext(self._subplans)
        predicate, ops = _compile_optional(plan.filter_expr, plan.layout, eval_ctx)
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
            out = [row for row in rows if predicate(row) is True]
            eval_ctx.ops += ops * len(rows)
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
        eval_ctx = EvalContext(self._subplans)
        predicate, ops = _compile_optional(plan.filter_expr, plan.layout, eval_ctx)
        out: List[tuple] = []
        per_tuple_units = CPU_INDEX_TUPLE_UNITS + CPU_TUPLE_UNITS

        for page_no in tree.descend_pages(plan.low):
            pool.access(tree.file_id, page_no, trace, sequential=False)
        last_leaf = -1
        fetched = 0
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
            fetched += 1
            row = rows[position]
            if predicate is None or predicate(row) is True:
                out.append(row)
        trace.index_tuples += fetched
        eval_ctx.ops += ops * fetched
        self._ctx.charge_eval(eval_ctx)
        return out

    # -- joins -----------------------------------------------------------------

    def _hash_join(self, plan: HashJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)

        outer_key, outer_ops = compile_row(plan.outer_keys, plan.outer.layout, eval_ctx)
        inner_key, inner_ops = compile_row(plan.inner_keys, plan.inner.layout, eval_ctx)
        residual, residual_ops = _compile_optional(
            plan.residual, plan.outer.layout.concat(plan.inner.layout), eval_ctx)

        # Build phase on the inner side: one hash charge per row.
        trace.add_cpu_repeated(len(inner_rows), CPU_HASH_UNITS)
        table: Dict[tuple, List[tuple]] = {}
        for row in inner_rows:
            key = inner_key(row)
            if None in key:
                continue  # NULL keys never join
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)

        # Probe phase: a hash charge per outer row, then a step per
        # candidate match. The two rates alternate, so they are summed
        # in that order in a local and stored back once.
        cpu = trace.cpu_units
        join_type = plan.join_type
        pairs = join_type is JoinType.INNER or join_type is JoinType.LEFT
        semi = join_type is JoinType.SEMI
        tail = join_type is not JoinType.INNER
        unmatched = ((None,) * len(plan.inner.layout)
                     if join_type is JoinType.LEFT else None)
        out: List[tuple] = []
        tested = 0
        for row in outer_rows:
            key = outer_key(row)
            cpu += CPU_HASH_UNITS
            matched = False
            for inner_row in () if None in key else table.get(key, ()):
                cpu += CPU_OPERATOR_UNITS
                if residual is not None:
                    tested += 1
                    if residual(row + inner_row) is not True:
                        continue
                matched = True
                if pairs:
                    out.append(row + inner_row)
                elif semi:
                    break
            if tail:
                _emit_unmatched(out, row, matched, join_type, unmatched)
        trace.cpu_units = cpu
        eval_ctx.ops += (inner_ops * len(inner_rows) + outer_ops * len(outer_rows)
                         + residual_ops * tested)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _nested_loop_join(self, plan: NestedLoopJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)  # materialized once
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)
        combined_layout = plan.outer.layout.concat(plan.inner.layout)
        predicate, ops = _compile_optional(plan.predicate, combined_layout, eval_ctx)
        join_type = plan.join_type
        pairs = join_type is JoinType.INNER or join_type is JoinType.LEFT
        semi = join_type is JoinType.SEMI
        tail = join_type is not JoinType.INNER
        unmatched = ((None,) * len(plan.inner.layout)
                     if join_type is JoinType.LEFT else None)
        out: List[tuple] = []
        pairs_examined = 0
        for row in outer_rows:
            matched = False
            for inner_row in inner_rows:
                pairs_examined += 1
                combined = row + inner_row
                if predicate is not None and predicate(combined) is not True:
                    continue
                matched = True
                if pairs:
                    out.append(combined)
                elif semi:
                    break
            if tail:
                _emit_unmatched(out, row, matched, join_type, unmatched)
        trace.add_cpu_repeated(pairs_examined, CPU_OPERATOR_UNITS)
        eval_ctx.ops += ops * pairs_examined
        self._ctx.charge_eval(eval_ctx)
        return out

    def _merge_join(self, plan: MergeJoin) -> List[tuple]:
        outer_rows = self._execute(plan.outer)
        inner_rows = self._execute(plan.inner)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)
        outer_key, outer_ops = plan.outer_key.compile(plan.outer.layout, eval_ctx)
        inner_key, inner_ops = plan.inner_key.compile(plan.inner.layout, eval_ctx)

        out: List[tuple] = []
        i = j = 0
        n_outer, n_inner = len(outer_rows), len(inner_rows)
        steps = outer_evals = inner_evals = 0
        while i < n_outer and j < n_inner:
            ok = outer_key(outer_rows[i])
            ik = inner_key(inner_rows[j])
            outer_evals += 1
            inner_evals += 1
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
                    inner_evals += 1
                    if inner_key(inner_rows[j_end]) != ok:
                        break
                    j_end += 1
                i_run = i
                while i_run < n_outer:
                    outer_evals += 1
                    if outer_key(outer_rows[i_run]) != ok:
                        break
                    for jj in range(j, j_end):
                        steps += 1
                        out.append(outer_rows[i_run] + inner_rows[jj])
                    i_run += 1
                i = i_run
                j = j_end
        trace.add_cpu_repeated(steps, CPU_OPERATOR_UNITS)
        eval_ctx.ops += outer_ops * outer_evals + inner_ops * inner_evals
        self._ctx.charge_eval(eval_ctx)
        return out

    # -- sort / aggregate / project ------------------------------------------------

    def _sort(self, plan: Sort) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)
        keys = [(k.expr.compile(plan.input.layout, eval_ctx), k.ascending)
                for k in plan.keys]

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

        # Stable multi-pass sort, last key first; NULLs sort last. Each
        # pass evaluates its key once per row.
        for (key, ops), ascending in reversed(keys):
            if ascending:
                rows.sort(key=lambda row: ((v := key(row)) is None, v))
            else:
                rows.sort(key=lambda row: ((v := key(row)) is not None, v),
                          reverse=True)
            eval_ctx.ops += ops * n
        self._ctx.charge_eval(eval_ctx)
        return rows

    def _aggregate(self, plan: Aggregate) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)
        layout = plan.input.layout
        group_key, ops = compile_row(plan.group_keys, layout, eval_ctx)
        specs = plan.aggregates
        updates = []
        for spec in specs:
            arg, arg_ops = (spec.arg if spec.arg is not None else _ROW).compile(
                layout, eval_ctx)
            ops += arg_ops
            update = _UPDATES[spec.func]
            if spec.distinct and spec.func is not AggFunc.COUNT_STAR:
                update = _distinct(update)
            updates.append((update, arg))

        per_row_units = (CPU_HASH_UNITS
                         + CPU_AGG_TRANSITION_UNITS * max(1, len(specs)))
        trace.add_cpu_repeated(len(rows), per_row_units)

        groups: Dict[tuple, List[_AggState]] = {}
        if (rows and not plan.group_keys
                and all(spec.func is AggFunc.COUNT_STAR for spec in specs)):
            # Global COUNT(*): no keys to evaluate, no args to feed —
            # the whole input collapses to one count per state.
            groups[()] = [_AggState(spec, count=len(rows)) for spec in specs]
        else:
            for row in rows:
                key = group_key(row)
                states = groups.get(key)
                if states is None:
                    states = groups[key] = [_AggState(spec) for spec in specs]
                for (update, arg), state in zip(updates, states):
                    update(state, arg(row))
            eval_ctx.ops += ops * len(rows)

        if not plan.group_keys and not groups:
            # Global aggregate over an empty input still yields one row.
            groups[()] = [_AggState(spec) for spec in specs]

        having, having_ops = _compile_optional(plan.having, plan.layout, eval_ctx)
        out: List[tuple] = []
        for key, states in groups.items():  # first-seen order
            result = key + tuple(state.finalize() for state in states)
            if having is not None:
                trace.add_cpu(CPU_OPERATOR_UNITS)
                eval_ctx.ops += having_ops
                if having(result) is not True:
                    continue
            out.append(result)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _filter(self, plan: Filter) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        eval_ctx = EvalContext(self._subplans)
        predicate, ops = plan.predicate.compile(plan.input.layout, eval_ctx)
        trace.add_cpu_repeated(len(rows), CPU_OPERATOR_UNITS)
        out = [row for row in rows if predicate(row) is True]
        eval_ctx.ops += ops * len(rows)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _project(self, plan: Project) -> List[tuple]:
        rows = self._execute(plan.input)
        trace = self._ctx.trace
        trace.add_cpu(CPU_OPERATOR_STARTUP_UNITS)
        eval_ctx = EvalContext(self._subplans)
        project, ops = compile_row(plan.exprs, plan.input.layout, eval_ctx)
        out = list(map(project, rows))
        eval_ctx.ops += ops * len(rows)
        self._ctx.charge_eval(eval_ctx)
        return out

    def _limit(self, plan: Limit) -> List[tuple]:
        rows = self._execute(plan.input)
        return rows[: plan.count]


def _emit_unmatched(out: List[tuple], row: tuple, matched: bool,
                    join_type: JoinType, unmatched: Optional[tuple]) -> None:
    """A join's per-outer-row tail: SEMI keeps matched rows, ANTI the
    unmatched ones, LEFT pads unmatched ones with NULLs."""
    if matched:
        if join_type is JoinType.SEMI:
            out.append(row)
    elif join_type is JoinType.ANTI:
        out.append(row)
    elif unmatched is not None:
        out.append(row + unmatched)


class _AggState:
    """Running state of one aggregate; fed by its function's updater."""

    __slots__ = ("func", "count", "total", "extreme", "distinct_values")

    def __init__(self, spec: AggSpec, count: int = 0):
        self.func = spec.func
        self.count = count
        self.total: float = 0.0
        self.extreme: Optional[Value] = None
        # Membership only, never iterated: the set's hash-salted order
        # cannot reach a result.
        self.distinct_values: Optional[set] = set() if spec.distinct else None

    def finalize(self) -> Value:
        func = self.func
        if func is AggFunc.COUNT or func is AggFunc.COUNT_STAR:
            return self.count
        if func is AggFunc.SUM:
            return self.total if self.count else None
        if func is AggFunc.AVG:
            return (self.total / self.count) if self.count else None
        return self.extreme


def _count(state: _AggState, value: Value) -> None:
    if value is not None:
        state.count += 1


def _sum(state: _AggState, value: Value) -> None:
    if value is not None:
        state.count += 1
        state.total += value  # type: ignore[operator]


def _min(state: _AggState, value: Value) -> None:
    if value is not None and (state.extreme is None or value < state.extreme):
        state.extreme = value


def _max(state: _AggState, value: Value) -> None:
    if value is not None and (state.extreme is None or value > state.extreme):
        state.extreme = value


_UPDATES = {AggFunc.COUNT_STAR: _count, AggFunc.COUNT: _count,
            AggFunc.SUM: _sum, AggFunc.AVG: _sum, AggFunc.MIN: _min,
            AggFunc.MAX: _max}

#: COUNT(*)'s argument: never NULL, no column, no step.
_ROW = Literal(True)


def _distinct(update):
    """Feed *update* only values this state has not seen before."""
    def update_distinct(state: _AggState, value: Value) -> None:
        if value is not None and value not in state.distinct_values:
            state.distinct_values.add(value)
            update(state, value)

    return update_distinct


def _expressions(node: PlanNode) -> Iterator[Expr]:
    """Every expression *node* holds, in field order (sort keys and
    aggregate arguments included)."""
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        for item in value if isinstance(value, list) else (value,):
            if isinstance(item, SortKey):
                item = item.expr
            elif isinstance(item, AggSpec):
                item = item.arg
            if isinstance(item, Expr):
                yield item


def _compile_optional(expr: Optional[Expr], layout: RowLayout,
                      ctx: EvalContext) -> Compiled:
    return expr.compile(layout, ctx) if expr is not None else (None, 0)


_OPERATORS = {
    SeqScan: Executor._seq_scan, IndexScan: Executor._index_scan,
    HashJoin: Executor._hash_join, NestedLoopJoin: Executor._nested_loop_join,
    MergeJoin: Executor._merge_join, Sort: Executor._sort,
    Aggregate: Executor._aggregate, Filter: Executor._filter,
    Project: Executor._project, Limit: Executor._limit,
}

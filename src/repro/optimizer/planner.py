"""The query planner.

Turns a bound :class:`LogicalQuery` into a costed physical plan:

1. derived tables are planned recursively,
2. each base relation gets cost-based access-path selection (seq scan
   vs B+-tree index scan) over the predicates pushed down to it,
3. maximal inner-join regions are ordered by dynamic programming over
   relation subsets (the textbook dpsize algorithm), choosing among
   hash, merge, and nested-loop joins by cost,
4. outer/semi/anti joins (from LEFT JOIN syntax and decorrelated
   subqueries) are applied in syntactic order with single-side
   predicates pushed below them,
5. aggregation, HAVING, projection, DISTINCT, ORDER BY, and LIMIT are
   stacked on top.

Every node is annotated with estimated rows and cost under the
planner's :class:`OptimizerParameters`, which is what the what-if
optimizer varies per resource allocation.

Observability: every :meth:`Planner.plan_query` call increments the
``optimizer.plans`` counter and is timed into ``optimizer.plan_seconds``
— the per-plan cost that what-if estimation pays when the catalog holds
no compiled cost program for the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog, IndexInfo, TableInfo
from repro.engine.expr import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    RowLayout,
    SubplanExpr,
    and_together,
    conjuncts,
    find_subplans,
)
from repro.engine.plans import (
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
from repro.engine.sql.binder import (
    Binder,
    LogicalDerived,
    LogicalJoin,
    LogicalNode,
    LogicalQuery,
    LogicalRelation,
)
from repro.engine.statistics import TableStats
from repro.obs import metrics
from repro.optimizer import cost as costf
from repro.optimizer import recost
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.selectivity import SelectivityEstimator
from repro.util.errors import PlanningError

#: Join regions larger than this use greedy ordering instead of DP.
DP_RELATION_LIMIT = 10
#: PostgreSQL's guess for group counts without statistics.
DEFAULT_GROUPS = 200.0
DEFAULT_HAVING_SELECTIVITY = 0.5


@dataclass
class _SubPlan:
    """A planned subtree during join ordering."""

    plan: PlanNode
    aliases: FrozenSet[str]
    rows: float
    cost: float
    #: Tape slot of this subtree's replayable cost (recording mode only).
    node: Optional[recost.Slot] = None


class Planner:
    """Cost-based planner over one catalog and one parameter set."""

    def __init__(self, catalog: Catalog, params: OptimizerParameters):
        self._catalog = catalog
        self._params = params

    @property
    def params(self) -> OptimizerParameters:
        return self._params

    # -- entry points ------------------------------------------------------

    def plan_sql(self, sql: str,
                 recorder: Optional[recost.PlanCostRecorder] = None) -> PlanNode:
        query = Binder(self._catalog).bind_sql(sql)
        return self.plan_query(query, recorder)

    def plan_query(self, query: LogicalQuery,
                   recorder: Optional[recost.PlanCostRecorder] = None) -> PlanNode:
        """Plan *query*; with a *recorder*, also capture its cost program.

        The recorder collects a replayable cost tape (see
        :mod:`repro.optimizer.recost`) and receives the root slot via
        :meth:`~repro.optimizer.recost.PlanCostRecorder.deposit_root`
        when the build finishes — claim it with ``take_root()``.
        """
        metrics.counter("optimizer.plans").inc()
        with metrics.timer("optimizer.plan_seconds"):
            state = _PlanState(self, query, recorder)
            return state.build()


class _PlanState:
    """Planning state for one query."""

    def __init__(self, planner: Planner, query: LogicalQuery,
                 recorder: Optional[recost.PlanCostRecorder] = None):
        self._planner = planner
        self._params = planner.params
        self._catalog = planner._catalog
        self._query = query
        self._recorder = recorder
        self._stats_by_alias: Dict[str, Optional[TableStats]] = {}
        self._derived_plans: Dict[str, PlanNode] = {}
        self._derived_cost_nodes: Dict[str, Optional[recost.Slot]] = {}
        self._collect_stats(query.from_tree)
        self._estimator = SelectivityEstimator(self._stats_by_alias)

    # -- statistics collection -------------------------------------------------

    def _collect_stats(self, node: Optional[LogicalNode]) -> None:
        if node is None:
            return
        if isinstance(node, LogicalRelation):
            info = self._catalog.table(node.table)
            if info.stats is None:
                self._catalog.analyze(node.table)
                info = self._catalog.table(node.table)
            self._stats_by_alias[node.alias] = info.stats
        elif isinstance(node, LogicalDerived):
            recorder = self._recorder
            subplan = Planner(self._catalog, self._params).plan_query(
                node.query, recorder
            )
            if recorder is not None:
                root = recorder.take_root()
                if root is None:
                    recorder.mark_uncompilable(
                        f"derived table {node.alias!r} produced no cost node"
                    )
                self._derived_cost_nodes[node.alias] = root
            subplan.layout = RowLayout(
                [(node.alias, name) for name in node.column_names]
            )
            self._derived_plans[node.alias] = subplan
            self._stats_by_alias[node.alias] = None
        elif isinstance(node, LogicalJoin):
            self._collect_stats(node.left)
            self._collect_stats(node.right)

    # -- top level --------------------------------------------------------------

    def build(self) -> PlanNode:
        query = self._query
        recorder = self._recorder
        subplans, subplan_nodes = self._plan_scalar_subqueries()
        pool = _ConjunctPool(query.where)
        sub = self._plan_tree(query.from_tree, pool)
        plan, node = self._apply_leftover(
            sub, pool, frozenset(query.from_tree.aliases())
        )
        if pool.remaining():
            leftover = [str(c) for c in pool.remaining()]
            raise PlanningError(f"unplaced WHERE conjuncts: {leftover}")

        if query.is_aggregated:
            plan, node = self._add_aggregate(plan, node)
        plan, node = self._add_project(plan, node)
        if query.distinct:
            plan, node = self._add_distinct(plan, node)
        if query.order_by:
            plan, node = self._add_sort(plan, query.order_by, node)
        if query.limit is not None:
            limited = Limit(input=plan, count=query.limit)
            limited.est_rows = min(plan.est_rows, float(query.limit))
            limited.est_total_cost = plan.est_total_cost
            plan = limited  # cost passthrough: the node carries over
        # Each scalar subquery executes exactly once per outer execution.
        plan.est_total_cost += sum(sp.plan.est_total_cost for sp in subplans)
        if recorder is not None:
            if node is None:
                recorder.mark_uncompilable("plan root produced no cost node")
                recorder.deposit_root(None)
            else:
                recorder.deposit_root(recorder.call(
                    recost.plan_total, node, *subplan_nodes
                ))
        return plan

    def _plan_scalar_subqueries(
        self,
    ) -> Tuple[List[SubplanExpr], List[recost.Slot]]:
        """Plan every uncorrelated scalar subquery under this query."""
        query = self._query
        exprs: List[Expr] = list(query.where) + list(query.select_exprs)
        exprs.extend(query.group_keys)
        if query.having is not None:
            exprs.append(query.having)
        for spec in query.aggregates:
            if spec.arg is not None:
                exprs.append(spec.arg)
        stack = [query.from_tree]
        while stack:
            node = stack.pop()
            if isinstance(node, LogicalJoin):
                if node.condition is not None:
                    exprs.append(node.condition)
                stack.append(node.left)
                stack.append(node.right)

        subplans: List[SubplanExpr] = []
        for expr in exprs:
            subplans.extend(find_subplans(expr))
        recorder = self._recorder
        nodes: List[recost.Slot] = []
        for subplan in subplans:
            subplan.plan = Planner(self._catalog, self._params).plan_query(
                subplan.logical, recorder
            )
            if recorder is not None:
                root = recorder.take_root()
                if root is None:
                    recorder.mark_uncompilable(
                        "scalar subquery produced no cost node"
                    )
                else:
                    nodes.append(root)
        return subplans, nodes

    # -- FROM tree ------------------------------------------------------------------

    def _plan_tree(self, node: LogicalNode, pool: "_ConjunctPool") -> _SubPlan:
        if isinstance(node, (LogicalRelation, LogicalDerived)):
            return self._plan_leaf(node, pool)
        if isinstance(node, LogicalJoin):
            if node.join_type is JoinType.INNER:
                return self._plan_inner_region(node, pool)
            return self._plan_special_join(node, pool)
        raise PlanningError(f"cannot plan FROM node {type(node).__name__}")

    def _plan_inner_region(self, node: LogicalJoin,
                           pool: "_ConjunctPool") -> _SubPlan:
        leaves: List[LogicalNode] = []
        region_conjuncts: List[Expr] = []
        self._flatten_inner(node, leaves, region_conjuncts)
        pool.extend(region_conjuncts)
        subplans = [self._plan_tree(leaf, pool) for leaf in leaves]
        region_aliases = frozenset.union(*(sp.aliases for sp in subplans))
        join_conjuncts = pool.take_multi_alias(region_aliases)
        if len(subplans) == 1:
            result = subplans[0]
        elif len(subplans) <= DP_RELATION_LIMIT:
            result = self._dp_join(subplans, join_conjuncts)
        else:
            result = self._greedy_join(subplans, join_conjuncts)
        return result

    def _flatten_inner(self, node: LogicalNode, leaves: List[LogicalNode],
                       out_conjuncts: List[Expr]) -> None:
        if isinstance(node, LogicalJoin) and node.join_type is JoinType.INNER:
            self._flatten_inner(node.left, leaves, out_conjuncts)
            self._flatten_inner(node.right, leaves, out_conjuncts)
            if node.condition is not None:
                out_conjuncts.extend(conjuncts(node.condition))
        else:
            leaves.append(node)

    def _plan_special_join(self, node: LogicalJoin,
                           pool: "_ConjunctPool") -> _SubPlan:
        left = self._plan_tree(node.left, pool)
        left = self._apply_leftover_sub(left, pool)

        cond_conjuncts = conjuncts(node.condition)
        right_aliases = frozenset(node.right.aliases())
        push_right = [c for c in cond_conjuncts
                      if _expr_aliases(c) and _expr_aliases(c) <= right_aliases]
        keep = [c for c in cond_conjuncts if c not in push_right]

        right_pool = _ConjunctPool(push_right)
        right = self._plan_tree(node.right, right_pool)
        right = self._apply_leftover_sub(right, right_pool)
        if right_pool.remaining():
            keep.extend(right_pool.remaining())

        return self._build_join(left, right, node.join_type, keep)

    # -- leaves: access path selection ----------------------------------------------

    def _plan_leaf(self, node: LogicalNode, pool: "_ConjunctPool") -> _SubPlan:
        if isinstance(node, LogicalDerived):
            plan = self._derived_plans[node.alias]
            rows = max(1.0, plan.est_rows)
            return _SubPlan(plan=plan, aliases=frozenset([node.alias]),
                            rows=rows, cost=plan.est_total_cost,
                            node=self._derived_cost_nodes.get(node.alias))
        assert isinstance(node, LogicalRelation)
        local = pool.take_single_alias(node.alias)
        return self._best_access_path(node, local)

    def _best_access_path(self, node: LogicalRelation,
                          local_conjuncts: List[Expr]) -> _SubPlan:
        info = self._catalog.table(node.table)
        stats = self._stats_by_alias[node.alias]
        assert stats is not None
        params = self._params
        layout = RowLayout(
            [(node.alias, col) for col in info.schema.column_names()]
        )
        selectivity = self._estimator.estimate_conjuncts(local_conjuncts)
        out_rows = max(1.0, stats.n_rows * selectivity)

        # Sequential scan candidate.
        filter_expr = and_together(local_conjuncts)
        per_tuple, per_tuple_node = self._predicate(filter_expr)
        seq = SeqScan(table_name=node.table, alias=node.alias,
                      filter_expr=filter_expr)
        seq.layout = layout
        seq.est_rows = out_rows
        seq.est_total_cost = costf.seq_scan_cost(
            params, stats.n_pages, stats.n_rows, per_tuple
        )
        best_plan: PlanNode = seq
        best_cost = seq.est_total_cost
        recording = self._recorder is not None
        path_nodes: List[recost.Slot] = []
        if recording:
            path_nodes.append(self._recorder.call(
                costf.seq_scan_cost, stats.n_pages, stats.n_rows, per_tuple_node,
            ))

        for index_info in info.indexes.values():
            indexed = self._index_path(node, info, index_info, stats,
                                       local_conjuncts, layout, out_rows)
            if indexed is None:
                continue
            candidate, candidate_node = indexed
            if recording:
                path_nodes.append(candidate_node)
            if candidate.est_total_cost < best_cost:
                best_plan = candidate
                best_cost = candidate.est_total_cost

        return _SubPlan(plan=best_plan, aliases=frozenset([node.alias]),
                        rows=out_rows, cost=best_cost,
                        node=self._recorder.minimum(path_nodes)
                        if recording else None)

    def _index_path(
        self, node: LogicalRelation, info: TableInfo,
        index_info: IndexInfo, stats: TableStats,
        local_conjuncts: List[Expr], layout: RowLayout, out_rows: float,
    ) -> Optional[Tuple[IndexScan, Optional[recost.Slot]]]:
        column = index_info.column_name
        low = high = None
        low_inc = high_inc = True
        bound: List[Expr] = []
        residual: List[Expr] = []
        for conjunct in local_conjuncts:
            bounds = _extract_bound(conjunct, node.alias, column)
            if bounds is None:
                residual.append(conjunct)
                continue
            op, value = bounds
            bound.append(conjunct)
            if op == "=":
                low = high = value
                low_inc = high_inc = True
            elif op in (">", ">="):
                if low is None or value > low:  # tightest bound wins
                    low, low_inc = value, op == ">="
            elif op in ("<", "<="):
                if high is None or value < high:
                    high, high_inc = value, op == "<="
        if not bound:
            return None

        params = self._params
        bound_sel = self._estimator.estimate_conjuncts(bound)
        tuples_fetched = max(1.0, stats.n_rows * bound_sel)
        tree = index_info.index
        leaf_pages = max(1.0, tuples_fetched / max(1.0, tree.fanout * 0.9))
        residual_expr = and_together(residual)
        per_tuple, per_tuple_node = self._predicate(residual_expr)

        scan = IndexScan(
            table_name=node.table, alias=node.alias, index_name=index_info.name,
            low=low, high=high, low_inclusive=low_inc, high_inclusive=high_inc,
            filter_expr=residual_expr,
        )
        scan.layout = layout
        scan.est_rows = out_rows
        scan.est_total_cost = costf.index_scan_cost(
            params, tree.height, leaf_pages, tuples_fetched,
            stats.n_pages, per_tuple,
        )
        scan_node = None
        if self._recorder is not None:
            scan_node = self._recorder.call(
                costf.index_scan_cost, tree.height, leaf_pages,
                tuples_fetched, stats.n_pages, per_tuple_node,
            )
        return scan, scan_node

    def _predicate(
        self, expr: Optional[Expr],
    ) -> Tuple[float, Optional[recost.Slot]]:
        """*expr*'s per-row CPU cost and, when recording, its replay slot.

        One pass prices both, as :func:`costf.predicate_cpu_cost` would:
        the operator count and expected LIKE bytes are ``P``-independent,
        so the slot replays the cost bit-identically under any ``P``.
        """
        if expr is None:
            ops, like_bytes, cost = 0, 0.0, 0.0
        else:
            ops = expr.op_count()
            like_bytes = costf.expr_like_bytes(expr, self._estimator)
            cost = costf.predicate_cost(self._params, ops, like_bytes)
        if self._recorder is None:
            return cost, None
        return cost, self._recorder.call(costf.predicate_cost, ops, like_bytes)

    # -- join ordering --------------------------------------------------------------------

    def _dp_join(self, subplans: List[_SubPlan],
                 join_conjuncts: List[Expr]) -> _SubPlan:
        n = len(subplans)
        best: Dict[int, _SubPlan] = {}
        for i, sp in enumerate(subplans):
            best[1 << i] = sp

        alias_of_bit = [sp.aliases for sp in subplans]

        def aliases_of(mask: int) -> FrozenSet[str]:
            out: FrozenSet[str] = frozenset()
            for i in range(n):
                if mask & (1 << i):
                    out |= alias_of_bit[i]
            return out

        full = (1 << n) - 1
        for mask in range(1, full + 1):
            if mask in best or bin(mask).count("1") < 2:
                continue
            mask_aliases = aliases_of(mask)
            candidate: Optional[_SubPlan] = None
            mask_nodes: List[recost.Slot] = []
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # consider each unordered split once
                    left_mask, right_mask = sub, other
                    left_best = best.get(left_mask)
                    right_best = best.get(right_mask)
                    if left_best is not None and right_best is not None:
                        cross = _cross_conjuncts(
                            join_conjuncts, left_best.aliases, right_best.aliases
                        )
                        for joined in self._join_candidates(
                            left_best, right_best, cross
                        ):
                            if joined.node is not None:
                                mask_nodes.append(joined.node)
                            if candidate is None or joined.cost < candidate.cost:
                                candidate = joined
                sub = (sub - 1) & mask
            if candidate is not None:
                if self._recorder is not None:
                    # The replay must re-decide this subset's winner under
                    # the new P, over every candidate in comparison order
                    # — not just replay the winner chosen under this P.
                    candidate.node = self._recorder.minimum(mask_nodes)
                best[mask] = candidate
        result = best.get(full)
        if result is None:
            raise PlanningError("join ordering failed to cover all relations")
        return result

    def _greedy_join(self, subplans: List[_SubPlan],
                     join_conjuncts: List[Expr]) -> _SubPlan:
        if self._recorder is not None:
            # Greedy ordering prunes by cost, so the *structure* of the
            # search depends on P — no replayable program exists.
            self._recorder.mark_uncompilable(
                f"greedy join ordering over {len(subplans)} relations"
            )
        work = list(subplans)
        while len(work) > 1:
            best_pair: Optional[Tuple[int, int, _SubPlan]] = None
            for i in range(len(work)):
                for j in range(i + 1, len(work)):
                    cross = _cross_conjuncts(
                        join_conjuncts, work[i].aliases, work[j].aliases
                    )
                    for joined in self._join_candidates(work[i], work[j], cross):
                        if best_pair is None or joined.cost < best_pair[2].cost:
                            best_pair = (i, j, joined)
            assert best_pair is not None
            i, j, joined = best_pair
            work = [sp for k, sp in enumerate(work) if k not in (i, j)]
            work.append(joined)
        return work[0]

    def _join_candidates(self, left: _SubPlan, right: _SubPlan,
                         cross: List[Expr]) -> List[_SubPlan]:
        """All costed join operators for one (left, right) pair, both orders."""
        out: List[_SubPlan] = []
        for outer, inner in ((left, right), (right, left)):
            out.append(self._make_join(outer, inner, JoinType.INNER, cross))
        return out

    def _build_join(self, outer: _SubPlan, inner: _SubPlan,
                    join_type: JoinType, cond: List[Expr]) -> _SubPlan:
        return self._make_join(outer, inner, join_type, cond)

    def _make_join(self, outer: _SubPlan, inner: _SubPlan,
                   join_type: JoinType, cond: List[Expr]) -> _SubPlan:
        params = self._params
        recording = self._recorder is not None
        aliases = outer.aliases | inner.aliases
        equi, residual = _split_equi(cond, outer.aliases, inner.aliases)

        cond_sel = self._estimator.estimate_conjuncts(cond)
        inner_join_rows = max(1.0, outer.rows * inner.rows * cond_sel)
        if join_type is JoinType.INNER:
            result_rows = inner_join_rows
        elif join_type is JoinType.LEFT:
            result_rows = max(outer.rows, inner_join_rows)
        elif join_type is JoinType.SEMI:
            match_prob = min(1.0, inner.rows * cond_sel)
            result_rows = max(1.0, outer.rows * match_prob)
        else:  # ANTI
            match_prob = min(1.0, inner.rows * cond_sel)
            result_rows = max(1.0, outer.rows * (1.0 - match_prob))

        candidates: List[PlanNode] = []
        cand_nodes: List[recost.Slot] = []
        if equi:
            outer_keys = [e[0] for e in equi]
            inner_keys = [e[1] for e in equi]
            residual_expr = and_together(residual)
            hash_join = HashJoin(
                outer=outer.plan, inner=inner.plan,
                outer_keys=outer_keys, inner_keys=inner_keys,
                join_type=join_type, residual=residual_expr,
            )
            residual_cost, residual_node = self._predicate(residual_expr)
            hash_join.est_rows = result_rows
            hash_join.est_total_cost = costf.hash_join_cost(
                params, outer.cost, inner.cost, outer.rows, inner.rows,
                inner_join_rows, residual_cost,
            )
            candidates.append(hash_join)
            if recording:
                cand_nodes.append(self._recorder.call(
                    costf.hash_join_cost, outer.node, inner.node, outer.rows,
                    inner.rows, inner_join_rows, residual_node,
                ))

            if len(equi) == 1 and join_type is JoinType.INNER and not residual:
                outer_sorted = self._sorted(outer, equi[0][0])
                inner_sorted = self._sorted(inner, equi[0][1])
                merge = MergeJoin(
                    outer=outer_sorted.plan, inner=inner_sorted.plan,
                    outer_key=equi[0][0], inner_key=equi[0][1],
                )
                merge.est_rows = result_rows
                merge.est_total_cost = costf.merge_join_cost(
                    params, outer_sorted.cost, inner_sorted.cost,
                    outer.rows, inner.rows, inner_join_rows,
                )
                candidates.append(merge)
                if recording:
                    cand_nodes.append(self._recorder.call(
                        costf.merge_join_cost, outer_sorted.node,
                        inner_sorted.node, outer.rows, inner.rows,
                        inner_join_rows,
                    ))

        predicate = and_together(cond)
        pred_cost, pred_node = self._predicate(predicate)
        nested = NestedLoopJoin(
            outer=outer.plan, inner=inner.plan,
            join_type=join_type, predicate=predicate,
        )
        nested.est_rows = result_rows
        nested.est_total_cost = costf.nested_loop_cost(
            params, outer.cost, inner.cost, outer.rows, inner.rows,
            inner_join_rows, pred_cost,
        )
        candidates.append(nested)
        if recording:
            cand_nodes.append(self._recorder.call(
                costf.nested_loop_cost, outer.node, inner.node, outer.rows,
                inner.rows, inner_join_rows, pred_node,
            ))

        best = min(candidates, key=lambda plan: plan.est_total_cost)
        return _SubPlan(plan=best, aliases=aliases, rows=result_rows,
                        cost=best.est_total_cost,
                        node=self._recorder.minimum(cand_nodes)
                        if recording else None)

    def _sorted(self, sub: _SubPlan, key: Expr) -> _SubPlan:
        sort = Sort(input=sub.plan, keys=[SortKey(key, True)])
        width = 24.0 + 8.0 * len(sub.plan.layout)
        sort.est_rows = sub.rows
        sort.est_total_cost = costf.sort_cost(
            self._params, sub.cost, sub.rows, width, 1
        )
        node = None
        if self._recorder is not None:
            node = self._recorder.call(costf.sort_cost, sub.node, sub.rows,
                                       width, 1)
        return _SubPlan(plan=sort, aliases=sub.aliases, rows=sub.rows,
                        cost=sort.est_total_cost, node=node)

    # -- leftover predicates -------------------------------------------------------------

    def _apply_leftover(
        self, sub: _SubPlan, pool: "_ConjunctPool", aliases: FrozenSet[str],
    ) -> Tuple[PlanNode, Optional[recost.Slot]]:
        applicable = pool.take_covered(aliases)
        plan = sub.plan
        cost_node = sub.node
        if applicable:
            predicate = and_together(applicable)
            sel = self._estimator.estimate_conjuncts(applicable)
            pred_cost, pred_node = self._predicate(predicate)
            node = Filter(input=plan, predicate=predicate)
            node.est_rows = max(1.0, sub.rows * sel)
            node.est_total_cost = costf.filter_cost(
                self._params, sub.cost, sub.rows, pred_cost,
            )
            if self._recorder is not None:
                cost_node = self._recorder.call(
                    costf.filter_cost, cost_node, sub.rows, pred_node,
                )
            plan = node
        return plan, cost_node

    def _apply_leftover_sub(self, sub: _SubPlan, pool: "_ConjunctPool") -> _SubPlan:
        applicable = pool.take_covered(sub.aliases)
        if not applicable:
            return sub
        predicate = and_together(applicable)
        sel = self._estimator.estimate_conjuncts(applicable)
        pred_cost, pred_node = self._predicate(predicate)
        node = Filter(input=sub.plan, predicate=predicate)
        node.est_rows = max(1.0, sub.rows * sel)
        node.est_total_cost = costf.filter_cost(
            self._params, sub.cost, sub.rows, pred_cost,
        )
        cost_node = None
        if self._recorder is not None:
            cost_node = self._recorder.call(
                costf.filter_cost, sub.node, sub.rows, pred_node,
            )
        return _SubPlan(plan=node, aliases=sub.aliases, rows=node.est_rows,
                        cost=node.est_total_cost, node=cost_node)

    # -- upper plan -------------------------------------------------------------------------

    def _add_aggregate(
        self, plan: PlanNode, input_node: Optional[recost.Slot],
    ) -> Tuple[PlanNode, Optional[recost.Slot]]:
        query = self._query
        params = self._params
        n_groups = self._estimate_groups(query.group_keys, plan.est_rows)
        priced = [self._predicate(spec.arg)
                  for spec in query.aggregates if spec.arg is not None]
        arg_cost = sum(cost for cost, _ in priced)
        node = Aggregate(
            input=plan, group_keys=list(query.group_keys),
            aggregates=list(query.aggregates), having=query.having,
            group_names=list(query.group_names),
        )
        rows = n_groups
        if query.having is not None:
            rows = max(1.0, rows * DEFAULT_HAVING_SELECTIVITY)
        node.est_rows = rows
        node.est_total_cost = costf.aggregate_cost(
            params, plan.est_total_cost, plan.est_rows, n_groups,
            len(query.aggregates), arg_cost,
        )
        cost_node = None
        if self._recorder is not None:
            arg_node = self._recorder.total([slot for _, slot in priced])
            cost_node = self._recorder.call(
                costf.aggregate_cost, input_node, plan.est_rows, n_groups,
                len(query.aggregates), arg_node,
            )
        return node, cost_node

    def _estimate_groups(self, group_keys: Sequence[Expr], input_rows: float) -> float:
        if not group_keys:
            return 1.0
        total = 1.0
        for key in group_keys:
            if isinstance(key, ColumnRef):
                stats = self._estimator.column_stats(key)
                total *= stats.n_distinct if stats is not None else DEFAULT_GROUPS
            else:
                total *= DEFAULT_GROUPS
        return max(1.0, min(total, input_rows))

    def _add_project(
        self, plan: PlanNode, input_node: Optional[recost.Slot],
    ) -> Tuple[PlanNode, Optional[recost.Slot]]:
        query = self._query
        params = self._params
        priced = [self._predicate(e) for e in query.select_exprs]
        expr_cost = sum(cost for cost, _ in priced)
        node = Project(input=plan, exprs=list(query.select_exprs),
                       names=list(query.select_names))
        node.est_rows = plan.est_rows
        node.est_total_cost = costf.project_cost(
            params, plan.est_total_cost, plan.est_rows, expr_cost
        )
        cost_node = None
        if self._recorder is not None:
            expr_node = self._recorder.total([slot for _, slot in priced])
            cost_node = self._recorder.call(
                costf.project_cost, input_node, plan.est_rows, expr_node,
            )
        return node, cost_node

    def _add_distinct(
        self, plan: PlanNode, input_node: Optional[recost.Slot],
    ) -> Tuple[PlanNode, Optional[recost.Slot]]:
        names = [column for _alias, column in plan.layout.slots]
        keys: List[Expr] = [ColumnRef("_out", name) for name in names]
        agg = Aggregate(input=plan, group_keys=keys, aggregates=[],
                        group_names=list(names))
        agg.est_rows = max(1.0, plan.est_rows * 0.5)
        agg.est_total_cost = costf.aggregate_cost(
            self._params, plan.est_total_cost, plan.est_rows,
            agg.est_rows, 0, 0.0,
        )
        rename = Project(
            input=agg,
            exprs=[ColumnRef("_agg", name) for name in names],
            names=list(names),
        )
        rename.est_rows = agg.est_rows
        rename.est_total_cost = agg.est_total_cost
        cost_node = None
        if self._recorder is not None:
            # The rename Project is a cost passthrough of the Aggregate.
            cost_node = self._recorder.call(
                costf.aggregate_cost, input_node, plan.est_rows,
                agg.est_rows, 0, 0.0,
            )
        return rename, cost_node

    def _add_sort(
        self, plan: PlanNode, keys: List[SortKey],
        input_node: Optional[recost.Slot],
    ) -> Tuple[PlanNode, Optional[recost.Slot]]:
        node = Sort(input=plan, keys=list(keys))
        width = 24.0 + 8.0 * len(plan.layout)
        node.est_rows = plan.est_rows
        node.est_total_cost = costf.sort_cost(
            self._params, plan.est_total_cost, plan.est_rows, width, len(keys)
        )
        cost_node = None
        if self._recorder is not None:
            cost_node = self._recorder.call(
                costf.sort_cost, input_node, plan.est_rows, width, len(keys),
            )
        return node, cost_node


# -- helpers ------------------------------------------------------------------------


class _ConjunctPool:
    """Predicates waiting to be placed in the plan."""

    def __init__(self, initial: Sequence[Expr]):
        self._items: List[Expr] = list(initial)

    def extend(self, items: Sequence[Expr]) -> None:
        self._items.extend(items)

    def remaining(self) -> List[Expr]:
        return list(self._items)

    def take_single_alias(self, alias: str) -> List[Expr]:
        """Remove and return conjuncts that reference only *alias*."""
        taken, kept = [], []
        for item in self._items:
            refs = _expr_aliases(item)
            if refs == {alias}:
                taken.append(item)
            else:
                kept.append(item)
        self._items = kept
        return taken

    def take_multi_alias(self, region: FrozenSet[str]) -> List[Expr]:
        """Remove and return multi-relation conjuncts within *region*."""
        taken, kept = [], []
        for item in self._items:
            refs = _expr_aliases(item)
            if len(refs) >= 2 and refs <= region:
                taken.append(item)
            else:
                kept.append(item)
        self._items = kept
        return taken

    def take_covered(self, aliases: FrozenSet[str]) -> List[Expr]:
        """Remove and return conjuncts fully covered by *aliases*."""
        taken, kept = [], []
        for item in self._items:
            refs = _expr_aliases(item)
            if refs and refs <= aliases:
                taken.append(item)
            else:
                kept.append(item)
        self._items = kept
        return taken


def _expr_aliases(expr: Expr) -> set:
    return {alias for alias, _column in expr.columns()}


def _cross_conjuncts(pool: List[Expr], left: FrozenSet[str],
                     right: FrozenSet[str]) -> List[Expr]:
    """Conjuncts that reference both sides and nothing else."""
    out = []
    combined = left | right
    for item in pool:
        refs = _expr_aliases(item)
        if refs & left and refs & right and refs <= combined:
            out.append(item)
    return out


def _split_equi(cond: List[Expr], outer_aliases: FrozenSet[str],
                inner_aliases: FrozenSet[str]):
    """Split a condition into hashable equi-pairs and a residual list.

    Returns ``(equi, residual)`` where each equi entry is
    ``(outer_key_expr, inner_key_expr)``.
    """
    equi: List[Tuple[Expr, Expr]] = []
    residual: List[Expr] = []
    for item in cond:
        pair = _equi_pair(item, outer_aliases, inner_aliases)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(item)
    return equi, residual


def _equi_pair(expr: Expr, outer_aliases: FrozenSet[str],
               inner_aliases: FrozenSet[str]) -> Optional[Tuple[Expr, Expr]]:
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left_refs = _expr_aliases(expr.left)
    right_refs = _expr_aliases(expr.right)
    if not left_refs or not right_refs:
        return None
    if left_refs <= outer_aliases and right_refs <= inner_aliases:
        return expr.left, expr.right
    if left_refs <= inner_aliases and right_refs <= outer_aliases:
        return expr.right, expr.left
    return None


def _extract_bound(expr: Expr, alias: str, column: str):
    """Match ``alias.column <op> literal`` (either orientation)."""
    if not isinstance(expr, BinaryOp):
        return None
    op = expr.op
    if op not in ("=", "<", "<=", ">", ">="):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        if left.alias == alias and left.column == column and right.value is not None:
            return op, right.value
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        if right.alias == alias and right.column == column and left.value is not None:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return flipped, left.value
    return None

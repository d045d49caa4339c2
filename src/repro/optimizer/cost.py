"""Cost formulas for physical plan operators.

PostgreSQL-style: every formula is a linear combination of the
parameters in :class:`OptimizerParameters`, with quantities (pages,
tuples, operator evaluations) estimated from statistics. Like the
genuine article these formulas are deliberately *simpler* than what the
executor actually does — no buffer-residency tracking, independence
assumptions everywhere — so estimates can diverge from measurements in
realistic ways.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.engine.expr import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    NotExpr,
)
from repro.optimizer.params import OptimizerParameters
from repro.optimizer.selectivity import SelectivityEstimator
from repro.util.units import PAGE_SIZE

#: Default average text width when statistics are unavailable.
DEFAULT_TEXT_WIDTH = 32.0


def expr_like_bytes(expr: Optional[Expr],
                    estimator: Optional[SelectivityEstimator]) -> float:
    """Expected LIKE subject bytes examined per evaluation of *expr*."""
    if expr is None:
        return 0.0
    total = 0.0
    for node in _walk_expr(expr):
        if isinstance(node, LikeExpr):
            width = DEFAULT_TEXT_WIDTH
            if estimator is not None and isinstance(node.operand, ColumnRef):
                stats = estimator.column_stats(node.operand)
                if stats is not None:
                    width = stats.avg_width
            total += width
    return total


def predicate_cpu_cost(expr: Optional[Expr], params: OptimizerParameters,
                       estimator: Optional[SelectivityEstimator] = None) -> float:
    """CPU cost of evaluating *expr* once against one tuple."""
    if expr is None:
        return 0.0
    return predicate_cost(params, expr.op_count(),
                          expr_like_bytes(expr, estimator))


def predicate_cost(params: OptimizerParameters, ops: int,
                   like_bytes: float) -> float:
    """Price *ops* operator steps and *like_bytes* LIKE subject bytes."""
    ops_cost = ops * params.cpu_operator_cost
    like_cost = like_bytes * params.cpu_like_byte_cost
    return ops_cost + like_cost


def _walk_expr(expr: Expr):
    yield expr
    if isinstance(expr, BinaryOp):
        yield from _walk_expr(expr.left)
        yield from _walk_expr(expr.right)
    elif isinstance(expr, (NotExpr, IsNullExpr, LikeExpr, InListExpr)):
        yield from _walk_expr(expr.operand)
    elif isinstance(expr, CaseExpr):
        for cond, value in expr.branches:
            yield from _walk_expr(cond)
            yield from _walk_expr(value)
        if expr.default is not None:
            yield from _walk_expr(expr.default)


# -- scans -------------------------------------------------------------------


def seq_scan_cost(params: OptimizerParameters, n_pages: int, n_rows: float,
                  filter_cost_per_tuple: float) -> float:
    """Full heap scan: read every page, examine every tuple."""
    io = n_pages * params.seq_page_cost
    cpu = n_rows * (params.cpu_tuple_cost + filter_cost_per_tuple)
    return io + cpu


def cache_discount(params: OptimizerParameters, relation_pages: int) -> float:
    """Fraction of random page fetches expected to hit cache.

    A crude Mackert–Lohman stand-in: the discount grows with how much of
    the relation fits in ``effective_cache_size``.
    """
    if relation_pages <= 0:
        return 1.0
    fraction_cached = min(1.0, params.effective_cache_size / relation_pages)
    return 0.9 * fraction_cached


def index_scan_cost(params: OptimizerParameters, index_height: int,
                    leaf_pages_fetched: float, tuples_fetched: float,
                    heap_pages: int, filter_cost_per_tuple: float) -> float:
    """Index range scan plus heap fetches.

    Heap fetches are random reads discounted by expected caching; index
    tuples cost ``cpu_index_tuple_cost`` each.
    """
    discount = cache_discount(params, heap_pages)
    effective_random = params.random_page_cost * (1.0 - discount) \
        + params.seq_page_cost * discount
    descent = index_height * params.random_page_cost
    leaf_io = leaf_pages_fetched * effective_random
    heap_io = tuples_fetched * effective_random
    cpu = tuples_fetched * (
        params.cpu_index_tuple_cost + params.cpu_tuple_cost + filter_cost_per_tuple
    )
    return descent + leaf_io + heap_io + cpu


# -- joins ------------------------------------------------------------------------


def hash_join_cost(params: OptimizerParameters, outer_cost: float, inner_cost: float,
                   outer_rows: float, inner_rows: float, result_rows: float,
                   residual_cost_per_row: float = 0.0) -> float:
    """Build on inner, probe with outer."""
    build = inner_rows * (params.cpu_operator_cost * 2 + params.cpu_tuple_cost)
    probe = outer_rows * params.cpu_operator_cost * 2
    emit = result_rows * (params.cpu_tuple_cost + residual_cost_per_row)
    return outer_cost + inner_cost + build + probe + emit


def nested_loop_cost(params: OptimizerParameters, outer_cost: float,
                     inner_cost: float, outer_rows: float, inner_rows: float,
                     result_rows: float, predicate_cost_per_pair: float) -> float:
    """Nested loops over a materialized inner side."""
    pairs = outer_rows * inner_rows
    rescan_cpu = pairs * max(params.cpu_operator_cost, predicate_cost_per_pair)
    emit = result_rows * params.cpu_tuple_cost
    return outer_cost + inner_cost + rescan_cpu + emit


def merge_join_cost(params: OptimizerParameters, outer_cost: float,
                    inner_cost: float, outer_rows: float, inner_rows: float,
                    result_rows: float) -> float:
    """Merge of two sorted inputs (sort costs are on the inputs)."""
    walk = (outer_rows + inner_rows) * params.cpu_operator_cost
    emit = result_rows * params.cpu_tuple_cost
    return outer_cost + inner_cost + walk + emit


# -- sort / aggregate / rest ----------------------------------------------------------


def sort_cost(params: OptimizerParameters, input_cost: float, n_rows: float,
              row_width: float, n_keys: int) -> float:
    """Comparison sort, with spill I/O beyond ``sort_mem_pages``."""
    cpu = 0.0
    if n_rows > 1:
        cpu = 2.0 * n_rows * math.log2(n_rows) * max(1, n_keys) \
            * params.cpu_operator_cost
    pages = (n_rows * row_width) / PAGE_SIZE
    io = 0.0
    if pages > params.sort_mem_pages:
        io = 2.0 * pages * params.seq_page_cost  # write runs + read back
    return input_cost + cpu + io


def aggregate_cost(params: OptimizerParameters, input_cost: float, input_rows: float,
                   n_groups: float, n_aggs: int, arg_cost_per_row: float) -> float:
    """Hash aggregation."""
    transition = input_rows * (
        params.cpu_operator_cost * (1 + n_aggs) + arg_cost_per_row
        + params.cpu_tuple_cost
    )
    finalize = n_groups * params.cpu_tuple_cost
    return input_cost + transition + finalize


def project_cost(params: OptimizerParameters, input_cost: float, n_rows: float,
                 expr_cost_per_row: float) -> float:
    return input_cost + n_rows * (expr_cost_per_row + params.cpu_tuple_cost * 0.5)


def filter_cost(params: OptimizerParameters, input_cost: float, n_rows: float,
                predicate_cost_per_row: float) -> float:
    return input_cost + n_rows * predicate_cost_per_row

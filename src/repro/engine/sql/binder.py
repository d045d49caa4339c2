"""Name resolution and logical query construction.

The binder turns a parsed :class:`SelectStmt` into a
:class:`LogicalQuery`: a join tree of base/derived relations plus bound
predicate, grouping, and output expressions. Along the way it

* resolves (possibly unqualified) column names against the FROM scope,
* folds DATE/INTERVAL literal arithmetic into date constants,
* decorrelates ``EXISTS`` / ``NOT EXISTS`` and uncorrelated
  ``IN (SELECT ...)`` predicates into semi/anti joins — the same
  flattening PostgreSQL performs, and
* separates aggregate computation from post-aggregation expressions,
  so ``100 * sum(a) / sum(b)`` becomes a projection over two
  aggregate outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog
from repro.engine.expr import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    ExtractExpr,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    NotExpr,
    SubplanExpr,
    and_together,
    conjuncts,
    map_children,
)
from repro.engine.plans import AggFunc, AggSpec, JoinType, SortKey
from repro.engine.sql import ast
from repro.engine.types import Date
from repro.util.errors import SqlError

_derived_ids = itertools.count(1)

_AGG_FUNCS = {
    "count": AggFunc.COUNT,
    "sum": AggFunc.SUM,
    "avg": AggFunc.AVG,
    "min": AggFunc.MIN,
    "max": AggFunc.MAX,
}


@dataclass(frozen=True)
class AggregateCall(Expr):
    """Placeholder for an aggregate call inside a bound expression.

    Never evaluated: the binder's aggregation pass replaces these with
    references to the Aggregate operator's outputs.
    """

    func: AggFunc
    arg: Optional[Expr]
    distinct: bool = False

    def compile(self, layout, ctx):  # pragma: no cover - defensive
        raise SqlError("aggregate call survived binding; planner bug")

    def children(self):
        return () if self.arg is None else (self.arg,)

    def __str__(self) -> str:
        arg = "*" if self.arg is None else str(self.arg)
        return f"{self.func.value}({arg})"


# -- logical plan nodes -------------------------------------------------------


class LogicalNode:
    """Base class for FROM-tree nodes."""

    def aliases(self) -> List[str]:
        raise NotImplementedError


@dataclass
class LogicalRelation(LogicalNode):
    """A base table reference."""

    table: str
    alias: str

    def aliases(self) -> List[str]:
        return [self.alias]


@dataclass
class LogicalDerived(LogicalNode):
    """A derived table (subquery in FROM, or a flattened IN subquery)."""

    query: "LogicalQuery"
    alias: str
    column_names: List[str]

    def aliases(self) -> List[str]:
        return [self.alias]


@dataclass
class LogicalJoin(LogicalNode):
    """A join between two FROM subtrees."""

    left: LogicalNode
    right: LogicalNode
    join_type: JoinType
    condition: Optional[Expr] = None

    def aliases(self) -> List[str]:
        return self.left.aliases() + self.right.aliases()


@dataclass
class LogicalQuery:
    """A fully bound SELECT."""

    from_tree: Optional[LogicalNode]
    where: List[Expr] = field(default_factory=list)
    group_keys: List[Expr] = field(default_factory=list)
    group_names: List[str] = field(default_factory=list)
    aggregates: List[AggSpec] = field(default_factory=list)
    having: Optional[Expr] = None
    select_exprs: List[Expr] = field(default_factory=list)
    select_names: List[str] = field(default_factory=list)
    order_by: List[SortKey] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    @property
    def is_aggregated(self) -> bool:
        return bool(self.aggregates) or bool(self.group_keys)


# -- scope --------------------------------------------------------------------


class _Scope:
    """Visible relations during binding, with an optional outer scope."""

    def __init__(self, outer: Optional["_Scope"] = None):
        self.relations: Dict[str, List[str]] = {}
        self.outer = outer

    def add(self, alias: str, columns: Sequence[str]) -> None:
        if alias in self.relations:
            raise SqlError(f"duplicate relation alias {alias!r}")
        self.relations[alias] = list(columns)

    def local_aliases(self) -> List[str]:
        return list(self.relations)

    def resolve(self, qualifier: Optional[str], name: str) -> ColumnRef:
        """Resolve a column, searching this scope then outer scopes."""
        scope: Optional[_Scope] = self
        while scope is not None:
            ref = scope._resolve_local(qualifier, name)
            if ref is not None:
                return ref
            scope = scope.outer
        target = f"{qualifier}.{name}" if qualifier else name
        raise SqlError(f"unknown column {target!r}")

    def _resolve_local(self, qualifier: Optional[str], name: str) -> Optional[ColumnRef]:
        if qualifier is not None:
            columns = self.relations.get(qualifier)
            if columns is None:
                return None
            if name not in columns:
                raise SqlError(f"relation {qualifier!r} has no column {name!r}")
            return ColumnRef(qualifier, name)
        matches = [alias for alias, cols in self.relations.items() if name in cols]
        if len(matches) > 1:
            raise SqlError(f"ambiguous column {name!r} (in {sorted(matches)})")
        if matches:
            return ColumnRef(matches[0], name)
        return None


# -- the binder --------------------------------------------------------------------


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def bind(self, stmt: ast.SelectStmt) -> LogicalQuery:
        return self._bind_select(stmt, outer_scope=None)

    def bind_sql(self, sql: str) -> LogicalQuery:
        from repro.engine.sql.parser import parse_select

        return self.bind(parse_select(sql))

    # -- FROM ------------------------------------------------------------------

    def _bind_select(self, stmt: ast.SelectStmt,
                     outer_scope: Optional[_Scope]) -> LogicalQuery:
        scope = _Scope(outer=outer_scope)
        from_tree: Optional[LogicalNode] = None
        for item in stmt.from_items:
            node = self._bind_from_item(item, scope)
            if from_tree is None:
                from_tree = node
            else:
                from_tree = LogicalJoin(from_tree, node, JoinType.INNER, None)
        if from_tree is None:
            raise SqlError("queries without a FROM clause are not supported")

        # WHERE: split off subquery predicates for decorrelation.
        where_conjuncts: List[Expr] = []
        if stmt.where is not None:
            for conjunct in _ast_conjuncts(stmt.where):
                bound = self._bind_where_conjunct(conjunct, scope)
                if isinstance(bound, _SubqueryJoin):
                    from_tree = LogicalJoin(
                        from_tree, bound.right, bound.join_type, bound.condition
                    )
                else:
                    for piece in conjuncts(bound):
                        where_conjuncts.extend(_factor_or(piece))

        query = LogicalQuery(from_tree=from_tree, where=where_conjuncts,
                             limit=stmt.limit, distinct=stmt.distinct)
        self._decorrelate_scalar_subqueries(query)
        self._bind_outputs(stmt, scope, query)
        return query

    # -- correlated scalar subqueries -----------------------------------------

    def _decorrelate_scalar_subqueries(self, query: LogicalQuery) -> None:
        """Rewrite equality-correlated scalar subqueries in WHERE.

        The classic magic-set rewrite: a correlated single-aggregate
        subquery becomes a derived table grouped by its correlation
        columns, LEFT-joined to the outer query (LEFT preserves scalar
        semantics — a missing group yields NULL, and NULL comparisons
        reject the row just as the original subquery would). TPC-H Q2
        and Q17 are the canonical shapes.
        """
        query.where = [
            self._rewrite_correlated(conjunct, query)
            for conjunct in query.where
        ]

    def _rewrite_correlated(self, expr: Expr, query: LogicalQuery) -> Expr:
        if isinstance(expr, SubplanExpr):
            rewritten = self._try_decorrelate(expr, query)
            return rewritten if rewritten is not None else expr
        return map_children(
            expr, lambda child: self._rewrite_correlated(child, query)
        )

    def _try_decorrelate(self, subplan: SubplanExpr,
                         query: LogicalQuery) -> Optional[Expr]:
        sub = subplan.logical
        if sub.from_tree is None:
            return None
        local_aliases = set(sub.from_tree.aliases())

        correlated: List[Expr] = []
        inner_where: List[Expr] = []
        for conjunct in sub.where:
            refs = {alias for alias, _c in conjunct.columns()}
            if refs <= local_aliases:
                inner_where.append(conjunct)
            else:
                correlated.append(conjunct)
        if not correlated:
            return None  # genuinely uncorrelated: executes as a subplan

        if sub.group_keys or sub.having is not None or sub.order_by \
                or sub.limit is not None or len(sub.select_exprs) != 1 \
                or not sub.aggregates:
            raise SqlError(
                "correlated scalar subqueries must be single-aggregate "
                "queries without grouping"
            )

        # Each correlation conjunct must be inner_col = outer_col.
        group_keys: List[Expr] = []
        outer_keys: List[Expr] = []
        for conjunct in correlated:
            pair = self._correlation_pair(conjunct, local_aliases)
            if pair is None:
                raise SqlError(
                    f"unsupported correlated predicate {conjunct}; only "
                    f"equality correlation is supported"
                )
            inner_col, outer_col = pair
            group_keys.append(inner_col)
            outer_keys.append(outer_col)

        alias = f"_corr_{next(_derived_ids)}"
        group_names = [f"k{i}" for i in range(len(group_keys))]
        derived_query = LogicalQuery(
            from_tree=sub.from_tree,
            where=inner_where,
            group_keys=group_keys,
            group_names=group_names,
            aggregates=sub.aggregates,
            select_exprs=[ColumnRef("_agg", name) for name in group_names]
            + [sub.select_exprs[0]],
            select_names=group_names + ["scalar_value"],
        )
        derived = LogicalDerived(query=derived_query, alias=alias,
                                 column_names=group_names + ["scalar_value"])
        condition = and_together([
            BinaryOp("=", outer_col, ColumnRef(alias, name))
            for outer_col, name in zip(outer_keys, group_names)
        ])
        assert query.from_tree is not None
        query.from_tree = LogicalJoin(query.from_tree, derived,
                                      JoinType.LEFT, condition)
        return ColumnRef(alias, "scalar_value")

    def _reject_correlated_scalars(self, expr: Expr, where: str) -> None:
        """Correlated scalars are only decorrelated in WHERE conjuncts."""
        if not isinstance(expr, SubplanExpr):
            for child in expr.children():
                self._reject_correlated_scalars(child, where)
            return
        sub = expr.logical
        local = set(sub.from_tree.aliases()) if sub.from_tree else set()
        for conjunct in sub.where:
            refs = {alias for alias, _c in conjunct.columns()}
            if not refs <= local:
                raise SqlError(
                    f"correlated scalar subqueries are not supported in {where}"
                )

    @staticmethod
    def _correlation_pair(conjunct: Expr, local_aliases: set):
        """Match ``inner_col = outer_col``; returns (inner, outer) refs."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            return None
        if left.alias in local_aliases and right.alias not in local_aliases:
            return left, right
        if right.alias in local_aliases and left.alias not in local_aliases:
            return right, left
        return None

    def _bind_from_item(self, item: ast.FromItem, scope: _Scope) -> LogicalNode:
        if isinstance(item, ast.TableRef):
            alias = item.effective_alias
            if not self._catalog.has_table(item.table):
                raise SqlError(f"unknown table {item.table!r}")
            schema = self._catalog.table(item.table).schema
            scope.add(alias, schema.column_names())
            return LogicalRelation(table=item.table, alias=alias)
        if isinstance(item, ast.SubqueryRef):
            sub = self._bind_select(item.subquery, outer_scope=None)
            names = list(item.column_names) or list(sub.select_names)
            if len(names) != len(sub.select_names):
                raise SqlError(
                    f"derived table {item.alias!r} declares {len(names)} columns "
                    f"but its query produces {len(sub.select_names)}"
                )
            scope.add(item.alias, names)
            return LogicalDerived(query=sub, alias=item.alias, column_names=names)
        if isinstance(item, ast.JoinClause):
            left = self._bind_from_item(item.left, scope)
            right = self._bind_from_item(item.right, scope)
            condition = (
                self._bind_expr(item.condition, scope)
                if item.condition is not None else None
            )
            join_type = JoinType.LEFT if item.join_type == "left" else JoinType.INNER
            return LogicalJoin(left, right, join_type, condition)
        raise SqlError(f"unsupported FROM item {type(item).__name__}")

    # -- WHERE subqueries --------------------------------------------------------

    def _bind_where_conjunct(self, conjunct: ast.AstExpr, scope: _Scope):
        if isinstance(conjunct, ast.Exists):
            return self._bind_exists(conjunct, scope)
        if isinstance(conjunct, ast.Not) and isinstance(conjunct.operand, ast.Exists):
            inner = conjunct.operand
            return self._bind_exists(
                ast.Exists(inner.subquery, negated=not inner.negated), scope
            )
        if isinstance(conjunct, ast.InSubquery):
            return self._bind_in_subquery(conjunct, scope)
        return self._bind_expr(conjunct, scope)

    def _bind_exists(self, exists: ast.Exists, scope: _Scope) -> "_SubqueryJoin":
        """Flatten [NOT] EXISTS into a semi/anti join against the subquery's FROM."""
        sub = exists.subquery
        if sub.group_by or sub.having or sub.order_by or sub.limit:
            raise SqlError("EXISTS subqueries with grouping are not supported")
        sub_scope = _Scope(outer=scope)
        sub_tree: Optional[LogicalNode] = None
        for item in sub.from_items:
            node = self._bind_from_item(item, sub_scope)
            sub_tree = node if sub_tree is None else LogicalJoin(
                sub_tree, node, JoinType.INNER, None
            )
        if sub_tree is None:
            raise SqlError("EXISTS subquery needs a FROM clause")
        condition: Optional[Expr] = None
        if sub.where is not None:
            # All conjuncts (correlated or not) ride on the join condition;
            # the planner pushes single-relation conjuncts down.
            condition = self._bind_expr(sub.where, sub_scope)
        join_type = JoinType.ANTI if exists.negated else JoinType.SEMI
        return _SubqueryJoin(right=sub_tree, join_type=join_type, condition=condition)

    def _bind_in_subquery(self, pred: ast.InSubquery, scope: _Scope) -> "_SubqueryJoin":
        """Flatten uncorrelated ``expr [NOT] IN (SELECT ...)`` into semi/anti join."""
        operand = self._bind_expr(pred.operand, scope)
        sub = self._bind_select(pred.subquery, outer_scope=None)
        if len(sub.select_names) != 1:
            raise SqlError("IN subquery must produce exactly one column")
        alias = f"_in_{next(_derived_ids)}"
        derived = LogicalDerived(query=sub, alias=alias,
                                 column_names=[sub.select_names[0]])
        condition = BinaryOp("=", operand, ColumnRef(alias, sub.select_names[0]))
        join_type = JoinType.ANTI if pred.negated else JoinType.SEMI
        return _SubqueryJoin(right=derived, join_type=join_type, condition=condition)

    # -- outputs (select / group by / having / order by) ----------------------------

    def _bind_outputs(self, stmt: ast.SelectStmt, scope: _Scope,
                      query: LogicalQuery) -> None:
        raw_selects: List[Expr] = []
        select_names: List[str] = []
        for i, item in enumerate(stmt.items):
            bound = self._bind_expr(item.expr, scope, allow_aggregates=True)
            self._reject_correlated_scalars(bound, "the select list")
            raw_selects.append(bound)
            select_names.append(item.alias or _default_name(bound, i))
        if len(set(select_names)) != len(select_names):
            # Disambiguate duplicated implicit names.
            seen: Dict[str, int] = {}
            for i, name in enumerate(select_names):
                count = seen.get(name, 0)
                seen[name] = count + 1
                if count:
                    select_names[i] = f"{name}_{count}"

        group_keys = [self._bind_expr(g, scope) for g in stmt.group_by]
        having = (
            self._bind_expr(stmt.having, scope, allow_aggregates=True)
            if stmt.having is not None else None
        )
        if having is not None:
            self._reject_correlated_scalars(having, "HAVING")

        has_aggs = any(_contains_aggregate(e) for e in raw_selects)
        if having is not None:
            has_aggs = has_aggs or _contains_aggregate(having)

        if group_keys or has_aggs:
            self._bind_aggregated_outputs(
                query, raw_selects, select_names, group_keys, having
            )
        else:
            if having is not None:
                raise SqlError("HAVING requires GROUP BY or aggregates")
            query.select_exprs = raw_selects
            query.select_names = select_names

        query.order_by = self._bind_order_by(stmt.order_by, scope, query, raw_selects,
                                             select_names)

    def _bind_aggregated_outputs(self, query: LogicalQuery, raw_selects: List[Expr],
                                 select_names: List[str], group_keys: List[Expr],
                                 having: Optional[Expr]) -> None:
        group_names = [
            key.column if isinstance(key, ColumnRef) else f"group_{i}"
            for i, key in enumerate(group_keys)
        ]
        collector = _AggCollector(group_keys, group_names)
        query.select_exprs = [collector.rewrite(e) for e in raw_selects]
        query.select_names = select_names
        if having is not None:
            query.having = collector.rewrite(having)
        query.group_keys = group_keys
        query.group_names = group_names
        query.aggregates = collector.specs
        # Anything still referencing a base relation was neither grouped
        # nor aggregated.
        for expr, name in zip(query.select_exprs, select_names):
            for alias, column in expr.columns():
                if alias != "_agg":
                    raise SqlError(
                        f"column {alias}.{column} in select item {name!r} must "
                        f"appear in GROUP BY or inside an aggregate"
                    )

    def _bind_order_by(self, order_items: List[ast.OrderItem], scope: _Scope,
                       query: LogicalQuery, raw_selects: List[Expr],
                       select_names: List[str]) -> List[SortKey]:
        keys: List[SortKey] = []
        for item in order_items:
            # Case 1: a bare name that matches a select output.
            if isinstance(item.expr, ast.Identifier) and item.expr.qualifier is None \
                    and item.expr.name in select_names:
                keys.append(SortKey(ColumnRef("_out", item.expr.name), item.ascending))
                continue
            # Case 2: an expression equal to some select expression.
            bound = self._bind_expr(item.expr, scope, allow_aggregates=True)
            matched = False
            for raw, name in zip(raw_selects, select_names):
                if raw == bound:
                    keys.append(SortKey(ColumnRef("_out", name), item.ascending))
                    matched = True
                    break
            if not matched:
                raise SqlError(
                    f"ORDER BY expression {item.expr} must match a select output"
                )
        return keys

    # -- expression conversion --------------------------------------------------------

    def _bind_expr(self, node: ast.AstExpr, scope: _Scope,
                   allow_aggregates: bool = False) -> Expr:
        if isinstance(node, ast.Identifier):
            return scope.resolve(node.qualifier, node.name)
        if isinstance(node, ast.NumberLit):
            return Literal(node.value)
        if isinstance(node, ast.StringLit):
            return Literal(node.value)
        if isinstance(node, ast.DateLit):
            try:
                return Literal(Date.parse(node.text))
            except ValueError as exc:
                raise SqlError(f"bad date literal {node.text!r}: {exc}") from None
        if isinstance(node, ast.NullLit):
            return Literal(None)
        if isinstance(node, ast.IntervalLit):
            raise SqlError("INTERVAL is only valid in date +/- interval arithmetic")
        if isinstance(node, ast.Binary):
            return self._bind_binary(node, scope, allow_aggregates)
        if isinstance(node, ast.Not):
            return NotExpr(self._bind_expr(node.operand, scope, allow_aggregates))
        if isinstance(node, ast.IsNull):
            return IsNullExpr(
                self._bind_expr(node.operand, scope, allow_aggregates), node.negated
            )
        if isinstance(node, ast.Like):
            return LikeExpr(
                self._bind_expr(node.operand, scope, allow_aggregates),
                node.pattern, node.negated,
            )
        if isinstance(node, ast.Between):
            operand = self._bind_expr(node.operand, scope, allow_aggregates)
            low = self._bind_expr(node.low, scope, allow_aggregates)
            high = self._bind_expr(node.high, scope, allow_aggregates)
            between = BinaryOp(
                "and", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high)
            )
            return NotExpr(between) if node.negated else between
        if isinstance(node, ast.InList):
            operand = self._bind_expr(node.operand, scope, allow_aggregates)
            values = []
            for item in node.items:
                bound = self._bind_expr(item, scope)
                if not isinstance(bound, Literal):
                    raise SqlError("IN list items must be constants")
                values.append(bound.value)
            return InListExpr(operand, tuple(values), node.negated)
        if isinstance(node, ast.Case):
            branches = tuple(
                (self._bind_expr(cond, scope, allow_aggregates),
                 self._bind_expr(value, scope, allow_aggregates))
                for cond, value in node.branches
            )
            default = (
                self._bind_expr(node.default, scope, allow_aggregates)
                if node.default is not None else None
            )
            return CaseExpr(branches, default)
        if isinstance(node, ast.FuncCall):
            return self._bind_func(node, scope, allow_aggregates)
        if isinstance(node, ast.Extract):
            return ExtractExpr(
                node.unit,
                self._bind_expr(node.operand, scope, allow_aggregates),
            )
        if isinstance(node, ast.ScalarSubquery):
            # The enclosing scope stays visible: a correlated reference
            # resolves through it and is decorrelated afterwards.
            sub = self._bind_select(node.subquery, outer_scope=scope)
            if len(sub.select_names) != 1:
                raise SqlError("a scalar subquery must produce exactly one column")
            return SubplanExpr(sub)
        if isinstance(node, (ast.Exists, ast.InSubquery)):
            raise SqlError(
                "subquery predicates are only supported as top-level WHERE conjuncts"
            )
        raise SqlError(f"unsupported expression {type(node).__name__}")

    def _bind_binary(self, node: ast.Binary, scope: _Scope,
                     allow_aggregates: bool) -> Expr:
        # DATE +/- INTERVAL folds to a date constant.
        if isinstance(node.right, ast.IntervalLit):
            left = self._bind_expr(node.left, scope, allow_aggregates)
            return Literal(_shift_date(left, node.op, node.right))
        if isinstance(node.left, ast.IntervalLit):
            if node.op != "+":
                raise SqlError("INTERVAL may only be added to a date")
            right = self._bind_expr(node.right, scope, allow_aggregates)
            return Literal(_shift_date(right, "+", node.left))
        left = self._bind_expr(node.left, scope, allow_aggregates)
        right = self._bind_expr(node.right, scope, allow_aggregates)
        return BinaryOp(node.op, left, right)

    def _bind_func(self, node: ast.FuncCall, scope: _Scope,
                   allow_aggregates: bool) -> Expr:
        name = node.name
        if name in _AGG_FUNCS:
            if not allow_aggregates:
                raise SqlError(f"aggregate {name}() is not allowed here")
            if node.distinct and name not in ("count", "sum", "avg"):
                raise SqlError(f"DISTINCT is not supported for {name}()")
            if node.star:
                if name != "count":
                    raise SqlError(f"{name}(*) is not valid")
                return AggregateCall(AggFunc.COUNT_STAR, None)
            if len(node.args) != 1:
                raise SqlError(f"aggregate {name}() takes exactly one argument")
            arg = self._bind_expr(node.args[0], scope)
            if _contains_aggregate(arg):
                raise SqlError("nested aggregates are not allowed")
            return AggregateCall(_AGG_FUNCS[name], arg, distinct=node.distinct)
        raise SqlError(f"unknown function {name!r}")


@dataclass
class _SubqueryJoin:
    """Intermediate result of decorrelating a WHERE subquery predicate."""

    right: LogicalNode
    join_type: JoinType
    condition: Optional[Expr]


class _AggCollector:
    """Replaces aggregate calls and group keys with Aggregate-output refs."""

    def __init__(self, group_keys: List[Expr], group_names: List[str]):
        self._group_pairs = list(zip(group_keys, group_names))
        self.specs: List[AggSpec] = []
        self._spec_index: Dict[Tuple[AggFunc, Optional[Expr]], str] = {}

    def rewrite(self, expr: Expr) -> Expr:
        for key, name in self._group_pairs:
            if expr == key:
                return ColumnRef("_agg", name)
        if isinstance(expr, AggregateCall):
            return ColumnRef("_agg", self._spec_name(expr))
        return map_children(expr, self.rewrite)

    def _spec_name(self, call: AggregateCall) -> str:
        key = (call.func, call.arg, call.distinct)
        name = self._spec_index.get(key)
        if name is None:
            name = f"agg_{len(self.specs)}"
            self._spec_index[key] = name
            self.specs.append(AggSpec(func=call.func, arg=call.arg,
                                      output_name=name, distinct=call.distinct))
        return name


def _contains_aggregate(expr: Expr) -> bool:
    return isinstance(expr, AggregateCall) or any(
        _contains_aggregate(child) for child in expr.children())


def _default_name(expr: Expr, position: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, AggregateCall):
        return expr.func.value.rstrip("*")
    return f"col_{position}"


def _shift_date(date_expr: Expr, op: str, interval: ast.IntervalLit) -> Date:
    if not isinstance(date_expr, Literal) or not isinstance(date_expr.value, Date):
        raise SqlError("INTERVAL arithmetic requires a date literal")
    if op not in ("+", "-"):
        raise SqlError(f"invalid date operator {op!r} with INTERVAL")
    amount = interval.amount if op == "+" else -interval.amount
    date = date_expr.value
    if interval.unit == "day":
        return date.add_days(amount)
    if interval.unit == "month":
        return date.add_months(amount)
    return date.add_years(amount)


def _or_branches(expr: Expr) -> List[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "or":
        return _or_branches(expr.left) + _or_branches(expr.right)
    return [expr]


def _factor_or(expr: Expr) -> List[Expr]:
    """Pull conjuncts common to every OR branch out of the disjunction.

    ``(A and X) or (A and Y)`` becomes ``A`` plus ``(X or Y)`` — the
    rewrite PostgreSQL applies so that, e.g., TPC-H Q19's join key
    (which appears inside every OR arm) is visible to join planning
    instead of forcing a cross product.
    """
    if not (isinstance(expr, BinaryOp) and expr.op == "or"):
        return [expr]
    branch_lists = [conjuncts(branch) for branch in _or_branches(expr)]
    common = [c for c in branch_lists[0]
              if all(c in other for other in branch_lists[1:])]
    if not common:
        return [expr]
    residuals = []
    for branch in branch_lists:
        rest = [c for c in branch if c not in common]
        if not rest:
            # This branch is exactly the common part: the OR adds nothing.
            return common
        residuals.append(and_together(rest))
    combined = residuals[0]
    for residual in residuals[1:]:
        combined = BinaryOp("or", combined, residual)
    return common + [combined]


def _ast_conjuncts(node: ast.AstExpr) -> List[ast.AstExpr]:
    if isinstance(node, ast.Binary) and node.op == "and":
        return _ast_conjuncts(node.left) + _ast_conjuncts(node.right)
    return [node]

"""Query executor of the mini relational engine.

Evaluation model: FROM builds a stream of *row environments* (one slot
per table binding), joins use hash indexes on extracted equi-join
conjuncts, WHERE filters, GROUP BY hash-aggregates, SELECT projects.
NULL follows SQL three-valued logic; arithmetic on TIME values
implements the shift semantics (``t + 1`` moves one period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SqlExecutionError
from ..model.time import TimePoint
from .functions import FunctionRegistry
from .sqlast import (
    Binary,
    ColumnRef,
    FuncCall,
    IsNull,
    Literal,
    Select,
    SelectItem,
    SqlExpr,
    TableRef,
    Unary,
)

__all__ = ["QueryResult", "SelectExecutor", "RowEnv"]


@dataclass
class QueryResult:
    """Columns and rows returned by a SELECT."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]

    @property
    def column_names(self) -> List[str]:
        return self.columns

    def column(self, name: str) -> List[Any]:
        index = [c.lower() for c in self.columns].index(name.lower())
        return [row[index] for row in self.rows]


class RowEnv:
    """One joined row: a value slot per binding (table alias)."""

    __slots__ = ("slots",)

    def __init__(self, slots: Dict[str, Tuple[Dict[str, int], Tuple[Any, ...]]]):
        self.slots = slots

    def extended(self, binding: str, colmap: Dict[str, int], row: Tuple) -> "RowEnv":
        slots = dict(self.slots)
        slots[binding] = (colmap, row)
        return RowEnv(slots)

    def lookup(self, name: str, qualifier: Optional[str]) -> Any:
        lowered = name.lower()
        key = qualifier if qualifier is None else qualifier.lower()
        hits = [
            (colmap, row)
            for binding, (colmap, row) in self.slots.items()
            if lowered in colmap and key in (None, binding.lower())
        ]
        if len(hits) != 1:
            problem = "ambiguous" if hits else "unknown"
            raise SqlExecutionError(f"{problem} column {ColumnRef(name, qualifier)}")
        colmap, row = hits[0]
        return row[colmap[lowered]]


@dataclass
class _Source:
    """A materialized FROM item."""

    binding: str
    colmap: Dict[str, int]
    columns: List[str]
    rows: List[Tuple[Any, ...]]


class SelectExecutor:
    """Executes one SELECT against a table provider.

    ``resolve_table(name)`` returns a table or a view's rows (anything
    with ``column_names`` and ``rows``);
    ``functions`` provides scalar/aggregate/tabular implementations.
    """

    def __init__(
        self,
        resolve_table: Callable[[str], Any],
        functions: FunctionRegistry,
    ):
        self.resolve_table = resolve_table
        self.functions = functions

    # -- public ----------------------------------------------------------
    def execute(self, select: Select) -> QueryResult:
        sources = [self._materialize(s) for s in select.sources]
        # WHERE can be fused into the join only when no null extension
        # will happen afterwards
        fused = [] if select.joins else _conjuncts(select.where)
        envs, bound = self._join_all(sources, fused)
        for join in select.joins:
            source = self._materialize(join.source)
            envs = self._left_join(envs, source, join.condition, bound)
            bound.add(source.binding.lower())
            sources.append(source)
        if select.joins and select.where is not None:
            envs = [env for env in envs if self._truthy(select.where, env)]
        if select.group_by or self._has_aggregate(select):
            return self._grouped(select, envs, sources)
        return self._plain(select, envs, sources)

    def _left_join(
        self, envs: List[RowEnv], source: _Source, condition: SqlExpr, bound: set
    ) -> List[RowEnv]:
        """Extend each env with matching rows, or a NULL row if none match."""
        null_row = tuple([None] * len(source.columns))
        pairs = (_equi_pair(c, bound, source) for c in _conjuncts(condition))
        keys = [pair for pair in pairs if pair is not None]
        index = _index(source, keys) if keys else None
        out: List[RowEnv] = []
        for env in envs:
            if index is not None:
                candidates = index.get(self._probe(env, keys), ())
            else:
                candidates = source.rows
            matched = False
            for row in candidates:
                extended = env.extended(source.binding, source.colmap, row)
                if self._eval(condition, extended) is True:
                    out.append(extended)
                    matched = True
            if not matched:
                out.append(env.extended(source.binding, source.colmap, null_row))
        return out

    def _has_aggregate(self, select: Select) -> bool:
        """Whether the projection applies an aggregate function."""
        return any(self._is_aggregate(item.expr) for item in select.items)

    def _is_aggregate(self, expr: SqlExpr) -> bool:
        return isinstance(expr, FuncCall) and self.functions.is_aggregate(expr.name)

    # -- FROM ----------------------------------------------------------------
    def _materialize(self, source) -> _Source:
        if isinstance(source, TableRef):
            relation = self.resolve_table(source.name)
        else:
            args = [
                arg.value if isinstance(arg, Literal) else self.resolve_table(arg)
                for arg in source.args
            ]
            relation = self.functions.tabular(source.name).impl(*args)
        names = relation.column_names
        colmap = {c.lower(): i for i, c in enumerate(names)}
        return _Source(source.binding, colmap, names, relation.rows)

    # -- joining ----------------------------------------------------------------
    def _join_all(
        self, sources: List[_Source], conjuncts: List[SqlExpr]
    ) -> Tuple[List[RowEnv], set]:
        """Left-deep hash join over all sources; residual conjuncts are
        applied as soon as every binding they mention is available.
        Returns the joined rows and the bindings they bind."""
        pending = list(conjuncts)
        first = sources[0]
        bound = {first.binding.lower()}
        envs = [
            RowEnv({first.binding: (first.colmap, row)}) for row in first.rows
        ]
        envs = self._apply_ready(envs, pending, bound)
        for source in sources[1:]:
            envs = self._hash_join(envs, source, pending, bound)
            bound.add(source.binding.lower())
            envs = self._apply_ready(envs, pending, bound)
        # conditions with unqualified columns (or odd qualifiers) are
        # applied once every source is joined
        for condition in pending:
            envs = [env for env in envs if self._truthy(condition, env)]
        return envs, bound

    def _apply_ready(
        self, envs: List[RowEnv], pending: List[SqlExpr], bound: set
    ) -> List[RowEnv]:
        ready = [c for c in pending if _bindings_of(c) <= bound]
        for c in ready:
            pending.remove(c)
        for condition in ready:
            envs = [env for env in envs if self._truthy(condition, env)]
        return envs

    def _hash_join(
        self,
        envs: List[RowEnv],
        source: _Source,
        pending: List[SqlExpr],
        bound: set,
    ) -> List[RowEnv]:
        keys: List[Tuple[SqlExpr, ColumnRef]] = []
        for condition in list(pending):
            pair = _equi_pair(condition, bound, source)
            if pair is not None:
                keys.append(pair)
                pending.remove(condition)
        if not keys:
            # cartesian extension; residual conditions filter later
            return [
                env.extended(source.binding, source.colmap, row)
                for env in envs
                for row in source.rows
            ]
        index = _index(source, keys)
        return [
            env.extended(source.binding, source.colmap, row)
            for env in envs
            for row in index.get(self._probe(env, keys), ())
        ]

    def _probe(self, env: RowEnv, keys: List[Tuple[SqlExpr, ColumnRef]]) -> Tuple:
        return tuple(self._eval(expr, env) for expr, _ref in keys)

    # -- projection ----------------------------------------------------------
    def _expand_items(
        self, select: Select, sources: List[_Source]
    ) -> List[SelectItem]:
        if select.items:
            return list(select.items)
        items = []
        for source in sources:
            for column in source.columns:
                items.append(SelectItem(ColumnRef(column, source.binding), column))
        return items

    def _plain(
        self, select: Select, envs: List[RowEnv], sources: List[_Source]
    ) -> QueryResult:
        items = self._expand_items(select, sources)
        columns = [_item_name(item, i) for i, item in enumerate(items)]
        rows = [tuple(self._eval(item.expr, env) for item in items) for env in envs]
        return QueryResult(columns, rows)

    def _grouped(
        self, select: Select, envs: List[RowEnv], sources: List[_Source]
    ) -> QueryResult:
        items = self._expand_items(select, sources)
        columns = [_item_name(item, i) for i, item in enumerate(items)]
        groups: Dict[Tuple, List[RowEnv]] = {}
        if select.group_by:
            for env in envs:
                key = tuple(self._eval(e, env) for e in select.group_by)
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = envs  # a global aggregate, also over no rows
        rows = [
            tuple(self._eval_agg(item.expr, group) for item in items)
            for group in groups.values()
        ]
        return QueryResult(columns, rows)

    # -- expression evaluation ---------------------------------------------------
    def _eval(self, expr: SqlExpr, env: RowEnv) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return env.lookup(expr.name, expr.qualifier)
        if isinstance(expr, Unary):
            value = self._eval(expr.operand, env)
            return None if value is None else -value
        if isinstance(expr, Binary):
            return self._binary(expr, env)
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, env)
            return (value is not None) if expr.negated else (value is None)
        # a function call: the parser makes no other expression
        if self.functions.is_aggregate(expr.name):
            raise SqlExecutionError(f"aggregate {expr.name} used outside GROUP BY context")
        impl = self.functions.scalar(expr.name)
        return impl(*(self._eval(a, env) for a in expr.args))

    def _eval_agg(self, expr: SqlExpr, group: List[RowEnv]) -> Any:
        """Evaluate a projection item on a group: an aggregate consumes
        the group, anything else is read off its first row."""
        if self._is_aggregate(expr):
            impl = self.functions.aggregate(expr.name)
            if expr.star:
                return impl([1] * len(group))
            if len(expr.args) != 1:
                raise SqlExecutionError(f"aggregate {expr.name} takes one argument")
            return impl([self._eval(expr.args[0], env) for env in group])
        if not group:
            raise SqlExecutionError("non-aggregate expression over an empty group")
        return self._eval(expr, group[0])

    def _truthy(self, expr: SqlExpr, env: RowEnv) -> bool:
        return self._eval(expr, env) is True

    def _binary(self, expr: Binary, env: RowEnv) -> Any:
        left = self._eval(expr.left, env)
        if expr.op == "AND":
            # three-valued: FALSE wins, then NULL
            if left is False:
                return False
            right = self._eval(expr.right, env)
            return right if right is False or left is True else None
        right = self._eval(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "=":
            return left == right
        return _arith(expr.op, left, right)


def _arith(op: str, left: Any, right: Any) -> Any:
    if isinstance(left, TimePoint) or isinstance(right, TimePoint):
        return _time_arith(op, left, right)
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise SqlExecutionError("division by zero")
        return left / right
    except TypeError as exc:
        raise SqlExecutionError(f"bad operands for {op}: {left!r}, {right!r}") from exc


def _time_arith(op: str, left: Any, right: Any) -> Any:
    if isinstance(left, TimePoint) and isinstance(right, (int, float)):
        if op == "+":
            return left.shift(int(right))
        if op == "-":
            return left.shift(-int(right))
    raise SqlExecutionError(f"unsupported TIME arithmetic: {left!r} {op} {right!r}")


def _conjuncts(expr: Optional[SqlExpr]) -> List[SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _bindings_of(expr: SqlExpr) -> set:
    """Lowercased table bindings referenced by an expression.

    An unqualified column is treated as referencing no specific
    binding, so conditions with unqualified columns are applied only
    after all sources are joined (conservative but correct).
    """
    out: set = set()
    unqualified = [False]

    def walk(node: SqlExpr):
        if isinstance(node, ColumnRef):
            if node.qualifier is None:
                unqualified[0] = True
            else:
                out.add(node.qualifier.lower())
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Unary, IsNull)):
            walk(node.operand)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    if unqualified[0]:
        out.add("*unqualified*")  # never a real binding -> applied last
    return out


def _equi_pair(
    condition: SqlExpr, bound: set, source: _Source
) -> Optional[Tuple[SqlExpr, ColumnRef]]:
    """If ``condition`` is ``boundexpr = new.col`` (either side), return
    ``(bound-side expression, new-side column ref)`` for hash joining."""
    if not (isinstance(condition, Binary) and condition.op == "="):
        return None
    for bound_side, new_side in (
        (condition.left, condition.right),
        (condition.right, condition.left),
    ):
        if not isinstance(new_side, ColumnRef):
            continue
        if (new_side.qualifier or "").lower() != source.binding.lower():
            continue
        if new_side.name.lower() not in source.colmap:
            continue
        deps = _bindings_of(bound_side)
        if deps and deps <= bound:
            return (bound_side, new_side)
    return None


def _index(
    source: _Source, keys: List[Tuple[SqlExpr, ColumnRef]]
) -> Dict[Tuple, List[Tuple]]:
    """The source's rows by the values of the keys' new-side columns."""
    positions = [source.colmap[ref.name.lower()] for _expr, ref in keys]
    index: Dict[Tuple, List[Tuple]] = {}
    for row in source.rows:
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


def _item_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    return f"col{position + 1}"

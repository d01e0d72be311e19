"""The Database facade: catalog + SQL entry point.

``Database.execute`` accepts one SQL statement (text) and dispatches to
the executor; ``execute_script`` runs a ``;``-separated script — which
is exactly what the SQL backend feeds it.  Views are stored as parsed
SELECTs and expanded on reference.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import SqlExecutionError
from .executor import QueryResult, RowEnv, SelectExecutor
from .functions import FunctionRegistry, default_functions
from .parser import parse_sql, parse_sql_script
from .sqlast import (
    CreateTable,
    CreateView,
    Delete,
    Drop,
    Insert,
    Select,
    Update,
)
from .table import Column, Table
from .values import SqlType

__all__ = ["Database"]


class Database:
    """An in-memory relational database with a SQL interface."""

    def __init__(self, functions: Optional[FunctionRegistry] = None):
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, Select] = {}
        self.functions = functions or default_functions()

    # -- catalog ---------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[Column]) -> Table:
        key = name.lower()
        if key in self._tables or key in self._views:
            raise SqlExecutionError(f"table or view {name} already exists")
        table = Table(name, columns)
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SqlExecutionError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def table_names(self) -> List[str]:
        return [t.name for t in self._tables.values()]

    def resolve(self, name: str) -> Table:
        """A table, or a view materialized on the fly."""
        key = name.lower()
        if key in self._tables:
            return self._tables[key]
        if key in self._views:
            result = self._select(self._views[key])
            columns = [Column(c, _infer_type(result, i)) for i, c in enumerate(result.columns)]
            view_table = Table(name, columns)
            view_table.insert_many(result.rows)
            return view_table
        raise SqlExecutionError(f"no such table or view {name!r}")

    # -- SQL entry points --------------------------------------------------
    def execute(self, sql: str) -> Union[QueryResult, int, None]:
        """Run one statement.

        Returns a :class:`QueryResult` for SELECT, a row count for
        INSERT/DELETE, and ``None`` for DDL.
        """
        return self._dispatch(parse_sql(sql))

    def execute_script(self, sql: str) -> List[Union[QueryResult, int, None]]:
        """Run a ``;``-separated script; returns one result per statement."""
        return [self._dispatch(s) for s in parse_sql_script(sql)]

    def query(self, sql: str) -> QueryResult:
        result = self.execute(sql)
        if not isinstance(result, QueryResult):
            raise SqlExecutionError("query() expects a SELECT statement")
        return result

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, statement) -> Union[QueryResult, int, None]:
        if isinstance(statement, Select):
            return self._select(statement)
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, CreateTable):
            return self._create_table(statement)
        if isinstance(statement, CreateView):
            return self._create_view(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, Delete):
            return self._delete(statement)
        if isinstance(statement, Drop):
            return self._drop(statement)
        raise SqlExecutionError(f"unsupported statement {type(statement).__name__}")

    def _select(self, select: Select) -> QueryResult:
        executor = SelectExecutor(self.resolve, self.functions)
        return executor.execute(select)

    def _insert(self, insert: Insert) -> int:
        table = self.table(insert.table)
        if insert.columns:
            positions = [table.column_index(c) for c in insert.columns]
            if len(set(positions)) != len(positions):
                raise SqlExecutionError("duplicate columns in INSERT")
        else:
            positions = list(range(len(table.columns)))

        def place(values: Sequence[Any]) -> List[Any]:
            if len(values) != len(positions):
                raise SqlExecutionError(
                    f"INSERT supplies {len(values)} values for {len(positions)} "
                    f"columns"
                )
            row: List[Any] = [None] * len(table.columns)
            for position, value in zip(positions, values):
                row[position] = value
            return row

        if insert.select is not None:
            result = self._select(insert.select)
            count = 0
            for row in result.rows:
                table.insert(place(row))
                count += 1
            return count
        executor = SelectExecutor(self.resolve, self.functions)
        empty = RowEnv({})
        count = 0
        for value_tuple in insert.values:
            values = [executor._eval(e, empty) for e in value_tuple]
            table.insert(place(values))
            count += 1
        return count

    def _create_table(self, ddl: CreateTable) -> None:
        if ddl.if_not_exists and ddl.name.lower() in self._tables:
            return None
        columns = [Column(c.name, SqlType.parse(c.type_name)) for c in ddl.columns]
        self.create_table(ddl.name, columns)
        return None

    def _create_view(self, ddl: CreateView) -> None:
        key = ddl.name.lower()
        if key in self._tables or key in self._views:
            raise SqlExecutionError(f"table or view {ddl.name} already exists")
        self._views[key] = ddl.select
        return None

    def _update(self, update: Update) -> int:
        from .values import check_type

        table = self.table(update.table)
        executor = SelectExecutor(self.resolve, self.functions)
        colmap = {c.name.lower(): i for i, c in enumerate(table.columns)}
        positions = [table.column_index(col) for col, _expr in update.assignments]
        changed = 0
        new_rows = []
        for row in table.rows:
            env = RowEnv({table.name: (colmap, row)})
            hit = update.where is None or executor._eval(update.where, env) is True
            if not hit:
                new_rows.append(row)
                continue
            updated = list(row)
            for position, (column, expr) in zip(positions, update.assignments):
                value = executor._eval(expr, env)
                updated[position] = check_type(
                    table.columns[position].sql_type, value, table.name, column
                )
            new_rows.append(tuple(updated))
            changed += 1
        table.rows = new_rows
        return changed

    def _delete(self, delete: Delete) -> int:
        table = self.table(delete.table)
        if delete.where is None:
            count = len(table.rows)
            table.truncate()
            return count
        executor = SelectExecutor(self.resolve, self.functions)
        colmap = {c.name.lower(): i for i, c in enumerate(table.columns)}
        kept = []
        removed = 0
        for row in table.rows:
            env = RowEnv({table.name: (colmap, row)})
            if executor._eval(delete.where, env) is True:
                removed += 1
            else:
                kept.append(row)
        table.rows = kept
        return removed

    def _drop(self, drop: Drop) -> None:
        key = drop.name.lower()
        store = self._views if drop.kind == "VIEW" else self._tables
        if key not in store:
            if drop.if_exists:
                return None
            raise SqlExecutionError(f"no such {drop.kind.lower()} {drop.name!r}")
        del store[key]
        return None


def _infer_type(result: QueryResult, index: int) -> SqlType:
    """Best-effort column type for a materialized view."""
    from ..model.time import TimePoint

    for row in result.rows:
        value = row[index]
        if value is None:
            continue
        if isinstance(value, TimePoint):
            return SqlType.TIME
        if isinstance(value, str):
            return SqlType.TEXT
        if isinstance(value, int):
            return SqlType.INTEGER
        return SqlType.REAL
    return SqlType.REAL

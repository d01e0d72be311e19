"""The Database facade: catalog + SQL entry point.

Tables are made by :meth:`Database.create_table` and filled through
:class:`~repro.sqlengine.table.Table`.  ``Database.execute`` accepts
one SQL statement (text) and dispatches to the executor;
``execute_script`` runs a ``;``-separated script — which is exactly
what the SQL backend feeds it.  Views are stored as parsed SELECTs and
expanded on reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import SqlExecutionError
from .executor import QueryResult, SelectExecutor
from .functions import FunctionRegistry, default_functions
from .parser import parse_sql, parse_sql_script
from .sqlast import CreateView, Insert, Select
from .table import Column, Table

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

    def table_names(self) -> List[str]:
        return [t.name for t in self._tables.values()]

    def resolve(self, name: str) -> Union[Table, QueryResult]:
        """A table, or a view's rows computed on the fly (both have
        ``column_names`` and ``rows``)."""
        key = name.lower()
        if key in self._tables:
            return self._tables[key]
        if key in self._views:
            return self._select(self._views[key])
        raise SqlExecutionError(f"no such table or view {name!r}")

    # -- SQL entry points --------------------------------------------------
    def execute(self, sql: str) -> Union[QueryResult, int, None]:
        """Run one statement.

        Returns a :class:`QueryResult` for SELECT, a row count for
        INSERT, and ``None`` for CREATE VIEW.
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
        return self._create_view(statement)

    def _select(self, select: Select) -> QueryResult:
        executor = SelectExecutor(self.resolve, self.functions)
        return executor.execute(select)

    def _insert(self, insert: Insert) -> int:
        table = self.table(insert.table)
        positions = [table.column_index(c) for c in insert.columns]
        if len(set(positions)) != len(positions):
            raise SqlExecutionError("duplicate columns in INSERT")
        rows = self._select(insert.select).rows
        for values in rows:
            if len(values) != len(positions):
                raise SqlExecutionError(
                    f"INSERT supplies {len(values)} values for {len(positions)} "
                    f"columns"
                )
            row: List = [None] * len(table.columns)
            for position, value in zip(positions, values):
                row[position] = value
            table.insert(row)
        return len(rows)

    def _create_view(self, ddl: CreateView) -> None:
        key = ddl.name.lower()
        if key in self._tables or key in self._views:
            raise SqlExecutionError(f"table or view {ddl.name} already exists")
        self._views[key] = ddl.select
        return None

"""A from-scratch mini relational engine (the DBMS target of Section 5.1).

Runs the dialect the SQL backend prints and nothing else: ``INSERT
INTO t(cols) SELECT …`` over comma joins and ``LEFT JOIN … ON``,
``WHERE`` conjunctions of ``=`` and ``IS NULL``, ``GROUP BY``,
arithmetic, ``POW`` and other registered function calls, tabular
functions in ``FROM``, and ``CREATE VIEW … AS SELECT``.  Tables are
made by :meth:`Database.create_table`, with a native TIME column type.
Any other statement or clause is a ``SqlSyntaxError`` naming it
(:data:`~repro.sqlengine.parser.REFUSED`).
"""

from .database import Database
from .executor import QueryResult, SelectExecutor
from .functions import FunctionRegistry, TabularFunction, default_functions
from .parser import parse_sql, parse_sql_script
from .table import Column, Table
from .values import SqlType, sql_repr

__all__ = [
    "Database",
    "QueryResult",
    "SelectExecutor",
    "FunctionRegistry",
    "TabularFunction",
    "default_functions",
    "parse_sql",
    "parse_sql_script",
    "Column",
    "Table",
    "SqlType",
    "sql_repr",
]

"""AST for the SQL dialect emitted by the SQL backend.

The dialect covers exactly what Section 5.1 needs — ``INSERT INTO …
SELECT`` with joins, ``GROUP BY`` aggregation, and tabular functions in
``FROM`` — plus ``CREATE VIEW … AS SELECT`` for intermediates held as
views (Section 6).  Tables are made by ``Database.create_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

__all__ = [
    "SqlExpr",
    "Literal",
    "ColumnRef",
    "Unary",
    "Binary",
    "FuncCall",
    "IsNull",
    "SelectItem",
    "TableRef",
    "TableFuncRef",
    "Join",
    "Select",
    "Insert",
    "CreateView",
]


class SqlExpr:
    """Base class of SQL scalar expressions."""


@dataclass(frozen=True)
class Literal(SqlExpr):
    value: Any  # None = NULL


@dataclass(frozen=True)
class ColumnRef(SqlExpr):
    name: str
    qualifier: Optional[str] = None  # table alias

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Unary(SqlExpr):
    op: str  # '-'
    operand: SqlExpr


@dataclass(frozen=True)
class Binary(SqlExpr):
    op: str  # arithmetic + - * /, '=', AND
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True)
class FuncCall(SqlExpr):
    name: str
    args: Tuple[SqlExpr, ...]
    star: bool = False  # COUNT(*)

    def __init__(self, name: str, args=(), star: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "star", star)


@dataclass(frozen=True)
class IsNull(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A plain table (or view) in FROM, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class TableFuncRef:
    """A tabular function in FROM: ``STL_T(GDP, 4) alias``."""

    name: str
    args: Tuple[Any, ...]  # table names (str) or Literal scalars
    alias: Optional[str] = None

    def __init__(self, name: str, args=(), alias=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "alias", alias)

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """A ``LEFT [OUTER] JOIN … ON`` clause attached to a FROM item."""

    source: Union[TableRef, TableFuncRef]
    condition: SqlExpr


@dataclass(frozen=True)
class Select:
    items: Tuple[SelectItem, ...]  # empty tuple means SELECT *
    sources: Tuple[Union[TableRef, TableFuncRef], ...]
    joins: Tuple[Join, ...] = ()
    where: Optional[SqlExpr] = None
    group_by: Tuple[SqlExpr, ...] = ()

    def __init__(self, items, sources, joins=(), where=None, group_by=()):
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "joins", tuple(joins))
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "group_by", tuple(group_by))


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO table(columns) SELECT …``."""

    table: str
    columns: Tuple[str, ...]
    select: Select

    def __init__(self, table, columns, select):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "select", select)


@dataclass(frozen=True)
class CreateView:
    name: str
    select: Select

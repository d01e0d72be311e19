"""Tables: the storage layer of the mini relational engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple

from ..errors import SqlExecutionError
from .values import SqlType, check_type

__all__ = ["Column", "Table"]


@dataclass(frozen=True)
class Column:
    name: str
    sql_type: SqlType


class Table:
    """A named, typed, ordered bag of rows."""

    def __init__(self, name: str, columns: Sequence[Column]):
        names = [c.name for c in columns]
        if len(set(n.lower() for n in names)) != len(names):
            raise SqlExecutionError(f"duplicate column names in table {name}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.rows: List[Tuple[Any, ...]] = []

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise SqlExecutionError(f"table {self.name} has no column {name!r}")

    def insert(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise SqlExecutionError(
                f"table {self.name} has {len(self.columns)} columns, row has "
                f"{len(row)}"
            )
        checked = tuple(
            check_type(col.sql_type, value, self.name, col.name)
            for col, value in zip(self.columns, row)
        )
        self.rows.append(checked)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def insert_columns(self, columns: Sequence[Sequence[Any]]) -> int:
        """Append the rows whose ``j``-th field is ``columns[j][i]``,
        checked a column at a time — :meth:`insert_many` without a row
        tuple built before the checked one."""
        if len(columns) != len(self.columns):
            raise SqlExecutionError(
                f"table {self.name} has {len(self.columns)} columns, "
                f"{len(columns)} columns given"
            )
        if len(set(map(len, columns))) > 1:
            raise SqlExecutionError(f"columns for table {self.name} differ in length")
        checked = [
            [check_type(col.sql_type, value, self.name, col.name) for value in values]
            for col, values in zip(self.columns, columns)
        ]
        rows = list(zip(*checked))
        self.rows.extend(rows)
        return len(rows)

    def __len__(self) -> int:
        return len(self.rows)

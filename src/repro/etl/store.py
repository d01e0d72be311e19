"""Row storage the ETL engine reads from and writes to.

Pentaho flows read/write database tables; our :class:`RowStore` plays
that role, with converters to and from cubes so the dispatcher can move
data between engines.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from ..errors import EtlError
from ..model.cube import Cube, CubeSchema

__all__ = ["RowStore"]

Row = Dict[str, Any]


class RowStore:
    """Named tables of dict-rows with a declared field order."""

    def __init__(self):
        self._fields: Dict[str, List[str]] = {}
        self._rows: Dict[str, List[Row]] = {}

    def create(self, name: str, fields: Sequence[str]) -> None:
        if name in self._fields:
            raise EtlError(f"table {name} already exists in the store")
        self._fields[name] = list(fields)
        self._rows[name] = []

    def ensure(self, name: str, fields: Sequence[str]) -> None:
        if name not in self._fields:
            self.create(name, fields)

    def fields(self, name: str) -> List[str]:
        try:
            return self._fields[name]
        except KeyError:
            raise EtlError(f"no table {name!r} in the store") from None

    def rows(self, name: str) -> List[Row]:
        if name not in self._rows:
            raise EtlError(f"no table {name!r} in the store")
        return self._rows[name]

    def write(self, name: str, rows: Iterable[Row]) -> int:
        if name not in self._rows:
            raise EtlError(f"no table {name!r} in the store")
        fields = self._fields[name]
        count = 0
        for row in rows:
            missing = [f for f in fields if f not in row]
            if missing:
                raise EtlError(f"row for {name} is missing fields {missing}")
            self._rows[name].append({f: row[f] for f in fields})
            count += 1
        return count

    def truncate(self, name: str) -> None:
        self.rows(name).clear()

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def names(self) -> List[str]:
        return list(self._fields)

    # -- cube bridging -----------------------------------------------------
    def load_cube(self, cube: Cube) -> None:
        """Create (or replace) a table holding a cube's tuples, in
        ``to_rows()`` order, read off the cube a column at a time."""
        name = cube.schema.name
        fields = list(cube.schema.columns)
        self._fields[name] = fields
        self._rows[name] = [dict(zip(fields, row)) for row in zip(*cube.to_columns())]

    def to_cube(self, schema: CubeSchema) -> Cube:
        """Read a table back as a cube (fields must match the schema)."""
        fields = self.fields(schema.name)
        expected = list(schema.columns)
        if fields != expected:
            raise EtlError(
                f"table {schema.name} fields {fields} do not match cube "
                f"columns {expected}"
            )
        rows = self.rows(schema.name)
        columns = [[row[field] for row in rows] for field in fields]
        return Cube.from_value_columns(
            schema, columns, lambda: (tuple(map(row.__getitem__, fields)) for row in rows)
        )

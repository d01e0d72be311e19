"""A from-scratch dataframe engine — the R ``data.frame`` substitute.

Columns are named lists of equal length.  The operations mirror the
ones the paper's R listings use: ``merge`` (inner join on key columns),
element-wise column arithmetic, column addition/removal, group-by
aggregation, sorting, and whole-frame transforms (for ``stl``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import FrameError
from ..model.time import TimePoint

__all__ = ["DataFrame"]


class DataFrame:
    """An ordered collection of named, equal-length columns."""

    def __init__(self, columns: Optional[Dict[str, Sequence[Any]]] = None):
        self._data: Dict[str, List[Any]] = {}
        if columns:
            length = None
            for name, values in columns.items():
                values = list(values)
                if length is None:
                    length = len(values)
                elif len(values) != length:
                    raise FrameError(
                        f"column {name!r} has length {len(values)}, expected {length}"
                    )
                self._data[name] = values

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence[Any]]) -> "DataFrame":
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        for row in rows:
            if len(row) != len(names):
                raise FrameError(f"row {row!r} does not match columns {names}")
            for name, value in zip(names, row):
                columns[name].append(value)
        return cls(columns)

    # -- basics -----------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._data)

    @property
    def nrow(self) -> int:
        if not self._data:
            return 0
        return len(next(iter(self._data.values())))

    def column(self, name: str) -> List[Any]:
        try:
            return self._data[name]
        except KeyError:
            raise FrameError(f"no column {name!r} (have {self.names})") from None

    def __getitem__(self, name: str) -> List[Any]:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def rows(self) -> List[Tuple[Any, ...]]:
        names = self.names
        return [
            tuple(self._data[n][i] for n in names) for i in range(self.nrow)
        ]

    def copy(self) -> "DataFrame":
        return DataFrame({n: list(v) for n, v in self._data.items()})

    # -- column manipulation ---------------------------------------------------
    def _check_length(self, name: str, values: List[Any]) -> None:
        """Every mutation validates: columns stay equal-length.

        The first column of an empty frame establishes the row count;
        anything after that must match it exactly.
        """
        if self._data and len(values) != self.nrow:
            raise FrameError(
                f"column {name!r} has length {len(values)}, frame has "
                f"{self.nrow} rows"
            )

    def assign(self, name: str, values: Sequence[Any]) -> "DataFrame":
        """A new frame with column ``name`` set to ``values``."""
        values = list(values)
        self._check_length(name, values)
        out = self.copy()
        out._data[name] = values
        return out

    def add_column(self, name: str, values: Sequence[Any]) -> "DataFrame":
        """Add or replace a column *in place* (R's ``df$x <- …``).

        Raises :class:`FrameError` on a length mismatch — including on
        frames built from an empty dict that already gained columns.
        Returns ``self`` for chaining.
        """
        values = list(values)
        self._check_length(name, values)
        self._data[name] = values
        return self

    def select(self, names: Sequence[str]) -> "DataFrame":
        return DataFrame({n: list(self.column(n)) for n in names})

    def drop(self, names: Sequence[str]) -> "DataFrame":
        doomed = set(names)
        missing = doomed - set(self._data)
        if missing:
            raise FrameError(f"cannot drop missing columns {sorted(missing)}")
        return DataFrame(
            {n: list(v) for n, v in self._data.items() if n not in doomed}
        )

    def rename(self, mapping: Dict[str, str]) -> "DataFrame":
        out: Dict[str, List[Any]] = {}
        for name, values in self._data.items():
            out[mapping.get(name, name)] = list(values)
        if len(out) != len(self._data):
            raise FrameError(f"rename would collide columns: {mapping}")
        return DataFrame(out)

    # -- row manipulation -----------------------------------------------------
    def filter_rows(self, mask: Sequence[bool]) -> "DataFrame":
        if len(mask) != self.nrow:
            raise FrameError("mask length does not match row count")
        return DataFrame(
            {
                n: [v for v, keep in zip(values, mask) if keep]
                for n, values in self._data.items()
            }
        )

    def sort_by(self, names: Sequence[str]) -> "DataFrame":
        order = sorted(range(self.nrow), key=lambda i: _key(self, names, i))
        return DataFrame(
            {n: [values[i] for i in order] for n, values in self._data.items()}
        )

    # -- relational operations -----------------------------------------------------
    def merge(self, other: "DataFrame", by: Sequence[str]) -> "DataFrame":
        """Inner join on the ``by`` columns — R's ``merge(x, y, by=…)``.

        Key columns appear once; non-key columns of both sides follow
        (left first).  Colliding non-key names get ``.x``/``.y``
        suffixes like R.
        """
        for name in by:
            if name not in self or name not in other:
                raise FrameError(f"merge key {name!r} missing from an operand")
        left_extra = [n for n in self.names if n not in by]
        right_extra = [n for n in other.names if n not in by]
        renames: Dict[str, Tuple[str, str]] = {}
        for name in set(left_extra) & set(right_extra):
            renames[name] = (f"{name}.x", f"{name}.y")
        out_names = (
            list(by)
            + [renames.get(n, (n, n))[0] for n in left_extra]
            + [renames.get(n, (n, n))[1] for n in right_extra]
        )
        index: Dict[Tuple, List[int]] = {}
        for j in range(other.nrow):
            key = tuple(other.column(n)[j] for n in by)
            index.setdefault(key, []).append(j)
        rows = []
        for i in range(self.nrow):
            key = tuple(self.column(n)[i] for n in by)
            for j in index.get(key, ()):
                rows.append(
                    key
                    + tuple(self.column(n)[i] for n in left_extra)
                    + tuple(other.column(n)[j] for n in right_extra)
                )
        return DataFrame.from_rows(out_names, rows)

    def group_aggregate(
        self,
        by: Sequence[str],
        value_column: str,
        func: Callable[[List[float]], float],
        out_name: Optional[str] = None,
        key_funcs: Optional[Dict[str, Callable[[Any], Any]]] = None,
    ) -> "DataFrame":
        """Group by (optionally transformed) key columns and aggregate.

        ``key_funcs`` maps a key column to a transform applied before
        grouping (the R idiom ``aggregate(v ~ quarter(d) + r, …)``).
        """
        key_funcs = key_funcs or {}
        groups: Dict[Tuple, List[float]] = {}
        for i in range(self.nrow):
            key = tuple(
                key_funcs.get(n, _identity)(self.column(n)[i]) for n in by
            )
            groups.setdefault(key, []).append(self.column(value_column)[i])
        out_name = out_name or value_column
        rows = [key + (func(bag),) for key, bag in groups.items()]
        return DataFrame.from_rows(list(by) + [out_name], rows)

    def apply_table(
        self, func: Callable[["DataFrame"], "DataFrame"]
    ) -> "DataFrame":
        """Whole-frame transform (the ``stl`` black-box pattern)."""
        result = func(self)
        if not isinstance(result, DataFrame):
            raise FrameError("table transform must return a DataFrame")
        return result

    # -- comparison / display -------------------------------------------------------
    def equals(self, other: "DataFrame") -> bool:
        return self.names == other.names and sorted(
            self.rows(), key=_row_key
        ) == sorted(other.rows(), key=_row_key)

    def head(self, n: int = 6) -> str:
        names = self.names
        lines = ["\t".join(names)]
        for row in self.rows()[:n]:
            lines.append("\t".join(str(v) for v in row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DataFrame({self.nrow} rows x {len(self._data)} cols: {self.names})"


def _identity(value: Any) -> Any:
    return value


def _sortable(value: Any):
    if value is None:
        return (0, "")
    if isinstance(value, TimePoint):
        return (1, value.freq.value, value.ordinal)
    if isinstance(value, str):
        return (2, value)
    return (1, "", value)


def _key(frame: DataFrame, names: Sequence[str], i: int):
    return tuple(_sortable(frame.column(n)[i]) for n in names)


def _row_key(row: Tuple):
    return tuple(_sortable(v) for v in row)

"""A numpy-backed matrix engine — the Matlab substitute of Section 5.2.

Matlab scripts in the paper treat cubes as matrices with *positional*
columns (``tmp[ ; 3] .* tmp[ ; 4]``).  :class:`Matrix` reproduces that
model: a 2-D object array addressed by 1-based column positions, with
``join`` (composition on key columns), element-wise arithmetic between
column vectors, and horizontal composition.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import MatrixError

__all__ = ["Matrix"]


class Matrix:
    """A 2-D value matrix with 1-based positional column access."""

    def __init__(self, data: Sequence[Sequence[Any]]):
        rows = [tuple(row) for row in data]
        if not rows:
            # Matrix([]) and from_rows() of an exhausted iterator agree
            # on the 0×0 matrix
            self._array = np.empty((0, 0), dtype=object)
            return
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise MatrixError("ragged rows in matrix literal")
        self._array = np.empty((len(rows), width), dtype=object)
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                self._array[i, j] = value

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Matrix":
        out = cls.__new__(cls)
        out._array = array
        return out

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Any]]) -> "Matrix":
        return cls(list(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]]) -> "Matrix":
        """The matrix whose column ``j`` is ``columns[j]``, filled a
        column at a time; no rows is the 0×0 matrix, as in
        :meth:`from_rows`."""
        n_rows = len(columns[0]) if columns else 0
        if not n_rows:
            return cls([])
        if any(len(column) != n_rows for column in columns):
            raise MatrixError("ragged columns in matrix")
        array = np.empty((n_rows, len(columns)), dtype=object)
        for j, column in enumerate(columns):
            array[:, j] = column
        return cls._wrap(array)

    def columns(self) -> List[List[Any]]:
        """Each column as a list of its values, first to last."""
        return [self._array[:, j].tolist() for j in range(self.ncol)]

    # -- shape -------------------------------------------------------------
    @property
    def nrow(self) -> int:
        return self._array.shape[0]

    @property
    def ncol(self) -> int:
        return self._array.shape[1]

    def rows(self) -> List[Tuple[Any, ...]]:
        return [tuple(row) for row in self._array]

    # -- column access (1-based, like Matlab) ------------------------------------
    def col(self, position: int) -> np.ndarray:
        self._check_col(position)
        return self._array[:, position - 1]

    def _check_col(self, position: int) -> None:
        if not 1 <= position <= self.ncol:
            raise MatrixError(
                f"column {position} out of range 1..{self.ncol}"
            )

    def with_column(self, position: int, values: Sequence[Any]) -> "Matrix":
        """A new matrix with column ``position`` set (appending if it is
        ``ncol + 1`` — the Matlab ``tmp[;5] = …`` idiom)."""
        values = np.asarray(list(values), dtype=object)
        if len(values) != self.nrow:
            raise MatrixError("column length does not match row count")
        if position == self.ncol + 1:
            return Matrix._wrap(np.column_stack([self._array, values]))
        self._check_col(position)
        array = self._array.copy()
        array[:, position - 1] = values
        return Matrix._wrap(array)

    def select(self, positions: Sequence[int]) -> "Matrix":
        """Horizontal composition ``[m[;1] m[;2] m[;5]]``."""
        for p in positions:
            self._check_col(p)
        return Matrix._wrap(self._array[:, [p - 1 for p in positions]].copy())

    # -- element-wise arithmetic (Matlab's .* ./ .+ .-) -----------------------------
    def elementwise(
        self, op: str, left_col: int, right_col: int
    ) -> np.ndarray:
        left = self.col(left_col).astype(float)
        right = self.col(right_col).astype(float)
        return _apply_elementwise(op, left, right)

    # -- join (the Matlab join(A, keys, B, keys) of the paper) ----------------------
    def join(
        self,
        other: "Matrix",
        self_keys: Sequence[int],
        other_keys: Sequence[int],
    ) -> "Matrix":
        """Inner join; output columns are all of self followed by the
        non-key columns of other, preserving self's order."""
        if len(self_keys) != len(other_keys):
            raise MatrixError("join key lists differ in length")
        index: Dict[Tuple, List[int]] = {}
        for j in range(other.nrow):
            key = tuple(other._array[j, k - 1] for k in other_keys)
            index.setdefault(key, []).append(j)
        other_extra = [c for c in range(1, other.ncol + 1) if c not in other_keys]
        rows = []
        for i in range(self.nrow):
            key = tuple(self._array[i, k - 1] for k in self_keys)
            for j in index.get(key, ()):
                rows.append(
                    tuple(self._array[i])
                    + tuple(other._array[j, c - 1] for c in other_extra)
                )
        if not rows:
            return Matrix._wrap(
                np.empty((0, self.ncol + len(other_extra)), dtype=object)
            )
        return Matrix.from_rows(rows)

    # -- grouping and whole-matrix transforms -----------------------------------------
    def group_aggregate(
        self,
        key_cols: Sequence[int],
        value_col: int,
        func: Callable[[List[float]], float],
        key_funcs: Dict[int, Callable[[Any], Any]] = None,
    ) -> "Matrix":
        key_funcs = key_funcs or {}
        groups: Dict[Tuple, List[float]] = {}
        for i in range(self.nrow):
            key = tuple(
                key_funcs.get(k, _identity)(self._array[i, k - 1])
                for k in key_cols
            )
            groups.setdefault(key, []).append(float(self._array[i, value_col - 1]))
        rows = [key + (func(bag),) for key, bag in groups.items()]
        if not rows:
            return Matrix._wrap(np.empty((0, len(key_cols) + 1), dtype=object))
        return Matrix.from_rows(rows)

    def sort_by(self, key_cols: Sequence[int]) -> "Matrix":
        def keyfn(row):
            return tuple(_sortable(row[k - 1]) for k in key_cols)

        return Matrix.from_rows(sorted(self.rows(), key=keyfn)) if self.nrow else self

    def equals(self, other: "Matrix") -> bool:
        if self.nrow != other.nrow or self.ncol != other.ncol:
            return False
        mine = sorted(self.rows(), key=lambda r: tuple(_sortable(v) for v in r))
        theirs = sorted(other.rows(), key=lambda r: tuple(_sortable(v) for v in r))
        return mine == theirs

    def __repr__(self) -> str:
        return f"Matrix({self.nrow}x{self.ncol})"


def _apply_elementwise(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if np.any(right == 0):
            raise MatrixError("element-wise division by zero")
        return left / right
    if op == "^":
        return left**right
    raise MatrixError(f"unknown element-wise operator {op!r}")


def _identity(value: Any) -> Any:
    return value


def _sortable(value: Any):
    from ..model.time import TimePoint

    if isinstance(value, TimePoint):
        return (1, value.freq.value, value.ordinal)
    if isinstance(value, str):
        return (2, value)
    return (1, "", float(value))

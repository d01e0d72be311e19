"""Cubes: the central data structure of the Matrix model.

A cube is a *partial function* ``F : X1 × … × Xn -> Y`` (Section 3).
:class:`CubeSchema` describes the intension (name, dimensions, measure)
and :class:`Cube` holds an extension: a sparse mapping from dimension
tuples to a numeric measure.  The functional nature of cubes — at most
one measure per dimension tuple — is the invariant the paper's egds
enforce; :meth:`Cube.set` guards it at the model level.  Two versions
of one cube are compared by :meth:`Cube.same_rows`, which is how an
``update`` decides that an input stayed clean or an output may keep
its stored version; nothing here diffs them row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import CubeError, SchemaError
from .time import TimePoint
from .types import DimKind, DimType, validate_value

__all__ = [
    "Dimension", "CubeSchema", "Cube", "as_list", "column_order", "take",
]

DimTuple = Tuple[Any, ...]

_MISSING = object()


def _same_measure(a: float, b: float) -> bool:
    """Exact measure equality with NaN treated as equal to itself.

    ``float('nan') != float('nan')`` would make every NaN measure look
    permanently changed, so ``update`` would recompute a cube that holds
    one on every cycle.  NaN↔NaN is "unchanged"; NaN↔value is a change.
    """
    return a == b or (a != a and b != b)


def _close(a: float, b: float, rel_tol: float, abs_tol: float) -> bool:
    """``math.isclose`` with the same NaN↔NaN-is-equal convention."""
    if a != a or b != b:
        return a != a and b != b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


@dataclass(frozen=True)
class Dimension:
    """A named dimension with a typed domain."""

    name: str
    dtype: DimType

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid dimension name: {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name}: {self.dtype}"


@dataclass(frozen=True)
class CubeSchema:
    """The intension of a cube: its name, dimensions and measure name."""

    name: str
    dimensions: Tuple[Dimension, ...]
    measure: str = "value"

    def __init__(self, name: str, dimensions: Sequence[Dimension], measure: str = "value"):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "measure", measure)
        self.__post_init__()

    def __post_init__(self):
        if not self.name or not all(c.isalnum() or c == "_" for c in self.name):
            raise SchemaError(f"invalid cube name: {self.name!r}")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate dimension names in cube {self.name}: {names}")
        if self.measure in names:
            raise SchemaError(
                f"measure name {self.measure!r} collides with a dimension in {self.name}"
            )

    @property
    def arity(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    @property
    def dim_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def columns(self) -> Tuple[str, ...]:
        """Dimension names followed by the measure name (the relational view)."""
        return self.dim_names + (self.measure,)

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SchemaError(f"cube {self.name} has no dimension {name!r}")

    def dim_index(self, name: str) -> int:
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise SchemaError(f"cube {self.name} has no dimension {name!r}")

    @property
    def time_dimensions(self) -> Tuple[Dimension, ...]:
        return tuple(d for d in self.dimensions if d.dtype.is_time)

    @property
    def is_time_series(self) -> bool:
        """A cube whose only dimension is a time dimension (Section 3)."""
        return self.arity == 1 and self.dimensions[0].dtype.is_time

    def sole_time_dimension(self) -> Dimension:
        """The unique time dimension; raises if there is not exactly one."""
        times = self.time_dimensions
        if len(times) != 1:
            raise SchemaError(
                f"cube {self.name} has {len(times)} time dimensions, expected exactly 1"
            )
        return times[0]

    def same_dimensions(self, other: "CubeSchema") -> bool:
        """Same dimension names and types, in the same order.

        This is the compatibility condition for vectorial operators.
        """
        return self.dimensions == other.dimensions

    def renamed(self, new_name: str) -> "CubeSchema":
        return CubeSchema(new_name, self.dimensions, self.measure)

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dimensions)
        return f"{self.name}({dims}) -> {self.measure}"


class Cube:
    """A sparse cube instance: dimension tuples mapped to measure values.

    The mapping enforces functionality: setting a different measure for
    an existing dimension tuple raises :class:`CubeError` unless
    ``overwrite=True`` is requested.
    """

    def __init__(self, schema: CubeSchema, data: Optional[Dict[DimTuple, float]] = None):
        self.schema = schema
        # dimension tuple -> measure; None on a cube built from columns
        # until something looks a key up (see _data)
        self._dict: Optional[Dict[DimTuple, float]] = {}
        # cached columnar store of this cube's rows (see
        # chase.instance.store_for_cube); shared by copy(), dropped on
        # mutation — warm chase runs adopt it instead of re-encoding
        self._colstore = None
        # (bytes, sha256) of these rows' canonical serialization, made
        # at most once (see model.io.canonical_bytes); same sharing
        # rules as the store
        self._canonical = None
        # (dictionaries, codes, measures) this cube was built from (see
        # from_columns): its rows, in the builder's order; same sharing
        # rules again — store_for_cube drops them once the store holds
        # the rows, so a cube held by columns keeps one of the two
        self._columns = None
        if data:
            for key, value in data.items():
                self.set(key, value)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rows(cls, schema: CubeSchema, rows: Iterable[Sequence[Any]]) -> "Cube":
        """Build a cube from relational rows ``(x1, …, xn, y)``."""
        cube = cls(schema)
        for row in rows:
            row = tuple(row)
            if len(row) != schema.arity + 1:
                raise CubeError(
                    f"row {row!r} has {len(row)} fields, cube {schema.name} "
                    f"expects {schema.arity + 1}"
                )
            cube.set(row[:-1], row[-1])
        return cube

    @classmethod
    def from_columns(
        cls,
        schema: CubeSchema,
        dictionaries: Sequence[Sequence[Any]],
        codes: Sequence[Sequence[int]],
        measures: Sequence[float],
        keys_distinct: bool = False,
    ) -> Optional["Cube"]:
        """Build a cube from dictionary-encoded columns, or None.

        Row ``i`` is ``(dictionaries[0][codes[0][i]], …, measures[i])``
        — the layout of a chase output's column store, whose code and
        measure columns may be NumPy arrays (``int64`` codes, ``float64``
        measures).  The columns *are* the cube: they are kept as given
        (the caller must not change them afterwards) and no dimension
        tuple is built until a key is looked up.  What :meth:`from_rows`
        checks per cell is checked here per *distinct* value: every
        dictionary entry against its dimension type, the measure column
        for being all ``float``, and functionality by counting distinct
        code tuples over dictionaries of distinct values — skipped when
        the caller already knows the rows' keys distinct
        (``keys_distinct``, a column store's ``dims_distinct``).  None
        means the columns are not plainly a cube of this schema; the
        caller then goes through :meth:`from_rows`, which builds it or
        raises the precise error.
        """
        if len(dictionaries) != schema.arity or len(codes) != schema.arity:
            return None
        n_rows = len(measures)
        for dim, values, column in zip(schema.dimensions, dictionaries, codes):
            if len(column) != n_rows or not all(map(dim.dtype.accepts, values)):
                return None
            if n_rows:
                low, high = _bounds(column)
                if not 0 <= low <= high < len(values):
                    return None
        dtype = getattr(measures, "dtype", None)
        if not (
            all(type(value) is float for value in measures)
            if dtype is None
            else dtype == "float64"
        ):
            return None
        if not keys_distinct:
            if any(len(set(values)) != len(values) for values in dictionaries):
                return None
            distinct = len(set(zip(*codes))) if codes else min(n_rows, 1)
            if distinct != n_rows:
                return None
        cube = cls(schema)
        cube._dict = None
        cube._columns = (dictionaries, codes, measures)
        return cube

    @classmethod
    def from_value_columns(
        cls,
        schema: CubeSchema,
        columns: Sequence[Sequence[Any]],
        rows: Callable[[], Iterable[Sequence[Any]]],
    ) -> "Cube":
        """Build a cube from plain value columns — one per dimension,
        then the measure column, row ``i`` across them.

        This is how a target engine hands its result back: each
        dimension column is dictionary-encoded (one code per distinct
        value) and the measures taken as ``float``, as :meth:`set`
        takes them, for :meth:`from_columns` to validate and keep — so
        the cube is written, journalled and loaded into the next target
        by column.  A result with no rows is the empty cube, whatever
        its width.  Anything that is not plainly a cube of ``schema`` —
        and also a column count other than ``arity + 1``, an unhashable
        dimension value, a measure that is not a number, an integer
        dimension holding anything but ``int`` (``1`` and ``1.0`` would
        share a code) — goes through :meth:`from_rows` over ``rows()``,
        the same rows, which builds the cube or raises the precise
        error.
        """
        if not any(map(len, columns)):
            columns = [[] for _ in range(schema.arity + 1)]
        encoded = _encode_values(schema, columns)
        cube = None if encoded is None else cls.from_columns(schema, *encoded)
        return cube if cube is not None else cls.from_rows(schema, rows())

    @classmethod
    def from_series(
        cls, schema: CubeSchema, start: TimePoint, values: Sequence[float]
    ) -> "Cube":
        """Build a time-series cube from consecutive values starting at ``start``."""
        if not schema.is_time_series:
            raise CubeError(f"cube {schema.name} is not a time series")
        cube = cls(schema)
        for i, value in enumerate(values):
            cube.set((start + i,), value)
        return cube

    # -- mapping protocol ------------------------------------------------
    @property
    def _data(self) -> Dict[DimTuple, float]:
        """The keyed view of the rows.  A cube built from columns
        decodes it on the first keyed lookup, iteration or mutation,
        from its columns or, once those are dropped, its store;
        ``len``, ``copy``, the column store and the CSV writer work on
        whichever is present and never ask for it."""
        data = self._dict
        if data is None:
            data = self._dict = self._decode()
        return data

    def _decode(self) -> Dict[DimTuple, float]:
        dictionaries, codes, measures = self.encoded()
        columns = [
            map(values.__getitem__, as_list(column))
            for values, column in zip(dictionaries, codes)
        ]
        keys = zip(*columns) if columns else [()] * len(measures)
        return dict(zip(keys, as_list(measures)))

    def set(self, key: Sequence[Any], value: float, overwrite: bool = False) -> None:
        """Associate measure ``value`` with dimension tuple ``key``."""
        key = tuple(key)
        if len(key) != self.schema.arity:
            raise CubeError(
                f"dimension tuple {key!r} has arity {len(key)}, cube "
                f"{self.schema.name} expects {self.schema.arity}"
            )
        for dim, component in zip(self.schema.dimensions, key):
            validate_value(dim.dtype, component, f"dimension {dim.name} of {self.schema.name}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CubeError(
                f"measure for {self.schema.name}{key!r} must be numeric, got {value!r}"
            )
        data = self._data
        if not overwrite and key in data and data[key] != value:
            raise CubeError(
                f"functional violation on {self.schema.name}{key!r}: "
                f"{data[key]!r} vs {value!r}"
            )
        data[key] = float(value)
        self._colstore = None
        self._canonical = None
        self._columns = None

    def get(self, key: Sequence[Any], default: Any = None) -> Any:
        return self._data.get(tuple(key), default)

    def __getitem__(self, key) -> float:
        if not isinstance(key, tuple):
            key = (key,)
        try:
            return self._data[key]
        except KeyError:
            raise CubeError(f"cube {self.schema.name} undefined on {key!r}") from None

    def __contains__(self, key) -> bool:
        if not isinstance(key, tuple):
            key = (key,)
        return key in self._data

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        if self._columns is not None:
            return len(self._columns[2])
        return self._colstore.n_rows

    def __iter__(self) -> Iterator[DimTuple]:
        return iter(self._data)

    def items(self) -> Iterable[Tuple[DimTuple, float]]:
        return self._data.items()

    def keys(self) -> Iterable[DimTuple]:
        return self._data.keys()

    def values(self) -> Iterable[float]:
        return self._data.values()

    # -- relational view --------------------------------------------------
    def to_rows(self) -> List[Tuple[Any, ...]]:
        """The cube as sorted relational rows ``(x1, …, xn, y)``."""
        # dimension values repeat on every row: one sort key per
        # distinct value, looked up per cell
        order = _ComponentKeys()
        return [
            key + (value,)
            for key, value in sorted(
                self._data.items(),
                key=lambda item: [order[component] for component in item[0]],
            )
        ]

    def to_columns(self) -> List[List[Any]]:
        """:meth:`to_rows` by column: one list per dimension, then the
        measure list, rows in the same order.

        A cube that carries encoded columns (:meth:`encoded`) is put in
        that order by :func:`column_order` and decoded a column at a
        time — no keyed view, no row tuple; any other transposes its
        rows.  This is what a target engine loads an operand from.
        """
        encoded = self.encoded()
        if encoded is None:
            rows = self.to_rows()
            if not rows:
                return [[] for _ in range(self.schema.arity + 1)]
            return [list(column) for column in zip(*rows)]
        dictionaries, codes, measures = encoded
        order = column_order(dictionaries, codes, len(measures))
        columns = [
            list(map(values.__getitem__, take(column, order)))
            for values, column in zip(dictionaries, codes)
        ]
        columns.append(take(measures, order))
        return columns

    def encoded(self):
        """The ``(dictionaries, codes, measures)`` this cube's rows are
        held in, or None for a cube held only as its keyed view.

        Its column store when that holds exactly these rows with
        distinct keys (chase outputs, adopted inputs), else the columns
        it was built from (:meth:`from_columns`).  Rows are in the
        holder's order, not sorted.
        """
        store = self._colstore
        if store is not None and store.dims_distinct and store.n_rows == len(self):
            return store.dicts, store.codes, store.measures
        return self._columns

    def to_series(self) -> Tuple[List[TimePoint], List[float]]:
        """Time-ordered (points, values) lists; only for time series."""
        if not self.schema.is_time_series:
            raise CubeError(f"cube {self.schema.name} is not a time series")
        points = sorted(self._data, key=lambda k: k[0].ordinal)
        return [p[0] for p in points], [self._data[p] for p in points]

    # -- comparison ---------------------------------------------------------
    def approx_equals(self, other: "Cube", rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> bool:
        """Same dimension tuples and numerically close measures.

        NaN measures compare equal to NaN (and unequal to everything
        else), so a cube is always approx-equal to itself.
        """
        if set(self._data) != set(other._data):
            return False
        return all(
            _close(value, other._data[key], rel_tol, abs_tol)
            for key, value in self._data.items()
        )

    def diff(self, other: "Cube", rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> List[str]:
        """Human-readable differences against ``other`` (for test messages)."""
        problems = []
        for key in sorted(set(self._data) - set(other._data), key=_sort_key):
            problems.append(f"only in left: {key!r} -> {self._data[key]}")
        for key in sorted(set(other._data) - set(self._data), key=_sort_key):
            problems.append(f"only in right: {key!r} -> {other._data[key]}")
        for key in sorted(self._data.keys() & other._data.keys(), key=_sort_key):
            left, right = self._data[key], other._data[key]
            if not _close(left, right, rel_tol, abs_tol):
                problems.append(f"measure differs on {key!r}: {left} vs {right}")
        return problems

    def same_rows(self, other: "Cube") -> bool:
        """Whether ``other`` holds the same dimension tuples with the
        same measures, compared exactly but for NaN equal to NaN and
        ``-0.0`` to ``0.0``: whether an ``update`` may keep a stored
        version.  Both cubes must share dimensionality; they are
        normally two versions of one cube.

        When both cubes hold encoded columns (:meth:`encoded`) no key
        is decoded: each of ``other``'s code columns is translated into
        this cube's dictionary through one lookup table, both sides are
        sorted by their codes, and the measures compare as one vector.
        Otherwise the keyed views compare directly.
        """
        if self.schema.arity != other.schema.arity:
            raise CubeError(
                f"cannot compare {self.schema.name} (arity {self.schema.arity}) "
                f"with {other.schema.name} (arity {other.schema.arity})"
            )
        mine, theirs = self.encoded(), other.encoded()
        if mine is None or theirs is None:
            mine, theirs = self._data, other._data
            if len(mine) != len(theirs):
                return False
            for key, value in mine.items():
                other_value = theirs.get(key, _MISSING)
                if other_value is _MISSING or not _same_measure(value, other_value):
                    return False
            return True
        n_rows = len(self)
        if n_rows != len(other):
            return False  # keys are distinct on both sides
        if not n_rows:
            return True
        import numpy as np

        keys, other_keys = [], []
        for values, codes, other_values, other_codes in zip(
            mine[0], mine[1], theirs[0], theirs[1]
        ):
            code_of = {value: code for code, value in enumerate(values)}
            lookup = np.array(
                [code_of.get(value, -1) for value in other_values], dtype=np.int64
            )
            translated = lookup[np.asarray(other_codes, dtype=np.intp)]
            if (translated < 0).any():
                return False  # a value no row of this cube has
            keys.append(np.asarray(codes, dtype=np.int64))
            other_keys.append(translated)
        order = np.lexsort(keys) if keys else np.arange(n_rows)
        other_order = np.lexsort(other_keys) if keys else order
        if not all(
            np.array_equal(key[order], other_key[other_order])
            for key, other_key in zip(keys, other_keys)
        ):
            return False
        measures = np.asarray(mine[2], dtype=np.float64)[order]
        other_measures = np.asarray(theirs[2], dtype=np.float64)[other_order]
        same = (measures == other_measures) | (
            np.isnan(measures) & np.isnan(other_measures)
        )
        return bool(same.all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self.schema == other.schema and self._data == other._data

    def copy(self) -> "Cube":
        clone = Cube(self.schema)
        # a cube that still has its columns, or only its store, is
        # copied by sharing them
        clone._dict = (
            None if self._columns is not None or self._dict is None
            else dict(self._dict)
        )
        # intentionally shared: the store is immutable from the cube's
        # point of view (any mutation of either copy drops its pointer),
        # and sharing it through the versioned store is what keeps warm
        # runs encode-free
        clone._colstore = self._colstore
        clone._canonical = self._canonical
        clone._columns = self._columns
        return clone

    def __repr__(self) -> str:
        return f"Cube({self.schema.name}, {len(self)} tuples)"


def _encode_values(schema: CubeSchema, columns: Sequence[Sequence[Any]]):
    """``(dictionaries, codes, measures)`` of plain value columns for
    :meth:`Cube.from_columns`, codes numbered by first occurrence, or
    None where :meth:`Cube.from_value_columns` needs the row path."""
    if len(columns) != schema.arity + 1:
        return None
    *dimension_columns, measures = columns
    if not all(type(value) is float for value in measures) and not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in measures
    ):
        return None
    dictionaries, codes = [], []
    for dim, column in zip(schema.dimensions, dimension_columns):
        if dim.dtype.kind is DimKind.INTEGER and not all(
            type(value) is int for value in column
        ):
            return None
        code_of: Dict[Any, int] = {}
        try:
            codes.append([code_of.setdefault(value, len(code_of)) for value in column])
        except TypeError:  # unhashable
            return None
        dictionaries.append(list(code_of))
    return dictionaries, codes, list(map(float, measures))


def as_list(column: Sequence[Any]) -> List[Any]:
    """A code or measure column as Python objects: a NumPy column (what
    a chase output keeps) is converted, anything else returned as is —
    so no NumPy scalar reaches text, a target engine or a keyed view."""
    tolist = getattr(column, "tolist", None)
    return column if tolist is None else tolist()


def take(column: Sequence[Any], rows) -> List[Any]:
    """``column[rows]`` as Python objects, for ``rows`` a NumPy index
    array and ``column`` a list or a NumPy column."""
    if getattr(column, "tolist", None) is None:
        return list(map(column.__getitem__, rows.tolist()))
    return column[rows].tolist()


def _bounds(column: Sequence[int]) -> Tuple[int, int]:
    """``(min, max)`` of a non-empty code column, list or NumPy array."""
    if hasattr(column, "min"):
        return column.min(), column.max()
    return min(column), max(column)


def _component_key(component: Any):
    if isinstance(component, TimePoint):
        return (0, component.freq.value, component.ordinal)
    return (1, str(component), 0)


def _sort_key(key: DimTuple):
    return tuple(_component_key(component) for component in key)


def _dictionary_keys(values: Sequence[Any]) -> List[Any]:
    """Sort keys ordering ``values`` as :func:`_component_key` does,
    in the cheapest form: a dimension's dictionary holds points of one
    frequency, which order by ordinal, or labels, which order as text."""
    first = values[0] if values else None
    if type(first) is TimePoint and all(
        type(value) is TimePoint and value.freq is first.freq for value in values
    ):
        return [value.ordinal for value in values]
    if all(type(value) is str for value in values):
        return list(values)
    return [_component_key(value) for value in values]


class _ComponentKeys(dict):
    """``component -> _component_key(component)``, filled on first use."""

    def __missing__(self, component):
        key = self[component] = _component_key(component)
        return key


def column_order(
    dictionaries: Sequence[Sequence[Any]], codes: Sequence[Sequence[int]], n_rows: int
):
    """The permutation that puts dictionary-encoded rows in
    :meth:`Cube.to_rows` order, as a NumPy index array: row
    ``order[i]`` of the columns is the ``i``-th sorted row.

    A cube's order is a sort over its dimension keys; over encoded
    columns that is one ``lexsort`` on per-dictionary ranks.  Each
    dictionary is ranked once in :func:`_component_key` order
    (:func:`_dictionary_keys`) — equal keys share a rank, so a tie
    falls to the next dimension and then to the incoming row order,
    exactly as in ``to_rows``' stable sort.
    """
    import numpy as np

    keys = []
    for values, column in zip(dictionaries, codes):
        component_keys = _dictionary_keys(values)
        rank_of = {key: rank for rank, key in enumerate(sorted(set(component_keys)))}
        ranks = np.array([rank_of[key] for key in component_keys], dtype=np.intp)
        keys.append(ranks[np.asarray(column, dtype=np.intp)])
    if not keys:
        return np.arange(n_rows)
    keys.reverse()  # lexsort's last key is the primary one
    return np.lexsort(keys)

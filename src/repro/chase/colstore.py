"""Columnar-native relation storage (struct-of-arrays first).

:class:`ColumnStore` is the one representation of a relation in
:class:`~repro.chase.instance.RelationalInstance`: the dictionary-encoded
column buffers are the primary state (per-column dictionaries, code
columns, the measure column), the tuple view is derived lazily, and the
columnar kernels read the store's own
:class:`~repro.chase.columnar.ColumnarRelation` image, never a
re-encoding of facts.  A store that grows fact by fact holds
append-friendly Python lists; one adopted whole — a kernel's output
(:meth:`ColumnStore.append_columns`), a cube's sorted columns
(:meth:`ColumnStore.from_cube_columns`) — keeps NumPy arrays: ``int64``
codes and, when every measure is finite, the ``float64`` measures.
Those arrays are read-only, the columnar image shares them, and the
store turns them into lists only if it is appended to.

Representation invariants (pinned against a plain fact dict by
``tests/test_colstore_reference.py``):

* **Row order is insertion order.**  ``rows()`` enumerates facts in
  first-occurrence insertion order, exactly as a fact dict would.
* **Dictionaries are append-only.**  A :class:`ColumnarRelation` image
  captured at *n* rows shares the live dictionary/vmap objects and
  stays valid as the store grows — new codes only ever extend the
  table.  Code arrays and the measure array are copies of list buffers
  and the store's own read-only arrays otherwise, so kernels can never
  corrupt the store.
* **Non-finite measures keep their original objects.**  A measure
  column holding NaN or ±inf is a Python list of the exact ``float``
  objects inserted, so NaN identity semantics (CPython tuple equality
  short-circuits on ``is``) survive the round trip through the store,
  as they would in a fact set.  A finite column carries no identity
  semantics and may be a ``float64`` array; every reader that hands
  values on converts it with ``.tolist()``
  (:func:`~repro.model.cube.as_list`), so no NumPy scalar reaches a
  fact, a cube or a text.
* **Dedup follows tuple equality.**  Membership keys are the per-column
  codes plus the measure object; the vmap's hash/eq dedup gives ``1``
  and ``1.0`` one code, exactly as a fact set would collapse them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..model.cube import as_list, column_order
from .columnar import ColumnarRelation, EncodedColumn

__all__ = ["ColumnStore"]

Fact = Tuple[Any, ...]

_INT = np.int64


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, read-only: a store and the images sharing it."""
    array.flags.writeable = False
    return array


def _all_finite(column: np.ndarray) -> bool:
    """Whether no measure is NaN or ±inf, read off the column's sum.  A
    sum of finite values that overflows reads as non-finite, which only
    keeps the float objects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(column.sum())


class ColumnStore:
    """One relation as dictionary-encoded struct-of-arrays (primary)."""

    __slots__ = (
        "arity",
        "codes",
        "dicts",
        "vmaps",
        "measures",
        "dims_distinct",
        "_frozen",
        "_members",
        "_view",
        "_view_rows",
        "_image",
        "_image_rows",
    )

    def __init__(self, arity: int):
        self.arity = arity
        #: per-dimension code buffers: lists of Python ints, or read-only
        #: ``int64`` arrays in an adopted store
        self.codes: List[Any] = [[] for _ in range(arity - 1)]
        #: per-dimension code -> value tables (append-only)
        self.dicts: List[List[Any]] = [[] for _ in range(arity - 1)]
        #: per-dimension value -> code maps (append-only)
        self.vmaps: List[Dict[Any, int]] = [{} for _ in range(arity - 1)]
        #: the measure column, in row order: the original float objects,
        #: or a read-only ``float64`` array when all are finite
        self.measures: Any = []
        #: True when every row's dimension code tuple is known distinct
        #: (stores built from functional cubes); any generic append
        #: clears it — it may only over-report duplicates, never under
        self.dims_distinct = False
        #: True while the buffers are adopted arrays (see _thaw)
        self._frozen = False
        # derived state, all rebuilt lazily and tagged with the row
        # count they were built at — sound because stores are
        # append-only
        self._members: Optional[Dict[Tuple, None]] = None
        self._view: Optional[Dict[Fact, None]] = None
        self._view_rows = 0
        self._image: Optional[ColumnarRelation] = None
        self._image_rows = -1

    @classmethod
    def from_distinct_rows(cls, arity: int, rows: List[Fact]) -> "ColumnStore":
        """A store of ``rows``, in order: facts of this arity with
        ``float`` measures and pairwise distinct dimension tuples — a
        cube's rows.  Column at a time, so none of the per-row
        membership probing :meth:`add` needs to catch duplicates."""
        store = cls(arity)
        if rows:
            *dims, measures = zip(*rows)
            for j, column in enumerate(dims):
                vmap: Dict[Any, int] = {}
                store.codes[j] = [
                    vmap.setdefault(value, len(vmap)) for value in column
                ]
                store.vmaps[j] = vmap
                store.dicts[j] = list(vmap)
            store.measures = list(measures)
        store.dims_distinct = True
        return store

    @classmethod
    def from_cube_columns(
        cls,
        dictionaries: List[List[Any]],
        codes: List[List[int]],
        measures: List[float],
    ) -> "ColumnStore":
        """The store :meth:`from_distinct_rows` builds from a cube's
        ``to_rows()`` — same row order, same codes — from the encoded
        columns its CSV reader left on it (rows in file order): the
        codes are permuted and renumbered by first occurrence, no value
        is hashed and no row tuple built.  The store keeps NumPy
        columns, which its image shares."""
        store = cls(len(codes) + 1)
        order = column_order(dictionaries, codes, len(measures))
        for j, (values, column) in enumerate(zip(dictionaries, codes)):
            ordered = np.asarray(column, dtype=_INT)[order]
            # the old codes in order of first occurrence
            by_first = list(dict.fromkeys(ordered.tolist()))
            renumber = [0] * len(values)
            for new, old in enumerate(by_first):
                renumber[old] = new
            store.codes[j] = _read_only(np.asarray(renumber, dtype=_INT)[ordered])
            store.dicts[j] = [values[old] for old in by_first]
            store.vmaps[j] = {value: new for new, value in enumerate(store.dicts[j])}
        column = np.asarray(measures, dtype=np.float64)[order]
        if _all_finite(column):
            store.measures = _read_only(column)
        else:
            store.measures = [measures[i] for i in order.tolist()]
        store.dims_distinct = True
        store._frozen = True
        return store

    @property
    def n_rows(self) -> int:
        return len(self.measures)

    # -- membership ----------------------------------------------------------
    def _members_map(self) -> Dict[Tuple, None]:
        """The dedup index ``(dim codes…, measure) -> None``, built lazily."""
        members = self._members
        if members is None:
            if self.arity == 1:
                members = dict.fromkeys((m,) for m in self.measures)
            else:
                members = dict.fromkeys(
                    zip(*self.codes, self.measures)
                )
            self._members = members
        return members

    def add(self, fact: Fact) -> bool:
        """Append one fact; returns True when it was new.

        The caller has already checked the fact's arity and its
        ``float`` measure.
        """
        if self._frozen:
            self._thaw()
        members = self._members_map()
        dims = fact[:-1]
        vmaps = self.vmaps
        probe = tuple(vmaps[j].get(value, -1) for j, value in enumerate(dims))
        if -1 not in probe:
            if probe + (fact[-1],) in members:
                return False
            key_codes = probe
        else:
            key_codes = None
        dicts = self.dicts
        codes = self.codes
        out: List[int] = []
        for j, value in enumerate(dims):
            vm = vmaps[j]
            code = vm.get(value)
            if code is None:
                code = len(dicts[j])
                vm[value] = code
                dicts[j].append(value)
            codes[j].append(code)
            out.append(code)
        self.measures.append(fact[-1])
        members[tuple(out) + (fact[-1],)] = None
        self.dims_distinct = False
        if self._view is not None and self._view_rows == len(self.measures) - 1:
            # keep the materialized view current: decode through the
            # dictionaries so repeated values canonicalize to their
            # first-seen object, like a fact set would keep them
            row = tuple(dicts[j][c] for j, c in enumerate(out)) + (fact[-1],)
            self._view[row] = None
            self._view_rows += 1
        return True

    # -- the lazy tuple view ---------------------------------------------------
    def rows(self) -> Dict[Fact, None]:
        """The derived tuple view: fact -> None in insertion order.

        Materialized on first use and extended incrementally; mutation
        of the store past the materialized prefix triggers a decode of
        only the new rows (dictionaries are append-only, so the already
        decoded prefix stays valid).
        """
        view = self._view
        if view is None:
            view = {}
            self._view = view
            self._view_rows = 0
        n = len(self.measures)
        start = self._view_rows
        if start < n:
            dicts = self.dicts
            if self.arity == 1:
                for measure in as_list(self.measures[start:]):
                    view[(measure,)] = None
            else:
                columns = [
                    [dicts[j][c] for c in as_list(codes_j[start:])]
                    for j, codes_j in enumerate(self.codes)
                ]
                columns.append(as_list(self.measures[start:]))
                for row in zip(*columns):
                    view[row] = None
            self._view_rows = n
        return view

    # -- the columnar image ------------------------------------------------------
    def image(self) -> ColumnarRelation:
        """The relation as a :class:`ColumnarRelation` (cached per row count).

        Code and measure arrays are fresh copies of list buffers and the
        store's own read-only arrays where it holds them; the
        dictionary list and vmap are shared live (append-only, so an
        image can never go stale in the values it references).
        """
        n = len(self.measures)
        if self._image is not None and self._image_rows == n:
            return self._image
        dims = [
            EncodedColumn(
                np.asarray(codes_j, dtype=_INT), self.dicts[j], self.vmaps[j]
            )
            for j, codes_j in enumerate(self.codes)
        ]
        measures = np.asarray(self.measures, dtype=np.float64)
        image = ColumnarRelation(self.arity, n, dims, measures)
        self._image = image
        self._image_rows = n
        return image

    # -- bulk columnar append ---------------------------------------------------
    def append_columns(self, cols: List[Any], n: int) -> Optional[int]:
        """Adopt kernel output columns directly, without building facts.

        Only valid on an *empty* store whose caller proved the key
        tuples distinct (the ``assume_unique`` single-writer path).
        ``cols`` are kernel output columns: :class:`EncodedColumn`,
        ``("scalar", value)`` broadcasts, or a float64 measure array.
        They stay NumPy: the codes as ``int64`` arrays, the measures as
        the kernel's array when all are finite.  Returns the rows
        appended, or None when a column shape has no columnar adoption
        (the caller falls back to decoded facts).
        """
        if len(self.measures) or len(cols) != self.arity:
            return None
        mcol = cols[-1]
        if isinstance(mcol, np.ndarray):
            if mcol.dtype == np.float64 and _all_finite(mcol):
                measures = _read_only(mcol)
            else:
                measures = mcol.tolist()
        elif (
            isinstance(mcol, tuple)
            and mcol[0] == "scalar"
            and type(mcol[1]) is float
        ):
            measures = [mcol[1]] * n
        else:
            return None
        for col in cols[:-1]:
            if not (
                isinstance(col, EncodedColumn)
                or (isinstance(col, tuple) and col[0] == "scalar")
            ):
                return None
        for j, col in enumerate(cols[:-1]):
            vm = self.vmaps[j]
            dct = self.dicts[j]
            if isinstance(col, EncodedColumn):
                lut = np.empty(max(len(col.dictionary), 1), dtype=_INT)
                for code, value in enumerate(col.dictionary):
                    mapped = vm.get(value)
                    if mapped is None:
                        mapped = len(dct)
                        vm[value] = mapped
                        dct.append(value)
                    lut[code] = mapped
                self.codes[j] = _read_only(lut[col.codes])
            else:
                value = col[1]
                mapped = vm.get(value)
                if mapped is None:
                    mapped = len(dct)
                    vm[value] = mapped
                    dct.append(value)
                self.codes[j] = _read_only(np.full(n, mapped, dtype=_INT))
        self.measures = measures
        self.dims_distinct = True
        self._frozen = True
        self._members = None
        self._view = None
        self._view_rows = 0
        self._image = None
        self._image_rows = -1
        return n

    # -- cross-process transport -------------------------------------------------
    def extend_from(self, other: "ColumnStore") -> int:
        """Append every row of ``other`` (dictionary codes remapped).

        The bulk concatenation path of the sharded chase merge: shard
        outputs arrive as whole stores and are spliced into one store
        without building fact tuples.  The caller is responsible for
        key-distinctness bookkeeping — ``dims_distinct`` is cleared
        because rows from different shards may in principle collide.
        Returns the rows appended.
        """
        if other.arity != self.arity:
            raise ValueError(
                f"cannot extend arity-{self.arity} store from "
                f"arity-{other.arity} store"
            )
        n = other.n_rows
        if n == 0:
            return 0
        if self._frozen:
            self._thaw()
        for j in range(self.arity - 1):
            vm = self.vmaps[j]
            dct = self.dicts[j]
            lut = np.empty(max(len(other.dicts[j]), 1), dtype=_INT)
            identity = True
            for code, value in enumerate(other.dicts[j]):
                mapped = vm.get(value)
                if mapped is None:
                    mapped = len(dct)
                    vm[value] = mapped
                    dct.append(value)
                lut[code] = mapped
                identity = identity and mapped == code
            ocodes = other.codes[j]
            if identity:
                self.codes[j].extend(as_list(ocodes))
            else:
                self.codes[j].extend(
                    lut[np.asarray(ocodes, dtype=_INT)].tolist()
                )
        self.measures.extend(as_list(other.measures))
        self.dims_distinct = False
        self._members = None
        self._view = None
        self._view_rows = 0
        self._image = None
        self._image_rows = -1
        return n

    def __getstate__(self):
        """Pickle only the primary buffers, never the derived caches.

        The buffers are reshaped for transport, not dumped verbatim —
        a shard returns hundreds of thousands of rows and pickling
        them as Python ``int`` lists dominates the merge:

        * code columns ship as ``int64`` arrays (raw-buffer pickle,
          ~10× cheaper than list-of-int both directions);
        * an all-finite measure column ships as a ``float64`` array —
          finite floats carry no identity semantics, so value-faithful
          transport is behaviour-faithful; any non-finite value falls
          back to the object list, where pickle memoization preserves
          NaN identity (tuple-equality short-circuit on ``is``) across
          the process hop;
        * vmaps are derived (dictionary inverted) and are rebuilt on
          receive rather than shipped.

        Dictionaries are plain lists whose order pickle preserves, so
        code assignment survives exactly.
        """
        measures = self.measures
        if len(measures):
            column = np.asarray(measures, dtype=np.float64)
            if not np.isfinite(column).all():
                column = measures
        else:
            column = measures
        return {
            "arity": self.arity,
            "codes": [np.asarray(c, dtype=_INT) for c in self.codes],
            "dicts": self.dicts,
            "measures": column,
            "dims_distinct": self.dims_distinct,
        }

    def __setstate__(self, state):
        self.arity = state["arity"]
        self.codes = [c.tolist() for c in state["codes"]]
        self.dicts = state["dicts"]
        self.vmaps = [
            {value: code for code, value in enumerate(d)} for d in self.dicts
        ]
        measures = state["measures"]
        if isinstance(measures, np.ndarray):
            measures = measures.tolist()
        self.measures = measures
        self.dims_distinct = state["dims_distinct"]
        self._frozen = False
        self._members = None
        self._view = None
        self._view_rows = 0
        self._image = None
        self._image_rows = -1

    # -- bookkeeping -------------------------------------------------------------
    def _thaw(self) -> None:
        """Turn adopted arrays into append-friendly lists, once."""
        self.codes = [as_list(c) for c in self.codes]
        self.measures = as_list(self.measures)
        self._frozen = False

    def fork(self) -> "ColumnStore":
        """An independent copy (copy-on-write fork for shared stores).
        Read-only arrays are shared; the fork thaws them when it grows."""
        clone = ColumnStore(self.arity)
        if self._frozen:
            clone.codes = list(self.codes)
            clone._frozen = True
        else:
            clone.codes = [list(c) for c in self.codes]
        measures = self.measures
        clone.measures = (
            measures if isinstance(measures, np.ndarray) else list(measures)
        )
        clone.dicts = [list(d) for d in self.dicts]
        clone.vmaps = [dict(v) for v in self.vmaps]
        clone.dims_distinct = self.dims_distinct
        if self._members is not None:
            clone._members = dict(self._members)
        if self._view is not None:
            clone._view = dict(self._view)
            clone._view_rows = self._view_rows
        # the image is immutable and content-tagged: safe to share
        clone._image = self._image
        clone._image_rows = self._image_rows
        return clone


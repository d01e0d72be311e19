"""Relational instances for the data exchange setting.

An instance is a set of facts per relation symbol.  Cubes convert to
and from relations by appending the measure as the last column, the
"cube tuple" convention of Section 3.

Storage is *columnar-native*: each relation lives in a
:class:`~repro.chase.colstore.ColumnStore` (dictionary-encoded
struct-of-arrays, the layout the vectorized kernels consume directly)
and the ``Set[Fact]`` tuple view is derived lazily.  A relation is a
cube's relation, so every fact of one has the same arity and a
``float`` measure; :meth:`RelationalInstance.add` refuses any other
fact with a :class:`~repro.errors.ChaseError`.

Stores can be *shared* between instances — adopted cube stores,
copy-tgd adoption, a chase output's store attached to its cube — under
copy-on-write: a shared store is forked before the first mutation
through the borrowing instance, so no write through an adopter can
ever corrupt the owner's buffers.  Relations only grow: an instance
has no retraction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ChaseError
from ..model.cube import Cube
from ..model.schema import Schema
from .colstore import ColumnStore

__all__ = [
    "RelationalInstance",
    "instance_from_cubes",
    "cubes_from_instance",
    "store_for_cube",
]

Fact = Tuple[Any, ...]

# shared empty mapping backing ``facts()`` of absent relations; only
# its (immutable) keys view ever escapes
_EMPTY: Dict[Fact, None] = {}


class RelationalInstance:
    """A mutable set of facts per relation name (columnar-native)."""

    def __init__(self):
        # relation -> ColumnStore, or None while empty (the arity is
        # fixed by the first fact)
        self._relations: Dict[str, Optional[ColumnStore]] = {}
        # relations whose store is shared with another instance or a
        # cube (adoption, attached cube store): fork before writing
        self._shared: Set[str] = set()

    def ensure(self, relation: str) -> None:
        """Register a relation, empty until its first fact."""
        self._relations.setdefault(relation, None)

    # -- write paths (copy-on-write aware) ----------------------------------
    def _writable(self, relation: str):
        """The relation's store, forked first when shared."""
        store = self._relations.get(relation)
        if store is not None and relation in self._shared:
            store = store.fork()
            self._relations[relation] = store
            self._shared.discard(relation)
        return store

    def add(self, relation: str, fact: Fact) -> bool:
        """Insert a fact; returns True if it was new.

        Raises :class:`ChaseError` for a fact whose arity differs from
        the relation's or whose measure is not a ``float``.
        """
        fact = tuple(fact)
        store = self._writable(relation)
        arity = len(fact) if store is None else store.arity
        if len(fact) != arity:
            raise ChaseError(
                f"relation {relation}: fact {fact!r} has arity {len(fact)}, "
                f"{arity} expected"
            )
        if not fact or type(fact[-1]) is not float:
            raise ChaseError(
                f"relation {relation}: fact {fact!r} has no float measure "
                f"(the last column must be a float)"
            )
        if store is None:
            store = ColumnStore(arity)
            self._relations[relation] = store
        return store.add(fact)

    def add_batch(self, relation: str, facts: Iterable[Fact]) -> int:
        """Insert many facts at once; returns how many were new.

        Facts are added in iteration order, so the relation's insertion
        sequence is the same as a loop of :meth:`add` calls.
        """
        add = self.add
        count = 0
        for fact in facts:
            if add(relation, fact):
                count += 1
        return count

    # -- adoption and sharing ------------------------------------------------
    def adopt(self, relation: str, store: ColumnStore) -> Optional[int]:
        """Adopt a columnar store as an (empty) relation's content.

        The store is shared, not copied — both the donor and this
        instance mark it copy-on-write.  Returns the adopted row count,
        or None when the relation already holds facts.
        """
        existing = self._relations.get(relation)
        if existing is not None and existing.n_rows:
            return None
        self._relations[relation] = store
        self._shared.add(relation)
        return store.n_rows

    def export_store(self, relation: str) -> Optional[ColumnStore]:
        """The relation's columnar store, marked shared for the caller.

        Used to attach a chase output's store to its cube (warm-run
        reuse) and by the copy-tgd adoption fast path.  Returns None
        for an empty relation.
        """
        store = self._relations.get(relation)
        if store is not None:
            self._shared.add(relation)
        return store

    def append_columns(self, relation: str, columns: List[Any], n: int) -> Optional[int]:
        """Adopt kernel output columns directly into an empty relation.

        The columnar-first insert path: the caller (the engine's batch
        insert) has proven the keys distinct and the relation single-
        writer.  Returns rows appended, or None to fall back to the
        decoded-facts path.
        """
        if n == 0:
            return None
        store = self._relations.get(relation)
        if store is None:
            if len(columns) < 1:
                return None
            store = ColumnStore(len(columns))
            self._relations[relation] = store
        elif store.n_rows or relation in self._shared:
            return None
        return store.append_columns(columns, n)

    # -- read paths -----------------------------------------------------------
    def facts(self, relation: str):
        """The relation's facts, in insertion order (a set-like view)."""
        store = self._relations.get(relation)
        if store is None:
            return _EMPTY.keys()
        return store.rows().keys()

    def columnar_image(self, relation: str, arity: int):
        """The relation as a ColumnarRelation: the store's own image,
        never re-encoded.  Raises
        :class:`~repro.chase.columnar.FallbackUnsupported` when the
        relation's arity is not ``arity``.
        """
        from .columnar import ColumnarRelation, FallbackUnsupported

        store = self._relations.get(relation)
        if store is None:
            return ColumnarRelation.from_facts([], arity)
        if store.arity != arity:
            raise FallbackUnsupported("cached arity mismatch")
        return store.image()

    def relations(self) -> List[str]:
        return list(self._relations)

    def __contains__(self, relation: str) -> bool:
        return relation in self._relations

    def size(self, relation: str = None) -> int:
        if relation is not None:
            store = self._relations.get(relation)
            return 0 if store is None else store.n_rows
        return sum(
            store.n_rows
            for store in self._relations.values()
            if store is not None
        )

    def copy(self) -> "RelationalInstance":
        clone = RelationalInstance()
        clone._relations = {
            name: (None if store is None else store.fork())
            for name, store in self._relations.items()
        }
        return clone

    def __repr__(self) -> str:
        counts = {
            name: (0 if store is None else store.n_rows)
            for name, store in self._relations.items()
        }
        return f"RelationalInstance({counts})"


def store_for_cube(cube: Cube) -> ColumnStore:
    """The cube's columnar store, built once and cached on the cube.

    A cube carries its store across the versioned store (``put`` copies
    share it; ``set`` invalidates it), so a warm run adopts
    the encoded columns instead of re-encoding ``to_rows()`` — the
    cross-run half of killing the encode tax.  A cube fresh from
    :func:`~repro.model.io.read_cube_csv` or from another target's
    engine has the columns it was built from, which are sorted into
    the same store without building a row; the store then holds the
    cube's rows and the cube drops those columns, so an adopted input
    is held once.
    """
    store = getattr(cube, "_colstore", None)
    if store is not None and store.n_rows == len(cube):
        return store
    # a cube is functional by construction — dimension tuples distinct —
    # and holds its measures as exact floats
    if cube._columns is not None:
        store = ColumnStore.from_cube_columns(*cube._columns)
        cube._colstore, cube._columns = store, None
        return store
    store = ColumnStore.from_distinct_rows(cube.schema.arity + 1, cube.to_rows())
    cube._colstore = store
    return store


def instance_from_cubes(cubes: Dict[str, Cube]) -> RelationalInstance:
    """Build an instance with one relation per cube (measure last).

    Each cube's store (:func:`store_for_cube`) is adopted copy-on-write.
    """
    instance = RelationalInstance()
    for name, cube in cubes.items():
        instance.ensure(name)
        instance.adopt(name, store_for_cube(cube))
    return instance


def cubes_from_instance(
    instance: RelationalInstance, schema: Schema, names: Iterable[str] = None
) -> Dict[str, Cube]:
    """Read relations back into cubes, enforcing functionality."""
    result: Dict[str, Cube] = {}
    for name in names if names is not None else instance.relations():
        cube_schema = schema[name]
        cube = Cube(cube_schema)
        for fact in instance.facts(name):
            if len(fact) != cube_schema.arity + 1:
                raise ChaseError(
                    f"fact {fact!r} has wrong arity for cube {name} "
                    f"({cube_schema.arity + 1} expected)"
                )
            cube.set(fact[:-1], fact[-1])
        result[name] = cube
    return result

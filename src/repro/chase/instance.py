"""Relational instances for the data exchange setting.

An instance is a set of facts per relation symbol.  Cubes convert to
and from relations by appending the measure as the last column, the
"cube tuple" convention of Section 3.

Storage is *columnar-native*: each relation lives in a
:class:`~repro.chase.colstore.ColumnStore` (dictionary-encoded
struct-of-arrays, the layout the vectorized kernels consume directly)
and the classic ``Set[Fact]`` tuple view is derived lazily — the
inverse of the old design, where the fact set was primary and every
chase paid an encode pass per relation.  Relations whose facts do not
fit the columnar shape (non-float measures, mixed arity) transparently
demote to a :class:`~repro.chase.colstore.TupleStore`.  Tests set the
module attribute ``FORCE_TUPLE_VIEW`` per case to force the tuple
representation everywhere, the storage oracle of the equivalence suites.

Stores can be *shared* between instances — adopted cube stores,
copy-tgd adoption, a chase output's store attached to its cube — under
copy-on-write: a shared store is forked before the first mutation
through the borrowing instance, so no write through an adopter can
ever corrupt the owner's buffers.  Relations only grow: an instance
has no retraction.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ChaseError
from ..model.cube import Cube
from ..model.schema import Schema
from .colstore import ColumnStore, TupleStore

__all__ = [
    "FORCE_TUPLE_VIEW",
    "RelationalInstance",
    "instance_from_cubes",
    "cubes_from_instance",
    "store_for_cube",
]

Fact = Tuple[Any, ...]

#: ``True`` forces every relation onto the eager tuple representation
#: (TupleStore), the pre-columnar-native layout.  Read at each store
#: creation; tests flip it per case as the storage oracle.
FORCE_TUPLE_VIEW = False

# shared empty mapping backing ``facts()`` of absent relations; only
# its (immutable) keys view ever escapes
_EMPTY: Dict[Fact, None] = {}


def _storable(fact: Fact) -> bool:
    return len(fact) >= 1 and type(fact[-1]) is float


class RelationalInstance:
    """A mutable set of facts per relation name (columnar-native)."""

    def __init__(self):
        # relation -> ColumnStore | TupleStore | None (empty, mode
        # undecided until the first fact arrives)
        self._relations: Dict[str, Optional[Any]] = {}
        # relations whose store is shared with another instance or a
        # cube (adoption, attached cube store): fork before writing
        self._shared: Set[str] = set()
        # per-relation insert locks for the parallel chase scheduler;
        # the master lock only guards lock/relation-slot creation
        self._master_lock = threading.Lock()
        self._locks: Dict[str, threading.Lock] = {}

    def ensure(self, relation: str) -> None:
        """Pre-create a relation's slot and lock.

        The parallel scheduler calls this for every relation before
        spawning workers, so concurrent inserts into *different*
        relations never mutate the outer dicts.
        """
        with self._master_lock:
            self._relations.setdefault(relation, None)
            self._locks.setdefault(relation, threading.RLock())

    def lock(self, relation: str) -> threading.Lock:
        """The insert lock of one relation (created on first use).

        Reentrant, so a batch insert holding the lock may replay facts
        through the single-fact locked insert path.
        """
        lock = self._locks.get(relation)
        if lock is None:
            with self._master_lock:
                lock = self._locks.setdefault(relation, threading.RLock())
        return lock

    # -- write paths (copy-on-write aware) ----------------------------------
    def _writable(self, relation: str):
        """The relation's store, forked first when shared."""
        store = self._relations.get(relation)
        if store is not None and relation in self._shared:
            store = store.fork()
            self._relations[relation] = store
            self._shared.discard(relation)
        return store

    def _demote(self, relation: str, store: ColumnStore) -> TupleStore:
        """Swap a columnar relation onto the tuple representation."""
        demoted = TupleStore(store.rows())
        self._relations[relation] = demoted
        return demoted

    def add(self, relation: str, fact: Fact) -> bool:
        """Insert a fact; returns True if it was new."""
        fact = tuple(fact)
        store = self._writable(relation)
        if store is None:
            if FORCE_TUPLE_VIEW or not _storable(fact):
                store = TupleStore()
            else:
                store = ColumnStore(len(fact))
            self._relations[relation] = store
        if isinstance(store, ColumnStore) and not store.can_store(fact):
            store = self._demote(relation, store)
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

    def add_all(self, relation: str, facts: Iterable[Fact]) -> int:
        return self.add_batch(relation, facts)

    # -- adoption and sharing ------------------------------------------------
    def adopt(self, relation: str, store: ColumnStore) -> Optional[int]:
        """Adopt a columnar store as an (empty) relation's content.

        The store is shared, not copied — both the donor and this
        instance mark it copy-on-write.  Returns the adopted row count,
        or None when adoption does not apply (tuple-view mode forced,
        or the relation already holds facts).
        """
        if FORCE_TUPLE_VIEW or not isinstance(store, ColumnStore):
            return None
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
        for tuple-mode or absent relations.
        """
        store = self._relations.get(relation)
        if isinstance(store, ColumnStore):
            self._shared.add(relation)
            return store
        return None

    def append_columns(self, relation: str, columns: List[Any], n: int) -> Optional[int]:
        """Adopt kernel output columns directly into an empty relation.

        The columnar-first insert path: the caller (the engine's batch
        insert) has proven the keys distinct and the relation single-
        writer.  Returns rows appended, or None to fall back to the
        decoded-facts path.
        """
        if FORCE_TUPLE_VIEW or n == 0:
            return None
        store = self._relations.get(relation)
        if store is None:
            if len(columns) < 1:
                return None
            store = ColumnStore(len(columns))
            self._relations[relation] = store
        elif (
            not isinstance(store, ColumnStore)
            or store.n_rows
            or relation in self._shared
        ):
            return None
        return store.append_columns(columns, n)

    # -- read paths -----------------------------------------------------------
    def facts(self, relation: str):
        """The relation's facts, in insertion order (a set-like view)."""
        store = self._relations.get(relation)
        if store is None:
            return _EMPTY.keys()
        return store.rows().keys()

    def columnar_image(self, relation: str, arity: int, tracer=None, metrics=None):
        """The relation as a ColumnarRelation, without re-encoding when
        the relation is columnar-native (the whole point).

        Tuple-mode relations still pay the classic encode pass — traced
        as a ``kernel:encode`` span and counted on the
        ``chase.kernel.encode`` metric so regressions of the zero-
        re-encode guarantee are observable.  Raises
        :class:`~repro.chase.columnar.FallbackUnsupported` for shapes
        with no columnar image.
        """
        from .columnar import ColumnarRelation, FallbackUnsupported

        store = self._relations.get(relation)
        if store is None:
            return ColumnarRelation.from_facts([], arity)
        if isinstance(store, ColumnStore):
            if store.arity != arity:
                raise FallbackUnsupported("cached arity mismatch")
            return store.image()
        image = store.cached_image()
        if image is not None:
            if image.arity != arity:
                raise FallbackUnsupported("cached arity mismatch")
            return image
        if tracer is None:
            from ..obs import NULL_TRACER

            tracer = NULL_TRACER
        with tracer.span(
            "kernel:encode", category="kernel", relation=relation
        ) as span:
            image = ColumnarRelation.from_facts(list(store.rows()), arity)
            span.note(rows=image.n_rows)
        if metrics is not None:
            metrics.inc("chase.kernel.encode")
            metrics.inc(f"chase.kernel.encode.relation:{relation}")
        if image.n_rows:
            store.set_image(image)
        return image

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


def store_for_cube(cube: Cube) -> Optional[ColumnStore]:
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
    Returns None in forced tuple-view mode.
    """
    if FORCE_TUPLE_VIEW:
        return None
    store = getattr(cube, "_colstore", None)
    if isinstance(store, ColumnStore) and store.n_rows == len(cube):
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

    Cubes carrying a cached columnar store are adopted copy-on-write —
    no re-encode; anything else loads tuple-at-a-time through the
    normal insert path.
    """
    instance = RelationalInstance()
    for name, cube in cubes.items():
        instance.ensure(name)
        store = store_for_cube(cube)
        if store is not None and instance.adopt(name, store) is not None:
            continue
        instance.add_batch(name, cube.to_rows())
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

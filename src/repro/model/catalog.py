"""The metadata catalog and historicity support.

EXLEngine is *metadata driven* (Section 6): definitions of cubes —
elementary or derived — and the EXL statements relating them guide the
runtime behaviour.  :class:`MetadataCatalog` stores cube schemas, the
parsed statements defining derived cubes, technical metadata (preferred
target systems), and a :class:`VersionedStore` of cube instances, which
implements the *historicity* feature: cube data is time-dependent and
every write produces a new version rather than destroying the past.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..errors import CatalogError
from .cube import Cube, CubeSchema

if TYPE_CHECKING:
    from ..exl.ast import Statement
    from .schema import Schema

__all__ = ["CubeKind", "CubeEntry", "VersionedStore", "MetadataCatalog"]


ELEMENTARY = "elementary"
DERIVED = "derived"


@dataclass
class CubeEntry:
    """Catalog record for one cube."""

    schema: CubeSchema
    kind: str  # ELEMENTARY or DERIVED
    statement: Optional[Statement] = None  # parsed EXL, for derived cubes
    preferred_target: Optional[str] = None  # technical metadata


@dataclass(frozen=True)
class _Deferred:
    """A version admitted by digest: bytes somewhere until read."""

    digest: str
    load: Callable[[], Cube]


class VersionedStore:
    """Versioned cube storage: every put appends, never overwrites.

    Versions are monotonically increasing integers assigned by the
    store; ``get`` with no version returns the latest instance.

    A version can also be *deferred*: admitted with the sha256 of its
    canonical bytes (:func:`repro.model.io.canonical_bytes`) and a
    loader, it has a number and answers :meth:`has` like any other, but
    no tuples exist until someone reads it.  That is how ``exl update``
    re-admits the previous run's cubes — most are never read, and "is
    the recomputed cube the one already stored?" is a digest comparison.
    """

    def __init__(self):
        self._history: Dict[str, List[Tuple[int, Union[Cube, _Deferred]]]] = {}
        self._clock = 0
        # two dispatcher threads may read one deferred operand at once
        self._load_lock = threading.Lock()

    def put(self, cube: Cube) -> int:
        """Store a new version of the cube; returns the version number."""
        self._clock += 1
        self._history.setdefault(cube.schema.name, []).append((self._clock, cube.copy()))
        return self._clock

    def defer(self, name: str, digest: str, load: Callable[[], Cube]) -> int:
        """Admit a version of ``name`` known by ``digest``; ``load()``
        yields the cube the first time the version is read."""
        self._clock += 1
        self._history.setdefault(name, []).append(
            (self._clock, _Deferred(digest, load))
        )
        return self._clock

    def digest(self, name: str) -> Optional[str]:
        """The digest the latest version was deferred under — None once
        it has been read or fulfilled, or when it was :meth:`put`."""
        history = self._history.get(name)
        if history and isinstance(history[-1][1], _Deferred):
            return history[-1][1].digest
        return None

    def fulfil(self, cube: Cube) -> None:
        """Hand the latest, still deferred version its content: the
        caller holds a cube whose bytes have exactly that digest."""
        history = self._history[cube.schema.name]
        with self._load_lock:
            if isinstance(history[-1][1], _Deferred):
                history[-1] = (history[-1][0], cube.copy())

    def _read(self, history, index: int) -> Cube:
        held = history[index][1]
        if isinstance(held, _Deferred):
            with self._load_lock:
                version, held = history[index]
                if isinstance(held, _Deferred):
                    held = held.load()
                    history[index] = (version, held)
        return held

    def get(self, name: str, version: Optional[int] = None) -> Cube:
        """Latest instance, or the newest one at or before ``version``."""
        history = self._history.get(name)
        if not history:
            raise CatalogError(f"no stored data for cube {name!r}")
        if version is None:
            return self._read(history, len(history) - 1)
        candidates = [i for i, (v, _) in enumerate(history) if v <= version]
        if not candidates:
            raise CatalogError(f"cube {name!r} has no version at or before {version}")
        return self._read(history, candidates[-1])

    def has(self, name: str) -> bool:
        return bool(self._history.get(name))

    def versions(self, name: str) -> List[int]:
        return [v for v, _ in self._history.get(name, [])]

    def latest_version(self, name: str) -> int:
        history = self._history.get(name)
        if not history:
            raise CatalogError(f"no stored data for cube {name!r}")
        return history[-1][0]

    @property
    def clock(self) -> int:
        """The most recently assigned version number."""
        return self._clock

    def names(self) -> List[str]:
        return list(self._history)


class MetadataCatalog:
    """The central registry driving EXLEngine's runtime behaviour."""

    def __init__(self):
        self._entries: Dict[str, CubeEntry] = {}
        self.store = VersionedStore()
        # declared attribute groupings: (cube, dimension) -> ordered
        # {level name: value mapping}.  Time dimensions get their
        # calendar hierarchy for free (repro.model.time.rollup_path);
        # flat attribute dimensions only have the levels declared here.
        self._groupings: Dict[Tuple[str, str], Dict[str, Dict]] = {}

    # -- declarations -----------------------------------------------------
    def declare_elementary(
        self, schema: CubeSchema, preferred_target: Optional[str] = None
    ) -> None:
        """Declare an elementary cube: base data fed from outside."""
        self._declare(CubeEntry(schema, ELEMENTARY, None, preferred_target))

    def declare_derived(
        self,
        schema: CubeSchema,
        statement: Union[Statement, str, None],
        preferred_target: Optional[str] = None,
    ) -> None:
        """Declare a derived cube, defined by an EXL statement: parsed,
        or its text, parsed here once (None when only its schema is
        known: a catalog read back from a run directory's index)."""
        if isinstance(statement, str):
            from ..exl.parser import parse_program

            parsed = parse_program(statement).statements
            if len(parsed) != 1:
                raise CatalogError(
                    f"cube {schema.name} must be defined by exactly one "
                    f"statement, got {len(parsed)}"
                )
            statement = parsed[0]
        self._declare(CubeEntry(schema, DERIVED, statement, preferred_target))

    def declare_program(
        self, program, preferred_targets: Optional[Dict[str, str]] = None
    ) -> List[str]:
        """Declare each statement of a compiled
        :class:`~repro.exl.program.Program` as a derived cube.

        ``preferred_targets`` optionally pins cubes to target systems
        (technical metadata).  Returns the derived cubes' names.
        """
        preferred_targets = preferred_targets or {}
        added = []
        for validated in program.statements:
            self.declare_derived(
                validated.schema,
                validated.ast,
                preferred_targets.get(validated.target),
            )
            added.append(validated.target)
        return added

    def _declare(self, entry: CubeEntry) -> None:
        if entry.schema.name in self._entries:
            raise CatalogError(f"cube {entry.schema.name} already declared")
        self._entries[entry.schema.name] = entry

    def declare_grouping(
        self, cube: str, dimension: str, level: str, mapping: Dict
    ) -> None:
        """Declare an attribute grouping: a named roll-up level over one
        flat dimension of one cube (e.g. region -> zone).

        ``mapping`` sends base dimension values to coarser group labels;
        values absent from the mapping pass through unchanged, so a
        partial grouping is total.  Groupings are metadata in the
        paper's sense: the OLAP layer derives dimension hierarchies from
        them (between the base level and the implicit all-level), in
        declaration order, finest first.
        """
        schema = self.schema_of(cube)
        dim = schema.dimension(dimension)  # raises on unknown dimension
        if dim.dtype.is_time:
            raise CatalogError(
                f"dimension {dimension!r} of {cube} is a time axis; its "
                f"hierarchy is derived from the calendar, not declared"
            )
        levels = self._groupings.setdefault((cube, dimension), {})
        if level in levels:
            raise CatalogError(
                f"grouping {level!r} already declared on {cube}.{dimension}"
            )
        levels[level] = dict(mapping)

    def groupings_for(self, cube: str, dimension: str) -> Dict[str, Dict]:
        """Declared groupings of one dimension, in declaration order."""
        return {
            name: dict(mapping)
            for name, mapping in self._groupings.get(
                (cube, dimension), {}
            ).items()
        }

    # -- queries ------------------------------------------------------------
    def entry(self, name: str) -> CubeEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown cube {name!r}") from None

    def schema_of(self, name: str) -> CubeSchema:
        return self.entry(name).schema

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def is_elementary(self, name: str) -> bool:
        return self.entry(name).kind == ELEMENTARY

    def is_derived(self, name: str) -> bool:
        return self.entry(name).kind == DERIVED

    @property
    def elementary_names(self) -> List[str]:
        return [n for n, e in self._entries.items() if e.kind == ELEMENTARY]

    @property
    def derived_names(self) -> List[str]:
        return [n for n, e in self._entries.items() if e.kind == DERIVED]

    def names(self) -> List[str]:
        return list(self._entries)

    def as_schema(self, name: str = "catalog") -> Schema:
        """All declared cube schemas, as a :class:`Schema`."""
        from .schema import Schema

        return Schema((e.schema for e in self._entries.values()), name)

    # -- data ------------------------------------------------------------------
    def load(self, cube: Cube) -> int:
        """Store elementary cube data; derived cubes are written by runs."""
        if cube.schema.name not in self._entries:
            raise CatalogError(f"cube {cube.schema.name} is not declared")
        return self.store.put(cube)

    def data(self, name: str, version: Optional[int] = None) -> Cube:
        if name not in self._entries:
            raise CatalogError(f"cube {name!r} is not declared")
        return self.store.get(name, version)

    def has_data(self, name: str) -> bool:
        return self.store.has(name)

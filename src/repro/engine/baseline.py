"""The persisted baseline of a run directory: ``<out>/baseline/``.

A finished ``exl run`` / ``update`` / ``resume`` leaves every cube with
data as its canonical bytes (:func:`repro.model.io.canonical_bytes`)
under ``<out>/baseline/`` and one index beside them::

    {"record": <RunRecord JSON>,
     "cubes":  {"GDP": "GDP.csv", ...},
     "sha256": {"GDP": "<digest of GDP.csv's bytes>", ...},
     "schemas": {"GDP": {"dimensions": [["q", "time:Q"], ["r", "string"]],
                         "measure": "g", "kind": "derived"}, ...},
     "program_sha256": "<digest of the EXL program's text>"}

``schemas`` is the catalog the run compiled — every cube, elementary or
derived, in declaration order — and ``program_sha256`` names the
program text it was compiled from: a reader holding the same text
(``exl query``) takes the schemas from here instead of compiling
(:func:`catalog_from_index`).  The index is read by programs only and
is written without whitespace.

This module owns ``<out>/baseline/``: it names the paths, and
:func:`read_index` is the one parser of the index.

``baseline.json`` is written last and atomically
(:meth:`repro.engine.rundir.RunDirectory.publish`): it is the commit
point.  A cube file is trusted when its bytes hash to the digest the
index records, so a crash between two CSV rewrites leaves files the old
index disowns, and the next ``exl update`` recomputes them.  So does an
edit of ``<out>/X.csv`` in place: the output and the baseline file are
two names of one inode.

The baseline is *bytes until someone needs tuples*.  ``exl update``
asks "did this input change?" and "is this recomputed cube the stored
one?" by comparing digests of canonical bytes — equal bytes mean equal
cubes, and ``-0.0`` against ``0.0`` or an index written before digests
were recorded only ever errs toward recomputing.  The previous run's
cubes enter the store deferred (:meth:`VersionedStore.defer`): one is
parsed when a recomputed statement reads it as an operand, never
otherwise, and a cube the update does not touch is not even opened.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import CorruptStateError, ModelError, ReproError
from ..model.catalog import ELEMENTARY, MetadataCatalog
from ..model.cube import Cube, CubeSchema
from ..model.io import (
    canonical_bytes,
    cube_from_canonical_bytes,
    read_cube_csv,
    schema_from_spec,
    schema_to_spec,
    text_sha256,
)

__all__ = [
    "BaselineCube",
    "admit_for_update",
    "admit_for_resume",
    "catalog_from_index",
    "directory",
    "fresh_bytes",
    "index_path",
    "index_text",
    "read_index",
    "read_indexed_cube",
]


def directory(out_dir: Union[str, Path]) -> Path:
    """The baseline directory of the output directory ``out_dir``."""
    return Path(out_dir) / "baseline"


def index_path(out_dir: Union[str, Path]) -> Path:
    """The index of ``out_dir``'s baseline: its commit point."""
    return directory(out_dir) / "baseline.json"


def _maps_names(block: Any) -> bool:
    return isinstance(block, dict) and all(
        isinstance(key, str) and isinstance(value, str) for key, value in block.items()
    )


def read_index(out_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The index of ``out_dir``'s baseline, or None when there is none.
    Raises :class:`~repro.errors.CorruptStateError` for one that does
    not parse, whose ``record`` is not an object, or whose ``cubes`` /
    ``sha256`` (absent from the oldest indexes) do not map to strings."""
    path = index_path(out_dir)
    try:
        index = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        raise CorruptStateError("baseline", path, exc) from None
    if not (
        isinstance(index, dict)
        and isinstance(index.get("record"), dict)
        and _maps_names(index.get("cubes", {}))
        and _maps_names(index.get("sha256", {}))
    ):
        raise CorruptStateError("baseline", path, "not a baseline index")
    return index


class BaselineCube:
    """One cube file of the baseline and the digest its index records."""

    def __init__(self, schema: CubeSchema, path: Path, digest: str):
        self.schema = schema
        self.path = path
        self.digest = digest
        self._data: Optional[bytes] = None

    def problem(self) -> Optional[str]:
        """Why the file cannot stand for the cube, or None when its
        bytes hash to the recorded digest.  Reads and hashes the file
        once."""
        if self._data is not None:
            return None
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return "missing"
        except OSError:
            return "unreadable"
        if hashlib.sha256(raw).hexdigest() != self.digest:
            return "digest-mismatch"
        self._data = raw
        return None

    def load(self) -> Cube:
        """Parse the cube; its bytes are its canonical bytes by digest."""
        problem = self.problem()
        if problem is None:
            data, self._data = self._data, None
            try:
                return cube_from_canonical_bytes(self.schema, data, self.digest)
            except ModelError as exc:
                problem = str(exc)
        raise ReproError(
            f"baseline cube {self.path} cannot be read ({problem}); "
            f"rebuild it with a full 'exl run'"
        )


def read_indexed_cube(
    out_dir: Union[str, Path], index: Optional[Dict[str, Any]], schema: CubeSchema
) -> Optional[Cube]:
    """One cube of ``out_dir``'s baseline for a reader that takes it or
    leaves it (``exl query``); None when ``index`` lists no file for it.
    The bytes must hash to the recorded digest (hashed once, parsed from
    the same bytes; an index without digests is read on trust).  Raises
    :class:`~repro.errors.CorruptStateError` when they cannot stand for it."""
    rel_path = (index or {}).get("cubes", {}).get(schema.name)
    if rel_path is None:
        return None
    path = directory(out_dir) / rel_path
    digest = index.get("sha256", {}).get(schema.name)
    try:
        if digest is None:
            return read_cube_csv(schema, path)
        return BaselineCube(schema, path, digest).load()
    except (OSError, ValueError, ReproError) as exc:
        raise CorruptStateError("baseline CSV", path, exc) from None


def _entry(engine, state, baseline_dir: Path, name: str) -> Optional[BaselineCube]:
    rel_path = state.get("cubes", {}).get(name)
    digest = state.get("sha256", {}).get(name)
    if rel_path is None or digest is None or name not in engine.catalog:
        return None
    return BaselineCube(
        engine.catalog.schema_of(name), baseline_dir / rel_path, digest
    )


def admit_for_update(
    engine, state: Dict[str, Any], baseline_dir: Path
) -> Tuple[List[str], List[Tuple[str, Path, str]]]:
    """Decide what an update of the baseline in ``baseline_dir``, whose
    index is ``state``, recomputes, and defer what it may read.

    Returns ``(dirty, fallbacks)``.  ``dirty`` names the elementary
    cubes whose canonical text no longer has the recorded digest,
    followed by the derived cubes that must be recomputed although no
    input of theirs changed: an operand of a recomputed statement whose
    baseline file is missing, unreadable or not the recorded bytes
    (``fallbacks`` lists each as ``(cube, path, why)``, also counted as
    ``update.baseline.fallback.reason:<why>``).  Every other such
    operand is verified and deferred with its bytes in hand; the cubes
    to recompute are deferred unopened, for the dispatcher's digest
    comparisons and clean short-circuit.  Nothing else is touched.
    The baseline's run record is restored into ``engine.runs``, its
    baseline versions those of the store as the update starts.
    """
    catalog, graph, store = engine.catalog, engine.graph, engine.catalog.store
    recorded = state.get("sha256", {})
    dirty = [
        name
        for name in catalog.elementary_names
        if catalog.has_data(name)
        and recorded.get(name) != canonical_bytes(catalog.data(name))[1]
    ]
    fallbacks: List[Tuple[str, Path, str]] = []
    while True:
        stale = [name for name, _, _ in fallbacks]
        affected = set(graph.affected_by(dirty + stale)) | set(stale)
        operands = {
            operand
            for cube in affected
            for operand in graph.operands[cube]
            if operand not in affected
            and catalog.is_derived(operand)
            and not catalog.has_data(operand)
        }
        before = len(fallbacks)
        for name in sorted(operands):
            entry = _entry(engine, state, baseline_dir, name)
            why = "not-recorded" if entry is None else entry.problem()
            if why is None:
                store.defer(name, entry.digest, entry.load)
            else:
                path = baseline_dir / state.get("cubes", {}).get(name, f"{name}.csv")
                fallbacks.append((name, path, why))
                engine.metrics.inc(f"update.baseline.fallback.reason:{why}")
        if len(fallbacks) == before:
            break
    # in name order: store versions number the deferrals, and a record's
    # baseline versions must not depend on the process's string hashing
    for name in sorted(affected - set(stale)):
        entry = _entry(engine, state, baseline_dir, name)
        if entry is not None and not catalog.has_data(name):
            store.defer(name, entry.digest, entry.load)
    restored = engine.runs.restore(state["record"])
    restored.baseline_versions = {
        name: store.latest_version(name) for name in store.names()
    }
    return dirty + stale, fallbacks


def admit_for_resume(
    engine, state: Dict[str, Any], out_dir: Path, index: Optional[Dict[str, Any]]
):
    """Put back what the unfinished run of run state ``state`` left
    under ``out_dir``: the cubes it committed, from their snapshots,
    and — when it was an update of the baseline ``index`` — the derived
    cubes it left alone (unplanned, or replayed clean), deferred, so the
    resumed subgraphs can read them.  Every other cube's baseline is
    superseded.  Returns the state's run record, restored into
    ``engine.runs``."""
    if index is not None:
        recomputed = {
            cube
            for sub in state["record"]["subgraphs"]
            if sub["outcome"] != "clean"
            for cube in sub["cubes"]
        }
        for name in index.get("cubes", {}):
            entry = _entry(engine, index, directory(out_dir), name)
            if (
                entry is not None
                and name not in recomputed
                and engine.catalog.is_derived(name)
            ):
                engine.catalog.store.defer(name, entry.digest, entry.load)
    for name, rel_path in state.get("committed", {}).items():
        # a snapshot is the cube's canonical bytes: the epilogue reuses
        # them instead of serializing the re-admitted cube again
        data = (out_dir / rel_path).read_bytes()
        engine.catalog.store.put(
            cube_from_canonical_bytes(
                engine.catalog.schema_of(name), data, hashlib.sha256(data).hexdigest()
            )
        )
    return engine.runs.restore(state["record"])


def fresh_bytes(
    engine, computed: set, previous: Optional[Dict[str, Any]]
) -> Dict[str, Tuple[bytes, str]]:
    """Canonical bytes and their digest of every cube whose files the
    epilogue writes.

    A cube needs writing when it holds tuples in memory and was either
    computed by this run (``computed``) or no longer has the digest the
    ``previous`` index records — a revised input, or anything at all
    when there is no previous index.  Deferred versions nobody read,
    operands parsed back from the baseline and unchanged inputs already
    have the right bytes on disk.
    """
    recorded = (previous or {}).get("sha256", {})
    store = engine.catalog.store
    fresh: Dict[str, Tuple[bytes, str]] = {}
    for name in store.names():
        if store.digest(name) is not None:
            continue
        canonical = canonical_bytes(engine.catalog.data(name))
        if name in computed or recorded.get(name) != canonical[1]:
            fresh[name] = canonical
    return fresh


def index_text(
    catalog,
    record_json: Dict[str, Any],
    digests: Dict[str, str],
    program_source: str,
    previous: Optional[Dict[str, Any]] = None,
) -> str:
    """The ``baseline.json`` of a finished run, for a later ``exl
    update`` or ``exl query``: the ``previous`` index's entries carried
    forward for every catalogued cube this run left alone, and on top
    the cubes whose files it wrote — ``digests`` maps each to the digest
    of the bytes now in ``<name>.csv``.  The schemas are the finishing
    run's own catalog, compiled from ``program_source``: an update after
    a program edit records the edited program's."""
    cubes: Dict[str, str] = {}
    recorded: Dict[str, str] = {}
    if previous is not None:
        kept = previous.get("sha256", {})
        for name, rel_path in previous.get("cubes", {}).items():
            if name in catalog:
                cubes[name] = rel_path
                if name in kept:
                    recorded[name] = kept[name]
    for name, digest in digests.items():
        cubes[name] = f"{name}.csv"
        recorded[name] = digest
    schemas = {
        name: {
            **schema_to_spec(catalog.schema_of(name)),
            "kind": catalog.entry(name).kind,
        }
        for name in catalog.names()
    }
    index = {
        "record": record_json,
        "cubes": cubes,
        "sha256": recorded,
        "schemas": schemas,
        "program_sha256": text_sha256(program_source),
    }
    return json.dumps(index, separators=(",", ":")) + "\n"


def catalog_from_index(
    state: Optional[Dict[str, Any]],
    elementary: List[CubeSchema],
    program_source: str,
) -> Optional[MetadataCatalog]:
    """The catalog a compile of ``program_source`` over the
    ``elementary`` schemas would declare, read off the index instead.

    None — compile it — when there is no index, it records no schemas
    (an older run directory), the program text is not the recorded one,
    the project's elementary schemas are not the recorded ones, or the
    block does not parse.  Derived entries carry schemas only: no
    statement text, no preferred target.
    """
    state = state or {}
    block = state.get("schemas")
    if not isinstance(block, dict) or state.get("program_sha256") != text_sha256(
        program_source
    ):
        return None
    catalog = MetadataCatalog()
    try:
        for name, spec in block.items():
            schema = schema_from_spec(name, spec)
            if spec["kind"] == ELEMENTARY:
                catalog.declare_elementary(schema)
            else:
                catalog.declare_derived(schema, None)
    except (LookupError, TypeError, ValueError, AttributeError, ReproError):
        return None
    recorded = [catalog.schema_of(name) for name in catalog.elementary_names]
    return catalog if recorded == list(elementary) else None

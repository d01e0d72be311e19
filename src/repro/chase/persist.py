"""Columnar sidecar persistence: dictionaries and key codes on disk.

Library functions only: no CLI command writes or attaches a sidecar.
``exl update`` used to parse every baseline CSV back and attach these to
skip the re-encode; it now reads the baseline by demand
(:mod:`repro.engine.baseline`), which left the cache without a reader it
pays for — attaching cost 25 ms per 8 640-row cube against 36 ms to
re-encode it, writing cost more than the difference, and the files were
a third of the run directory.  The next persisted baseline removes a
``baseline/columnar/`` or ``baseline/olap/`` directory an older version
left behind.

Warm-process runs keep the encode tax at zero because every cube carries
its :class:`~repro.chase.colstore.ColumnStore` through the versioned
store (``Cube.copy`` shares the cached store).  Across *processes* that
cache is gone, and the first chase rebuilds every store from the tuple
rows.  This module can persist the columnar representation next to a
CSV (``<dir>/columnar/<name>.json``) so a fresh process re-attaches the
encoded columns instead of re-encoding.

The sidecar is a plain-JSON struct-of-arrays dump::

    {"format": 2, "cube": "GDP", "csv_sha256": "…",
     "payload_sha256": "…", "n_rows": 3,
     "dims": [{"dictionary": ["2020Q1", "2020Q2"], "codes": [0, 1, 0]}],
     "measures": [1.5, 2.5, 3.5]}

Dictionary entries are serialized with ``str()`` — the same textual form
the baseline CSVs use — and parsed back through the schema's dimension
types (:func:`repro.model.io.parse_dim_value`).  Non-finite measures are
encoded as the strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` so
the file stays strict JSON (no bare ``NaN`` tokens external tooling
would choke on).

A sidecar is only trusted when two independent checks pass:
``csv_sha256`` hashes the companion CSV file's bytes, so a sidecar
written beside different CSV content is rejected; ``payload_sha256``
hashes the sidecar's own dims/codes/measures, so a corrupted or
hand-edited sidecar that kept a valid ``csv_sha256`` is rejected too.
On attach the decoded measure column is additionally verified
value-for-value against the cube's rows and rebound to the cube's own
float objects, preserving the store invariant that measures are the
exact objects the cube holds (NaN rows match by identity).
Anything that fails leaves the cube without a store, and the next
chase builds one from the cube's rows.  An *absent* sidecar is the
ordinary cold-start miss and stays silent; a sidecar that exists but cannot be read —
unreadable file, a ``baseline/columnar|olap/`` entry half-deleted by a
crash or an operator — is counted as ``chase.sidecar.fallback.reason:
sidecar-unreadable`` (``olap.`` for lattices) on the optional ``metrics``
registry so a damaged cache is visible instead of a silent slow run.
Writes go through :func:`repro.chase.atomic.atomic_write`, so a reader
never observes a torn sidecar, and write failures (read-only or vanished
baseline directory) degrade to returning False rather than raising.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..model.cube import Cube, CubeSchema, as_list
from ..model.io import parse_dim_value
from .atomic import atomic_write
from .colstore import ColumnStore
from .instance import store_for_cube

__all__ = [
    "SIDECAR_FORMAT",
    "OLAP_SIDECAR_FORMAT",
    "sidecar_path_for",
    "write_store_sidecar",
    "read_store_sidecar",
    "attach_store_sidecar",
    "olap_sidecar_path_for",
    "write_lattice_sidecar",
    "attach_lattice_sidecar",
]

SIDECAR_FORMAT = 2

#: format tag of the OLAP lattice sidecars (``<out>/baseline/olap/``)
OLAP_SIDECAR_FORMAT = 1


def _file_sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _count_unreadable(metrics, prefix: str) -> None:
    """Count a sidecar that exists but cannot be trusted as a cache miss."""
    if metrics is not None:
        metrics.inc(f"{prefix}.sidecar.fallback.reason:sidecar-unreadable")


def _load_sidecar_json(
    sidecar_path: Union[str, Path], metrics, prefix: str
) -> Optional[Dict[str, Any]]:
    """Read a sidecar file, distinguishing absence from damage.

    Absent file -> None silently (the ordinary cold-start miss).
    Unreadable file, torn/corrupt JSON, or a non-object document ->
    None with a ``{prefix}.sidecar.fallback.reason:sidecar-unreadable``
    count, so crash debris and permission problems are observable.
    """
    try:
        text = Path(sidecar_path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError:
        _count_unreadable(metrics, prefix)
        return None
    try:
        payload = json.loads(text)
    except ValueError:
        _count_unreadable(metrics, prefix)
        return None
    if not isinstance(payload, dict):
        _count_unreadable(metrics, prefix)
        return None
    return payload


def _encode_measure(value: float) -> Any:
    """A strict-JSON form of one measure (non-finite -> string)."""
    if math.isfinite(value):
        return value
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _payload_sha256(payload: Dict[str, Any]) -> str:
    """Content hash of the sidecar's own data fields.

    Computed over a canonical serialization of everything except the
    hash field itself, so a corrupted or hand-edited sidecar cannot
    pass verification just because its ``csv_sha256`` still matches
    the companion CSV.
    """
    blob = json.dumps(
        {key: payload[key] for key in sorted(payload) if key != "payload_sha256"},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sidecar_path_for(baseline_dir: Union[str, Path], name: str) -> Path:
    """Where the sidecar for cube ``name`` lives under a baseline dir."""
    return Path(baseline_dir) / "columnar" / f"{name}.json"


def write_store_sidecar(
    cube: Cube, csv_path: Union[str, Path], sidecar_path: Union[str, Path]
) -> bool:
    """Persist ``cube``'s columnar store beside its baseline CSV.

    Returns False (writing nothing, removing any stale sidecar) when the
    CSV cannot be read or the sidecar directory cannot be written.
    """
    sidecar_path = Path(sidecar_path)
    digest = _file_sha256(Path(csv_path))
    if digest is None:
        try:
            sidecar_path.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    store = store_for_cube(cube)
    payload = {
        "format": SIDECAR_FORMAT,
        "cube": cube.schema.name,
        "csv_sha256": digest,
        "n_rows": store.n_rows,
        "dims": [
            {
                "dictionary": [str(value) for value in store.dicts[j]],
                "codes": as_list(store.codes[j]),
            }
            for j in range(store.arity - 1)
        ],
        "measures": [_encode_measure(value) for value in as_list(store.measures)],
    }
    payload["payload_sha256"] = _payload_sha256(payload)
    try:
        atomic_write(sidecar_path, json.dumps(payload, allow_nan=False))
    except OSError:
        return False
    return True


def read_store_sidecar(
    schema: CubeSchema,
    csv_path: Union[str, Path],
    sidecar_path: Union[str, Path],
    metrics=None,
) -> Optional[ColumnStore]:
    """Rebuild a :class:`ColumnStore` from a sidecar, or None when the
    sidecar is absent, malformed, corrupted, or stale against the CSV
    file.  An unreadable-but-present sidecar counts as
    ``chase.sidecar.fallback.reason:sidecar-unreadable`` on ``metrics``."""
    payload = _load_sidecar_json(sidecar_path, metrics, "chase")
    if payload is None:
        return None
    if payload.get("format") != SIDECAR_FORMAT:
        return None
    if payload.get("cube") != schema.name:
        return None
    digest = _file_sha256(Path(csv_path))
    if digest is None or payload.get("csv_sha256") != digest:
        return None
    try:
        if payload.get("payload_sha256") != _payload_sha256(payload):
            return None
    except (TypeError, ValueError):
        return None
    dims = payload.get("dims")
    measures = payload.get("measures")
    if not isinstance(dims, list) or not isinstance(measures, list):
        return None
    if len(dims) != schema.arity:
        return None
    store = ColumnStore(schema.arity + 1)
    try:
        n = len(measures)
        for j, (dim, entry) in enumerate(zip(schema.dimensions, dims)):
            values = [
                parse_dim_value(dim.dtype, text)
                for text in entry["dictionary"]
            ]
            codes = [int(code) for code in entry["codes"]]
            if len(codes) != n:
                return None
            if codes and not (0 <= min(codes) and max(codes) < len(values)):
                return None
            store.dicts[j] = values
            store.vmaps[j] = {value: k for k, value in enumerate(values)}
            store.codes[j] = codes
        store.measures = [float(value) for value in measures]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if payload.get("n_rows") != store.n_rows:
        return None
    # baselines come from functional cubes, so the key tuples are
    # distinct — this is what lets the chase adopt the store wholesale
    store.dims_distinct = True
    return store


def attach_store_sidecar(
    cube: Cube,
    csv_path: Union[str, Path],
    sidecar_path: Union[str, Path],
    metrics=None,
) -> bool:
    """Attach a persisted columnar store to ``cube`` when it matches.

    The store is only adopted when the sidecar verifies against both
    the CSV and its own payload hash, its row count matches the cube,
    and its decoded measure column equals the cube's measures row for
    row (NaN matching NaN) — otherwise the cube keeps its lazy tuple
    path and the next chase rebuilds the columns.  Matching measures
    are rebound to the cube's own float objects, so sidecar-restored
    NaN rows keep the object-identity semantics of a store built
    directly from the cube.
    """
    store = read_store_sidecar(cube.schema, csv_path, sidecar_path, metrics)
    if store is None or store.n_rows != len(cube):
        return False
    rebound = []
    for decoded, row in zip(store.measures, cube.to_rows()):
        original = row[-1]
        if decoded != original and not (decoded != decoded and original != original):
            return False
        rebound.append(original)
    store.measures = rebound
    cube._colstore = store
    return True


# -- OLAP lattice sidecars ----------------------------------------------------
#
# Library functions too, since ``exl query`` became demand-driven
# (decoding a whole lattice cost more than reducing the one node a query
# reads).
#
# The same trust model as the columnar sidecars, applied to the roll-up
# lattice (repro.olap.lattice): ``csv_sha256`` ties the sidecar to the
# baseline CSV's bytes, ``payload_sha256`` to its own group data, and on
# attach the node-key set must match the lattice the catalog *currently*
# derives — a changed grouping declaration or aggregate silently misses
# and the lattice rebuilds from the cube.  Group-key components are
# serialized as tagged pairs so values round-trip with their exact
# Python types (a time point never comes back as a string).


def _encode_key_part(part: Any) -> Any:
    from ..model.time import TimePoint

    if isinstance(part, TimePoint):
        return ["t", str(part)]
    if isinstance(part, str):
        return ["s", part]
    if isinstance(part, bool):
        raise ValueError("boolean group key")
    if isinstance(part, int):
        return ["i", part]
    if isinstance(part, float):
        return ["f", _encode_measure(part)]
    raise ValueError(f"unserializable group key component {part!r}")


def _decode_key_part(tagged: Any) -> Any:
    from ..model.time import parse_timepoint

    tag, value = tagged
    if tag == "t":
        return parse_timepoint(value)
    if tag == "s":
        return str(value)
    if tag == "i":
        return int(value)
    if tag == "f":
        return float(value)
    raise ValueError(f"unknown group key tag {tag!r}")


def olap_sidecar_path_for(baseline_dir: Union[str, Path], name: str) -> Path:
    """Where the lattice sidecar for cube ``name`` lives."""
    return Path(baseline_dir) / "olap" / f"{name}.json"


def write_lattice_sidecar(
    lattice, csv_path: Union[str, Path], sidecar_path: Union[str, Path]
) -> bool:
    """Persist a roll-up lattice's node groups beside the baseline CSV.

    Every node is dumped, so nodes not yet read are reduced first.
    Returns False (removing any stale sidecar) when the lattice uses an
    unregistered aggregate or holds group keys that do not round-trip
    through JSON.
    """
    sidecar_path = Path(sidecar_path)
    digest = _file_sha256(Path(csv_path))
    if digest is None or lattice.agg_name is None:
        try:
            sidecar_path.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    lattice.materialize_all()
    try:
        nodes = [
            {
                "key": list(node.key),
                "groups": [
                    [
                        [_encode_key_part(part) for part in key],
                        _encode_measure(value),
                    ]
                    for key, value in node.groups.items()
                ],
            }
            for node in lattice.nodes.values()
        ]
    except ValueError:
        try:
            sidecar_path.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    payload = {
        "format": OLAP_SIDECAR_FORMAT,
        "cube": lattice.name,
        "aggregate": lattice.agg_name,
        "csv_sha256": digest,
        "nodes": nodes,
    }
    payload["payload_sha256"] = _payload_sha256(payload)
    try:
        atomic_write(sidecar_path, json.dumps(payload, allow_nan=False))
    except OSError:
        return False
    return True


def attach_lattice_sidecar(
    lattice,
    cube: Cube,
    csv_path: Union[str, Path],
    sidecar_path: Union[str, Path],
    version: Optional[int] = None,
    metrics=None,
) -> bool:
    """Fill a freshly constructed lattice from a sidecar when it matches.

    ``lattice`` must be an unbuilt :class:`repro.olap.CubeLattice`
    derived from the *current* catalog; the sidecar is only adopted
    when it verifies against the CSV and its own payload hash, names
    the same aggregate, and covers exactly the node keys the lattice
    derives.  On success the lattice is bound to ``cube`` with every
    node materialized from the sidecar; a later version of the cube
    rebinds it like any lattice (:meth:`CubeLattice.build`).
    An unreadable-but-present sidecar counts as
    ``olap.sidecar.fallback.reason:sidecar-unreadable`` on ``metrics``.
    """
    payload = _load_sidecar_json(sidecar_path, metrics, "olap")
    if payload is None:
        return False
    if payload.get("format") != OLAP_SIDECAR_FORMAT:
        return False
    if payload.get("cube") != lattice.name:
        return False
    if payload.get("aggregate") != lattice.agg_name:
        return False
    digest = _file_sha256(Path(csv_path))
    if digest is None or payload.get("csv_sha256") != digest:
        return False
    try:
        if payload.get("payload_sha256") != _payload_sha256(payload):
            return False
    except (TypeError, ValueError):
        return False
    nodes = payload.get("nodes")
    if not isinstance(nodes, list):
        return False
    decoded: Dict[tuple, Dict[tuple, float]] = {}
    try:
        for entry in nodes:
            key = tuple(entry["key"])
            decoded[key] = {
                tuple(_decode_key_part(part) for part in group_key): float(
                    value
                )
                for group_key, value in entry["groups"]
            }
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    if set(decoded) != set(lattice.nodes):
        return False
    lattice.build(cube, version)
    for key, node in lattice.nodes.items():
        node.groups = decoded[key]
    return True

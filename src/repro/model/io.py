"""CSV serialization of cubes and textual dimension-type specs.

Cubes exchange with the outside world as CSV files whose header is the
dimension names followed by the measure name; time values use the
canonical :class:`TimePoint` string forms (``2020-03-15``, ``2020M03``,
``2020Q1``, ``2020``, ``2020W07``).

Dimension types also have a compact textual spec used by project files
and the CLI: ``time:D`` / ``time:W`` / ``time:M`` / ``time:Q`` /
``time:A`` for time axes, ``string`` and ``integer`` for the rest.  A
cube schema in JSON is ``{"dimensions": [[name, spec], ...], "measure":
name}`` — a project file's elementary entries and a run directory's
index (:mod:`repro.engine.baseline`) spell it the same way.

A cube stays dictionary-encoded from file to file.  The reader maps
each cell to its column's code as it parses, a chunk of rows at a time,
and parses each distinct text once; the writer formats each distinct
value once.  A cube's *canonical serialization* is its CSV text as UTF-8
bytes, rows sorted and measures written by ``repr``
(:func:`canonical_bytes`): made once, hashed once, and the very bytes
the journal frame and every file under ``<out>`` hold.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from itertools import chain, islice
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from ..errors import ModelError
from .cube import Cube, CubeSchema, Dimension, column_order, take
from .time import Frequency, parse_timepoint
from .types import INTEGER, STRING, TIME, DimKind, DimType

__all__ = [
    "parse_dimtype",
    "format_dimtype",
    "parse_dim_value",
    "schema_to_spec",
    "schema_from_spec",
    "write_cube_csv",
    "read_cube_csv",
    "cube_to_csv_text",
    "cube_from_csv_text",
    "canonical_bytes",
    "canonical_text",
    "cube_from_canonical_bytes",
    "text_sha256",
]


def parse_dimtype(spec: str) -> DimType:
    """Parse a textual dimension type: ``time:<freq>``, ``string``, ``integer``."""
    text = spec.strip().lower()
    if text == "string":
        return STRING
    if text in ("integer", "int"):
        return INTEGER
    if text.startswith("time:"):
        code = text.split(":", 1)[1].upper()
        for freq in Frequency:
            if freq.value == code or freq.name == code:
                return TIME(freq)
        raise ModelError(f"unknown time frequency {code!r} in {spec!r}")
    raise ModelError(
        f"unknown dimension type {spec!r} (expected time:<freq>, string, integer)"
    )


def format_dimtype(dtype: DimType) -> str:
    """The textual spec of a dimension type (inverse of :func:`parse_dimtype`)."""
    if dtype.kind is DimKind.TIME:
        return f"time:{dtype.freq.value}"
    return dtype.kind.value


def schema_to_spec(schema: CubeSchema) -> Dict[str, Any]:
    """The JSON form of a cube schema (its name is the caller's key)."""
    return {
        "dimensions": [
            [dim.name, format_dimtype(dim.dtype)] for dim in schema.dimensions
        ],
        "measure": schema.measure,
    }


def schema_from_spec(name: str, spec: Dict[str, Any]) -> CubeSchema:
    """Inverse of :func:`schema_to_spec`; the measure defaults to
    ``value`` as in project files."""
    dimensions = [
        Dimension(dim_name, parse_dimtype(type_spec))
        for dim_name, type_spec in spec["dimensions"]
    ]
    return CubeSchema(name, dimensions, spec.get("measure", "value"))


def _parse_value(dtype: DimType, text: str) -> Any:
    if dtype.kind is DimKind.TIME:
        return parse_timepoint(text)
    if dtype.kind is DimKind.INTEGER:
        return int(text)
    return text


def parse_dim_value(dtype: DimType, text: str) -> Any:
    """Parse one dimension value from its ``str()`` serialization.

    The inverse of how :func:`write_cube_csv` serializes dimension
    values; also used by the columnar sidecar format, whose dictionary
    entries round-trip through the same textual form as the CSVs.
    """
    return _parse_value(dtype, text)


def write_cube_csv(cube: Cube, destination: Union[str, Path, TextIO]) -> None:
    """Write a cube to CSV (header = dimensions then measure)."""
    text = cube_to_csv_text(cube)
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)


#: rows the reader encodes, and the writer formats, at a time: enough
#: for the list comprehensions to run at full speed, few enough that no
#: per-row object outlives its chunk
CHUNK_ROWS = 1024


def cube_to_csv_text(cube: Cube) -> str:
    """The cube's CSV serialization as a string.

    Rows go in :meth:`Cube.to_rows` order, formatted a column at a
    time: the rows of a cube that carries them dictionary-encoded
    (:meth:`Cube.encoded`: a chase output's store, a target engine's
    result, what :func:`read_cube_csv` parsed it from) are ordered by
    one sort on per-dictionary ranks, any other is encoded from its
    keyed view first.  Each distinct dimension value is formatted once,
    and the text is built :data:`CHUNK_ROWS` rows at a time.
    """
    dictionaries, codes, measures = cube.encoded() or _encode_keyed(cube)
    order = column_order(dictionaries, codes, len(measures))
    cells = [list(map(_cell, values)) for values in dictionaries]
    pieces = [",".join(map(_cell, cube.schema.columns)) + "\r\n"]
    for start in range(0, len(order), CHUNK_ROWS):
        rows = order[start:start + CHUNK_ROWS]
        columns = [
            map(texts.__getitem__, take(column, rows))
            for texts, column in zip(cells, codes)
        ]
        columns.append(map(repr, take(measures, rows)))
        pieces.append("\r\n".join([*map(",".join, zip(*columns)), ""]))
    return "".join(pieces)


def _encode_keyed(cube: Cube):
    """``(dictionaries, codes, measures)`` of a cube held only as its
    keyed view, codes numbered by first occurrence."""
    keys = list(cube.keys())
    dictionaries, codes = [], []
    for j in range(cube.schema.arity):
        code_of: dict = {}
        codes.append([code_of.setdefault(key[j], len(code_of)) for key in keys])
        dictionaries.append(list(code_of))
    return dictionaries, codes, list(cube.values())


#: what makes ``csv``'s minimal quoting quote a field
_QUOTED = re.compile('[,"\r\n]').search


def _cell(value: Any) -> str:
    """One field as ``csv``'s minimal quoting writes it: floats by
    ``repr``, anything else by ``str``."""
    text = repr(value) if isinstance(value, float) else str(value)
    if _QUOTED(text):
        text = '"' + text.replace('"', '""') + '"'
    return text


def read_cube_csv(schema: CubeSchema, source: Union[str, Path, TextIO]) -> Cube:
    """Read a cube from a CSV someone else wrote: the header must match
    the schema's columns, cells are trimmed, blank rows skipped, and a
    file is decoded as UTF-8 with or without a byte-order mark."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            return _read(schema, handle, strip=True)
    return _read(schema, source, strip=True)


def cube_from_csv_text(schema: CubeSchema, text: Union[str, bytes]) -> Cube:
    """Parse a cube from the text :func:`cube_to_csv_text` gave for it,
    or from that text's UTF-8 bytes: every dimension value is taken
    verbatim, so a label with surrounding whitespace comes back as
    written."""
    if isinstance(text, bytes):
        # decoded as it is read: no second copy of the whole text
        handle = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline="")
        return _read(schema, handle, strip=False)
    return _read(schema, io.StringIO(text), strip=False)


def _read(schema: CubeSchema, handle: TextIO, strip: bool) -> Cube:
    """The cube in ``handle``, encoded as it is parsed.

    Rows are taken :data:`CHUNK_ROWS` at a time and each cell is mapped
    to its column's first-occurrence code, so what outlives a chunk is
    one code per cell, one float per row and each distinct text once;
    the distinct texts are parsed at the end.  Anything irregular —
    ragged or blank rows, a cell that does not parse, a repeated key —
    goes row by row from the first row, to accept it or to name the
    line it is on.
    """
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ModelError(f"empty CSV for cube {schema.name}") from None
    expected = list(schema.columns)
    if ([h.strip() for h in header] if strip else header) != expected:
        raise ModelError(
            f"CSV header {header} does not match cube columns {expected}"
        )
    width = schema.arity + 1
    texts: List[dict] = [{} for _ in schema.dimensions]
    codes: List[list] = [[] for _ in schema.dimensions]
    measures: List[float] = []
    while True:
        chunk = list(islice(reader, CHUNK_ROWS))
        if not chunk:
            break
        if not _encode_chunk(chunk, width, texts, codes, measures):
            rows = chain(_text_rows(texts, codes, measures), chunk, reader)
            return _cube_from_rows(schema, rows, strip)
    cube = _cube_from_codes(schema, texts, codes, measures, strip)
    if cube is None:
        cube = _cube_from_rows(schema, _text_rows(texts, codes, measures), strip)
    return cube


def _encode_chunk(
    chunk: list, width: int, texts: List[dict], codes: List[list], measures: list
) -> bool:
    """Append a chunk of rows to the encoded columns: each cell's
    first-occurrence code in ``texts``, each measure parsed.  False,
    with nothing appended, unless every row has ``width`` cells and a
    number last."""
    if set(map(len, chunk)) != {width}:
        return False
    *columns, measure_texts = zip(*chunk)
    try:
        parsed = list(map(float, measure_texts))
    except ValueError:
        return False
    for seen, column_codes, column in zip(texts, codes, columns):
        column_codes += [seen.setdefault(text, len(seen)) for text in column]
    measures += parsed
    return True


def _text_rows(texts: List[dict], codes: List[list], measures: list):
    """The rows encoded so far, as text again (measures by ``repr``,
    which parses back to the same float)."""
    tables = [list(seen) for seen in texts]
    columns = [map(table.__getitem__, column) for table, column in zip(tables, codes)]
    return zip(*columns, map(repr, measures))


def _cube_from_codes(
    schema: CubeSchema, texts: List[dict], codes: List[list], measures: list,
    strip: bool,
) -> Optional[Cube]:
    """The cube of the encoded rows: each distinct text parsed once into
    the dictionaries :meth:`Cube.from_columns` validates and keeps with
    the codes; None when a text does not parse or a key repeats, and for
    no rows at all (the empty cube is built row by row)."""
    if not measures:
        return None
    dictionaries, recoded = [], []
    try:
        for dim, seen, column in zip(schema.dimensions, texts, codes):
            # two spellings of one value ("01" and "1", " a" and "a"
            # when trimmed) share a code
            code_of: dict = {}
            recode = [
                code_of.setdefault(
                    _parse_value(dim.dtype, text.strip() if strip else text),
                    len(code_of),
                )
                for text in seen
            ]
            if len(code_of) != len(seen):
                column = [recode[code] for code in column]
            dictionaries.append(list(code_of))
            recoded.append(column)
    except (ValueError, ModelError):
        return None
    return Cube.from_columns(schema, dictionaries, recoded, measures)


def _cube_from_rows(
    schema: CubeSchema, rows: Iterable[Sequence[str]], strip: bool
) -> Cube:
    cube = Cube(schema)
    width = schema.arity + 1
    # Memoize parsed dimension values per column: the same time points
    # and labels recur on every row, and parse_timepoint dominates the
    # read cost when re-parsed per cell.
    dtypes = [dim.dtype for dim in schema.dimensions]
    caches: list = [{} for _ in dtypes]
    for line_number, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ModelError(
                f"line {line_number}: {len(row)} fields for {width} columns"
            )
        try:
            key = []
            for dtype, cache, cell in zip(dtypes, caches, row):
                text = cell.strip() if strip else cell
                parsed = cache.get(text)
                if parsed is None:
                    parsed = cache[text] = _parse_value(dtype, text)
                key.append(parsed)
            cube.set(tuple(key), float(row[-1]))
        except (ValueError, ModelError) as exc:
            raise ModelError(f"line {line_number}: {exc}") from exc
    return cube


def canonical_bytes(cube: Cube) -> Tuple[bytes, str]:
    """The cube's canonical serialization — its CSV text as UTF-8 bytes
    — and their sha256, each made once per cube.

    Rows are sorted and values written by ``repr``, so equal bytes mean
    equal cubes: the digest stands for the cube wherever "did it
    change?" is asked across processes, and the same bytes are what the
    journal frame, the output file and the baseline file hold.  The pair
    rides on the cube like its column store does — shared by ``copy()``,
    dropped by any mutation.
    """
    memo = cube._canonical
    if memo is None:
        data = cube_to_csv_text(cube).encode("utf-8")
        memo = cube._canonical = (data, hashlib.sha256(data).hexdigest())
    return memo


def canonical_text(cube: Cube) -> str:
    """:func:`canonical_bytes` decoded, for comparing and showing cubes;
    nothing keeps it."""
    return canonical_bytes(cube)[0].decode("utf-8")


def cube_from_canonical_bytes(schema: CubeSchema, data: bytes, digest: str) -> Cube:
    """Parse bytes that *are* some cube's :func:`canonical_bytes` — a
    snapshot or baseline file this package wrote, verified against
    ``digest`` — verbatim, and keep them, with the digest, as the parsed
    cube's."""
    cube = cube_from_csv_text(schema, data)
    cube._canonical = (data, digest)
    return cube


def text_sha256(text: str) -> str:
    """The content digest every on-disk format here records for text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

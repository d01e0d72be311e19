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
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from ..errors import ModelError
from .cube import Cube, CubeSchema, Dimension, column_order
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
    "canonical_text",
    "cube_from_canonical_text",
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


def cube_to_csv_text(cube: Cube) -> str:
    """The cube's CSV serialization as a string.

    A cube that carries its rows as dictionary-encoded columns
    (:meth:`Cube.encoded`: a chase output's store, a target engine's
    result, what :func:`read_cube_csv` parsed it from) is ordered and
    formatted by column; any other goes row by row through
    ``to_rows()``.  The text is the same either way.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(cube.schema.columns)
    encoded = cube.encoded()
    if encoded is not None:
        _write_columns(buffer, *encoded)
    else:
        _write_rows(writer, cube)
    return buffer.getvalue()


def _write_rows(writer, cube: Cube) -> None:
    # Dimension values repeat heavily across rows (a 600-quarter x
    # 200-region cube has 800 distinct values over 240k cells), so
    # memoize their str() form per call.
    formatted: dict = {}
    for row in cube.to_rows():
        cells = []
        for v in row[:-1]:
            if isinstance(v, float):
                cells.append(repr(v))
                continue
            text = formatted.get(v)
            if text is None:
                text = formatted[v] = str(v)
            cells.append(text)
        cells.append(repr(row[-1]))
        writer.writerow(cells)


#: what makes ``csv``'s minimal quoting quote a field
_QUOTED = re.compile('[,"\r\n]').search


def _write_columns(buffer: TextIO, dictionaries, codes, measures) -> None:
    """``_write_rows`` over dictionary-encoded columns: one sort on
    per-dictionary ranks, one formatted cell per distinct value."""
    order = column_order(dictionaries, codes, len(measures)).tolist()
    columns = []
    for values, column in zip(dictionaries, codes):
        cells = []
        for value in values:
            text = repr(value) if isinstance(value, float) else str(value)
            if _QUOTED(text):
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        columns.append(map(cells.__getitem__, map(column.__getitem__, order)))
    columns.append(map(repr, map(measures.__getitem__, order)))
    buffer.write("\r\n".join([*map(",".join, zip(*columns)), ""]))


def read_cube_csv(schema: CubeSchema, source: Union[str, Path, TextIO]) -> Cube:
    """Read a cube from a CSV someone else wrote: the header must match
    the schema's columns, cells are trimmed, blank rows skipped, and a
    file is decoded as UTF-8 with or without a byte-order mark."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            return _read(schema, handle, strip=True)
    return _read(schema, source, strip=True)


def cube_from_csv_text(schema: CubeSchema, text: str) -> Cube:
    """Parse a cube from the text :func:`cube_to_csv_text` gave for it:
    every dimension value is taken verbatim, so a label with
    surrounding whitespace comes back as written."""
    return _read(schema, io.StringIO(text), strip=False)


def _read(schema: CubeSchema, handle: TextIO, strip: bool) -> Cube:
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
    rows = list(reader)
    cube = _cube_from_columns(schema, rows, strip)
    if cube is None:
        # something is irregular: row by row, to accept it or to name
        # the line it is on
        cube = _cube_from_rows(schema, rows, strip)
    return cube


def _cube_from_columns(schema: CubeSchema, rows: list, strip: bool) -> Optional[Cube]:
    """The cube of well-formed ``rows``, parsed a column at a time into
    the encoded columns :meth:`Cube.from_columns` validates and keeps;
    None for anything else (ragged or blank rows, a cell that does not
    parse, a repeated key)."""
    if not rows or set(map(len, rows)) != {schema.arity + 1}:
        return None
    *columns, measure_texts = zip(*rows)
    dictionaries, codes = [], []
    try:
        measures = list(map(float, measure_texts))
        for dim, column in zip(schema.dimensions, columns):
            texts: dict = {}
            column_codes = [texts.setdefault(text, len(texts)) for text in column]
            # two spellings of one value ("01" and "1", " a" and "a"
            # when trimmed) share a code
            code_of: dict = {}
            recode = [
                code_of.setdefault(
                    _parse_value(dim.dtype, text.strip() if strip else text),
                    len(code_of),
                )
                for text in texts
            ]
            if len(code_of) != len(texts):
                column_codes = [recode[code] for code in column_codes]
            dictionaries.append(list(code_of))
            codes.append(column_codes)
    except (ValueError, ModelError):
        return None
    return Cube.from_columns(schema, dictionaries, codes, measures)


def _cube_from_rows(schema: CubeSchema, rows: list, strip: bool) -> Cube:
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


def canonical_text(cube: Cube) -> str:
    """The cube's CSV serialization, produced once per cube.

    Rows are sorted and values written by ``repr``, so equal text means
    equal cubes: the text's digest stands for the cube wherever "did it
    change?" is asked across processes, and the same string is what the
    journal snapshot, the output file and the baseline file hold.  The
    text rides on the cube like its column store does — shared by
    ``copy()``, dropped by any mutation.
    """
    text = cube._csv_text
    if text is None:
        text = cube._csv_text = cube_to_csv_text(cube)
    return text


def cube_from_canonical_text(schema: CubeSchema, text: str) -> Cube:
    """Parse text that *is* some cube's :func:`canonical_text` — a
    snapshot or baseline file this package wrote, verified by digest —
    verbatim, and keep it as the parsed cube's text."""
    cube = cube_from_csv_text(schema, text)
    cube._csv_text = text
    return cube


def text_sha256(text: str) -> str:
    """The content digest every on-disk format here records for text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

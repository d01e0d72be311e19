"""Independent oracle for the pipeline benchmark: plain Python over dicts.

No ``repro`` import.  Evaluates the statement specs of
:mod:`workloads` and the session's query answers, and compares them with
what the ``exl`` CLI wrote: derived CSVs to 1e-9 relative, query answers
to the six significant digits ``exl query`` prints.

A cube is ``{key tuple of strings: float}``; its dimensions are a list
of ``(name, type)`` with types as in the project file (``time:M``,
``time:Q``, ``string``).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional, Tuple

Key = Tuple[str, ...]
CubeData = Dict[Key, float]
Dims = List[Tuple[str, str]]

#: relative tolerance on every derived tuple
REL_TOL = 1e-9
#: ``exl query`` prints ``%.6g``: half a unit of the sixth digit
PRINTED_REL_TOL = 5.1e-6


# -- calendar ----------------------------------------------------------------


def month_ordinal(text: str) -> int:
    year, month = text.split("M")
    return int(year) * 12 + int(month) - 1


def month_text(ordinal: int) -> str:
    """``year * 12 + (month - 1)`` -> ``2004M07``."""
    return f"{ordinal // 12}M{ordinal % 12 + 1:02d}"


def coarsen(text: str, level: str) -> str:
    """A month or quarter value at a coarser calendar level."""
    if "M" in text:
        year, month = text.split("M")
        quarter = (int(month) - 1) // 3 + 1
    elif "Q" in text:
        year, quarter = text.split("Q")
    else:
        year, quarter = text, None
    if level == "year":
        return year
    if level == "quarter" and quarter is not None:
        return f"{year}Q{quarter}"
    raise ValueError(f"cannot take {text!r} to level {level!r}")


def _time_index(dims: Dims) -> int:
    for index, (_, dtype) in enumerate(dims):
        if dtype.startswith("time:"):
            return index
    raise ValueError(f"no time dimension in {dims}")


def _sorted_sum(values: List[float]) -> float:
    return float(sum(sorted(values)))


# -- the program ---------------------------------------------------------------


def evaluate(
    statements: List[tuple], inputs: Dict[str, CubeData], input_dims: Dict[str, Dims]
) -> Tuple[Dict[str, CubeData], Dict[str, Dims]]:
    """Run the statement specs; returns every derived cube and its dims."""
    cubes = dict(inputs)
    dims = dict(input_dims)
    derived: Dict[str, CubeData] = {}
    for statement in statements:
        kind, target, source = statement[:3]
        data, source_dims = cubes[source], dims[source]
        if kind == "agg":
            result, result_dims = _aggregate(data, source_dims, statement[3], statement[4])
        elif kind == "affine":
            mul, div = statement[3], statement[4]
            result = {key: v * mul + v / div for key, v in data.items()}
            result_dims = source_dims
        elif kind == "lagdiff":
            result = _lag_difference(data, _time_index(source_dims), statement[3])
            result_dims = source_dims
        elif kind in ("cumsum", "ma"):
            if len(source_dims) != 1:
                raise ValueError(f"{kind} needs a pure time series, got {source_dims}")
            window = statement[3] if kind == "ma" else None
            result = _series_function(data, kind, window)
            result_dims = source_dims
        else:
            raise ValueError(f"unknown statement kind {kind!r}")
        cubes[target] = derived[target] = result
        dims[target] = result_dims
    return derived, dims


def _aggregate(data: CubeData, dims: Dims, fn: str, groups: List[tuple]):
    names = [name for name, _ in dims]
    plan = []
    result_dims: Dims = []
    for dim, dimfunc, alias in groups:
        index = names.index(dim)
        plan.append((index, dimfunc))
        dtype = dims[index][1]
        if dimfunc == "quarter":
            dtype = "time:Q"
        elif dimfunc is not None:
            raise ValueError(f"unknown dimension function {dimfunc!r}")
        result_dims.append((alias or dim, dtype))
    bags: Dict[Key, List[float]] = {}
    for key, value in data.items():
        group = tuple(
            coarsen(key[index], dimfunc) if dimfunc else key[index]
            for index, dimfunc in plan
        )
        bags.setdefault(group, []).append(value)
    if fn == "sum":
        result = {group: _sorted_sum(bag) for group, bag in bags.items()}
    elif fn == "avg":
        result = {group: _sorted_sum(bag) / len(bag) for group, bag in bags.items()}
    else:
        raise ValueError(f"unknown aggregate {fn!r}")
    return result, result_dims


def _lag_difference(data: CubeData, time_index: int, periods: int) -> CubeData:
    """``S - shift(S, periods)``: defined where S has both t and t - periods."""
    result = {}
    for key, value in data.items():
        earlier = list(key)
        earlier[time_index] = month_text(month_ordinal(key[time_index]) - periods)
        before = data.get(tuple(earlier))
        if before is not None:
            result[key] = value - before
    return result


def _series_function(data: CubeData, kind: str, window: Optional[int]) -> CubeData:
    points = sorted(data, key=lambda key: month_ordinal(key[0]))
    values = [data[key] for key in points]
    out = []
    running = 0.0
    for i, v in enumerate(values):
        running += v
        if kind == "ma":
            if i >= window:
                running -= values[i - window]
            out.append(running / min(i + 1, window))
        else:
            out.append(running)
    return dict(zip(points, out))


# -- query answers -------------------------------------------------------------


def rollup_answer(
    data: CubeData,
    dims: Dims,
    levels: Dict[str, str],
    groupings: Dict[str, Dict[str, Dict[str, str]]],
) -> Dict[Key, float]:
    """Sum at one level per dimension; ``all`` drops the dimension,
    an unnamed dimension stays at base."""
    mappers = []
    for name, dtype in dims:
        level = levels.get(name)
        if level is None:
            mappers.append(lambda value: value)
        elif level == "all":
            mappers.append(None)
        elif dtype.startswith("time:"):
            mappers.append(lambda value, level=level: coarsen(value, level))
        else:
            table = groupings[name][level]
            mappers.append(lambda value, table=table: table.get(value, value))
    bags: Dict[Key, List[float]] = {}
    for key, value in data.items():
        group = tuple(m(part) for m, part in zip(mappers, key) if m is not None)
        bags.setdefault(group, []).append(value)
    return {group: _sorted_sum(bag) for group, bag in bags.items()}


def parse_rollup_text(text: str) -> Dict[Key, float]:
    """``exl query --levels`` output: header, ruler, one row per group."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or not set(lines[1].replace(" ", "")) <= {"-"}:
        raise ValueError("not a query table")
    rows = {}
    for line in lines[2:]:
        parts = line.split()
        rows[tuple(parts[:-1])] = float(parts[-1])
    return rows


# -- comparison ----------------------------------------------------------------


def read_csv_cube(text: str, dim_names: List[str]) -> CubeData:
    """Parse a cube CSV; the header must be the dimensions, then a measure."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:-1] != dim_names:
        raise ValueError(f"CSV header {header} does not start with {dim_names}")
    return {tuple(row[:-1]): float(row[-1]) for row in reader if row}


def compare_cubes(
    name: str,
    got: Dict[Key, float],
    expected: Dict[Key, float],
    rel_tol: float = REL_TOL,
    require_finite: bool = True,
) -> Optional[str]:
    """None when equal within tolerance, else the first difference."""
    if got.keys() != expected.keys():
        missing = len(expected.keys() - got.keys())
        extra = len(got.keys() - expected.keys())
        return f"{name}: {missing} tuples missing, {extra} unexpected"
    scale = max((abs(v) for v in expected.values()), default=0.0)
    for key, want in expected.items():
        value = got[key]
        if require_finite and not math.isfinite(value):
            return f"{name}{list(key)}: non-finite value {value!r}"
        if not math.isclose(value, want, rel_tol=rel_tol, abs_tol=rel_tol * scale):
            return f"{name}{list(key)}: got {value!r}, expected {want!r}"
    return None

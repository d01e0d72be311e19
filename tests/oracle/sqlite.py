"""The SQL target's second judge: the statements ``SqlBackend`` prints,
run on the stdlib's sqlite3 instead of ``repro.sqlengine``.

The paper's SQL target is a production DBMS (Section 5.1); ours is a
from-scratch engine, and only its own tests would otherwise read the
SQL it is given.  :func:`judge` loads a mapping's input cubes into an
in-memory sqlite3 database and executes ``SqlBackend.sql_for`` tgd by
tgd, so every later statement reads what sqlite3 itself computed.  It
then compares each target table with ``sqlengine``'s and with the
chase's cube.

What sqlite3 brings of its own: the joins, ``WHERE``, ``GROUP BY``,
``LEFT JOIN`` null extension and ``SUM`` / ``AVG`` / ``COUNT`` / ``MIN``
/ ``MAX``.  What it is lent, as user-defined functions, is only what no
DBMS ships: the registry's scalar and dimension functions (``QUARTER``,
``LN``, ``POW``, …) and its statistical aggregates (``MEDIAN``, …).

Encoding: a TIME value is the integer ``base(freq) + ordinal``, so the
printed ``C1.q - 1`` is one period, and a dimension function reads the
frequency back from the base.  Strings are TEXT, integers INTEGER and
measures REAL.

A table-function tgd prints ``FROM STL_T(…)``, which sqlite3 cannot
run (Python's ``sqlite3`` has no virtual-table API); it is materialised
from the registry on sqlite's own operand rows, and counted.

sqlite3 and the chase may differ only by the rules of :data:`RULES`
(DESIGN.md, "the SQL target"); every difference is one of them or a
failure, never a skip.
"""

from __future__ import annotations

import math
import sqlite3
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.backends import all_backends
from repro.exl.operators import OpKind
from repro.mappings.dependencies import TgdKind
from repro.mappings.terms import Const, FuncApp, Term, Var
from repro.model.cube import Cube, CubeSchema
from repro.model.time import Frequency, TimePoint
from repro.model.types import DimKind

__all__ = ["RULES", "Verdict", "judge"]

#: the rules by which sqlite3 may differ from the chase, and how the
#: judge applies each one
RULES = {
    "nan-is-null": "sqlite3 stores a NaN REAL as NULL: a NaN measure of "
    "the chase is a NULL measure in sqlite3",
    "empty-avg": "an aggregate over no rows is NULL in sqlite3 (COUNT: 0); "
    "a global aggregate over an empty input is one such row",
    "integer-division": "sqlite3 divides two integers as integers "
    "(7 / 2 = 3); a tgd whose `/` has an integer on both sides fails the "
    "judge instead of running",
}

#: the aggregates every DBMS has; sqlite3 computes these itself
_NATIVE_AGGREGATES = {"sum", "avg", "count", "min", "max"}

#: the operators whose result is an integer when both operands are
_INTEGER_CLOSED = {"+", "-", "*", "/"}

#: TIME is stored as ``_BASE * (index of freq + 1) + ordinal``
_BASE = 10**8
_FREQS = list(Frequency)


@dataclass
class Verdict:
    """What one :func:`judge` call ran and which rules it applied."""

    judged: int = 0  # tgds whose printed SQL ran on sqlite3
    materialised: int = 0  # table-function tgds computed from the registry
    rules: Dict[str, int] = field(default_factory=dict)


def _encode(value: Any) -> Any:
    if isinstance(value, TimePoint):
        return _BASE * (_FREQS.index(value.freq) + 1) + value.ordinal
    return value


def _decode_time(value: int) -> TimePoint:
    freq = _FREQS[value // _BASE - 1]
    return TimePoint(freq, value % _BASE)


def _null_guarded(fn):
    def guarded(*args):
        return None if any(a is None for a in args) else fn(*args)

    return guarded


def _aggregate_udf(impl):
    class Aggregate:
        def __init__(self):
            self.values: List[float] = []

        def step(self, value):
            if value is not None:
                self.values.append(value)

        def finalize(self):
            return impl(self.values) if self.values else None

    return Aggregate


def _connect(mapping) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for spec in (mapping.registry.get(n) for n in mapping.registry.names()):
        if spec.kind is OpKind.SCALAR:
            required = sum(1 for _name, req in spec.params if req)
            for arity in range(1 + required, 2 + len(spec.params)):
                conn.create_function(
                    spec.name.upper(), arity, _null_guarded(spec.impl), deterministic=True
                )
        elif spec.kind is OpKind.DIM_FUNCTION:
            conn.create_function(
                spec.name.upper(),
                1,
                _null_guarded(lambda v, f=spec.impl: _encode(f(_decode_time(v)))),
                deterministic=True,
            )
        elif spec.kind is OpKind.AGGREGATION and spec.name not in _NATIVE_AGGREGATES:
            conn.create_aggregate(spec.name.upper(), 1, _aggregate_udf(spec.impl))
    for schema in mapping.target:
        columns = [f"{d.name} {_sqlite_type(d.dtype.kind)}" for d in schema.dimensions]
        columns.append(f"{schema.measure} REAL")
        conn.execute(f"CREATE TABLE {schema.name} ({', '.join(columns)})")
    return conn


def _sqlite_type(kind: DimKind) -> str:
    return "TEXT" if kind is DimKind.STRING else "INTEGER"


def _rows(conn: sqlite3.Connection, schema: CubeSchema) -> List[Tuple[Any, ...]]:
    """The table's rows with TIME decoded."""
    times = [d.dtype.kind is DimKind.TIME for d in schema.dimensions] + [False]
    return [
        tuple(_decode_time(v) if t and v is not None else v for v, t in zip(row, times))
        for row in conn.execute(f"SELECT * FROM {schema.name}")
    ]


def _materialise(conn, tgd, mapping) -> None:
    """A table-function tgd, computed by the registry on sqlite's rows."""
    spec = mapping.registry.get(tgd.table_function)
    rows = sorted(_rows(conn, mapping.target[tgd.lhs[0].relation]), key=lambda r: r[0])
    result = spec.impl([(row[0], row[-1]) for row in rows], tgd.params_dict())
    conn.executemany(
        f"INSERT INTO {tgd.target_relation} VALUES (?, ?)",
        [(_encode(point), float(value)) for point, value in result],
    )


def _integer_division(tgd) -> List[str]:
    """The divisions of ``tgd`` with an integer on both sides."""
    measures = {atom.terms[-1].name for atom in tgd.lhs if isinstance(atom.terms[-1], Var)}
    found: List[str] = []

    def real(term: Term) -> bool:
        if isinstance(term, Var):
            return term.name in measures
        if isinstance(term, Const):
            return isinstance(term.value, float) and not term.value.is_integer()
        if isinstance(term, FuncApp):
            if term.name == "/" and not any(real(a) for a in term.args):
                found.append(str(term))
            return term.name not in _INTEGER_CLOSED or any(real(a) for a in term.args)
        return True  # an aggregate

    for term in tgd.rhs.terms:
        real(getattr(term, "operand", term))
    return found


def _same(expected: float, actual: Any, verdict: Verdict) -> bool:
    if actual is None:
        if expected != expected:
            verdict.rules["nan-is-null"] = verdict.rules.get("nan-is-null", 0) + 1
            return True
        return False
    return math.isclose(expected, actual, rel_tol=1e-8, abs_tol=1e-9)


def _compare(label: str, rows, cube: Cube, verdict: Verdict) -> List[str]:
    """Where sqlite's ``rows`` and ``cube`` differ, outside :data:`RULES`."""
    got: Dict[Tuple, Any] = {}
    problems = []
    for row in rows:
        if row[:-1] in got:
            problems.append(f"{label}: sqlite3 holds {row[:-1]!r} twice")
        got[row[:-1]] = row[-1]
    if not len(cube) and list(got) == [()] and got[()] in (None, 0):
        verdict.rules["empty-avg"] = verdict.rules.get("empty-avg", 0) + 1
        return problems
    expected = dict(cube.items())
    for key in expected.keys() - got.keys():
        problems.append(f"{label}: only the reference holds {key!r}")
    for key in got.keys() - expected.keys():
        problems.append(f"{label}: only sqlite3 holds {key!r} -> {got[key]!r}")
    for key in expected.keys() & got.keys():
        if not _same(expected[key], got[key], verdict):
            problems.append(f"{label}{key!r}: {expected[key]!r} vs sqlite3 {got[key]!r}")
    return problems


def judge(mapping, data: Dict[str, Cube]) -> Verdict:
    """Run ``mapping``'s printed SQL on sqlite3 and compare each target
    table with ``sqlengine``'s and the chase's; raises ``AssertionError``
    naming every difference that no rule covers."""
    with closing(_connect(mapping)) as conn:
        verdict = _run(conn, mapping, data)
        problems = []
        for name, cubes in _references(mapping, data).items():
            rows = _rows(conn, mapping.target[name])
            for reference, cube in cubes.items():
                problems += _compare(f"{reference}/{name}", rows, cube, verdict)
    if problems:
        raise AssertionError("\n".join(problems[:10]))
    return verdict


def _run(conn, mapping, data: Dict[str, Cube]) -> Verdict:
    """Load the inputs, then run the mapping tgd by tgd on sqlite3."""
    sql = all_backends()["sql"]
    verdict = Verdict()
    for tgd in mapping.st_tgds:
        schema = mapping.target[tgd.lhs[0].relation]
        marks = ", ".join("?" * len(schema.columns))
        conn.executemany(
            f"INSERT INTO {schema.name} VALUES ({marks})",
            [tuple(map(_encode, row)) for row in data[schema.name].to_rows()],
        )
    for tgd in mapping.target_tgds:
        if tgd.kind is TgdKind.TABLE_FUNCTION:
            _materialise(conn, tgd, mapping)
            verdict.materialised += 1
            continue
        divisions = _integer_division(tgd)
        if divisions:
            raise AssertionError(
                f"{tgd.label}: {RULES['integer-division']}: {', '.join(divisions)}"
            )
        conn.executescript(sql.sql_for(tgd, mapping))
        verdict.judged += 1
    return verdict


def _references(mapping, data: Dict[str, Cube]) -> Dict[str, Dict[str, Cube]]:
    """Target relation -> ``{"sqlengine": cube, "chase": cube}``."""
    wanted = list(dict.fromkeys(t.target_relation for t in mapping.target_tgds))
    backends = all_backends()
    runs = {
        name: backends[name].run_mapping(mapping, data, wanted=wanted)
        for name in ("sql", "chase")
    }
    return {
        relation: {"sqlengine": runs["sql"][relation], "chase": runs["chase"][relation]}
        for relation in wanted
    }

"""The OLAP query service: slice/dice/roll-up/drill-down over lattices.

:class:`OlapService` keeps one live :class:`CubeLattice` per *queried*
cube, created by the first query on it, plus a cache of *pinned*
lattices bound on demand to the :class:`VersionedStore` for
``as_of=run_id`` queries — historicity means any past run's data stays
queryable at the exact versions that run left behind
(``RunRecord.baseline_versions``).  A live lattice follows the store
head the way every lattice is bound: when a query finds its cube moved
on, it is rebound to the new head (:meth:`CubeLattice.build`) and its
nodes reduce again as they are read.  Nothing is done at commit time.

A query pays for the lattice nodes it names and no others: a point
lookup is one cell of the base node (a dict probe once that node is
materialized, the aggregate of the one row before), a roll-up reads one
node's groups, and a cross-tab assembles four nodes (cells, row totals,
column totals, grand total — the sub-total semantics of Gray et al.'s
``ALL``).  The first read of a node group-reduces it from the bound
cube; every later read is a lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..model.catalog import MetadataCatalog
from ..model.cube import _sort_key
from .hierarchy import ALL_LEVEL, OlapError, hierarchies_for
from .lattice import CubeLattice

__all__ = ["QueryResult", "OlapService", "format_measure"]


def format_measure(value: float) -> str:
    """Compact, deterministic rendering of an aggregate value."""
    return f"{value:.6g}"


@dataclass
class QueryResult:
    """A relational query answer: named columns plus sorted rows."""

    columns: Tuple[str, ...]
    rows: List[Tuple]

    def to_text(self) -> str:
        """The result as an aligned text table."""
        rendered = [
            tuple(
                format_measure(part) if isinstance(part, float) else str(part)
                for part in row
            )
            for row in self.rows
        ]
        widths = [
            max(len(name), *(len(row[j]) for row in rendered), 0)
            if rendered
            else len(name)
            for j, name in enumerate(self.columns)
        ]
        lines = [
            "  ".join(
                name.ljust(w) for name, w in zip(self.columns, widths)
            ).rstrip()
        ]
        lines.append("  ".join("-" * w for w in widths))
        for row in rendered:
            lines.append(
                "  ".join(
                    part.ljust(w) for part, w in zip(row, widths)
                ).rstrip()
            )
        return "\n".join(lines)


class OlapService:
    """Lattice-backed OLAP queries over the catalog's versioned cubes."""

    def __init__(
        self,
        catalog: MetadataCatalog,
        runs=None,
        aggregate: Any = "sum",
        metrics=None,
        cubes: Optional[Iterable[str]] = None,
    ):
        self.catalog = catalog
        self.runs = runs
        self.aggregate = aggregate
        self.metrics = metrics
        #: restriction to a subset of cubes (None = every cube with data)
        self._cubes: Optional[Tuple[str, ...]] = (
            tuple(cubes) if cubes is not None else None
        )
        self._live: Dict[str, CubeLattice] = {}
        self._pinned: Dict[Tuple[str, int], CubeLattice] = {}

    # -- lattice management -------------------------------------------------
    def queryable_names(self) -> List[str]:
        names = (
            list(self._cubes)
            if self._cubes is not None
            else self.catalog.names()
        )
        return [name for name in names if self.catalog.has_data(name)]

    def _check_queryable(self, name: str) -> None:
        if name not in self.catalog:
            raise OlapError(f"unknown cube {name!r}")
        if self._cubes is not None and name not in self._cubes:
            raise OlapError(f"cube {name!r} is not enabled for OLAP queries")
        if not self.catalog.has_data(name):
            raise OlapError(f"cube {name!r} has no stored data")

    def _new_lattice(self, name: str) -> CubeLattice:
        return CubeLattice(
            name,
            hierarchies_for(self.catalog, name),
            aggregate=self.aggregate,
            metrics=self.metrics,
        )

    def lattice(self, name: str, as_of: Optional[int] = None) -> CubeLattice:
        """The lattice serving ``name`` — live, or pinned at a run.

        Live lattices follow the store head: one whose cube moved on is
        rebound to the head before answering.  Pinned lattices are
        bound once to the versions recorded by run ``as_of`` and
        cached.  Either way the nodes themselves reduce when a query
        first reads them.
        """
        self._check_queryable(name)
        store = self.catalog.store
        if as_of is None:
            head = store.latest_version(name)
            live = self._live.get(name)
            if live is None:
                live = self._live[name] = self._new_lattice(name)
            if live.version != head:
                live.build(store.get(name), head)
            return live
        if self.runs is None:
            raise OlapError("as_of queries need a run log")
        record = self.runs.get(as_of)
        if record is None:
            raise OlapError(f"no run with id {as_of}")
        version = record.baseline_versions.get(name)
        if version is None:
            raise OlapError(
                f"run {as_of} recorded no version of cube {name!r}"
            )
        pinned = self._pinned.get((name, version))
        if pinned is None:
            pinned = self._new_lattice(name)
            pinned.build(store.get(name, version), version)
            self._pinned[(name, version)] = pinned
        return pinned

    # -- queries ------------------------------------------------------------
    def point(
        self, name: str, coords: Dict[str, Any], as_of: Optional[int] = None
    ) -> float:
        """The measure at one fully specified base coordinate."""
        t0 = time.perf_counter()
        lattice = self.lattice(name, as_of)
        schema = self.catalog.schema_of(name)
        missing = [d for d in schema.dim_names if d not in coords]
        if missing:
            raise OlapError(
                f"point query on {name!r} missing coordinates: "
                f"{', '.join(missing)}"
            )
        extra = [d for d in coords if d not in schema.dim_names]
        if extra:
            raise OlapError(
                f"cube {name!r} has no dimension {extra[0]!r}"
            )
        key = tuple(coords[d] for d in schema.dim_names)
        try:
            value = lattice.cell(key)
        except KeyError:
            raise OlapError(
                f"cube {name!r} is undefined at {key!r}"
            ) from None
        self._count("point", t0)
        return value

    def rollup(
        self,
        name: str,
        levels: Optional[Dict[str, str]] = None,
        as_of: Optional[int] = None,
    ) -> QueryResult:
        """Aggregates at one level choice; unnamed dimensions stay base."""
        t0 = time.perf_counter()
        lattice = self.lattice(name, as_of)
        node = lattice.node(levels or {})
        result = self._result_of(lattice, node)
        self._count("rollup", t0)
        return result

    def drilldown(
        self,
        name: str,
        levels: Dict[str, str],
        dim: str,
        as_of: Optional[int] = None,
    ) -> QueryResult:
        """One step finer along ``dim`` from the given level choice."""
        t0 = time.perf_counter()
        lattice = self.lattice(name, as_of)
        hierarchy = lattice.hierarchy(dim)
        current = levels.get(dim, hierarchy.levels[0].name)
        finer = hierarchy.finer(current)
        if finer is None:
            raise OlapError(
                f"dimension {dim!r} is already at its base level "
                f"{current!r}; cannot drill down"
            )
        refined = dict(levels)
        refined[dim] = finer.name
        node = lattice.node(refined)
        result = self._result_of(lattice, node)
        self._count("drilldown", t0)
        return result

    def slice_(
        self,
        name: str,
        fixed: Dict[str, Any],
        levels: Optional[Dict[str, str]] = None,
        as_of: Optional[int] = None,
    ) -> QueryResult:
        """Fix dimensions to single values and project them away."""
        t0 = time.perf_counter()
        lattice = self.lattice(name, as_of)
        node = lattice.node(levels or {})
        columns, positions = self._key_columns(lattice, node)
        for dim in fixed:
            if dim not in positions:
                raise OlapError(
                    f"cannot slice on {dim!r}: not a grouped dimension "
                    f"of this query"
                )
        fixed_pos = {positions[dim]: value for dim, value in fixed.items()}
        keep = [j for j in range(len(columns)) if j not in fixed_pos]
        rows = [
            tuple(key[j] for j in keep) + (value,)
            for key, value in node.groups.items()
            if all(key[j] == want for j, want in fixed_pos.items())
        ]
        rows.sort(key=lambda row: _sort_key(row[:-1]))
        result = QueryResult(
            tuple(columns[j] for j in keep) + (self._measure_name(lattice),),
            rows,
        )
        self._count("slice", t0)
        return result

    def dice(
        self,
        name: str,
        ranges: Dict[str, Iterable[Any]],
        levels: Optional[Dict[str, str]] = None,
        as_of: Optional[int] = None,
    ) -> QueryResult:
        """Filter dimensions to value sets, keeping all grouped columns."""
        t0 = time.perf_counter()
        lattice = self.lattice(name, as_of)
        node = lattice.node(levels or {})
        columns, positions = self._key_columns(lattice, node)
        for dim in ranges:
            if dim not in positions:
                raise OlapError(
                    f"cannot dice on {dim!r}: not a grouped dimension "
                    f"of this query"
                )
        wanted = {positions[dim]: set(vals) for dim, vals in ranges.items()}
        rows = [
            key + (value,)
            for key, value in node.groups.items()
            if all(key[j] in vals for j, vals in wanted.items())
        ]
        rows.sort(key=lambda row: _sort_key(row[:-1]))
        result = QueryResult(
            tuple(columns) + (self._measure_name(lattice),), rows
        )
        self._count("dice", t0)
        return result

    def crosstab(
        self,
        name: str,
        row_dim: str,
        col_dim: str,
        levels: Optional[Dict[str, str]] = None,
        as_of: Optional[int] = None,
    ) -> str:
        """A text cross-tab with row/column sub-totals and grand total.

        Cells come from the node grouping ``row_dim`` × ``col_dim`` at
        the requested levels (every other dimension collapsed to all);
        the sub-totals and the grand total come from the three coarser
        nodes of the same lattice — they are maintained aggregates, not
        sums of the printed cells.
        """
        t0 = time.perf_counter()
        if row_dim == col_dim:
            raise OlapError("cross-tab needs two distinct dimensions")
        lattice = self.lattice(name, as_of)
        levels = dict(levels or {})
        schema = self.catalog.schema_of(name)
        collapse = {
            d: ALL_LEVEL
            for d in schema.dim_names
            if d not in (row_dim, col_dim)
        }
        base_choice = {**collapse}
        for dim in (row_dim, col_dim):
            if dim in levels:
                base_choice[dim] = levels[dim]
        cells = lattice.node(base_choice)
        row_totals = lattice.node({**base_choice, col_dim: ALL_LEVEL})
        col_totals = lattice.node({**base_choice, row_dim: ALL_LEVEL})
        grand = lattice.node({**collapse, row_dim: ALL_LEVEL, col_dim: ALL_LEVEL})
        lattice.materialize([cells, row_totals, col_totals, grand])
        # group keys order by schema dimension position
        row_first = schema.dim_index(row_dim) < schema.dim_index(col_dim)
        table: Dict[Any, Dict[Any, float]] = {}
        col_values: Dict[Any, None] = {}
        for key, value in cells.groups.items():
            r, c = key if row_first else (key[1], key[0])
            table.setdefault(r, {})[c] = value
            col_values[c] = None
        rows_sorted = sorted(table, key=lambda v: _sort_key((v,)))
        cols_sorted = sorted(col_values, key=lambda v: _sort_key((v,)))
        header = [row_dim, *map(str, cols_sorted), "total"]
        body: List[List[str]] = []
        for r in rows_sorted:
            line = [str(r)]
            for c in cols_sorted:
                cell = table[r].get(c)
                line.append("." if cell is None else format_measure(cell))
            line.append(format_measure(row_totals.groups[(r,)]))
            body.append(line)
        footer = ["total"]
        for c in cols_sorted:
            footer.append(format_measure(col_totals.groups[(c,)]))
        footer.append(format_measure(grand.groups.get((), float("nan"))))
        body.append(footer)
        widths = [
            max(len(header[j]), *(len(line[j]) for line in body))
            for j in range(len(header))
        ]
        lines = [
            "  ".join(part.ljust(w) for part, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for line in body:
            lines.append(
                "  ".join(part.rjust(w) for part, w in zip(line, widths))
            )
        self._count("crosstab", t0)
        return "\n".join(lines)

    # -- helpers ------------------------------------------------------------
    def _result_of(self, lattice: CubeLattice, node) -> QueryResult:
        columns, _ = self._key_columns(lattice, node)
        rows = [
            key + (value,)
            for key, value in sorted(
                node.groups.items(), key=lambda kv: _sort_key(kv[0])
            )
        ]
        return QueryResult(
            tuple(columns) + (self._measure_name(lattice),), rows
        )

    def _key_columns(self, lattice: CubeLattice, node):
        """Column labels of a node's group key + dim -> key position."""
        columns: List[str] = []
        positions: Dict[str, int] = {}
        for hierarchy, lvl in zip(lattice.hierarchies, node.levels):
            if lvl.is_all:
                continue
            positions[hierarchy.dim.name] = len(columns)
            if lvl.is_base:
                columns.append(hierarchy.dim.name)
            else:
                columns.append(f"{hierarchy.dim.name}:{lvl.name}")
        return columns, positions

    def _measure_name(self, lattice: CubeLattice) -> str:
        return lattice.agg_name or "aggregate"

    def _count(self, kind: str, t0: float) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"olap.query.{kind}")
            self.metrics.observe("olap.query.s", time.perf_counter() - t0)

"""Seeded input generators for the pipeline benchmark.

Imports nothing from ``repro``: the program under test sees only what
:func:`write_inputs` puts on disk (``project.json``, ``program.exl`` and
the elementary CSVs), and ``repro.workloads`` may change under later PRs
without moving this benchmark's inputs.

A program is a list of *statement specs* (plain tuples).  They are
rendered to EXL text here and evaluated independently by
:mod:`reference`, so the program text and the oracle cannot drift apart:

* ``("agg", target, source, fn, groups)`` — ``fn`` in ``sum``/``avg``;
  ``groups`` is a list of ``(dim, dimfunc or None, alias or None)``;
* ``("affine", target, source, mul, div)`` — ``S * mul + S / div``;
* ``("lagdiff", target, source, periods)`` — ``S - shift(S, periods)``;
* ``("cumsum", target, source)`` / ``("ma", target, source, window)`` —
  whole-series table functions over a pure monthly time series.

Cubes are ``{key tuple of strings: float}`` with time values in their
CSV form (``2004M07``, ``2004Q3``, ``2004``).

Every size is a constant of the workload, never drawn from the seed, so
tuple counts, file counts and fsync counts are the same for every seed
and only the measure values move.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from reference import month_text

Key = Tuple[str, ...]
CubeData = Dict[Key, float]

BACKENDS = ("etl", "r", "sql", "matlab", "chase")


@dataclass(frozen=True)
class Query:
    """One ``exl query`` call of the session."""

    name: str  # cold / warm_rollup / warm_point
    cube: str
    levels: Tuple[Tuple[str, str], ...] = ()  # roll-up: (dim, level)
    point: Tuple[Tuple[str, str], ...] = ()  # point: (dim, value text)

    def argv(self) -> List[str]:
        if self.point:
            return [self.cube, "--point", ",".join(f"{d}={v}" for d, v in self.point)]
        return [self.cube, "--levels", ",".join(f"{d}={v}" for d, v in self.levels)]


@dataclass
class Workload:
    name: str
    sizes: Dict[str, int]
    #: elementary cube specs as the project file wants them
    elementary: List[dict]
    statements: List[tuple]
    targets: Dict[str, str]
    pristine: Dict[str, CubeData]
    revised: Dict[str, CubeData]
    session: Tuple[Query, Query, Query]
    #: {cube: {dim: {level: {base value: label}}}}, finest level first
    groupings: Dict[str, dict] = field(default_factory=dict)

    def dims_of(self, cube: str) -> List[Tuple[str, str]]:
        for spec in self.elementary:
            if spec["name"] == cube:
                return [tuple(d) for d in spec["dimensions"]]
        raise KeyError(cube)


# -- rendering -------------------------------------------------------------


def _number(value: float) -> str:
    return repr(float(value)) if value != int(value) else str(int(value))


def render_statement(statement: tuple) -> str:
    kind, target, source = statement[:3]
    if kind == "agg":
        fn, groups = statement[3], statement[4]
        parts = []
        for dim, dimfunc, alias in groups:
            parts.append(f"{dimfunc}({dim}) as {alias}" if dimfunc else dim)
        return f"{target} := {fn}({source}, group by {', '.join(parts)})"
    if kind == "affine":
        mul, div = statement[3], statement[4]
        return f"{target} := {source} * {_number(mul)} + {source} / {_number(div)}"
    if kind == "lagdiff":
        return f"{target} := {source} - shift({source}, {statement[3]})"
    if kind == "cumsum":
        return f"{target} := cumsum({source})"
    if kind == "ma":
        return f"{target} := ma({source}, {statement[3]})"
    raise ValueError(f"unknown statement kind {kind!r}")


def render_program(statements: List[tuple]) -> str:
    return "\n".join(render_statement(s) for s in statements) + "\n"


def cube_csv_text(columns: List[str], cube: CubeData) -> str:
    """Values carry at most six decimals (see :func:`revise`); writing
    all six keeps the input's byte count nearly the same for every seed,
    so ``rundir_bytes_per_input_byte`` does not move with the seed."""
    lines = [",".join(columns)]
    for key, value in cube.items():
        lines.append(",".join(key) + f",{value:.6f}")
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, directory: Path, revised: bool = False) -> None:
    """Write project.json, program.exl and the elementary CSVs.

    The program always goes to ``program.exl``: ``load_project`` probes
    ``base_dir / spec["program"]`` with ``Path.exists`` before treating
    the entry as inline source, which raises ``OSError: File name too
    long`` once an inline program exceeds ``NAME_MAX``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    data = workload.revised if revised else workload.pristine
    elementary = []
    for spec in workload.elementary:
        csv_name = f"{spec['name'].lower()}.csv"
        columns = [d[0] for d in spec["dimensions"]] + [spec["measure"]]
        (directory / csv_name).write_text(cube_csv_text(columns, data[spec["name"]]))
        elementary.append({**spec, "csv": csv_name})
    (directory / "program.exl").write_text(render_program(workload.statements))
    project = {
        "elementary": elementary,
        "program": "program.exl",
        "preferred_targets": workload.targets,
    }
    if workload.groupings:
        project["groupings"] = workload.groupings
    (directory / "project.json").write_text(json.dumps(project, indent=1) + "\n")


# -- data ------------------------------------------------------------------


def revise(cube: CubeData, rng: random.Random) -> CubeData:
    """A 1 % revision: that share of the tuples get a value within ±10 %."""
    keys = list(cube)
    chosen = set(rng.sample(range(len(keys)), max(1, len(keys) // 100)))
    revised = {}
    for index, key in enumerate(keys):
        value = cube[key]
        if index in chosen:
            value = round(value * (1.0 + rng.uniform(-0.1, 0.1)), 6)
        revised[key] = value
    return revised


CUBE_STATEMENTS = [
    ("agg", "MR", "E", "sum", [("m", None, None), ("r", None, None)]),
    ("agg", "PMEAN", "E", "avg", [("p", None, None)]),
    ("agg", "QTOT", "E", "sum",
     [("m", "quarter", "q"), ("r", None, None), ("p", None, None)]),
    ("affine", "SCALED", "E", 2, 4),
    ("lagdiff", "DIFF", "E", 1),
]


def cube_chase(seed: int, quick: bool = False) -> Workload:
    """Dense ``E(m, r, p)`` with declared groupings r -> zone -> country
    and p -> category: 4 x 4 x 3 = 48 lattice nodes (Gray et al.: the
    cuboid count is the product of the hierarchy depths).  Five derived
    cubes, all pinned to ``chase``, so no other backend runs."""
    months, regions, products = (12, 6, 4) if quick else (36, 20, 12)
    start = 2010 * 12
    rng = random.Random(f"cube-{seed}")
    region_names = [f"r{k:02d}" for k in range(regions)]
    product_names = [f"p{k:02d}" for k in range(products)]
    pristine: CubeData = {}
    for i in range(months):
        for r in region_names:
            for p in product_names:
                pristine[(month_text(start + i), r, p)] = round(
                    rng.uniform(1.0, 500.0), 3
                )
    zones = {r: f"z{k // 4}" for k, r in enumerate(region_names)}
    countries = {r: f"c{k // 12}" for k, r in enumerate(region_names)}
    categories = {p: f"k{k // 3}" for k, p in enumerate(product_names)}
    rollup = (("m", "year"), ("r", "zone"), ("p", "category"))
    return Workload(
        name="cube_chase",
        sizes={"months": months, "regions": regions, "products": products,
               "tuples": len(pristine), "statements": len(CUBE_STATEMENTS),
               "lattice_nodes": 4 * 4 * 3},
        elementary=[{"name": "E",
                     "dimensions": [["m", "time:M"], ["r", "string"], ["p", "string"]],
                     "measure": "v"}],
        statements=CUBE_STATEMENTS,
        targets={s[1]: "chase" for s in CUBE_STATEMENTS},
        pristine={"E": pristine},
        revised={"E": revise(pristine, rng)},
        groupings={"E": {"r": {"zone": zones, "country": countries},
                         "p": {"category": categories}}},
        session=(
            Query("cold", "E", levels=rollup),
            Query("warm_rollup", "E", levels=rollup),
            Query("warm_point", "E",
                  point=(("m", month_text(start)), ("r", region_names[-1]),
                         ("p", product_names[-1]))),
        ),
    )


def chain_targets(seed: int, quick: bool = False) -> Workload:
    """A dependency chain, every link its own subgraph.

    ``cumsum`` and ``X - shift(X, 1)`` undo each other and the scalar
    link is ``X * 0.75 + X / 4`` (= X), so values stay at the head's
    scale however long the chain is; each lag difference drops the
    series' first month, which is why the panel is longer than the chain
    has such links.
    """
    months, members, links = (36, 3, 12) if quick else (120, 8, 100)
    start = 1990 * 12
    rng = random.Random(f"chain-{seed}")
    pristine: CubeData = {}
    for k in range(members):
        for i in range(months):
            pristine[(month_text(start + i), f"u{k + 1}")] = round(
                rng.uniform(10.0, 90.0), 3
            )
    statements: List[tuple] = [("agg", "C1", "BASE", "sum", [("m", None, None)])]
    for i in range(2, links + 1):
        previous, target = f"C{i - 1}", f"C{i}"
        step = i % 4
        if step == 0:
            statements.append(("cumsum", target, previous))
        elif step == 1:
            statements.append(("ma", target, previous, 3))
        elif step == 2:
            statements.append(("affine", target, previous, 0.75, 4))
        else:
            statements.append(("lagdiff", target, previous, 1))
    last = f"C{links}"
    return Workload(
        name="chain_targets",
        sizes={"months": months, "members": members, "tuples": len(pristine),
               "statements": links},
        elementary=[{"name": "BASE", "dimensions": [["m", "time:M"], ["u", "string"]],
                     "measure": "v"}],
        statements=statements,
        targets={s[1]: BACKENDS[i % len(BACKENDS)] for i, s in enumerate(statements)},
        pristine={"BASE": pristine},
        revised={"BASE": revise(pristine, rng)},
        session=(
            Query("cold", last, levels=(("m", "year"),)),
            Query("warm_rollup", last, levels=(("m", "year"),)),
            Query("warm_point", last, point=(("m", month_text(start + months - 1)),)),
        ),
    )


#: name -> (generator, why it is in the benchmark)
WORKLOADS = {
    "cube_chase": (
        cube_chase,
        "dense 36 x 20 x 12 cube, 5 derived cubes all on chase, 48-node lattice "
        "(r->zone->country, p->category): rows cost; kernels, persistence, OLAP work",
    ),
    "chain_targets": (
        chain_targets,
        "100-statement chain over 120 months x 8 members, targets round-robin: "
        "statements cost; parse, mapping, dispatch, 5 backends, journal, fsyncs work",
    ),
}


def generate(name: str, seed: int, quick: bool = False) -> Workload:
    return WORKLOADS[name][0](seed, quick)

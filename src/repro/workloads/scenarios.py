"""Scenario corpus: workload shapes real statistical production hits.

The random program generator (:mod:`.randprog`) explores the operator
space uniformly; this module instead builds the *adversarial* shapes
ROADMAP's scenario-corpus item calls out — the ones that spread targets'
relative costs apart and stress the update path:

* **Skewed panels** — a high-cardinality dimension where a few members
  hold most of the data (zipf-style coverage), so per-group work is
  wildly unbalanced and operand cardinality stops predicting cost.
* **Deep aggregation chains** — long dependency chains alternating
  aggregation, whole-series table functions, and scalar arithmetic, so
  a run is a long sequence of dependent subgraphs.
* **Revision storms** — sequences of small random revisions to the
  elementary data, the input feed for ``EXLEngine.update`` sweeps.

Everything is seed-deterministic and built on the same
:class:`~repro.workloads.programs.Workload` container the tests and
benchmarks already consume.  This is deliberately a *new* module: the
existing ``random_workload`` RNG draw sequence is pinned by dozens of
seeded equivalence sweeps and must not shift.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..model.cube import Cube, CubeSchema, Dimension
from ..model.schema import Schema
from ..model.time import Frequency, month
from ..model.types import STRING, TIME
from .programs import Workload

__all__ = [
    "skewed_panel_workload",
    "deep_chain_workload",
    "revision_storm",
    "scenario_corpus",
]


def _skewed_panel(
    schema: CubeSchema,
    members: List[str],
    n_periods: int,
    rng: random.Random,
) -> Cube:
    """A panel whose member coverage follows a 1/rank (zipf-ish) law:
    member k keeps roughly ``n_periods / (k + 1)`` periods."""
    cube = Cube(schema)
    start = month(2015, 1)
    for rank, member in enumerate(members):
        coverage = max(2, n_periods // (rank + 1))
        for i in range(coverage):
            cube.set(
                (start + i, member),
                round(rng.uniform(50.0, 150.0), 3),
            )
    return cube


def skewed_panel_workload(
    seed: int = 0,
    n_members: int = 12,
    n_periods: int = 24,
) -> Workload:
    """Aggregation-heavy program over a zipf-skewed panel.

    ``g01`` holds the full history, ``g12`` barely two months — group
    sizes span an order of magnitude, which is exactly where columnar
    group-reduce and row-at-a-time engines price apart.
    """
    rng = random.Random(f"skewed-{seed}")
    members = [f"g{k + 1:02d}" for k in range(max(2, n_members))]
    schema = CubeSchema(
        "SKEW",
        [Dimension("m", TIME(Frequency.MONTH)), Dimension("g", STRING)],
        "v",
    )
    source = "\n".join(
        [
            "TOTAL := sum(SKEW, group by m)",
            "GMEAN := avg(SKEW, group by g)",
            "MTREND := ma(TOTAL, 3)",
            "QTOT := sum(SKEW, group by quarter(m) as q, g)",
            "QTREND := cumsum(sum(QTOT, group by q))",
        ]
    )
    data = {"SKEW": _skewed_panel(schema, members, n_periods, rng)}
    return Workload(
        f"skewed-panel-{seed}", Schema([schema], "scenario"), source, data
    )


def deep_chain_workload(
    seed: int = 0,
    depth: int = 8,
    n_periods: int = 24,
    n_members: int = 4,
) -> Workload:
    """A dependency chain ``depth`` statements long.

    The head aggregates the panel down to a time series; every further
    link feeds on the previous one, cycling table functions and scalar
    arithmetic — so dispatch sees a long line of dependent subgraphs.
    """
    rng = random.Random(f"chain-{seed}")
    members = [f"u{k + 1}" for k in range(max(1, n_members))]
    schema = CubeSchema(
        "BASE",
        [Dimension("m", TIME(Frequency.MONTH)), Dimension("u", STRING)],
        "v",
    )
    cube = Cube(schema)
    start = month(2016, 1)
    for member in members:
        for i in range(n_periods):
            cube.set((start + i, member), round(rng.uniform(10.0, 90.0), 3))
    statements = ["C1 := sum(BASE, group by m)"]
    for i in range(2, max(2, depth) + 1):
        previous = f"C{i - 1}"
        step = i % 4
        if step == 0:
            statements.append(f"C{i} := cumsum({previous})")
        elif step == 1:
            statements.append(f"C{i} := ma({previous}, 3)")
        elif step == 2:
            statements.append(f"C{i} := {previous} * 2 + {previous}")
        else:
            statements.append(f"C{i} := {previous} - shift({previous}, 1)")
    data = {"BASE": cube}
    return Workload(
        f"deep-chain-{seed}",
        Schema([schema], "scenario"),
        "\n".join(statements),
        data,
    )


def revision_storm(
    workload: Workload,
    n_storms: int = 5,
    fraction: float = 0.05,
    magnitude: float = 0.1,
    seed: int = 0,
) -> List[Dict[str, Cube]]:
    """Successive small revisions of a workload's elementary data.

    Each storm perturbs ``fraction`` of every elementary cube's tuples
    by up to ``±magnitude`` (relative), *cumulatively* — storm k revises
    storm k-1's data, the way production vintages actually arrive.
    Returns one ``{name: revised cube}`` dict per storm, ready to feed
    ``engine.load`` + ``engine.update`` in sequence.
    """
    rng = random.Random(f"storm-{seed}")
    storms: List[Dict[str, Cube]] = []
    current = {name: cube for name, cube in workload.data.items()}
    for _ in range(max(1, n_storms)):
        revised: Dict[str, Cube] = {}
        for name, cube in current.items():
            fresh = Cube(cube.schema)
            rows = cube.to_rows()
            n_revise = max(1, int(len(rows) * fraction))
            chosen = set(rng.sample(range(len(rows)), min(n_revise, len(rows))))
            for index, row in enumerate(rows):
                key, value = row[:-1], row[-1]
                if index in chosen and value == value:  # skip NaN holes
                    value = round(
                        value * (1.0 + rng.uniform(-magnitude, magnitude)), 6
                    )
                fresh.set(key, value)
            revised[name] = fresh
        storms.append(revised)
        current = revised
    return storms


def scenario_corpus(seed: int = 0, size: int = 6) -> List[Workload]:
    """A mixed batch of scenario workloads, round-robin over the shapes.

    The corpus deliberately interleaves shapes whose cheapest target
    differs — wide skewed aggregations (columnar chase territory) next
    to long scalar/table-function chains (cheap everywhere, so per-call
    overhead dominates) — which is what makes a single static target
    assignment wrong for a large share of subgraphs.
    """
    corpus: List[Workload] = []
    for i in range(max(1, size)):
        variant = seed * 1000 + i
        if i % 2 == 0:
            corpus.append(
                skewed_panel_workload(
                    variant, n_members=8 + 2 * (i % 3), n_periods=24
                )
            )
        else:
            corpus.append(
                deep_chain_workload(variant, depth=6 + (i % 3) * 2)
            )
    return corpus

"""Lattice freshness under revision storms: a 50-seed sweep.

Each seed runs a small panel through the engine, then fires two
revision storms (random overwrite/insert/delete mixes) through
``engine.update()``.  After every storm, every node of every live
lattice must be tuple-for-tuple equal to a lattice rebuilt from
scratch off the current store head — i.e. the incremental dirty-group
refresh path is indistinguishable from full recompute.  Nodes reduce
on demand, so the first storm hits lattices holding a random subset of
their nodes (the refresh must splice through those and force no other)
and the second hits lattices holding all of them.

The engine is built with the suite's ``--jobs`` / ``--shards``
options, so the CI matrix composes this sweep with parallel dispatch,
sharded chase, ``--no-vectorize``, ``EXL_FORCE_TUPLE_VIEW=1`` and
chaos-mode fault injection.
"""

import math
import random

import pytest

from repro.engine import EXLEngine
from repro.model.cube import Cube, CubeSchema, Dimension
from repro.model.time import Frequency, month
from repro.model.types import STRING, TIME
from repro.olap import CubeLattice, hierarchies_for

N_SEEDS = 50
N_MONTHS = 6
REGIONS = ("north", "south")
PROGRAM = (
    "G := sum(S, group by quarter(m) as q, r)\n"
    "T := sum(G, group by q)\n"
)


def _schema() -> CubeSchema:
    return CubeSchema(
        "S",
        [Dimension("m", TIME(Frequency.MONTH)), Dimension("r", STRING)],
        "v",
    )


def _panel(rng: random.Random) -> Cube:
    cube = Cube(_schema())
    for i in range(N_MONTHS):
        for r in REGIONS:
            cube.set((month(2020, 1) + i, r), rng.uniform(-50.0, 50.0))
    return cube


def _storm(cube: Cube, rng: random.Random) -> Cube:
    """A random overwrite/insert/delete mix over ~a third of the rows."""
    revised = cube.copy()
    keys = sorted(cube.keys())
    for dims in rng.sample(keys, max(1, len(keys) // 3)):
        roll = rng.random()
        if roll < 0.5:
            revised.set(dims, rng.uniform(-50.0, 50.0), overwrite=True)
        elif roll < 0.75 and len(revised) > 1:
            revised._data.pop(dims)
    for _ in range(rng.randrange(3)):
        extra = (month(2020, 1) + N_MONTHS + rng.randrange(4),
                 rng.choice(REGIONS))
        revised.set(extra, rng.uniform(-50.0, 50.0), overwrite=True)
    return revised


def _assert_fresh(engine, service):
    """Every live lattice == a from-scratch rebuild off the store head."""
    store = engine.catalog.store
    for name in service.queryable_names():
        live = service.lattice(name)
        assert live.version == store.latest_version(name)
        oracle = CubeLattice(
            name,
            hierarchies_for(engine.catalog, name),
            aggregate=service.aggregate,
        )
        oracle.build(store.get(name))
        assert set(live.nodes) == set(oracle.nodes)
        for key, node in oracle.nodes.items():
            got = service.lattice(name).nodes[key].groups
            assert set(got) == set(node.groups), (name, key)
            for group, want in node.groups.items():
                value = got[group]
                assert value == want or (
                    math.isnan(value) and math.isnan(want)
                ), (name, key, group)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_lattice_survives_revision_storms(seed, chase_jobs, chase_shards):
    rng = random.Random(88_000 + seed)
    # --jobs 1 is statement order here; the one-thread wave schedule
    # stays covered by test_parallel_chase.py::TestPolicyMatrix
    engine = EXLEngine(
        jobs=chase_jobs,
        shards=chase_shards,
        target_priority=("chase",),
        backoff_s=0.001,
    )
    engine.declare_elementary(_schema())
    engine.catalog.declare_grouping(
        "S", "r", "zone", {"north": "cold", "south": "warm"}
    )
    engine.add_program(PROGRAM)
    engine.load(_panel(rng))
    service = engine.enable_olap()
    engine.run()
    held = {}
    for name in service.queryable_names():
        keys = list(service.lattice(name).nodes)
        held[name] = set(rng.sample(keys, rng.randrange(len(keys) + 1)))
        for key in held[name]:
            service.lattice(name).nodes[key].groups
    rereduced = engine.metrics.value("olap.lattice.groups.rereduced")
    engine.load(_storm(engine.data("S"), rng))
    engine.update()
    for name, keys in held.items():
        live = service._live[name]
        assert {n.key for n in live.materialized_nodes()} == keys
    if not any(held.values()):
        assert (
            engine.metrics.value("olap.lattice.groups.rereduced") == rereduced
        )
    _assert_fresh(engine, service)  # reads, hence holds, every node
    engine.load(_storm(engine.data("S"), rng))
    engine.update()
    _assert_fresh(engine, service)

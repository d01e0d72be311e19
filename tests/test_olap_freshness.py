"""Lattice freshness under revision storms: a 50-seed sweep.

Each seed runs a small panel through the engine, then fires two
revision storms (random overwrite/insert/delete mixes) through
``engine.update()``.  An update leaves the live lattices alone; the
next query finds its cube moved on and rebinds.  After every storm,
every node of every live lattice must be bit-for-bit equal to a
lattice built from scratch off the current store head.  Nodes reduce
on demand, so the first storm hits lattices holding a random subset of
their nodes (the update must reduce none, and a rebind must drop them
all) and the second hits lattices holding all of them.

The engine is built with the suite's ``--shards`` option, so the CI
matrix composes this sweep with the sharded chase.  The scalar kernels and
the lattice's dict group-by are compared with the columnar ones inside
the equivalence suites (tests/test_columnar_chase.py,
tests/test_columnar_native.py, tests/test_olap.py).
"""

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
    """Every live lattice == a from-scratch build off the store head,
    bit for bit."""
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
                assert repr(got[group]) == repr(want), (name, key, group)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_lattice_survives_revision_storms(seed, chase_shards):
    rng = random.Random(88_000 + seed)
    engine = EXLEngine(shards=chase_shards, target_priority=("chase",))
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
    groups = engine.metrics.value("olap.lattice.groups")
    builds = engine.metrics.value("olap.lattice.builds")
    engine.load(_storm(engine.data("S"), rng))
    engine.update()
    # the update reduced and rebound nothing
    assert engine.metrics.value("olap.lattice.groups") == groups
    assert engine.metrics.value("olap.lattice.builds") == builds
    store = engine.catalog.store
    for name, keys in held.items():
        live = service._live[name]
        assert {n.key for n in live.materialized_nodes()} == keys
        moved = live.version != store.latest_version(name)
        # a query rebinds a stale lattice, dropping every node it held
        assert service.lattice(name) is live
        if moved:
            assert live.materialized_nodes() == []
    _assert_fresh(engine, service)  # reads, hence holds, every node
    engine.load(_storm(engine.data("S"), rng))
    engine.update()
    _assert_fresh(engine, service)

"""OLAP layer: hierarchies, lattice build/rebind, queries, sidecars.

The load-bearing property throughout: lattice-served aggregates are
*tuple-for-tuple identical* to a recompute-from-scratch oracle — both
fold measures in canonical bag order — whatever the cube is held as
and however many versions the lattice was rebound to.
"""

import json
import math

import pytest

import repro.chase.instance as instance_mod
from repro.chase.persist import (
    attach_lattice_sidecar,
    olap_sidecar_path_for,
    write_lattice_sidecar,
)
from repro.engine import EXLEngine
from repro.errors import CatalogError, ReproError
from repro.model.catalog import MetadataCatalog
from repro.model.cube import Cube, CubeSchema, Dimension
from repro.model.io import write_cube_csv
from repro.model.time import Frequency, day, month, quarter, rollup_path, week, year
from repro.model.types import STRING, TIME
from repro.olap import (
    ALL,
    CubeLattice,
    OlapError,
    OlapService,
    derive_hierarchy,
    hierarchies_for,
)
from repro.olap.hierarchy import _AllToken
from repro.stats.aggregates import get_aggregate

PROGRAM = "G := sum(S, group by quarter(m) as q, r)\n"


def panel_schema() -> CubeSchema:
    return CubeSchema(
        "S",
        [Dimension("m", TIME(Frequency.MONTH)), Dimension("r", STRING)],
        "v",
    )


def panel_cube(n_months=18, regions=("north", "south", "east"), base=2019):
    cube = Cube(panel_schema())
    for i in range(n_months):
        for j, r in enumerate(regions):
            cube.set((month(base, 1) + i, r), float(i * 10 + j))
    return cube


def fresh_catalog(cube=None) -> MetadataCatalog:
    catalog = MetadataCatalog()
    catalog.declare_elementary(panel_schema())
    catalog.declare_grouping(
        "S", "r", "zone", {"north": "cold", "east": "cold", "south": "warm"}
    )
    if cube is not None:
        catalog.load(cube)
    return catalog


def oracle_groups(cube, levels, agg_name="sum"):
    """Brute-force recompute of one node, straight from the cube."""
    agg = get_aggregate(agg_name)
    bags = {}
    for dims, value in cube.items():
        key = tuple(
            lvl.fn(part)
            for lvl, part in zip(levels, dims)
            if not lvl.is_all
        )
        bags.setdefault(key, []).append(value)
    return {key: agg(values) for key, values in bags.items()}


def assert_lattice_matches_oracle(lattice, cube, agg_name="sum"):
    for key, node in lattice.nodes.items():
        expected = oracle_groups(cube, node.levels, agg_name)
        assert node.groups == expected, f"node {key} diverged"


def _image_and_rows_lattices(cube, hierarchies, agg):
    """Two lattices over copies of ``cube``: one held as an image, one
    rows-only with every node reduced in one request."""
    held = cube.copy()
    instance_mod.store_for_cube(held)
    image = CubeLattice("S", hierarchies, aggregate=agg)
    image.build(held)
    rows = CubeLattice("S", hierarchies, aggregate=agg)
    rows.build(cube.copy())
    rows.materialize(rows.nodes.values())
    return image, rows


def _held_as(cube, held_as):
    """A copy of ``cube`` held as its keyed view (``rows``), as the
    encoded columns a reader leaves (``columns``, rows in file order),
    or with a chase store (``image``)."""
    if held_as == "columns":
        columns = [list(column) for column in zip(*cube.to_rows()[::-1])]
        held = Cube.from_value_columns(cube.schema, columns, cube.to_rows)
        assert held.encoded() is not None and held._dict is None
        return held
    held = cube.copy()
    if held_as == "image":
        instance_mod.store_for_cube(held)
    return held


def _bits(groups):
    return {key: repr(value) for key, value in groups.items()}


class TestHierarchy:
    def test_rollup_paths(self):
        assert rollup_path(Frequency.DAY) == (
            Frequency.MONTH,
            Frequency.QUARTER,
            Frequency.YEAR,
        )
        assert rollup_path(Frequency.MONTH) == (
            Frequency.QUARTER,
            Frequency.YEAR,
        )
        assert rollup_path(Frequency.QUARTER) == (Frequency.YEAR,)
        assert rollup_path(Frequency.YEAR) == ()
        # ISO weeks straddle month/quarter boundaries
        assert rollup_path(Frequency.WEEK) == (Frequency.YEAR,)

    def test_time_hierarchy_levels(self):
        h = derive_hierarchy(Dimension("m", TIME(Frequency.MONTH)))
        assert h.level_names == ("m", "quarter", "year", "all")
        assert h.level("quarter").fn(month(2020, 5)) == quarter(2020, 2)
        assert h.level("year").fn(month(2020, 5)) == year(2020)
        assert h.level("m").fn(month(2020, 5)) == month(2020, 5)
        assert h.level("all").fn(month(2020, 5)) is ALL

    def test_week_hierarchy(self):
        h = derive_hierarchy(Dimension("w", TIME(Frequency.WEEK)))
        assert h.level_names == ("w", "year", "all")
        assert h.level("year").fn(week(2020, 10)) == year(2020)

    def test_day_hierarchy(self):
        h = derive_hierarchy(Dimension("d", TIME(Frequency.DAY)))
        assert h.level_names == ("d", "month", "quarter", "year", "all")
        assert h.level("month").fn(day(2020, 3, 15)) == month(2020, 3)

    def test_attribute_hierarchy_with_groupings(self):
        h = derive_hierarchy(
            Dimension("r", STRING), {"zone": {"north": "cold"}}
        )
        assert h.level_names == ("r", "zone", "all")
        assert h.level("zone").fn("north") == "cold"
        # unmapped values pass through: a partial grouping is total
        assert h.level("zone").fn("south") == "south"

    def test_navigation(self):
        h = derive_hierarchy(Dimension("m", TIME(Frequency.MONTH)))
        assert h.finer("quarter").name == "m"
        assert h.finer("m") is None
        assert h.coarser("year").name == "all"
        assert h.coarser("all") is None
        with pytest.raises(OlapError, match="no level"):
            h.level("decade")

    def test_time_dim_rejects_groupings(self):
        with pytest.raises(OlapError, match="calendar"):
            derive_hierarchy(
                Dimension("m", TIME(Frequency.MONTH)), {"zone": {}}
            )

    def test_grouping_name_collisions(self):
        with pytest.raises(OlapError, match="collides"):
            derive_hierarchy(Dimension("r", STRING), {"all": {}})
        with pytest.raises(OlapError, match="collides"):
            derive_hierarchy(Dimension("r", STRING), {"r": {}})

    def test_catalog_grouping_validation(self):
        catalog = fresh_catalog()
        with pytest.raises(CatalogError, match="time axis"):
            catalog.declare_grouping("S", "m", "half", {})
        with pytest.raises(CatalogError, match="already declared"):
            catalog.declare_grouping("S", "r", "zone", {})
        with pytest.raises(ReproError):
            catalog.declare_grouping("S", "nope", "x", {})

    def test_hierarchies_for(self):
        catalog = fresh_catalog()
        hs = hierarchies_for(catalog, "S")
        assert [h.level_names for h in hs] == [
            ("m", "quarter", "year", "all"),
            ("r", "zone", "all"),
        ]

    def test_all_token_is_singleton(self):
        assert _AllToken() is ALL
        assert str(ALL) == "(all)"
        assert repr(ALL) == "ALL"


class TestLatticeBuild:
    def test_node_count_is_level_product(self):
        lattice = CubeLattice("S", hierarchies_for(fresh_catalog(), "S"))
        # (m, quarter, year, all) x (r, zone, all)
        assert len(lattice.nodes) == 12

    def test_build_reduces_nothing(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        lattice = CubeLattice(
            "S", hierarchies_for(fresh_catalog(), "S"), metrics=metrics
        )
        lattice.build(panel_cube(), version=3)
        assert lattice.version == 3
        assert lattice.materialized_nodes() == []
        assert lattice.total_groups() == 0  # and counting forced none
        assert lattice.materialized_nodes() == []
        assert metrics.value("olap.lattice.groups") == 0
        node = lattice.node({"m": "year", "r": "zone"})
        assert len(node.groups) == 4  # 2019, 2020 x cold, warm
        assert lattice.materialized_nodes() == [node]
        assert lattice.total_groups() == 4
        assert metrics.value("olap.lattice.groups") == 4
        assert node.groups is node.groups  # reduced once
        lattice.build(panel_cube(n_months=2))
        assert lattice.materialized_nodes() == []
        assert len(node.groups) == 2  # re-reduced from the new base

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("held_as", ["rows", "image"])
    def test_nodes_in_any_order_match_oracle(self, seed, held_as):
        """Each node reduces alone, whatever was reduced before it (the
        per-(dimension, level) level values are shared across nodes), on
        a cube that is only rows and on one that carries an image."""
        import random

        rng = random.Random(4100 + seed)
        agg = rng.choice(["sum", "avg", "median", "count"])
        cube = panel_cube(n_months=rng.randrange(1, 20))
        if held_as == "image":
            instance_mod.store_for_cube(cube)
        lattice = CubeLattice(
            "S", hierarchies_for(fresh_catalog(), "S"), aggregate=agg
        )
        lattice.build(cube)
        keys = list(lattice.nodes)
        rng.shuffle(keys)
        for count, key in enumerate(keys, start=1):
            node = lattice.nodes[key]
            assert not node.materialized
            assert node.groups == oracle_groups(cube, node.levels, agg), key
            assert len(lattice.materialized_nodes()) == count

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("start", ["rows", "image", "one-request"])
    def test_nodes_reduce_from_what_the_cube_is_held_as(self, seed, start):
        """A cube that is only rows, one that carries an image, and
        every node of a rows-only cube asked for in one request (a
        cross-tab): every node equals the oracle."""
        import random

        rng = random.Random(5200 + seed)
        agg = rng.choice(["sum", "avg", "median", "count"])
        cube = panel_cube(n_months=rng.randrange(1, 20))
        if start == "image":
            instance_mod.store_for_cube(cube)
        lattice = CubeLattice(
            "S", hierarchies_for(fresh_catalog(), "S"), aggregate=agg
        )
        lattice.build(cube)
        keys = list(lattice.nodes)
        rng.shuffle(keys)
        if start == "one-request":
            lattice.materialize([lattice.nodes[key] for key in keys])
        for key in keys:
            node = lattice.nodes[key]
            assert node.groups == oracle_groups(cube, node.levels, agg), key

    @pytest.mark.parametrize("agg", ["sum", "avg", "median", "count"])
    @pytest.mark.parametrize("held_as", ["rows", "columns", "image"])
    def test_every_holding_matches_the_oracle_bit_for_bit(self, agg, held_as):
        """NaN measures included, whether the cube is its keyed view,
        the columns a file was parsed into, or a chase store."""
        cube = panel_cube(n_months=7)
        cube.set((month(2019, 2), "east"), float("nan"), overwrite=True)
        cube.set((month(2019, 5), "north"), -0.0, overwrite=True)
        held = _held_as(cube, held_as)
        lattice = CubeLattice(
            "S", hierarchies_for(fresh_catalog(), "S"), aggregate=agg
        )
        lattice.build(held)
        for key, node in lattice.nodes.items():
            expected = oracle_groups(cube, node.levels, agg)
            assert _bits(node.groups) == _bits(expected), key

    def test_every_node_of_a_row_cube_needs_no_numpy(self, fresh_python, tmp_path):
        """In a fresh interpreter: every node of a cube built from rows
        and of one read from CSV is reduced with numpy and the chase's
        columnar modules unimported, and equals a plain dict group-by."""
        write_cube_csv(panel_cube(), tmp_path / "S.csv")
        done = fresh_python(
            "-c",
            "import sys\n"
            "from repro.model.catalog import MetadataCatalog\n"
            "from repro.model.cube import Cube, CubeSchema, Dimension\n"
            "from repro.model.io import read_cube_csv\n"
            "from repro.model.time import Frequency, month\n"
            "from repro.model.types import STRING, TIME\n"
            "from repro.olap.hierarchy import hierarchies_for\n"
            "from repro.olap.lattice import CubeLattice\n"
            "schema = CubeSchema('S', [Dimension('m', TIME(Frequency.MONTH)),\n"
            "                          Dimension('r', STRING)], 'v')\n"
            "rows = Cube.from_rows(schema, [(month(2019, 1) + i, r, float(i * 10 + j))\n"
            "    for i in range(18) for j, r in enumerate(('north', 'south'))])\n"
            f"read = read_cube_csv(schema, {str(tmp_path / 'S.csv')!r})\n"
            "assert read.encoded() is not None\n"
            "catalog = MetadataCatalog()\n"
            "catalog.declare_elementary(schema)\n"
            "catalog.declare_grouping('S', 'r', 'zone', {'north': 'cold'})\n"
            "for cube in (rows, read):\n"
            "    lattice = CubeLattice('S', hierarchies_for(catalog, 'S'), aggregate='avg')\n"
            "    lattice.build(cube)\n"
            "    lattice.materialize_all()\n"
            "    for node in lattice.nodes.values():\n"
            "        bags = {}\n"
            "        for dims, value in cube.items():\n"
            "            key = tuple(lvl.fn(part) for lvl, part in zip(node.levels, dims)\n"
            "                        if not lvl.is_all)\n"
            "            bags.setdefault(key, []).append(value)\n"
            "        assert node.groups == {k: lattice.aggregate(v) for k, v in bags.items()}\n"
            "    assert cube._colstore is None\n"
            "assert 'numpy' not in sys.modules, 'numpy'\n"
            "assert not [m for m in sys.modules if m.startswith(\n"
            "    ('repro.chase.col', 'repro.chase.instance'))]\n",
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("agg", ["sum", "avg", "median", "count"])
    def test_columnar_build_matches_oracle(self, agg):
        cube = panel_cube()
        lattice = CubeLattice(
            "S", hierarchies_for(fresh_catalog(), "S"), aggregate=agg
        )
        lattice.build(cube)
        assert_lattice_matches_oracle(lattice, cube, agg)

    def test_dict_group_by_matches_columnar(self):
        cube = panel_cube()
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        image, rows = _image_and_rows_lattices(cube, hierarchies, "sum")
        for key, node in image.nodes.items():
            assert node.groups == rows.nodes[key].groups

    def test_grand_total_node(self):
        cube = panel_cube()
        lattice = CubeLattice("S", hierarchies_for(fresh_catalog(), "S"))
        lattice.build(cube)
        total = lattice.nodes[("all", "all")].groups
        assert total == {(): sum(cube.values())}

    def test_empty_cube(self):
        lattice = CubeLattice("S", hierarchies_for(fresh_catalog(), "S"))
        lattice.build(Cube(panel_schema()))
        assert all(not n.groups for n in lattice.nodes.values())

    def test_nan_measures_survive_both_paths(self):
        cube = panel_cube(n_months=4)
        cube.set((month(2019, 1), "north"), float("nan"), overwrite=True)
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        image, rows = _image_and_rows_lattices(cube, hierarchies, "sum")
        for key, node in image.nodes.items():
            other = rows.nodes[key].groups
            assert set(node.groups) == set(other)
            for group, value in node.groups.items():
                assert value == other[group] or (
                    math.isnan(value) and math.isnan(other[group])
                )


def _revision(old):
    """An update, an insert with new dimension values, a delete."""
    new = old.copy()
    new.set((month(2019, 3), "north"), 999.0, overwrite=True)
    new.set((month(2021, 1), "west"), 5.0)
    new._data.pop((month(2019, 5), "south"))
    return new


class TestLatticeRebind:
    """A lattice follows a new version of its cube by being rebound
    (``build``): every node it held is dropped and reduces again from
    the new rows when next read, bit for bit what a lattice that never
    saw the old version holds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_stale_live_lattice_equals_a_fresh_one(self, seed):
        import random

        from repro.obs import MetricsRegistry

        rng = random.Random(5200 + seed)
        old = panel_cube()
        catalog = fresh_catalog(old)
        metrics = MetricsRegistry()
        service = OlapService(catalog, metrics=metrics)
        live = service.lattice("S")
        held = rng.sample(list(live.nodes), rng.randrange(len(live.nodes) + 1))
        for key in held:
            live.nodes[key].groups
        new = _revision(old)
        if seed % 2:
            instance_mod.store_for_cube(new)  # held as an image too
        catalog.load(new)
        assert service.lattice("S") is live
        assert live.version == catalog.store.latest_version("S")
        # rebinding reduces nothing: the held nodes are dropped
        assert live.materialized_nodes() == []
        assert metrics.value("olap.lattice.builds") == 2
        oracle = CubeLattice("S", hierarchies_for(catalog, "S"))
        oracle.build(catalog.data("S"))
        order = list(live.nodes)
        rng.shuffle(order)
        for key in order:
            assert _bits(live.nodes[key].groups) == _bits(
                oracle.nodes[key].groups
            ), key
        assert_lattice_matches_oracle(live, new)
        # a second read of the same head rebinds nothing
        service.lattice("S")
        assert metrics.value("olap.lattice.builds") == 2
        assert len(live.materialized_nodes()) == len(live.nodes)

    def test_group_vanishes_when_its_rows_do(self):
        old = panel_cube(n_months=6, regions=("north", "south"))
        new = old.copy()
        for i in range(6):  # drop every north row
            new._data.pop((month(2019, 1) + i, "north"))
        lattice = CubeLattice("S", hierarchies_for(fresh_catalog(), "S"))
        lattice.build(old)
        lattice.materialize_all()
        assert ("north",) in lattice.nodes[("all", "r")].groups
        lattice.build(new)
        assert_lattice_matches_oracle(lattice, new)
        assert ("north",) not in lattice.nodes[("all", "r")].groups
        assert ("cold",) not in lattice.nodes[("all", "zone")].groups

    def test_callable_aggregate(self):
        old = panel_cube()
        new = _revision(old)
        lattice = CubeLattice(
            "S",
            hierarchies_for(fresh_catalog(), "S"),
            aggregate=lambda values: float(len(values)),
        )
        assert lattice.agg_name is None
        lattice.build(old)
        lattice.materialize_all()
        lattice.build(new)
        for key, node in lattice.nodes.items():
            expected = {
                k: float(len(v))
                for k, v in _bags(new, node.levels).items()
            }
            assert node.groups == expected


def _bags(cube, levels):
    bags = {}
    for dims, value in cube.items():
        key = tuple(
            lvl.fn(part)
            for lvl, part in zip(levels, dims)
            if not lvl.is_all
        )
        bags.setdefault(key, []).append(value)
    return bags


def build_engine(cube=None, **kwargs):
    engine = EXLEngine(target_priority=("chase",), **kwargs)
    engine.declare_elementary(panel_schema())
    engine.catalog.declare_grouping(
        "S", "r", "zone", {"north": "cold", "east": "cold", "south": "warm"}
    )
    engine.add_program(PROGRAM)
    engine.load(cube if cube is not None else panel_cube())
    return engine


class TestOlapService:
    def test_point_rollup_drilldown(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        assert service.point(
            "S", {"m": month(2019, 2), "r": "south"}
        ) == 11.0
        by_year = service.rollup("S", {"m": "year", "r": "all"})
        assert by_year.columns == ("m:year", "sum")
        assert {tuple(row[:-1]): row[-1] for row in by_year.rows} == oracle_groups(
            engine.data("S"),
            service.lattice("S").node({"m": "year", "r": "all"}).levels,
        )
        finer = service.drilldown("S", {"m": "year", "r": "all"}, "m")
        assert finer.columns == ("m:quarter", "sum")
        # derived cube is queryable too
        g = service.rollup("G", {"q": "year", "r": "all"})
        assert g.rows
        with pytest.raises(OlapError, match="base level"):
            service.drilldown("S", {}, "m")

    def test_slice_and_dice(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        sliced = service.slice_("S", {"r": "north"}, {"m": "quarter"})
        assert sliced.columns == ("m:quarter", "sum")
        cube = engine.data("S")
        want = {
            key: value
            for key, value in oracle_groups(
                cube, service.lattice("S").node({"m": "quarter"}).levels
            ).items()
            if key[1] == "north"
        }
        assert {(k,): v for k, v in dict(
            ((row[0],), row[1]) for row in sliced.rows
        ).items()}  # shape sanity
        assert dict(((r[0],), r[1]) for r in sliced.rows) == {
            (k[0],): v for k, v in want.items()
        }
        diced = service.dice(
            "S", {"r": ["cold"]}, {"m": "year", "r": "zone"}
        )
        assert all(row[1] == "cold" for row in diced.rows)

    def test_query_errors(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        with pytest.raises(OlapError, match="missing coordinates"):
            service.point("S", {"m": month(2019, 1)})
        with pytest.raises(OlapError, match="no dimension"):
            service.point(
                "S", {"m": month(2019, 1), "r": "north", "x": 1}
            )
        with pytest.raises(OlapError, match="undefined"):
            service.point("S", {"m": month(1800, 1), "r": "north"})
        with pytest.raises(OlapError, match="unknown cube"):
            service.rollup("NOPE")
        with pytest.raises(OlapError, match="no stored data"):
            build_engine().enable_olap().rollup("G")

    @pytest.mark.parametrize("agg", ["sum", "avg", "median", "count", "stddev"])
    def test_point_reduces_no_other_group(self, agg):
        """A point on a base node nobody has read is the aggregate of
        that one row — what the node would hold — and reduces nothing;
        once the node is materialized it is a lookup of the same value."""
        from repro.obs import MetricsRegistry
        from repro.olap import OlapService

        cube = panel_cube()
        metrics = MetricsRegistry()
        service = OlapService(fresh_catalog(cube), aggregate=agg, metrics=metrics)
        coords = {"m": month(2019, 7), "r": "south"}
        value = service.point("S", coords)
        assert metrics.value("olap.lattice.groups") == 0
        assert metrics.value("olap.query.point") == 1
        lattice = service.lattice("S")
        assert lattice.materialized_nodes() == []
        base = lattice.base_node()
        held = base.groups[(month(2019, 7), "south")]
        assert value == held or (math.isnan(value) and math.isnan(held))
        assert metrics.value("olap.lattice.groups") == len(cube)
        again = service.point("S", coords)
        assert again == held or (math.isnan(again) and math.isnan(held))
        for materialized in (False, True):
            if not materialized:
                lattice.build(cube)
            with pytest.raises(OlapError, match="undefined"):
                service.point("S", {"m": month(1800, 1), "r": "south"})

    def test_crosstab_is_one_request(self):
        """The four nodes of a cross-tab are asked for together, and
        neither they nor a later query build an image of the cube."""
        from repro.olap import OlapService

        cube = panel_cube()
        service = OlapService(fresh_catalog(cube))
        held = service.catalog.data("S")
        assert held._colstore is None
        text = service.crosstab("S", "m", "r", levels={"m": "year"})
        assert held._colstore is None
        assert len(service.lattice("S").materialized_nodes()) == 4
        assert float(text.splitlines()[-1].split()[-1]) == sum(cube.values())
        service.rollup("S", {"m": "quarter"})
        assert held._colstore is None

    def test_crosstab_subtotals_are_maintained_aggregates(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        text = service.crosstab("S", "m", "r", levels={"m": "year"})
        lines = text.splitlines()
        assert lines[0].split() == ["m", "east", "north", "south", "total"]
        cube = engine.data("S")
        grand = sum(cube.values())
        assert lines[-1].split()[0] == "total"
        assert float(lines[-1].split()[-1]) == pytest.approx(grand)
        with pytest.raises(OlapError, match="distinct"):
            service.crosstab("S", "m", "m")

    def test_update_reduces_no_node_until_read(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        # a lattice is live once a query has asked for its cube
        assert service._live == {}
        service.rollup("S")
        service.rollup("G", {"q": "year"})
        live = dict(service._live)
        groups = engine.metrics.value("olap.lattice.groups")
        builds = engine.metrics.value("olap.lattice.builds")
        revised = engine.data("S").copy()
        revised.set((month(2019, 1), "north"), 123.5, overwrite=True)
        engine.load(revised)
        engine.update()
        # the update left the lattices alone: nothing rebound, nothing
        # reduced, the held nodes still those of the old versions
        store = engine.catalog.store
        assert engine.metrics.value("olap.lattice.groups") == groups
        assert engine.metrics.value("olap.lattice.builds") == builds
        assert live["S"].version != store.latest_version("S")
        assert [n.key for n in live["S"].materialized_nodes()] == [("m", "r")]
        # the next query rebinds to the head and reduces what it reads
        assert service.lattice("S") is live["S"]
        assert live["S"].version == store.latest_version("S")
        assert live["S"].materialized_nodes() == []
        assert engine.metrics.value("olap.lattice.groups") == groups
        service.rollup("G", {"q": "year"})
        assert live["G"].version == store.latest_version("G")
        assert [n.key for n in live["G"].materialized_nodes()] == [
            ("year", "r")
        ]
        assert engine.metrics.value("olap.lattice.builds") == builds + 2
        assert_lattice_matches_oracle(live["S"], engine.data("S"))
        assert_lattice_matches_oracle(live["G"], engine.data("G"))

    def test_point_after_update_reads_the_new_head(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        coords = {"m": month(2019, 1), "r": "north"}
        service.lattice("S").base_node().groups  # the point reads the node
        before = service.point("S", coords)
        revised = engine.data("S").copy()
        revised.set((month(2019, 1), "north"), before + 7.5, overwrite=True)
        engine.load(revised)
        engine.update()
        assert service.point("S", coords) == before + 7.5
        assert not service.lattice("S").base_node().materialized

    def test_load_without_a_run_is_followed(self):
        # staleness is the store head, which a load moves with no dispatch
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        service.rollup("S", {"m": "year", "r": "all"})
        revised = _revision(engine.data("S"))
        engine.load(revised)
        answer = service.rollup("S", {"m": "year", "r": "all"})
        lattice = service.lattice("S")
        assert {row[:-1]: row[-1] for row in answer.rows} == oracle_groups(
            revised, lattice.node({"m": "year", "r": "all"}).levels
        )

    def test_crosstab_after_update_matches_a_fresh_service(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        service.crosstab("G", "q", "r", levels={"q": "year"})
        engine.load(_revision(engine.data("S")))
        engine.update()
        fresh = OlapService(engine.catalog)
        assert service.crosstab(
            "G", "q", "r", levels={"q": "year"}
        ) == fresh.crosstab("G", "q", "r", levels={"q": "year"})

    def test_identical_reload_answers_the_same_bits(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        lattice = service.lattice("S")
        lattice.materialize_all()
        before = {key: _bits(node.groups) for key, node in lattice.nodes.items()}
        engine.load(engine.data("S").copy())  # a new version, the same rows
        engine.update()
        assert service.lattice("S").version == (
            engine.catalog.store.latest_version("S")
        )
        assert {
            key: _bits(node.groups) for key, node in lattice.nodes.items()
        } == before

    def test_as_of_pins_history(self):
        engine = build_engine()
        service = engine.enable_olap()
        first = engine.run()
        old_value = service.point("S", {"m": month(2019, 1), "r": "north"})
        old_total = service.rollup("S", {"m": "all", "r": "all"}).rows[0][-1]
        revised = engine.data("S").copy()
        revised.set((month(2019, 1), "north"), old_value + 50.0, overwrite=True)
        engine.load(revised)
        second = engine.update()
        assert (
            service.point(
                "S", {"m": month(2019, 1), "r": "north"}, as_of=first.run_id
            )
            == old_value
        )
        assert (
            service.point(
                "S", {"m": month(2019, 1), "r": "north"}, as_of=second.run_id
            )
            == old_value + 50.0
        )
        pinned = service.rollup(
            "S", {"m": "all", "r": "all"}, as_of=first.run_id
        )
        assert pinned.rows[0][-1] == old_total
        # pinned lattices are cached, not rebuilt per query
        assert (
            service.lattice("S", as_of=first.run_id)
            is service.lattice("S", as_of=first.run_id)
        )
        with pytest.raises(OlapError, match="no run"):
            service.point(
                "S", {"m": month(2019, 1), "r": "north"}, as_of=9999
            )

    def test_query_metrics(self):
        engine = build_engine()
        service = engine.enable_olap()
        engine.run()
        service.point("S", {"m": month(2019, 1), "r": "north"})
        service.rollup("S", {"m": "year"})
        service.crosstab("S", "m", "r")
        assert engine.metrics.value("olap.query.point") == 1
        assert engine.metrics.value("olap.query.rollup") == 1
        assert engine.metrics.value("olap.query.crosstab") == 1

    def test_cube_restriction(self):
        engine = build_engine()
        service = engine.enable_olap(cubes=["G"])
        engine.run()
        assert service.queryable_names() == ["G"]
        with pytest.raises(OlapError, match="not enabled"):
            service.rollup("S")


def _one_row_revision(cube):
    revised = cube.copy()
    key = next(iter(cube.keys()))
    revised.set(key, cube[key] + 1.0, overwrite=True)
    return revised


class TestLatticeSidecar:
    def _written(self, tmp_path, lattice, cube):
        csv_path = tmp_path / "S.csv"
        from repro.model.io import write_cube_csv

        write_cube_csv(cube, csv_path)
        sidecar = olap_sidecar_path_for(tmp_path, "S")
        assert write_lattice_sidecar(lattice, csv_path, sidecar)
        return csv_path, sidecar

    def test_roundtrip(self, tmp_path):
        cube = panel_cube()
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        built = CubeLattice("S", hierarchies, aggregate="sum")
        built.build(cube, version=7)
        csv_path, sidecar = self._written(tmp_path, built, cube)
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        restored = CubeLattice(
            "S", hierarchies, aggregate="sum", metrics=metrics
        )
        assert attach_lattice_sidecar(
            restored, cube, csv_path, sidecar, version=7
        )
        assert restored.version == 7
        # every node came from the file: reading them reduces nothing
        assert len(restored.materialized_nodes()) == len(restored.nodes)
        for key, node in built.nodes.items():
            assert restored.nodes[key].groups == node.groups
        assert metrics.value("olap.lattice.groups") == 0
        # a new version rebinds an attached lattice like any other
        revised = _one_row_revision(cube)
        restored.build(revised, version=8)
        assert restored.materialized_nodes() == []
        assert_lattice_matches_oracle(restored, revised)

    def test_rejects_corruption_and_staleness(self, tmp_path):
        cube = panel_cube()
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        built = CubeLattice("S", hierarchies, aggregate="sum")
        built.build(cube)
        csv_path, sidecar = self._written(tmp_path, built, cube)
        fresh = lambda: CubeLattice("S", hierarchies, aggregate="sum")  # noqa: E731

        payload = json.loads(sidecar.read_text())
        payload["nodes"][0]["groups"][0][1] = 1e9  # tamper a measure
        sidecar.write_text(json.dumps(payload))
        assert not attach_lattice_sidecar(fresh(), cube, csv_path, sidecar)

        assert write_lattice_sidecar(built, csv_path, sidecar)
        csv_path.write_text(csv_path.read_text() + "2030M01,north,1.0\n")
        assert not attach_lattice_sidecar(fresh(), cube, csv_path, sidecar)

    def test_rejects_different_aggregate_or_levels(self, tmp_path):
        cube = panel_cube()
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        built = CubeLattice("S", hierarchies, aggregate="sum")
        built.build(cube)
        csv_path, sidecar = self._written(tmp_path, built, cube)
        other_agg = CubeLattice("S", hierarchies, aggregate="avg")
        assert not attach_lattice_sidecar(other_agg, cube, csv_path, sidecar)
        # a catalog whose groupings changed derives different node keys
        catalog = MetadataCatalog()
        catalog.declare_elementary(panel_schema())
        regrouped = CubeLattice(
            "S", hierarchies_for(catalog, "S"), aggregate="sum"
        )
        assert not attach_lattice_sidecar(regrouped, cube, csv_path, sidecar)

    def test_callable_aggregate_not_persisted(self, tmp_path):
        cube = panel_cube()
        lattice = CubeLattice(
            "S",
            hierarchies_for(fresh_catalog(), "S"),
            aggregate=lambda values: 0.0,
        )
        lattice.build(cube)
        csv_path = tmp_path / "S.csv"
        from repro.model.io import write_cube_csv

        write_cube_csv(cube, csv_path)
        sidecar = olap_sidecar_path_for(tmp_path, "S")
        assert not write_lattice_sidecar(lattice, csv_path, sidecar)
        assert not sidecar.exists()


class TestQueryCli:
    @pytest.fixture()
    def project(self, tmp_path):
        cube = panel_cube(n_months=12, regions=("north", "south"))
        from repro.model.io import write_cube_csv

        write_cube_csv(cube, tmp_path / "s.csv")
        (tmp_path / "program.exl").write_text(PROGRAM)
        (tmp_path / "project.json").write_text(
            json.dumps(
                {
                    "elementary": [
                        {
                            "name": "S",
                            "dimensions": [["m", "time:M"], ["r", "string"]],
                            "measure": "v",
                            "csv": "s.csv",
                        }
                    ],
                    "program": "program.exl",
                    "groupings": {
                        "S": {"r": {"zone": {"north": "cold"}}},
                        "G": {"r": {"zone": {"north": "cold"}}},
                    },
                    "outputs": ["G"],
                }
            )
        )
        return tmp_path

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_query_flow(self, project, capsys):
        out = str(project / "out")
        assert self._main(["run", str(project / "project.json"), "--out", out]) == 0
        capsys.readouterr()
        args = ["query", str(project / "project.json"), "G", "--out", out]
        assert self._main(args) == 0
        described = capsys.readouterr().out
        assert "q: q, year, all" in described
        assert "lattice nodes: 9" in described  # (q, year, all) x (r, zone, all)
        assert not (project / "out" / "baseline" / "olap").exists()

        assert self._main(args + ["--levels", "q=year,r=all"]) == 0
        rolled = capsys.readouterr().out
        assert "q:year" in rolled and "sum" in rolled

        assert self._main(args + ["--crosstab", "q,r"]) == 0
        crosstab = capsys.readouterr().out
        assert "total" in crosstab

        assert self._main(args + ["--point", "q=2019Q1,r=north"]) == 0
        point = capsys.readouterr().out.strip()
        assert float(point) == pytest.approx(0.0 + 10.0 + 20.0)

        assert self._main(args + ["--slice", "r=north"]) == 0
        assert "q" in capsys.readouterr().out

        assert (
            self._main(args + ["--levels", "r=zone", "--dice", "r=cold"])
            == 0
        )
        assert "cold" in capsys.readouterr().out

        assert (
            self._main(args + ["--levels", "q=year", "--drilldown", "q"])
            == 0
        )
        assert "q:q" not in capsys.readouterr().out  # base level plain name

    def test_query_without_data(self, project, capsys):
        code = self._main(
            [
                "query",
                str(project / "project.json"),
                "G",
                "--out",
                str(project / "missing"),
            ]
        )
        assert code == 2
        assert "no data" in capsys.readouterr().err

    def test_query_unknown_cube(self, project, capsys):
        assert (
            self._main(
                [
                    "query",
                    str(project / "project.json"),
                    "NOPE",
                    "--out",
                    str(project / "out"),
                ]
            )
            == 2
        )

    def test_queries_survive_update(self, project, capsys):
        """Each query reads the baseline the last run or update left,
        so answers follow an ``exl update``."""
        out = str(project / "out")
        proj = str(project / "project.json")
        assert self._main(["run", proj, "--out", out]) == 0
        assert self._main(
            ["query", proj, "G", "--out", out, "--levels", "q=all,r=all"]
        ) == 0
        capsys.readouterr()
        # revise one input row, update incrementally
        csv = project / "s.csv"
        lines = csv.read_text().splitlines()
        first = lines[1].rsplit(",", 1)
        lines[1] = f"{first[0]},{float(first[1]) + 100.0}"
        csv.write_text("\n".join(lines) + "\n")
        assert self._main(["update", proj, "--out", out]) == 0
        capsys.readouterr()
        assert self._main(
            ["query", proj, "G", "--out", out, "--levels", "q=all,r=all"]
        ) == 0
        refreshed = capsys.readouterr().out
        # the grand total moved by exactly the revision
        total = float(refreshed.splitlines()[-1].split()[-1])
        import csv as _csv

        with open(project / "out" / "G.csv") as handle:
            rows = list(_csv.reader(handle))
        expected = sum(float(row[-1]) for row in rows[1:])
        assert total == pytest.approx(expected)


class TestUnreadableLatticeSidecar:
    def test_unreadable_counted_as_miss(self, tmp_path):
        from repro.obs import MetricsRegistry

        cube = panel_cube()
        hierarchies = hierarchies_for(fresh_catalog(), "S")
        lattice = CubeLattice("S", hierarchies, aggregate="sum")
        csv_path = tmp_path / "S.csv"
        from repro.model.io import write_cube_csv

        write_cube_csv(cube, csv_path)
        sidecar = olap_sidecar_path_for(tmp_path, "S")
        sidecar.mkdir(parents=True)  # reading a directory raises OSError
        metrics = MetricsRegistry()
        assert not attach_lattice_sidecar(
            lattice, cube, csv_path, sidecar, metrics=metrics
        )
        assert (
            metrics.value(
                "olap.sidecar.fallback.reason:sidecar-unreadable"
            )
            == 1
        )

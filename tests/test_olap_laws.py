"""Laws of the OLAP algebra, checked as properties of ``OlapService``.

Kuijpers–Vaisman ("A Formal Algebra for OLAP") give roll-up, drill-down,
slice and dice as operators on a cube with dimension hierarchies; the
service answers each from one node of the roll-up lattice.  Over random
cubes with a monthly time hierarchy (m → quarter → year → all) and a
declared grouping (r → zone → all), these laws must hold:

* a roll-up composes along a hierarchy: rolling a finer node's groups
  up to a coarser level gives the coarser node — exactly for ``count``
  / ``min`` / ``max``, to 1e-9 relative for ``sum`` / ``avg`` (a float
  sum depends on how it is bracketed);
* slice and dice commute;
* drill-down after roll-up returns the finer node's groups;
* no answer depends on the order nodes were read in.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chase.instance as instance_mod
from repro.model.catalog import MetadataCatalog
from repro.model.cube import Cube, CubeSchema, Dimension
from repro.model.time import Frequency, month
from repro.model.types import STRING, TIME
from repro.olap import OlapService

REGIONS = ("north", "south", "east", "west", "mid")
TIME_LEVELS = ("m", "quarter", "year", "all")
REGION_LEVELS = ("r", "zone", "all")
SCHEMA = CubeSchema(
    "S", [Dimension("m", TIME(Frequency.MONTH)), Dimension("r", STRING)], "v"
)


@st.composite
def catalogs(draw):
    """A catalog holding one random panel cube ``S`` with a ``zone``
    grouping of its regions, the cube held as rows or with a chase
    store."""
    start = month(2018, 1) + draw(st.integers(0, 11))
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 29), st.sampled_from(REGIONS)),
            st.floats(0.0, 1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    zones = draw(
        st.dictionaries(st.sampled_from(REGIONS), st.sampled_from(["cold", "warm"]))
    )
    cube = Cube(SCHEMA)
    for (i, r), value in cells.items():
        cube.set((start + i, r), value)
    if draw(st.booleans()):
        instance_mod.store_for_cube(cube)
    catalog = MetadataCatalog()
    catalog.declare_elementary(SCHEMA)
    catalog.declare_grouping("S", "r", "zone", zones)
    catalog.load(cube)
    return catalog


def _groups(result):
    return {row[:-1]: row[-1] for row in result.rows}


def _levels(time_level, region_level):
    return {"m": time_level, "r": region_level}


def _up(hierarchy, finer, coarser):
    """The map from a ``finer`` level value to its ``coarser`` one, or
    None where the coarser level is ``all`` (the key part goes)."""
    if coarser == "all":
        return None
    if coarser == finer:
        return lambda value: value
    # a time level maps any finer point; a grouping maps base values
    return hierarchy.level(coarser).fn


def _compose(service, hierarchies, finer, coarser, agg):
    """``coarser``'s groups, rolled up from ``finer``'s answer."""
    maps = [
        _up(h, f, c)
        for h, f, c in zip(hierarchies, finer, coarser)
        if f != "all"
    ]
    fine = _groups(service.rollup("S", _levels(*finer)))
    counts = None
    if agg == "avg":
        counts = _groups(
            OlapService(service.catalog, aggregate="count").rollup(
                "S", _levels(*finer)
            )
        )
    parts = {}
    for key, value in fine.items():
        up = tuple(fn(part) for fn, part in zip(maps, key) if fn is not None)
        weight = counts[key] if counts is not None else 1.0
        parts.setdefault(up, []).append((value, weight))
    fold = {
        "count": lambda pairs: float(sum(v for v, _ in pairs)),
        "sum": lambda pairs: math.fsum(v for v, _ in pairs),
        "min": lambda pairs: min(v for v, _ in pairs),
        "max": lambda pairs: max(v for v, _ in pairs),
        "avg": lambda pairs: math.fsum(v * w for v, w in pairs)
        / sum(w for _, w in pairs),
    }[agg]
    return {key: fold(pairs) for key, pairs in parts.items()}


def _coarser_pair(rng):
    """A (finer, coarser) level choice, coarser along both hierarchies."""
    t = sorted(rng.choices(range(len(TIME_LEVELS)), k=2))
    r = sorted(rng.choices(range(len(REGION_LEVELS)), k=2))
    finer = (TIME_LEVELS[t[0]], REGION_LEVELS[r[0]])
    coarser = (TIME_LEVELS[t[1]], REGION_LEVELS[r[1]])
    return finer, coarser


@settings(max_examples=60, deadline=None)
@given(
    catalog=catalogs(),
    agg=st.sampled_from(["count", "min", "max", "sum", "avg"]),
    seed=st.integers(0, 2**16),
)
def test_rollup_composes_along_the_hierarchy(catalog, agg, seed):
    finer, coarser = _coarser_pair(random.Random(seed))
    service = OlapService(catalog, aggregate=agg)
    hierarchies = service.lattice("S").hierarchies
    composed = _compose(service, hierarchies, finer, coarser, agg)
    direct = _groups(service.rollup("S", _levels(*coarser)))
    assert set(composed) == set(direct)
    for key, value in direct.items():
        if agg in ("count", "min", "max"):
            assert composed[key] == value, key
        else:
            assert math.isclose(composed[key], value, rel_tol=1e-9, abs_tol=1e-9), key


@settings(max_examples=60, deadline=None)
@given(catalog=catalogs(), seed=st.integers(0, 2**16))
def test_slice_and_dice_commute(catalog, seed):
    rng = random.Random(seed)
    service = OlapService(catalog)
    levels = _levels(rng.choice(TIME_LEVELS[:3]), rng.choice(REGION_LEVELS[:2]))
    rows = service.rollup("S", levels).rows
    region = rng.choice(rows)[1]
    months = {row[0] for row in rng.sample(rows, rng.randrange(len(rows) + 1))}
    # slice r, then dice m
    sliced = service.slice_("S", {"r": region}, levels).rows
    first = [row for row in sliced if row[0] in months]
    # dice m, then slice r
    diced = service.dice("S", {"m": months}, levels).rows
    second = [(row[0], row[2]) for row in diced if row[1] == region]
    assert first == second


@settings(max_examples=60, deadline=None)
@given(catalog=catalogs(), seed=st.integers(0, 2**16))
def test_drilldown_undoes_rollup(catalog, seed):
    rng = random.Random(seed)
    service = OlapService(catalog, aggregate=rng.choice(["sum", "median"]))
    dim, chain = rng.choice([("m", TIME_LEVELS), ("r", REGION_LEVELS)])
    step = rng.randrange(1, len(chain))
    other = "r" if dim == "m" else "m"
    other_level = rng.choice(TIME_LEVELS if other == "m" else REGION_LEVELS)
    coarse = {dim: chain[step], other: other_level}
    fine = {dim: chain[step - 1], other: other_level}
    service.rollup("S", coarse)
    drilled = service.drilldown("S", coarse, dim)
    assert drilled == service.rollup("S", fine)


@settings(max_examples=40, deadline=None)
@given(
    catalog=catalogs(),
    agg=st.sampled_from(["sum", "avg", "median", "count"]),
    seed=st.integers(0, 2**16),
)
def test_no_answer_depends_on_read_order(catalog, agg, seed):
    rng = random.Random(seed)
    choices = [(t, r) for t in TIME_LEVELS for r in REGION_LEVELS]
    answers = []
    for _ in range(2):
        service = OlapService(catalog, aggregate=agg)
        rng.shuffle(choices)
        answers.append(
            {
                choice: [
                    tuple(map(repr, row))
                    for row in service.rollup("S", _levels(*choice)).rows
                ]
                for choice in choices
            }
        )
    assert answers[0] == answers[1]

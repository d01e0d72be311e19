"""EXP-OLAP — lattice-served queries vs. CSV-load-and-aggregate.

Validates the OLAP layer's headline claims on the 120k-tuple panel:

- warm **point** and **roll-up** lookups answer from the materialized
  nodes of the roll-up lattice in < 1 ms median, ≥100× faster than
  loading the CSV and aggregating it from scratch;
- the **first touch** of a node reduces that node alone: it costs a
  fraction of reducing the whole lattice, which is what a one-shot
  ``exl query`` used to pay — and what a query pays for each node it
  reads after an update rebinds the lattice to the new head.

Run with ``--bench-json benchmarks/results/BENCH.json`` to land the
speedup in the unified report that ``benchmarks/check_regression.py``
gates on.
"""

import csv
import statistics
import time

from repro.chase.instance import store_for_cube
from repro.engine import EXLEngine
from repro.model import (
    STRING,
    TIME,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    month,
)
from repro.model.catalog import MetadataCatalog
from repro.model.io import write_cube_csv
from repro.model.time import parse_timepoint
from repro.olap import CubeLattice, hierarchies_for
from repro.workloads.datagen import random_cube

N_MONTHS = 2000
N_REGIONS = 60  # 2000 x 60 = 120k tuples
QUERY_SPEEDUP_FLOOR = 100.0
WARM_MEDIAN_CEILING_S = 0.001
#: whole lattice (8 nodes) over one first-touched roll-up node
FIRST_TOUCH_SPEEDUP_FLOOR = 3.0

PROGRAM = "G := sum(S, group by quarter(m) as q, r)\n"


def _panel():
    schema = Schema(
        [
            CubeSchema(
                "S",
                [
                    Dimension("m", TIME(Frequency.MONTH)),
                    Dimension("r", STRING),
                ],
                "v",
            )
        ]
    )
    domains = {
        "m": [month(1900, 1) + i for i in range(N_MONTHS)],
        "r": [f"r{i:02d}" for i in range(N_REGIONS)],
    }
    return schema, random_cube(schema["S"], domains, seed=11)


def _csv_rollup_by_year(csv_path):
    """The contender: load the CSV, parse, aggregate by year in one pass.

    This is deliberately the *cheapest* cold path — csv module, one
    dict of running sums — so the measured speedup understates what a
    repeated-full-scan client would actually pay.
    """
    totals = {}
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for m, _r, v in reader:
            y = parse_timepoint(m).year
            totals[y] = totals.get(y, 0.0) + float(v)
    return totals


def _median_query_s(fn, repeats=200):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_warm_queries_beat_csv_aggregation(bench_report, tmp_path):
    schema, base = _panel()
    engine = EXLEngine(target_priority=("chase",))
    engine.declare_elementary(schema["S"])
    engine.add_program(PROGRAM)
    engine.load(base)
    service = engine.enable_olap(cubes=["S"])
    engine.run()

    some_key = base.to_rows()[len(base) // 2][:-1]
    coords = {"m": some_key[0], "r": some_key[1]}
    point_s = _median_query_s(lambda: service.point("S", coords))
    rollup_s = _median_query_s(
        lambda: service.rollup("S", {"m": "year", "r": "all"})
    )

    csv_path = tmp_path / "S.csv"
    write_cube_csv(base, csv_path)
    csv_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        totals = _csv_rollup_by_year(csv_path)
        csv_times.append(time.perf_counter() - t0)
    csv_s = min(csv_times)

    # same answer, different path: the lattice's year roll-up equals
    # the CSV scan's running sums
    served = {
        row[0].year: row[-1]
        for row in service.rollup("S", {"m": "year", "r": "all"}).rows
    }
    assert set(served) == set(totals)
    for y, total in totals.items():
        assert abs(served[y] - total) < 1e-6 * max(1.0, abs(total))

    speedup = csv_s / rollup_s
    print(
        f"\nEXP-OLAP: {len(base)} tuples: point {point_s * 1e6:.0f}us, "
        f"rollup {rollup_s * 1e6:.0f}us, csv-scan {csv_s * 1000:.0f}ms "
        f"-> {speedup:.0f}x"
    )
    bench_report.record(
        "olap_query",
        "warm_rollup_vs_csv",
        {
            "tuples": len(base),
            "groups": service.lattice("S").total_groups(),
            "point_s": round(point_s, 7),
            "rollup_s": round(rollup_s, 7),
            "csv_s": round(csv_s, 4),
            "speedup": round(speedup, 1),
            "floor": QUERY_SPEEDUP_FLOOR,
        },
    )
    assert point_s < WARM_MEDIAN_CEILING_S, (
        f"warm point lookup median {point_s * 1000:.3f}ms (ceiling 1ms)"
    )
    assert rollup_s < WARM_MEDIAN_CEILING_S, (
        f"warm rollup median {rollup_s * 1000:.3f}ms (ceiling 1ms)"
    )
    assert speedup >= QUERY_SPEEDUP_FLOOR, (
        f"lattice rollup only {speedup:.0f}x faster than a CSV scan "
        f"(floor {QUERY_SPEEDUP_FLOOR:.0f}x)"
    )


def test_first_touch_reduces_one_node(bench_report):
    schema, base = _panel()
    catalog = MetadataCatalog()
    catalog.declare_elementary(schema["S"])
    hierarchies = hierarchies_for(catalog, "S")
    store_for_cube(base).image()  # the encode is the cube's cost, not a node's

    first_touch_times, full_times = [], []
    for _ in range(3):
        lattice = CubeLattice("S", hierarchies, aggregate="sum")
        lattice.build(base)
        t0 = time.perf_counter()
        lattice.node({"m": "year", "r": "all"}).groups
        first_touch_times.append(time.perf_counter() - t0)
        assert len(lattice.materialized_nodes()) == 1

        lattice = CubeLattice("S", hierarchies, aggregate="sum")
        lattice.build(base)
        t0 = time.perf_counter()
        lattice.materialize_all()
        full_times.append(time.perf_counter() - t0)
    first_touch_s, full_s = min(first_touch_times), min(full_times)
    speedup = full_s / first_touch_s
    print(
        f"\nEXP-OLAP first touch: one node {first_touch_s * 1000:.0f}ms, "
        f"all {len(lattice.nodes)} nodes {full_s * 1000:.0f}ms "
        f"-> {speedup:.1f}x"
    )
    bench_report.record(
        "olap_query",
        "first_touch_node",
        {
            "tuples": len(base),
            "nodes": len(lattice.nodes),
            "first_touch_s": round(first_touch_s, 4),
            "full_lattice_s": round(full_s, 4),
            "speedup": round(speedup, 1),
            "floor": FIRST_TOUCH_SPEEDUP_FLOOR,
        },
    )
    assert speedup >= FIRST_TOUCH_SPEEDUP_FLOOR, (
        f"first touch of one node only {speedup:.1f}x cheaper than the "
        f"whole lattice (floor {FIRST_TOUCH_SPEEDUP_FLOOR:.0f}x)"
    )

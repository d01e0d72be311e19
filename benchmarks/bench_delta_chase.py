"""EXP-DELTA — a no-op update vs. a full rerun.

Reloading bit-identical elementary data and calling
``EXLEngine.update`` must be ≥5× faster than running the program from
scratch: the content comparison finds nothing dirty, so the update's
cost is that comparison, not the program.

The program mixes tuple-level scalar maps, a binary vectorial join, an
aggregation with a transformed group key and a time-shift consumer
over a 120k-tuple panel.

Run with ``--bench-json benchmarks/results/BENCH.json`` to land the
speedup in the unified report that ``benchmarks/check_regression.py``
gates on.
"""

import time

from repro.engine import EXLEngine
from repro.model import STRING, TIME, CubeSchema, Dimension, Frequency, Schema, month
from repro.workloads.datagen import random_cube

N_MONTHS = 2000
N_REGIONS = 60  # 2000 x 60 = 120k tuples
DELTA_SPEEDUP_FLOOR = 5.0

PROGRAM = """\
A := S * 2 + 1
B := A + S
G := sum(S, group by quarter(m) as q, r)
C := (B - A) * 100 / B
D := B - shift(B, 1)
"""


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


def _engine(schema):
    engine = EXLEngine(target_priority=("chase",))
    engine.declare_elementary(schema["S"])
    engine.add_program(PROGRAM)
    return engine


def test_noop_update_costs_only_the_diff(bench_report):
    """Reloading identical data must dispatch nothing: the update's
    cost is the content diff, not the program."""
    schema, base = _panel()
    engine = _engine(schema)
    engine.load(base)
    t0 = time.perf_counter()
    engine.run()
    full_s = time.perf_counter() - t0

    engine.load(base.copy())
    t0 = time.perf_counter()
    record = engine.update()
    noop_s = time.perf_counter() - t0
    assert record.subgraphs == []
    assert record.trigger == ()
    speedup = full_s / noop_s
    print(
        f"\nEXP-DELTA noop: full {full_s * 1000:.0f}ms, "
        f"no-op update {noop_s * 1000:.0f}ms -> {speedup:.1f}x"
    )
    bench_report.record(
        "delta_chase",
        "noop_update",
        {
            "tuples": len(base),
            "full_s": round(full_s, 4),
            "noop_s": round(noop_s, 4),
            "speedup": round(speedup, 2),
            "floor": DELTA_SPEEDUP_FLOOR,
        },
    )
    assert speedup >= DELTA_SPEEDUP_FLOOR

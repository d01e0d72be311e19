"""EXP-DELTA — incremental update vs. full rerun.

Validates the delta-stratified chase's headline claim: revising 1% of
a 120k-tuple elementary panel and calling ``EXLEngine.update`` must be
≥5× faster than recomputing the program from scratch, while leaving
the store tuple-for-tuple identical to the full rerun.

The program mixes the delta rules' main paths: tuple-level scalar
maps (columnar mini-kernel), a binary vectorial join, an aggregation
with a transformed group key (per-group contribution index), and a
time-shift consumer — but no black-box table function, so every
stratum takes a genuine incremental rule.

Run with ``--bench-json benchmarks/results/BENCH.json`` to land the
speedup in the unified report that ``benchmarks/check_regression.py``
gates on.
"""

import random
import time

from repro.engine import EXLEngine
from repro.model import STRING, TIME, Cube, CubeSchema, Dimension, Frequency, Schema, month
from repro.workloads.datagen import random_cube

N_MONTHS = 2000
N_REGIONS = 60  # 2000 x 60 = 120k tuples
PERTURBATION = 0.01  # revise 1% of the panel per update
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


def _perturbed(cube: Cube, seed: int) -> Cube:
    rng = random.Random(seed)
    rows = cube.to_rows()
    revised = cube.copy()
    for i in rng.sample(range(len(rows)), int(len(rows) * PERTURBATION)):
        key = rows[i][:-1]
        revised.set(key, rows[i][-1] + rng.uniform(0.5, 1.5), overwrite=True)
    return revised


def test_one_percent_update_beats_full_rerun(bench_report):
    schema, base = _panel()
    engine = _engine(schema)
    engine.load(base)
    engine.run()
    # warm-up update: completes the snapshot's lazy indexes and the
    # per-group contribution index, so the measurement below is the
    # steady state an update service actually runs in
    warm = _perturbed(base, seed=100)
    engine.load(warm)
    warm_record = engine.update()
    assert warm_record.delta_fallback_tgds == 0, (
        "every stratum must take a delta rule on this program"
    )

    update_times = []
    current = warm
    for round_no in range(3):
        current = _perturbed(current, seed=200 + round_no)
        engine.load(current)
        t0 = time.perf_counter()
        record = engine.update()
        update_times.append(time.perf_counter() - t0)
        assert record.delta_dirty_tgds > 0
        assert record.delta_fallback_tgds == 0
    update_s = sorted(update_times)[len(update_times) // 2]

    full_times = []
    for _ in range(2):
        fresh = _engine(schema)
        fresh.load(current)
        t0 = time.perf_counter()
        fresh.run()
        full_times.append(time.perf_counter() - t0)
    full_s = min(full_times)

    # the update's store must equal the full rerun's, tuple for tuple
    for name in engine.catalog.store.names():
        delta = engine.data(name).delta(fresh.data(name))
        assert delta.is_empty, f"{name} diverged from the full rerun"

    speedup = full_s / update_s
    changed = int(len(base) * PERTURBATION)
    print(
        f"\nEXP-DELTA: {len(base)} tuples, {changed} revised "
        f"({PERTURBATION:.0%}): full {full_s * 1000:.0f}ms, "
        f"update {update_s * 1000:.0f}ms -> {speedup:.1f}x"
    )
    bench_report.record(
        "delta_chase",
        "one_percent_update",
        {
            "tuples": len(base),
            "revised": changed,
            "full_s": round(full_s, 4),
            "update_s": round(update_s, 4),
            "speedup": round(speedup, 2),
            "floor": DELTA_SPEEDUP_FLOOR,
            "dirty_tgds": record.delta_dirty_tgds,
            "fallback_tgds": record.delta_fallback_tgds,
        },
    )
    assert speedup >= DELTA_SPEEDUP_FLOOR, (
        f"incremental update only {speedup:.1f}x faster than a full rerun "
        f"(floor {DELTA_SPEEDUP_FLOOR}x)"
    )


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

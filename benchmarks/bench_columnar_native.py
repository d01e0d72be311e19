"""EXP-COLUMNAR-NATIVE — columnar-native storage kills the encode tax.

Before this layer, every chase run re-encoded each relation's
``Set[Fact]`` into dictionary-encoded columns on first kernel contact —
on warm runs (same data, rerun or no-op update) that work was pure
waste.  Columnar-native storage inverts the representation: relations
live as struct-of-arrays inside :class:`RelationalInstance`, cubes carry
their encoded columns across runs, and the tuple view is derived lazily.

The headline claim this bench gates: on the 120k-tuple scalar workload,
cumulative ``kernel:encode`` span time on a *warm* engine run drops
≥ 10× versus the forced-eager-tuple layout (``EXL_FORCE_TUPLE_VIEW``
oracle).  In practice the native number is zero — no relation ever
exists as a tuple set — so the measured ratio is effectively unbounded;
the floor guards against the representation regressing to re-encoding.

Results land in ``benchmarks/results/`` (``COLUMNAR_NATIVE_BENCH_JSON``)
and, with ``--bench-json``, in the unified report that
``benchmarks/check_regression.py`` gates on.
"""

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import repro.chase.instance as instance_mod
from repro.engine import EXLEngine
from repro.model import STRING, TIME, CubeSchema, Dimension, Frequency, month
from repro.obs import Tracer
from repro.workloads.datagen import random_cube

N_MONTHS = 2000
N_REGIONS = 60  # 2000 x 60 = 120k tuples
ENCODE_SPEEDUP_FLOOR = 10.0
# the forced-tuple encode total is divided by this when the native side
# measures a flat zero (no encode spans at all)
MIN_ENCODE_MS = 0.001

SCALAR_PROGRAM = """\
A := S * 2 + 1
B := A + S
C := (B - A) * 100 / B
"""

_results = {}


@contextmanager
def _tuple_view(forced):
    previous = instance_mod.FORCE_TUPLE_VIEW
    instance_mod.FORCE_TUPLE_VIEW = forced
    try:
        yield
    finally:
        instance_mod.FORCE_TUPLE_VIEW = previous


def _schema():
    return CubeSchema(
        "S",
        [Dimension("m", TIME(Frequency.MONTH)), Dimension("r", STRING)],
        "v",
    )


def _input_cube():
    return random_cube(
        _schema(),
        {
            "m": [month(2000, 1) + i for i in range(N_MONTHS)],
            "r": [f"r{i:02d}" for i in range(N_REGIONS)],
        },
        seed=11,
    )


def _engine(tracer):
    engine = EXLEngine(
        vectorize=True,
        tracer=tracer,
        target_priority=("chase",),
    )
    engine.declare_elementary(_schema())
    engine.add_program(SCALAR_PROGRAM)
    engine.load(_input_cube())
    return engine


def _encode_totals(tracer, start_index=0):
    """(total_ms, span_count) of ``kernel:encode`` spans from an index."""
    total_ms = 0.0
    count = 0
    for span in tracer.spans[start_index:]:
        if span.category == "kernel" and span.name == "kernel:encode":
            total_ms += span.duration * 1000
            count += 1
    return total_ms, count


def _warm_run_encode(forced):
    """Encode-span totals of a warm (second) full engine run, plus the
    end-to-end wall time of that run, under one representation."""
    with _tuple_view(forced):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tracer = Tracer()
            engine = _engine(tracer)
            engine.run()  # cold: populates cube stores (native) or not
            mark = len(tracer.spans)
            start = time.perf_counter()
            record = engine.run()  # warm full rerun over unchanged data
            wall_s = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
            gc.collect()
    encode_ms, spans = _encode_totals(tracer, mark)
    return {
        "encode_ms": round(encode_ms, 3),
        "encode_spans": spans,
        "encode_count": record.encode_count,
        "wall_s": round(wall_s, 4),
    }


def test_warm_run_encode_tax(bench_report):
    """Warm-run cumulative encode time: native must undercut the
    forced-tuple oracle ≥ 10× (it is identically zero by design)."""
    tuple_side = _warm_run_encode(forced=True)
    native_side = _warm_run_encode(forced=False)

    # the oracle must actually pay the tax, or the ratio is meaningless
    assert tuple_side["encode_spans"] > 0
    assert tuple_side["encode_ms"] > 0
    # native: the representation guarantees a flat zero
    assert native_side["encode_spans"] == 0
    assert native_side["encode_count"] == 0

    speedup = tuple_side["encode_ms"] / max(
        native_side["encode_ms"], MIN_ENCODE_MS
    )
    entry = {
        "rows": N_MONTHS * N_REGIONS,
        "tuple_encode_ms": tuple_side["encode_ms"],
        "tuple_encode_spans": tuple_side["encode_spans"],
        "native_encode_ms": native_side["encode_ms"],
        "native_encode_spans": native_side["encode_spans"],
        "tuple_warm_wall_s": tuple_side["wall_s"],
        "native_warm_wall_s": native_side["wall_s"],
        "speedup": round(speedup, 2),
        "floor": ENCODE_SPEEDUP_FLOOR,
    }
    _results["warm_encode_tax"] = entry
    bench_report.record("columnar_native", "warm_encode_tax", entry)
    print(
        f"\nwarm encode tax: tuple {tuple_side['encode_ms']:.1f}ms over "
        f"{tuple_side['encode_spans']} spans, native "
        f"{native_side['encode_ms']:.1f}ms ({native_side['encode_spans']} "
        f"spans), reduction {speedup:.0f}x (floor {ENCODE_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= ENCODE_SPEEDUP_FLOOR


def test_warm_noop_update_never_encodes(bench_report):
    """A no-op ``update()`` on the 120k workload: zero encode work."""
    with _tuple_view(False):
        tracer = Tracer()
        engine = _engine(tracer)
        engine.run()
        engine.load(_input_cube())  # bit-identical revision
        mark = len(tracer.spans)
        start = time.perf_counter()
        record = engine.update()
        wall_s = time.perf_counter() - start
    encode_ms, spans = _encode_totals(tracer, mark)
    entry = {
        "rows": N_MONTHS * N_REGIONS,
        "encode_ms": round(encode_ms, 3),
        "encode_spans": spans,
        "update_wall_s": round(wall_s, 4),
    }
    _results["noop_update"] = entry
    bench_report.record("columnar_native", "noop_update", entry)
    print(
        f"\nno-op update: {wall_s * 1000:.0f}ms end to end, "
        f"{spans} encode spans ({encode_ms:.1f}ms)"
    )
    assert spans == 0
    assert record.encode_count == 0


def test_write_json_report():
    """Persist the measurements for the CI artifact (runs last)."""
    default = (
        Path(__file__).parent / "results" / "bench_columnar_native_results.json"
    )
    out = Path(os.environ.get("COLUMNAR_NATIVE_BENCH_JSON", default))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"columnar_native": _results}, indent=2) + "\n")
    print(f"\nwrote {out.resolve()}")
    assert out.exists()
    assert "warm_encode_tax" in _results

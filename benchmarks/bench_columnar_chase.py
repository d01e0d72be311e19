"""EXP-COLUMNAR-CHASE — columnar tgd kernels vs. tuple-at-a-time.

Validates the columnar kernel layer's performance claims on the two
workload shapes the paper's programs are made of:

1. *Scalar arithmetic* (``A := S * 2`` chains): whole-column NumPy
   arithmetic must beat the per-tuple match/evaluate/insert loop by
   ≥5× on a ≥100k-tuple instance.
2. *Aggregation* (``G := sum(S, group by …)``): sort/group-reduce on
   dictionary-encoded key codes must beat the per-tuple grouping dict
   by ≥3×.

The tuple-at-a-time side is the reference chase of
``tests/oracle/chase.py``.  Both must produce the identical solution
instance — the kernels are a pure executor swap (the property the
randomized suite in ``tests/test_columnar_chase.py`` pins tuple for
tuple).

Since the columnar-native storage layer (DESIGN.md §9) the encode
phase no longer appears in the kernel-phase breakdown at all: a
relation's one representation is its dictionary-encoded column store,
so the kernels read images straight off the stores.

The timings are written as JSON (``COLUMNAR_BENCH_JSON``, default
``benchmarks/results/bench_columnar_chase_results.json``) so CI can
publish them as a
workflow artifact; with ``--bench-json`` they also land in the unified
report that ``benchmarks/check_regression.py`` gates on.  Each entry
carries trace-derived kernel-phase totals (join/eval/egd-check/
insert) from an instrumented run, so a regression is attributable to a
phase, not just visible in the end-to-end number.
"""

import gc
import json
import os
import time
from pathlib import Path


from repro.chase import StratifiedChase, instance_from_cubes
from repro.obs import Tracer
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import STRING, TIME, CubeSchema, Dimension, Frequency, Schema, month
from repro.workloads.datagen import random_cube
from tests.oracle.chase import ScalarChase

N_MONTHS = 2000
N_REGIONS = 60  # 2000 x 60 = 120k tuples
SCALAR_SPEEDUP_FLOOR = 5.0
AGG_SPEEDUP_FLOOR = 3.0

# the shapes of the paper's GDP pipeline: a unary scalar map, a binary
# vectorial (RGDP := PQR * RGDPPC — a join on the shared dimensions),
# and a three-operand expression tree over joined cubes
SCALAR_PROGRAM = """\
A := S * 2 + 1
B := A + S
C := (B - A) * 100 / B
"""

# PQR := avg(PDR, group by quarter(d) as q, r) — a transformed group
# key plus a plain roll-up
AGG_PROGRAM = """\
G := sum(S, group by quarter(m) as q, r)
H := avg(S, group by r)
"""

_results = {}


def _panel_workload(source_text):
    schema = Schema(
        [
            CubeSchema(
                "S",
                [Dimension("m", TIME(Frequency.MONTH)), Dimension("r", STRING)],
                "v",
            )
        ]
    )
    program = Program.compile(source_text, schema)
    mapping = generate_mapping(program)
    data = {
        "S": random_cube(
            schema["S"],
            {
                "m": [month(2000, 1) + i for i in range(N_MONTHS)],
                "r": [f"r{i:02d}" for i in range(N_REGIONS)],
            },
            seed=11,
        )
    }
    return mapping, instance_from_cubes(data)


def _wall(fn, repeats: int = 3) -> float:
    """Best-of-N wall time with the GC paused (timeit's convention).

    A chase run allocates hundreds of thousands of tuples, so the
    generational collector otherwise fires mid-run and the pauses — not
    the executor under test — dominate the variance.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def _assert_identical(a, b):
    assert sorted(a.instance.relations()) == sorted(b.instance.relations())
    for relation in a.instance.relations():
        assert a.instance.facts(relation) == b.instance.facts(relation)


def _kernel_phase_ms(mapping, source):
    """Per-phase kernel totals (ms) from one traced kernel run.

    Runs under the same paused-GC convention as :func:`_wall`, so the
    phase totals are comparable with the end-to-end timings (collector
    pauses would otherwise land inside whichever span they interrupt).
    """
    tracer = Tracer()
    _wall(
        lambda: StratifiedChase(mapping, tracer=tracer).run(source),
        repeats=1,
    )
    totals = {}
    for span in tracer.spans:
        if span.category == "kernel":
            phase = span.name.split(":", 1)[1]
            totals[phase] = totals.get(phase, 0.0) + span.duration * 1000
    return {phase: round(ms, 3) for phase, ms in sorted(totals.items())}


def _measure(name, source_text, floor, report=None):
    mapping, source = _panel_workload(source_text)
    scalar_chase = ScalarChase(mapping)
    vector_chase = StratifiedChase(mapping)

    scalar = scalar_chase.run(source)
    vector = vector_chase.run(source)
    _assert_identical(scalar, vector)

    rows = source.size("S")
    assert rows >= 100_000
    scalar_s = _wall(lambda: scalar_chase.run(source))
    vector_s = _wall(lambda: vector_chase.run(source))
    speedup = scalar_s / vector_s
    kernel_phase_ms = _kernel_phase_ms(mapping, source)
    # columnar-native storage: a relation is its column store, so no
    # kernel phase encodes
    assert "encode" not in kernel_phase_ms, kernel_phase_ms
    _results[name] = {
        "rows": rows,
        "tuples_generated": scalar.stats.tuples_generated,
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vector_s, 4),
        "speedup": round(speedup, 2),
        "floor": floor,
        "kernel_phase_ms": kernel_phase_ms,
    }
    if report is not None:
        report.record("columnar_chase", name, _results[name])
    print(
        f"\n{name}: {rows} tuples, scalar {scalar_s * 1000:.0f}ms, "
        f"vectorized {vector_s * 1000:.0f}ms, speedup {speedup:.1f}x "
        f"(floor {floor}x)"
    )
    return speedup


def test_scalar_arithmetic_speedup(bench_report):
    """≥5× on a 120k-tuple chain of scalar-arithmetic statements."""
    assert _measure(
        "scalar_arith", SCALAR_PROGRAM, SCALAR_SPEEDUP_FLOOR, bench_report
    ) >= SCALAR_SPEEDUP_FLOOR


def test_aggregation_speedup(bench_report):
    """≥3× on 120k-tuple group-by roll-ups."""
    assert _measure(
        "aggregation", AGG_PROGRAM, AGG_SPEEDUP_FLOOR, bench_report
    ) >= AGG_SPEEDUP_FLOOR


def test_tracing_overhead(bench_report):
    """Tracing must stay cheap relative to the work it measures.

    Spans fire at kernel-phase granularity (a handful per tgd, never
    per tuple), so even a *live* tracer should cost well under half the
    runtime of the 120k-tuple kernel chase; the default
    ``NULL_TRACER`` path costs a single attribute load per
    instrumentation point and is indistinguishable from no
    instrumentation at all.
    """
    mapping, source = _panel_workload(SCALAR_PROGRAM)
    disabled_chase = StratifiedChase(mapping)
    disabled_s = _wall(lambda: disabled_chase.run(source), repeats=5)

    def traced_run():
        StratifiedChase(mapping, tracer=Tracer()).run(source)

    traced_s = _wall(traced_run, repeats=5)
    overhead = traced_s / disabled_s - 1.0
    _results["tracing_overhead"] = {
        "disabled_s": round(disabled_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_pct": round(overhead * 100, 2),
    }
    bench_report.record(
        "columnar_chase", "tracing_overhead", _results["tracing_overhead"]
    )
    print(
        f"\ntracing overhead: disabled {disabled_s * 1000:.0f}ms, "
        f"traced {traced_s * 1000:.0f}ms ({overhead * 100:+.1f}%)"
    )
    assert traced_s < disabled_s * 1.5


def test_write_json_report():
    """Persist the measurements for the CI artifact (runs last)."""
    default = Path(__file__).parent / "results" / "bench_columnar_chase_results.json"
    out = Path(os.environ.get("COLUMNAR_BENCH_JSON", default))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"columnar_chase": _results}, indent=2) + "\n")
    print(f"\nwrote {out.resolve()}")
    assert out.exists()
    assert "scalar_arith" in _results and "aggregation" in _results

"""EXP-PARALLEL-CHASE — stratum-parallel scheduling.

Validates the claim of the chase executor's thread waves (``jobs``):
on a wide stratum DAG whose strata spend most of their time waiting on
a target engine, executing each wave on a thread pool cuts wall time by
≥1.5× versus the paper's sequential statement-order chase, while
producing the identical solution.

In the paper's deployment each stratum is dispatched to an external
target engine (DBMS, R, Matlab, ETL server) and the coordinator blocks
on the round-trip; this host has a single CPU, so the benchmark models
that dispatch latency with a registered table function that blocks for
a fixed interval.  The speedup measured is the genuine wall-clock gain
of overlapping those waits — the same gain a multi-core host gets on
GIL-releasing kernels.

Workload: a generated 32-statement program shaped as 8 independent
chains of depth 4, i.e. 4 waves of 8 mutually independent strata each.
"""

import time

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from repro.exl import OperatorRegistry, OperatorSpec, OpKind, Program, default_registry
from repro.mappings import generate_mapping
from repro.model import TIME, CubeSchema, Dimension, Frequency, Schema, month
from repro.obs import Tracer
from repro.workloads.datagen import random_cube

CHAINS = 8
DEPTH = 4
LATENCY_S = 0.01  # simulated target-engine round-trip per stratum
# the in-test assertion stays a conservative 1.5x (shared runners are
# noisy); the CI regression gate holds the recorded number to this floor
WAVE_OVERLAP_FLOOR = 2.5


def _registry() -> OperatorRegistry:
    registry = default_registry()

    def engine_rt(rows, params):
        """Identity series op with a simulated engine round-trip."""
        time.sleep(float(params.get("latency", LATENCY_S)))
        return [(point, value * 1.0) for point, value in rows]

    registry.register(
        OperatorSpec(
            "engine_rt",
            OpKind.TABLE_FUNCTION,
            engine_rt,
            (("latency", False),),
            frozenset({"chase"}),
            "identity + simulated target-engine dispatch latency",
        )
    )
    return registry


def _wide_workload():
    """32 statements: 8 independent chains of depth 4 over one series."""
    schema = Schema(
        [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
    )
    lines = []
    for chain in range(1, CHAINS + 1):
        previous = "S"
        for level in range(1, DEPTH + 1):
            name = f"C{chain}x{level}"
            lines.append(f"{name} := engine_rt({previous})")
            previous = name
    source = "\n".join(lines)
    program = Program.compile(source, schema, _registry())
    mapping = generate_mapping(program)
    data = {
        "S": random_cube(
            schema["S"], {"m": [month(2019, 1) + i for i in range(24)]}, seed=7
        )
    }
    return mapping, instance_from_cubes(data)


def _wall(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def wide():
    return _wide_workload()


def test_schedule_is_wide(wide):
    """The generated DAG yields DEPTH waves of CHAINS independent strata."""
    mapping, _ = wide
    chase = StratifiedChase(mapping, jobs=4)
    widths = [len(wave) for wave in chase.waves]
    print(f"\nwave widths: {widths}")
    assert len(widths) == DEPTH
    assert all(width == CHAINS for width in widths)
    assert min(widths) >= 4  # ≥4 independent strata per wave


def _traced_wave_ms(mapping, source):
    """Per-wave wall durations (ms) from one traced parallel run."""
    tracer = Tracer()
    StratifiedChase(mapping, jobs=4, tracer=tracer).run(source)
    waves = [
        (span.name, round(span.duration * 1000, 2))
        for span in tracer.spans
        if span.category == "wave"
    ]
    waves.sort()
    return dict(waves)


def test_parallel_speedup_over_sequential(wide, bench_report):
    """≥1.5× wall-time speedup with 4 workers, identical solution."""
    mapping, source = wide
    sequential_chase = StratifiedChase(mapping)
    parallel_chase = StratifiedChase(mapping, jobs=4)

    sequential = sequential_chase.run(source)
    parallel = parallel_chase.run(source)
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == parallel.instance.facts(
            relation
        )

    seq_s = _wall(lambda: sequential_chase.run(source))
    par_s = _wall(lambda: parallel_chase.run(source))
    speedup = seq_s / par_s
    bench_report.record(
        "parallel_chase",
        "wave_overlap",
        {
            "chains": CHAINS,
            "depth": DEPTH,
            "sequential_s": round(seq_s, 4),
            "parallel_s": round(par_s, 4),
            "speedup": round(speedup, 2),
            "floor": WAVE_OVERLAP_FLOOR,
            "waves": parallel.stats.waves,
            "max_wave_width": parallel.stats.max_wave_width,
            "wave_ms": _traced_wave_ms(mapping, source),
        },
    )
    print(
        f"\nsequential {seq_s * 1000:.1f}ms  parallel(jobs=4) "
        f"{par_s * 1000:.1f}ms  speedup {speedup:.2f}x  "
        f"(waves={parallel.stats.waves}, "
        f"max_wave_width={parallel.stats.max_wave_width})"
    )
    assert parallel.stats.waves == DEPTH
    assert parallel.stats.max_wave_width == CHAINS
    assert speedup >= 1.5


def test_single_worker_matches_sequential_shape(wide):
    """jobs=1 degrades gracefully: same solution, no pool overhead blowup."""
    mapping, source = wide
    sequential = StratifiedChase(mapping).run(source)
    one_worker = StratifiedChase(mapping, jobs=1).run(source)
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == one_worker.instance.facts(
            relation
        )


def _cpu_bound_workload():
    """The wide DAG again, but pure Python compute instead of sleeps.

    Same 8×4 shape as :func:`_wide_workload`, with the simulated
    engine round-trip replaced by an arithmetic-heavy scalar operator
    that holds the GIL throughout.  Thread workers cannot overlap
    that, which is exactly the ceiling the sharded chase exists to
    break (see ``bench_sharded_chase.py``).
    """
    registry = default_registry()

    def grind(value):
        for _ in range(256):
            value = value * 1.0000001 + 1e-9
        return value

    registry.register(
        OperatorSpec(
            "grind",
            OpKind.SCALAR,
            grind,
            (),
            frozenset({"chase"}),
            "GIL-holding arithmetic transform",
        )
    )
    schema = Schema(
        [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
    )
    lines = []
    for chain in range(1, CHAINS + 1):
        previous = "S"
        for level in range(1, DEPTH + 1):
            name = f"C{chain}x{level}"
            lines.append(f"{name} := grind({previous})")
            previous = name
    program = Program.compile("\n".join(lines), schema, registry)
    mapping = generate_mapping(program)
    data = {
        "S": random_cube(
            schema["S"],
            {"m": [month(2019, 1) + i for i in range(2000)]},
            seed=7,
        )
    }
    return mapping, instance_from_cubes(data)


def test_gil_ceiling_on_cpu_bound_chase(bench_report):
    """Threads do NOT scale pure-Python chase work: the same wide DAG
    that shows ≥2.5× wave overlap on blocking strata shows ~1× when
    every stratum holds the GIL.  Recorded *without* a ``floor`` key —
    this entry documents the ceiling, it does not gate CI; the
    process-based escape hatch is measured in ``bench_sharded_chase``.
    """
    mapping, source = _cpu_bound_workload()
    sequential_chase = StratifiedChase(mapping, vectorized=False)
    parallel_chase = StratifiedChase(mapping, jobs=4, vectorized=False)
    sequential = sequential_chase.run(source)
    parallel = parallel_chase.run(source)
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == parallel.instance.facts(
            relation
        )
    seq_s = _wall(lambda: sequential_chase.run(source), repeats=1)
    par_s = _wall(lambda: parallel_chase.run(source), repeats=1)
    speedup = seq_s / par_s
    bench_report.record(
        "parallel_chase",
        "gil_ceiling_cpu_bound",
        {
            "chains": CHAINS,
            "depth": DEPTH,
            "sequential_s": round(seq_s, 4),
            "threads_s": round(par_s, 4),
            "speedup": round(speedup, 2),
            "note": "CPU-bound strata: thread waves cannot beat the GIL",
        },
    )
    print(
        f"\ncpu-bound sequential {seq_s:.2f}s  threads(jobs=4) "
        f"{par_s:.2f}s  speedup {speedup:.2f}x (GIL ceiling)"
    )
    # threads must neither scale CPU-bound work (no GIL miracle) nor
    # collapse under contention; both bounds are generous for noise
    assert 0.5 <= speedup <= 1.6


def test_parallel_chase_scaling_report(benchmark, wide):
    """pytest-benchmark record of the parallel configuration."""
    mapping, source = wide
    chase = StratifiedChase(mapping, jobs=4)
    result = benchmark.pedantic(
        chase.run, args=(source,), rounds=3, iterations=1
    )
    assert result.stats.tuples_generated > 0

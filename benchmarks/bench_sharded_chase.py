"""EXP-SHARDED-CHASE — multi-process scale-out over columnar partitions.

Validates the scale-out claim of the sharded chase: on a CPU-bound
panel workload whose statements are shard-local under hash/range
partitioning, ``--shards 4`` cuts wall time versus ``--shards 1`` by
the per-core floor recorded below, while producing the identical
solution instance.

Unlike EXP-PARALLEL-CHASE (which overlaps *waits* on a thread pool and
is therefore immune to the GIL), this benchmark is pure Python compute:
the columnar kernels apply a deliberately arithmetic-heavy scalar
operator, element by element, over a ≥1M-tuple panel.  Threads
cannot scale that — worker processes can, because each shard chases
its partition in its own interpreter and ships columnar buffers back.

The workload is a 10-statement entity-carrying chain plus two
aggregations over a months × entities panel (125k input rows, ~1.3M
generated tuples): the chain and the group-by-entity aggregation are
shard-local, the group-by-month aggregation re-reduces on the parent.

The speedup floor adapts to the host: multi-core runners (CI has 4
vCPUs) must show ≥2.5×; below 4 cores a process pool cannot beat the
partition/merge overhead by that much, so the floor degrades to a
sanity bound that still catches pathological regressions.  The
recorded entry carries ``speedup``, ``floor``, and ``cores``, so
``benchmarks/check_regression.py`` gates it automatically at whatever
floor matched the measuring host.
"""

import os
import time

import pytest

from repro.chase import (
    ShardPlan,
    StratifiedChase,
    instance_from_cubes,
)
from repro.exl import (
    OperatorRegistry,
    OperatorSpec,
    OpKind,
    Program,
    default_registry,
)
from repro.mappings import generate_mapping
from repro.model import (
    STRING,
    TIME,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    month,
)
from repro.workloads.datagen import random_cube

CHAIN = 10
N_MONTHS = 50
N_ENTITIES = 2500
SHARDS = 4
BURN_ITERS = 128  # arithmetic per tuple: keeps the bench compute-bound


def _scaling_floor(cores: int) -> float:
    if cores >= 4:
        return 2.5
    if cores >= 2:
        return 1.1
    return 0.25  # single core: bound the process-pool overhead only


def _registry() -> OperatorRegistry:
    registry = default_registry()

    def burn(value):
        """A deterministic arithmetic-heavy measure transform."""
        for _ in range(BURN_ITERS):
            value = value * 1.0000001 + 1e-9
        return value

    registry.register(
        OperatorSpec(
            "burn",
            OpKind.SCALAR,
            burn,
            (),
            frozenset({"chase"}),
            "identity-ish transform with a fixed arithmetic budget",
        )
    )
    return registry


def _panel_workload():
    """A CPU-bound sharding-friendly panel: months × entities."""
    schema = Schema(
        [
            CubeSchema(
                "E",
                [
                    Dimension("m", TIME(Frequency.MONTH)),
                    Dimension("e", STRING),
                ],
                "v",
            )
        ]
    )
    lines, previous = [], "E"
    for i in range(1, CHAIN + 1):
        lines.append(f"A{i} := burn({previous})")
        previous = f"A{i}"
    lines.append(f"C := avg({previous}, group by e)")
    lines.append(f"D := sum({previous}, group by m)")
    program = Program.compile("\n".join(lines), schema, _registry())
    mapping = generate_mapping(program)
    data = {
        "E": random_cube(
            schema["E"],
            {
                "m": [month(2000, 1) + i for i in range(N_MONTHS)],
                "e": [f"ent{i:05d}" for i in range(N_ENTITIES)],
            },
            seed=11,
        )
    }
    return mapping, instance_from_cubes(data)


@pytest.fixture(scope="module")
def panel():
    return _panel_workload()


def test_partition_plan_is_shard_local(panel):
    """The chain + entity aggregation shard; only the cross-partition
    month aggregation needs a parent-side re-reduce."""
    mapping, _ = panel
    plan = ShardPlan.analyze(mapping)
    assert plan.fallback_reason is None
    assert len(plan.local) == CHAIN + 1  # chain + group-by-entity avg
    assert len(plan.rereduce) == 1  # group-by-month sum
    assert not plan.parent


def test_sharded_speedup_over_single_shard(panel, bench_report):
    """4 shards vs 1 on a pure-Python scalar operator, identical solution.

    One timed run per configuration (the workload is big enough that
    run-to-run noise is small relative to the measured gap); the same
    runs double as the tuple-for-tuple equivalence check and the
    shard-balance check, so the bench pays for each chase exactly once.
    """
    mapping, source = panel
    single = StratifiedChase(mapping, jobs=4, shards=1)
    sharded = StratifiedChase(mapping, jobs=4, shards=SHARDS)

    start = time.perf_counter()
    baseline = single.run(source)
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    scaled = sharded.run(source)
    sharded_s = time.perf_counter() - start

    assert baseline.stats.tuples_generated >= 1_000_000
    for relation in baseline.instance.relations():
        assert baseline.instance.facts(relation) == scaled.instance.facts(
            relation
        ), f"relation {relation} differs between 1-shard and 4-shard runs"

    # hash partitioning keeps the shards even enough that the slowest
    # one bounds wall time by ~1/shards
    counts = scaled.stats.shard_tuples
    assert len(counts) == SHARDS and min(counts) > 0
    assert max(counts) <= min(counts) * 1.5, counts

    speedup = single_s / sharded_s
    cores = os.cpu_count() or 1
    floor = _scaling_floor(cores)
    bench_report.record(
        "sharded_chase",
        "panel_scaling",
        {
            "chain": CHAIN,
            "input_rows": N_MONTHS * N_ENTITIES,
            "tuples_generated": baseline.stats.tuples_generated,
            "shards": SHARDS,
            "cores": cores,
            "single_shard_s": round(single_s, 4),
            "sharded_s": round(sharded_s, 4),
            "shard_tuples": list(counts),
            "merge_s": round(scaled.stats.shard_merge_s, 4),
            "speedup": round(speedup, 2),
            "floor": floor,
        },
    )
    print(
        f"\nsingle-shard {single_s:.2f}s  sharded(x{SHARDS}) "
        f"{sharded_s:.2f}s  speedup {speedup:.2f}x  "
        f"(cores={cores}, floor={floor}, shard_tuples={counts}, "
        f"merge={scaled.stats.shard_merge_s * 1000:.0f}ms)"
    )
    # the in-test assertion is deliberately looser than the recorded
    # floor (shared runners are noisy); CI's regression gate holds the
    # recorded number to the floor itself
    assert speedup >= floor * 0.6

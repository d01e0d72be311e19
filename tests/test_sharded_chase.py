"""Equivalence suite for the chase executor's shard workers.

The load-bearing guarantee: with ``shards``
``StratifiedChase`` computes the *same solution instance* as in
statement order, tuple for tuple, for every valid EXL program —
whatever mix of shard-local tgds, re-reduced aggregations, and
parent-side fallbacks the partition analysis chose.  The suite checks
this over ≥50 seeded-random programs, composes the shard axis with the
other execution axes (re-runs, the tuple-at-a-time reference chase's
rules in the workers, forced tuple layout, incremental updates, fault
injection; shards × rule interpreter is
``test_chase_policies.TestPolicyMatrix``), and pins
the observability contract: merged worker metrics and spans must agree
with ``ChaseStats``.

Run with ``--shards N`` to choose the worker-process count (CI runs
1 and 4; at 1 no worker is forked and statement order runs alone, so
the suite doubles as a regression net for that path).
"""

import random

import pytest

from repro.chase import (
    ShardPlan,
    StratifiedChase,
    instance_from_cubes,
    resolve_shards,
    shard_of,
)
from repro.engine import EXLEngine
from repro.engine.faults import FaultPlan, FaultRule
from repro.errors import PermanentBackendError
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import (
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    month,
)
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import gdp_example, random_workload
from repro.workloads.datagen import random_cube
from tests.oracle.chase import ScalarChase
from tests.oracle.verify import is_solution


def _both_runs(workload, shards, chase=StratifiedChase):
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    source = instance_from_cubes(workload.data)
    sequential = StratifiedChase(mapping).run(source)
    sharded = chase(mapping, shards=shards).run(source)
    return mapping, source, sequential, sharded


def _assert_identical(sequential, sharded):
    """Tuple-for-tuple equality of the two solution instances."""
    assert sorted(sequential.instance.relations()) == sorted(
        sharded.instance.relations()
    )
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == sharded.instance.facts(
            relation
        ), f"relation {relation} differs between sequential and sharded chase"


class TestShardOf:
    def test_time_points_slice_by_ordinal(self):
        points = [month(2020, m) for m in range(1, 13)]
        owners = [shard_of(p, 4) for p in points]
        assert owners == [p.ordinal % 4 for p in points]

    def test_strings_stable_across_processes(self):
        # blake2b, not the salted builtin hash: the owner of a value
        # must be the same in every worker process and every run
        assert shard_of("north", 4) == shard_of("north", 4)
        assert 0 <= shard_of("north", 4) < 4
        assert shard_of(7, 4) == 3
        assert shard_of(True, 4) == 1

    def test_resolve_shards(self):
        assert resolve_shards(1) == 1
        assert resolve_shards(3) == 3
        assert resolve_shards(0) >= 1  # auto: cpu_count


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_sharded_equals_sequential(self, seed, chase_shards):
        workload = random_workload(
            seed, n_statements=7, n_periods=10, n_regions=2
        )
        _, _, sequential, sharded = _both_runs(workload, chase_shards)
        _assert_identical(sequential, sharded)

    @pytest.mark.parametrize("seed", range(6))
    def test_sharded_output_is_a_solution(self, seed, chase_shards):
        workload = random_workload(
            seed + 500, n_statements=6, n_periods=10, n_regions=2
        )
        mapping, source, _, sharded = _both_runs(workload, chase_shards)
        assert is_solution(mapping, source, sharded.instance)

    def test_gdp_stats_parity(self, chase_shards):
        workload = gdp_example(
            n_quarters=10, regions=("north", "south"), seed=3
        )
        _, _, sequential, sharded = _both_runs(workload, chase_shards)
        _assert_identical(sequential, sharded)
        assert (
            sequential.stats.tuples_generated
            == sharded.stats.tuples_generated
        )
        assert sequential.stats.per_tgd == sharded.stats.per_tgd
        if chase_shards > 1:
            assert sharded.stats.shards == chase_shards
            assert len(sharded.stats.shard_tuples) == chase_shards


class TestCompositionAxes:
    """--shards composes with every other execution axis bit-exactly."""

    @pytest.mark.parametrize("seed", [1, 4])
    def test_rerun_on_same_executor(self, seed, chase_shards):
        # a second run forks its workers again and recomputes every
        # stratum: both runs equal the statement-order chase
        workload = random_workload(seed, n_statements=6, n_periods=10)
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        source = instance_from_cubes(workload.data)
        sequential = StratifiedChase(mapping).run(source)
        chase = StratifiedChase(mapping, shards=chase_shards)
        first, second = chase.run(source), chase.run(source)
        _assert_identical(sequential, first)
        _assert_identical(sequential, second)
        assert second.stats.per_tgd == first.stats.per_tgd

    @pytest.mark.parametrize("seed", [2, 5])
    def test_with_scalar_kernels(self, seed, chase_shards):
        workload = random_workload(seed, n_statements=6, n_periods=10)
        _, _, sequential, sharded = _both_runs(
            workload, chase_shards, chase=ScalarChase
        )
        _assert_identical(sequential, sharded)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_against_the_scalar_chase(self, seed, chase_shards):
        # the kernels, sharded, against the tuple-at-a-time reference
        # run without shards
        workload = random_workload(seed, n_statements=6, n_periods=10)
        mapping, source, _, sharded = _both_runs(workload, chase_shards)
        _assert_identical(ScalarChase(mapping).run(source), sharded)


def _build_engine(workload, *, shards=1):
    engine = EXLEngine(shards=shards, target_priority=("chase",))
    for schema in workload.schema:
        engine.declare_elementary(schema)
    engine.add_program(workload.source)
    for cube in workload.data.values():
        engine.load(cube)
    return engine


def _store_state(engine):
    return {
        name: sorted(engine.data(name).to_rows())
        for name in engine.catalog.store.names()
        if engine.catalog.has_data(name)
    }


def _revise(data, seed, fraction=0.01):
    """Touch ~1% of the measures of every cube (the update trigger)."""
    rng = random.Random(77_000 + seed)
    out = {}
    for name, cube in data.items():
        rows = []
        for row in cube.to_rows():
            if rng.random() < fraction:
                row = row[:-1] + (row[-1] + rng.uniform(-2.0, 2.0),)
            rows.append(row)
        out[name] = Cube.from_rows(cube.schema, rows)
    return out


class TestEngineEquivalence:
    """exl run / exl update --shards N ≡ --shards 1, store for store."""

    @pytest.mark.parametrize("seed", range(4))
    def test_run_and_update_after_revision(self, seed, chase_shards):
        workload = gdp_example(
            n_quarters=8, regions=("north", "south"), seed=seed
        )
        sharded = _build_engine(workload, shards=chase_shards)
        plain = _build_engine(workload, shards=1)
        record = sharded.run()
        plain.run()
        assert _store_state(sharded) == _store_state(plain), f"seed {seed}"
        if chase_shards > 1:
            assert record.shards == chase_shards
            assert sum(record.shard_tuples) > 0
            assert record.shard_merge_s >= 0.0
            assert f"{chase_shards} shards" in record.summary()

        revised = _revise(workload.data, seed)
        for engine in (sharded, plain):
            for cube in revised.values():
                engine.load(cube)
            engine.update()
        assert _store_state(sharded) == _store_state(plain), (
            f"seed {seed}: update after revision diverged"
        )

    def test_record_round_trips_shard_fields(self, chase_shards):
        workload = gdp_example(
            n_quarters=8, regions=("north", "south"), seed=1
        )
        engine = _build_engine(workload, shards=chase_shards)
        record = engine.run()
        restored = engine.runs.restore(record.to_json())
        assert restored.shards == record.shards
        assert restored.shard_tuples == record.shard_tuples
        assert restored.shard_merge_s == record.shard_merge_s


class TestFaultComposition:
    """--shards composes with --inject-faults: the deterministic plan
    sees shard-qualified keys and fires identically run over run, and a
    permanent fault on one shard fails the run, which a clean resume
    finishes to the unsharded run's state."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shard_fault_fails_then_resume_matches(self, seed, chase_shards):
        plan = FaultPlan(
            [FaultRule(kind="permanent", cubes=("shard:0",))], seed=seed
        )
        workload = gdp_example(
            n_quarters=8, regions=("north", "south"), seed=seed
        )
        sharded = _build_engine(workload, shards=chase_shards)
        plain = _build_engine(workload, shards=1)
        try:
            sharded.run(fault_plan=plan)
        except PermanentBackendError:
            # only a run that really forks shard workers sees the key
            assert plan.injected["permanent"] == 1
            assert sharded.resume().complete
        else:
            assert plan.total_injected == 0
        plain.run()
        assert _store_state(sharded) == _store_state(plain), f"seed {seed}"

    def test_injection_is_deterministic(self, chase_shards):
        counts = []
        for _ in range(2):
            plan = FaultPlan(
                [FaultRule(kind="permanent", probability=0.5)], seed=11
            )
            engine = _build_engine(
                gdp_example(n_quarters=8, seed=2), shards=chase_shards
            )
            engine.run(on_error="continue", fault_plan=plan)
            counts.append(dict(plan.injected))
        assert counts[0] == counts[1]


class TestFallbackTaxonomy:
    """Non-partitionable programs run without shard workers, under a
    counted reason — never silently, never incorrectly."""

    def test_table_function_only_program_falls_back(self):
        # every statement is a table function: nothing to shard
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        mapping = generate_mapping(
            Program.compile("A := stl_t(S)\nB := stl_t(A)", schema)
        )
        plan = ShardPlan.analyze(mapping)
        assert plan.fallback_reason == "no-partitionable-tgds"
        assert set(plan.reasons.values()) == {"table-function"}
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(30)]}, 5
            )
        }
        metrics = MetricsRegistry()
        chase = StratifiedChase(mapping, shards=4, metrics=metrics)
        sequential = StratifiedChase(mapping).run(instance_from_cubes(data))
        sharded = chase.run(instance_from_cubes(data))
        _assert_identical(sequential, sharded)
        assert sharded.stats.shards == 0  # degraded path ran
        assert (
            metrics.value(
                "chase.shard.fallback.reason:no-partitionable-tgds"
            )
            == 1
        )

    def test_partial_fallback_reasons_are_counted(self, chase_shards):
        if chase_shards <= 1:
            pytest.skip("fallback taxonomy only materializes when sharding")
        workload = gdp_example(
            n_quarters=10, regions=("north", "south"), seed=3
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        metrics = MetricsRegistry()
        chase = StratifiedChase(
            mapping, shards=chase_shards, metrics=metrics
        )
        result = chase.run(instance_from_cubes(workload.data))
        assert result.stats.shards == chase_shards
        # the GDP pipeline ends in a global sum + stl_t + shift chain:
        # those tgds must run on the parent, each with a counted reason
        reasons = metrics.counters(prefix="chase.shard.fallback.reason:")
        assert reasons, "expected parent-side tgds with counted reasons"
        assert sum(reasons.values()) == len(chase.plan.parent)
        assert set(result.stats.shard_fallback_reasons) == {
            key.rsplit(":", 1)[1] for key in reasons
        }


class TestObservabilityParity:
    """Merged worker metrics and spans agree with ChaseStats."""

    def _traced_run(self, shards):
        workload = gdp_example(
            n_quarters=10, regions=("north", "south"), seed=3
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        metrics = MetricsRegistry()
        tracer = Tracer()
        chase = StratifiedChase(
            mapping, shards=shards, metrics=metrics, tracer=tracer
        )
        result = chase.run(instance_from_cubes(workload.data))
        return result, metrics, tracer

    def test_metrics_parity_with_chase_stats(self, chase_shards):
        if chase_shards <= 1:
            pytest.skip("worker metrics only exist when sharding")
        result, metrics, _ = self._traced_run(chase_shards)
        stats = result.stats
        # the parent's plain counter covers exactly the tuples the
        # merged instance holds — identical to an unsharded run
        assert metrics.value("chase.tuples.inserted") == (
            stats.tuples_generated
        )
        # worker counters come back namespaced; their sum is the
        # per-shard tuple ledger in ChaseStats, entry for entry
        for s in range(chase_shards):
            assert (
                metrics.value(f"chase.shard:{s}.chase.tuples.inserted")
                == stats.shard_tuples[s]
            )
        assert sum(stats.shard_tuples) > 0
        assert stats.shard_merge_s >= 0.0

    def test_shard_spans_parent_under_wave_span(self, chase_shards):
        if chase_shards <= 1:
            pytest.skip("shard spans only exist when sharding")
        _, _, tracer = self._traced_run(chase_shards)
        spans = {s.name: s for s in tracer.spans}
        wave = spans["wave:shard"]
        shard_spans = [
            s for s in tracer.spans if s.name.startswith("shard:")
        ]
        assert len(shard_spans) == chase_shards
        assert all(s.parent_id == wave.span_id for s in shard_spans)
        # worker-side tgd spans were re-parented under their shard span
        tgd_spans = [
            s
            for s in tracer.spans
            if s.parent_id in {sp.span_id for sp in shard_spans}
        ]
        assert tgd_spans, "expected absorbed worker tgd spans"
        epoch_ok = all(s.started >= tracer.epoch for s in tgd_spans)
        assert epoch_ok, "absorbed spans must land on the parent timeline"


class TestDeadShardWorker:
    """A worker that dies breaks the fork pool, and the executor reruns
    its loop without shards, once, under a counted reason: never a
    wrong answer, never a retried shard."""

    def _fixture(self, seed=5):
        workload = gdp_example(
            n_quarters=12, regions=("north", "south"), seed=seed
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        sequential = StratifiedChase(mapping).run(
            instance_from_cubes(workload.data)
        )
        return mapping, instance_from_cubes(workload.data), sequential

    def test_killed_worker_falls_back_unsharded(self):
        mapping, source, sequential = self._fixture()
        plan = FaultPlan([FaultRule(kind="kill", cubes=("shard:0",))])
        metrics = MetricsRegistry()
        chase = StratifiedChase(
            mapping,
            shards=2,
            metrics=metrics,
            fault_context=(plan, "chase", ("G",)),
        )
        sharded = chase.run(source)
        _assert_identical(sequential, sharded)
        assert sharded.stats.shards == 0  # the unsharded loop produced it
        assert metrics.value("chase.shard.fallback.reason:worker-died") == 1
        supervision = {
            "chase.shard.retries",
            "chase.shard.timeouts",
            "chase.shard.quarantined",
        }
        assert not supervision & set(metrics.snapshot()["counters"])

    def test_killed_worker_leaves_a_failing_run_complete(self):
        # the engine's default on_error="fail": the fallback is inside
        # the chase, so the run commits what an unfaulted serial run does
        workload = gdp_example(n_quarters=8, regions=("north", "south"), seed=4)
        engine = _build_engine(workload, shards=2)
        plan = FaultPlan([FaultRule(kind="kill", cubes=("shard:0",))])
        record = engine.run(fault_plan=plan)
        assert record.complete
        assert plan.injected["kill"] == 0  # it fired in the worker
        assert engine.metrics.value(
            "chase.shard.fallback.reason:worker-died"
        ) == 1
        serial = _build_engine(workload, shards=1)
        serial.run()
        assert _store_state(engine) == _store_state(serial)


class TestShardSupervision:
    """What the parent does with its shard workers' outcomes: a real
    error is never swallowed or turned into a fallback."""

    def test_error_kinds_still_surface_from_workers(self):
        # permanent faults are the *dispatcher's* to handle:
        # the parent-side hook raises them before workers ever fork,
        # and the supervisor must not swallow real backend errors
        workload = gdp_example(n_quarters=8, seed=2)
        engine = _build_engine(workload, shards=2)
        plan = FaultPlan([FaultRule(kind="permanent")])
        with pytest.raises(Exception, match="injected permanent"):
            engine.run(fault_plan=plan)

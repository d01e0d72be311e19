"""Equivalence suite for the chase executor's ways of running.

The load-bearing guarantee: ``StratifiedChase`` computes the *same
solution instance* whether it walks statement order, thread waves
(``jobs``) or forked shard workers (``shards``), on columnar kernels or
on the tuple-at-a-time reference chase of ``tests/oracle/chase.py``, for
every valid EXL program.  ``TestPolicyMatrix``
states that once over the whole policy grid; the rest of the suite
sweeps ≥50 seeded-random programs (aggregations, time shifts, outer
vectorials and table functions included) through the thread waves,
adds hand-picked DAG shapes, and pins the schedule statistics the
benchmark relies on.

Run with ``--jobs N`` to choose the worker count (CI runs 1 and 4).
"""

import pytest

from repro.chase import (
    StratifiedChase,
    instance_from_cubes,
    schedule_waves,
    stratum_dag,
)
from repro.errors import ChaseSourceError, MappingError
from repro.exl import Program
from repro.mappings import TgdKind, generate_mapping, simplify_mapping
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, Schema, month
from repro.workloads import gdp_example, random_workload
from repro.workloads.datagen import random_cube
from tests.oracle.chase import ScalarChase
from tests.oracle.verify import is_solution


def _both_runs(workload, jobs, simplify=False):
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    if simplify:
        mapping = simplify_mapping(mapping)
    source = instance_from_cubes(workload.data)
    sequential = StratifiedChase(mapping).run(source)
    parallel = StratifiedChase(mapping, jobs=jobs).run(source)
    return mapping, source, sequential, parallel


def _assert_identical(sequential, parallel):
    """Tuple-for-tuple equality of the two solution instances."""
    assert sorted(sequential.instance.relations()) == sorted(
        parallel.instance.relations()
    )
    for relation in sequential.instance.relations():
        assert sequential.instance.facts(relation) == parallel.instance.facts(
            relation
        ), f"relation {relation} differs between sequential and parallel chase"


class TestPolicyMatrix:
    """How to run is two constructor values (and, for the reference,
    the rule interpreter); none of them may change the solution or the
    per-tgd ledger."""

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("jobs", [None, 1, 4])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_every_policy_computes_the_same_solution(
        self, seed, jobs, shards, oracle
    ):
        workload = random_workload(seed, n_statements=6, n_periods=10)
        mapping = generate_mapping(
            Program.compile(workload.source, workload.schema)
        )
        source = instance_from_cubes(workload.data)
        reference = ScalarChase(mapping).run(source)
        chase = (ScalarChase if oracle else StratifiedChase)(
            mapping, jobs=jobs, shards=shards
        )
        result = chase.run(source)
        _assert_identical(reference, result)
        assert result.stats.per_tgd == reference.stats.per_tgd
        assert is_solution(mapping, source, result.instance)
        # shard workers ran exactly when asked for and partitionable
        sharded = shards > 1 and chase.plan.fallback_reason is None
        assert result.stats.shards == (shards if sharded else 0)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("jobs", [None, 1, 4])
    def test_a_group_by_is_handed_over_as_columns_under_every_policy(
        self, jobs, shards
    ):
        # avg by quarter(d) as q, r; sum by q — among joins and a shift
        workload = gdp_example(
            n_quarters=8, regions=("north", "south", "west"), seed=5
        )
        mapping = generate_mapping(
            Program.compile(workload.source, workload.schema)
        )
        source = instance_from_cubes(workload.data)
        reference = ScalarChase(mapping).run(source)
        result = StratifiedChase(mapping, jobs=jobs, shards=shards).run(source)
        aggregates = [
            tgd.target_relation for tgd in mapping.target_tgds
            if tgd.kind is TgdKind.AGGREGATION
        ]
        assert len(aggregates) >= 2
        _assert_identical(reference, result)
        if result.stats.shards:
            return  # merged from the workers' bags, in the merge's order
        for relation in aggregates:
            # list equality: the same facts in the same insertion order
            expected = list(reference.instance.facts(relation))
            assert list(result.instance.facts(relation)) == expected, relation
            store = result.instance.export_store(relation)
            assert store.dims_distinct and store.n_rows == len(expected), relation


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_parallel_equals_sequential(self, seed, chase_jobs):
        workload = random_workload(
            seed, n_statements=7, n_periods=10, n_regions=2
        )
        _, _, sequential, parallel = _both_runs(workload, chase_jobs)
        _assert_identical(sequential, parallel)

    @pytest.mark.parametrize("seed", range(6))
    def test_parallel_output_is_a_solution(self, seed, chase_jobs):
        workload = random_workload(
            seed + 500, n_statements=6, n_periods=10, n_regions=2
        )
        mapping, source, _, parallel = _both_runs(workload, chase_jobs)
        assert is_solution(mapping, source, parallel.instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_simplified_mapping_equivalence(self, seed, chase_jobs):
        workload = random_workload(
            seed + 900, n_statements=5, n_periods=10, allow_table_functions=False
        )
        _, _, sequential, parallel = _both_runs(
            workload, chase_jobs, simplify=True
        )
        _assert_identical(sequential, parallel)

    def test_gdp_workload_with_aggregations_and_shift(self, chase_jobs):
        workload = gdp_example(n_quarters=10, regions=("north", "south"), seed=3)
        _, _, sequential, parallel = _both_runs(workload, chase_jobs)
        _assert_identical(sequential, parallel)
        assert sequential.stats.tuples_generated == parallel.stats.tuples_generated
        assert sequential.stats.per_tgd == parallel.stats.per_tgd


class TestScheduleShape:
    def _mapping(self, source):
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        return generate_mapping(Program.compile(source, schema)), schema

    def test_independent_statements_share_a_wave(self, chase_jobs):
        mapping, schema = self._mapping(
            "A := S * 2\nB := S * 3\nC := S * 4\nD := S * 5"
        )
        chase = StratifiedChase(mapping, jobs=chase_jobs)
        assert chase.waves == [[0, 1, 2, 3]]
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 1
            )
        }
        result = chase.run(instance_from_cubes(data))
        assert result.stats.waves == 1
        assert result.stats.max_wave_width == 4

    def test_chain_is_one_stratum_per_wave(self, chase_jobs):
        mapping, _ = self._mapping("A := S * 2\nB := A * 3\nC := B * 4")
        chase = StratifiedChase(mapping, jobs=chase_jobs)
        assert chase.waves == [[0], [1], [2]]

    def test_diamond_schedules_two_waves_wide_middle(self, chase_jobs):
        mapping, _ = self._mapping(
            "A := S * 2\nL := A + 1\nR := A * 3\nJ := L + R"
        )
        chase = StratifiedChase(mapping, jobs=chase_jobs)
        assert chase.waves == [[0], [1, 2], [3]]

    def test_sequential_stats_one_tgd_per_wave(self):
        mapping, schema = self._mapping("A := S * 2\nB := S * 3")
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 2
            )
        }
        result = StratifiedChase(mapping).run(instance_from_cubes(data))
        assert result.stats.waves == len(mapping.target_tgds)
        assert result.stats.max_wave_width == 1


class TestSchedulerGuards:
    def test_missing_source_relation_raises_chase_source_error(self, chase_jobs):
        mapping, _ = self._mapping_one()
        with pytest.raises(ChaseSourceError, match="absent from the source"):
            StratifiedChase(mapping, jobs=chase_jobs).run(
                instance_from_cubes({})
            )

    def _mapping_one(self):
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        return generate_mapping(Program.compile("A := S * 2", schema)), schema

    def test_schedule_waves_rejects_duplicate_producers(self):
        from repro.mappings import Atom, Tgd, TgdKind, Var

        tgds = [
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("D", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="D",
            ),
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("D", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="D2",
            ),
        ]
        with pytest.raises(MappingError, match="defined once"):
            schedule_waves(tgds)

    def test_stratum_dag_reports_operand_producers(self):
        from repro.mappings import Atom, Tgd, TgdKind, Var

        tgds = [
            Tgd(
                [Atom("S", (Var("q"), Var("v")))],
                Atom("A", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="A",
            ),
            Tgd(
                [Atom("A", (Var("q"), Var("v")))],
                Atom("B", (Var("q"), Var("v"))),
                TgdKind.COPY,
                label="B",
            ),
        ]
        assert stratum_dag(tgds) == [set(), {0}]

"""Equivalence suite for the chase executor's ways of running.

The load-bearing guarantee: ``StratifiedChase`` computes the *same
solution instance* whether it walks statement order in one process or
also chases in forked shard workers (``shards``), on columnar kernels or
on the tuple-at-a-time reference chase of ``tests/oracle/chase.py``, for
every valid EXL program.  ``TestPolicyMatrix`` states that once over the
whole policy grid, on the generated and on the composed mapping; the
rest of the suite sweeps ≥50 seeded-random composed mappings against the
reference, checks seeded-random outputs against the §4.2 model checker,
and pins the statement order the chase walks (run with ``--shards N``
to choose the worker count; CI runs 1 and 4).
"""

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from repro.errors import ChaseSourceError
from repro.exl import Program
from repro.mappings import TgdKind, generate_mapping, simplify_mapping
from repro.model import TIME, CubeSchema, Dimension, Frequency, Schema, month
from repro.obs import Tracer
from repro.workloads import gdp_example, random_workload
from repro.workloads.datagen import random_cube
from tests.oracle.chase import ScalarChase
from tests.oracle.verify import is_solution


def _assert_identical(reference, result):
    """Tuple-for-tuple equality of the two solution instances."""
    assert sorted(reference.instance.relations()) == sorted(
        result.instance.relations()
    )
    for relation in reference.instance.relations():
        assert reference.instance.facts(relation) == result.instance.facts(
            relation
        ), f"relation {relation} differs from the reference chase"


def _compiled_mapping(workload, composed=False):
    """The generated mapping, or the composed one every target runs."""
    mapping = generate_mapping(Program.compile(workload.source, workload.schema))
    return simplify_mapping(mapping) if composed else mapping


class TestPolicyMatrix:
    """How to run is one constructor value (and, for the reference,
    the rule interpreter); neither may change the solution or the
    per-tgd ledger, of the generated or of the composed mapping."""

    @pytest.mark.parametrize("composed", [False, True])
    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_every_policy_computes_the_same_solution(
        self, seed, shards, oracle, composed
    ):
        workload = random_workload(seed, n_statements=6, n_periods=10)
        mapping = _compiled_mapping(workload, composed)
        source = instance_from_cubes(workload.data)
        reference = ScalarChase(mapping).run(source)
        chase = (ScalarChase if oracle else StratifiedChase)(mapping, shards=shards)
        result = chase.run(source)
        _assert_identical(reference, result)
        assert result.stats.per_tgd == reference.stats.per_tgd
        assert is_solution(mapping, source, result.instance)
        # shard workers ran exactly when asked for and partitionable
        sharded = shards > 1 and chase.plan.fallback_reason is None
        assert result.stats.shards == (shards if sharded else 0)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_a_group_by_is_handed_over_as_columns_under_every_policy(self, shards):
        # avg by quarter(d) as q, r; sum by q — among joins and a shift
        workload = gdp_example(
            n_quarters=8, regions=("north", "south", "west"), seed=5
        )
        mapping = generate_mapping(
            Program.compile(workload.source, workload.schema)
        )
        source = instance_from_cubes(workload.data)
        reference = ScalarChase(mapping).run(source)
        result = StratifiedChase(mapping, shards=shards).run(source)
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


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(50))
    def test_composed_mapping_equals_reference(self, seed):
        # the mapping every target runs (normalize -> generate ->
        # simplify), table functions included, on the kernels and on the
        # tuple-at-a-time reference
        workload = random_workload(
            seed, n_statements=7, n_periods=10, n_regions=2
        )
        mapping = _compiled_mapping(workload, composed=True)
        source = instance_from_cubes(workload.data)
        reference = ScalarChase(mapping).run(source)
        result = StratifiedChase(mapping).run(source)
        _assert_identical(reference, result)
        assert result.stats.per_tgd == reference.stats.per_tgd

    @pytest.mark.parametrize("seed", range(6))
    def test_output_is_a_solution(self, seed):
        workload = random_workload(
            seed + 500, n_statements=6, n_periods=10, n_regions=2
        )
        mapping = generate_mapping(Program.compile(workload.source, workload.schema))
        source = instance_from_cubes(workload.data)
        result = StratifiedChase(mapping).run(source)
        assert is_solution(mapping, source, result.instance)


def _waves(tracer):
    """``[(wave name, [tgd span names])]`` under the chase span, in the
    order the waves ran (a sharded run's fan-out wave left out)."""
    children = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    (root,) = children[None]
    return [
        (wave.name, [s.name for s in children.get(wave.span_id, [])])
        for wave in children[root.span_id]
        if wave.name != "wave:shard"
    ]


class TestStatementOrder:
    """The chase walks the target tgds in statement order, one tgd per
    wave, whatever the shape of the program's dependency graph."""

    def _mapping(self, source):
        schema = Schema(
            [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
        )
        return generate_mapping(Program.compile(source, schema)), schema

    def _traced_against_reference(self, program_text):
        mapping, schema = self._mapping(program_text)
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 1
            )
        }
        source = instance_from_cubes(data)
        tracer = Tracer()
        result = StratifiedChase(mapping, tracer=tracer).run(source)
        _assert_identical(ScalarChase(mapping).run(source), result)
        assert result.stats.waves == len(mapping.target_tgds)
        return _waves(tracer)

    def test_independent_statements_run_one_wave_each(self):
        waves = self._traced_against_reference(
            "A := S * 2\nB := S * 3\nC := S * 4\nD := S * 5"
        )
        assert waves == [("wave:copy", ["tgd:S"])] + [
            (f"wave:{n}", [f"tgd:{name}"]) for n, name in enumerate("ABCD", 1)
        ]

    def test_chain_is_one_wave_per_statement(self):
        waves = self._traced_against_reference(
            "A := S * 2\nB := A * 3\nC := B * 4"
        )
        assert [tgds for _, tgds in waves[1:]] == [["tgd:A"], ["tgd:B"], ["tgd:C"]]

    def test_diamond_runs_in_statement_order(self):
        waves = self._traced_against_reference(
            "A := S * 2\nL := A + 1\nR := A * 3\nJ := L + R"
        )
        assert [tgds for _, tgds in waves[1:]] == [
            ["tgd:A"], ["tgd:L"], ["tgd:R"], ["tgd:J"]
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_program_waves_follow_statement_order(self, seed, chase_shards):
        # a sharded run merges its workers' outputs in the same order
        workload = random_workload(seed + 300, n_statements=7, n_periods=8)
        mapping = _compiled_mapping(workload)
        tracer = Tracer()
        result = StratifiedChase(mapping, shards=chase_shards, tracer=tracer).run(
            instance_from_cubes(workload.data)
        )
        expected = [
            (f"wave:{n}", [f"tgd:{tgd.label or tgd.target_relation}"])
            for n, tgd in enumerate(mapping.target_tgds, 1)
        ]
        assert _waves(tracer)[1:] == expected
        assert list(result.stats.per_tgd) == [
            tgd.label or tgd.target_relation
            for tgd in list(mapping.st_tgds) + list(mapping.target_tgds)
        ]

    def test_stats_one_tgd_per_wave(self):
        mapping, schema = self._mapping("A := S * 2\nB := S * 3")
        data = {
            "S": random_cube(
                schema["S"], {"m": [month(2020, 1) + i for i in range(6)]}, 2
            )
        }
        result = StratifiedChase(mapping).run(instance_from_cubes(data))
        assert result.stats.waves == len(mapping.target_tgds)

    def test_missing_source_relation_raises_chase_source_error(self):
        mapping, _ = self._mapping("A := S * 2")
        with pytest.raises(ChaseSourceError, match="absent from the source"):
            StratifiedChase(mapping).run(instance_from_cubes({}))

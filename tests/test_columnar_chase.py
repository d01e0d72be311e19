"""Equivalence suite for the columnar chase kernels.

The contract: ``StratifiedChase``, whose every tgd runs on a columnar
kernel, computes the *same solution instance* as the tuple-at-a-time
reference chase of ``tests/oracle/chase.py`` — tuple for tuple, and
even insertion-order for insertion-order (fact-set iteration order is
checked with ``list`` equality, not just set equality, because
downstream aggregation bags depend on it).  The suite proves this over
≥50 seeded-random programs covering scalar arithmetic, vectorial joins,
shifts, aggregations, outer vectorials, and table functions, over the
composed mappings every target runs, over composite keys past 2^62,
plus targeted failure-identity cases (egd violations, division by
zero) and the composition with thread waves.
"""

import numpy as np
import pytest

from repro.chase import (
    ColumnarRelation,
    FallbackUnsupported,
    RelationalInstance,
    StratifiedChase,
    instance_from_cubes,
)
from repro.chase.columnar import EncodedColumn
from repro.chase.instance import store_for_cube
from repro.errors import ChaseError, OperatorError
from repro.exl import Program
from repro.mappings import (
    Atom,
    Egd,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    generate_mapping,
    simplify_mapping,
)
from repro.model import (
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    quarter,
)
from repro.model.catalog import MetadataCatalog
from repro.olap import CubeLattice, hierarchies_for
from repro.stats.aggregates import get_aggregate
from repro.workloads import (
    employment_example,
    gdp_example,
    price_index_example,
    random_workload,
    scenario_corpus,
)
from tests.oracle.chase import ScalarChase


def _both_modes(workload, simplify=False):
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    if simplify:
        mapping = simplify_mapping(mapping)
    source = instance_from_cubes(workload.data)
    scalar = ScalarChase(mapping).run(source)
    vector = StratifiedChase(mapping).run(source)
    return mapping, source, scalar, vector


def _assert_identical(scalar, vector):
    """Insertion-sequence equality of the two solution instances.

    ``list`` equality over the fact sets is deliberately stronger than
    set equality: identical iteration order proves the vectorized path
    inserted every fact in the exact order the scalar path did.
    """
    assert sorted(scalar.instance.relations()) == sorted(
        vector.instance.relations()
    )
    for relation in scalar.instance.relations():
        assert list(scalar.instance.facts(relation)) == list(
            vector.instance.facts(relation)
        ), f"relation {relation} differs between scalar and vectorized chase"


@pytest.fixture
def series_schema():
    return Schema([CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")])


@pytest.fixture
def series_cube(series_schema):
    return Cube.from_series(
        series_schema["S"], quarter(2020, 1), [10.0, 20.0, 30.0, 40.0]
    )


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_vectorized_equals_scalar(self, seed):
        workload = random_workload(
            seed, n_statements=7, n_periods=10, n_regions=2
        )
        _, _, scalar, vector = _both_modes(workload)
        _assert_identical(scalar, vector)

    @pytest.mark.parametrize("seed", range(50))
    def test_identical_stats(self, seed):
        workload = random_workload(
            seed + 200, n_statements=6, n_periods=8, n_regions=2
        )
        _, _, scalar, vector = _both_modes(workload)
        assert scalar.stats.tuples_generated == vector.stats.tuples_generated
        assert scalar.stats.per_tgd == vector.stats.per_tgd

    @pytest.mark.parametrize("seed", range(6))
    def test_simplified_mapping_equivalence(self, seed):
        workload = random_workload(
            seed + 900, n_statements=5, n_periods=10, allow_table_functions=False
        )
        _, _, scalar, vector = _both_modes(workload, simplify=True)
        _assert_identical(scalar, vector)

    def test_gdp_workload(self):
        workload = gdp_example(n_quarters=10, regions=("north", "south"), seed=3)
        _, _, scalar, vector = _both_modes(workload)
        _assert_identical(scalar, vector)


class TestComposition:
    """Vectorized kernels compose with thread waves."""

    @pytest.mark.parametrize("seed", range(6))
    def test_parallel_vectorized_equals_sequential_scalar(self, seed, chase_jobs):
        workload = random_workload(
            seed + 50, n_statements=7, n_periods=10, n_regions=2
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        source = instance_from_cubes(workload.data)
        scalar = ScalarChase(mapping).run(source)
        parallel = StratifiedChase(mapping, jobs=chase_jobs).run(source)
        _assert_identical(scalar, parallel)

    @pytest.mark.parametrize("seed", range(4))
    def test_rerun_matches(self, seed):
        # a second run on the same executor recomputes every stratum on
        # the same kernels, so scalar and vectorized stay
        # insertion-identical run for run, and each re-run is
        # insertion-identical to its own first run
        workload = random_workload(
            seed + 300, n_statements=6, n_periods=8, n_regions=2
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        source = instance_from_cubes(workload.data)
        scalar_chase = ScalarChase(mapping)
        vector_chase = StratifiedChase(mapping)
        firsts = scalar_chase.run(source), vector_chase.run(source)
        seconds = scalar_chase.run(source), vector_chase.run(source)
        _assert_identical(*firsts)
        _assert_identical(*seconds)
        _assert_identical(firsts[0], seconds[0])
        _assert_identical(firsts[1], seconds[1])

    def test_table_function_runs_on_its_kernel(self):
        # stl_t is a table function: its kernel emits kernel spans, and
        # its output equals the oracle's
        workload = gdp_example(n_quarters=8, regions=("north",), seed=1)
        _, _, scalar, vector = _both_modes(workload)
        _assert_identical(scalar, vector)
        assert vector.stats.per_tgd == scalar.stats.per_tgd

    def test_composed_census(self):
        # the mapping production runs is the composed one: every one of
        # its tgds, of every kind, runs on a kernel and equals the oracle
        workload_sets = {
            "random_workload seeds 0-49": [random_workload(s) for s in range(50)],
            "scenario_corpus(0)": scenario_corpus(0),
            "paper examples": [
                gdp_example(), price_index_example(), employment_example()
            ],
        }
        census = {}
        for name, workloads in workload_sets.items():
            kinds = {}
            for workload in workloads:
                mapping = simplify_mapping(
                    generate_mapping(
                        Program.compile(workload.source, workload.schema)
                    )
                )
                for tgd in mapping.target_tgds:
                    kinds[tgd.kind.value] = kinds.get(tgd.kind.value, 0) + 1
                source = instance_from_cubes(workload.data)
                _assert_identical(
                    ScalarChase(mapping).run(source),
                    StratifiedChase(mapping).run(source),
                )
            census[name] = kinds
        assert census == {
            "random_workload seeds 0-49": {
                "tuple_level": 176,
                "aggregation": 45,
                "outer_tuple_level": 44,
                "table_function": 35,
            },
            "scenario_corpus(0)": {
                "tuple_level": 12, "aggregation": 15, "table_function": 15
            },
            "paper examples": {
                "tuple_level": 7, "aggregation": 7, "table_function": 3
            },
        }


class TestWideCompositeKeys:
    """Five dimensions of 10 000 labels each span 10^20 composite keys,
    past int64: the kernels renumber partial keys densely instead of
    refusing, and every result still equals the oracle's."""

    N = 10_000

    @pytest.fixture(scope="class")
    def wide(self):
        dims = [Dimension(f"d{j}", STRING) for j in range(5)]
        schema = Schema([CubeSchema("A", dims, "v"), CubeSchema("B", dims, "w")])
        n = self.N

        def key(i):
            # multipliers coprime to n: n distinct labels per dimension
            return tuple(f"{'abcde'[j]}{i * m % n}" for j, m in enumerate((1, 3, 7, 9, 11)))

        a = Cube.from_rows(schema["A"], [key(i) + (float(i),) for i in range(n)])
        # half of B's keys are A's, half carry a fresh first label
        b = Cube.from_rows(
            schema["B"],
            [key(i) + (0.5 * i,) for i in range(n // 2, n)]
            + [(f"x{i}",) + key(i)[1:] + (-1.0 * i,) for i in range(n // 2)],
        )
        return schema, {"A": a, "B": b}

    def test_join_aggregation_and_outer_equal_the_oracle(self, wide):
        schema, data = wide
        sizes = [len({k[j] for k in data["A"].keys()}) + 1 for j in range(5)]
        assert np.prod(sizes, dtype=float) > 2.0**62
        source = "J := A + B\nG := sum(A, group by d0, d1, d2, d3, d4)\nO := osum(A, B)\n"
        mapping = generate_mapping(Program.compile(source, schema))
        instance = instance_from_cubes(data)
        vector = StratifiedChase(mapping).run(instance)
        _assert_identical(ScalarChase(mapping).run(instance), vector)
        assert vector.stats.per_tgd == {
            "A": self.N, "B": self.N, "J": self.N // 2, "G": self.N,
            "O": self.N + self.N // 2,
        }

    def test_lattice_rollup_equals_the_dict_group_by(self, wide):
        schema, data = wide
        cube = data["A"]
        catalog = MetadataCatalog()
        catalog.declare_elementary(schema["A"])
        lattice = CubeLattice("A", hierarchies_for(catalog, "A"))
        assert store_for_cube(cube) is not None  # the columnar reduce
        lattice.build(cube)
        total = get_aggregate("sum")
        assert lattice.base_node().groups == {
            dims: total([value]) for dims, value in cube.items()
        }


class TestFailureIdentity:
    def _broken_mapping(self, series_schema):
        # projecting away a dimension without aggregating: two source
        # tuples collapse onto the same target dims with different
        # measures — the defensive egd must fire on both paths
        schema = series_schema.copy()
        schema.add(CubeSchema("OUT", (), "v"))
        copy = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("S", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="S",
        )
        tgd = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("OUT", (Var("v"),)),
            TgdKind.TUPLE_LEVEL,
            label="OUT",
        )
        registry = generate_mapping(
            Program.compile("C := S", series_schema)
        ).registry
        return SchemaMapping(
            series_schema, schema, [copy], [tgd], [Egd("OUT", 0)], registry
        )

    def test_egd_violation_fails_identically(self, series_schema):
        mapping = self._broken_mapping(series_schema)
        instance = RelationalInstance()
        instance.add("S", (quarter(2020, 1), 1.0))
        instance.add("S", (quarter(2020, 2), 2.0))
        errors = {}
        for chase in (ScalarChase, StratifiedChase):
            with pytest.raises(ChaseError, match="egd violation") as excinfo:
                chase(mapping).run(instance)
            errors[chase] = str(excinfo.value)
        assert errors[ScalarChase] == errors[StratifiedChase]

    def test_division_by_zero_fails_identically(self, series_schema, series_cube):
        program = Program.compile("C := S / 0", series_schema)
        mapping = generate_mapping(program)
        source = instance_from_cubes({"S": series_cube})
        errors = {}
        for chase in (ScalarChase, StratifiedChase):
            with pytest.raises(OperatorError) as excinfo:
                chase(mapping).run(source)
            errors[chase] = str(excinfo.value)
        assert errors[ScalarChase] == errors[StratifiedChase]
        assert "division by zero" in errors[StratifiedChase]


class TestColumnarRelation:
    def test_from_facts_roundtrip_preserves_order(self):
        facts = [
            (quarter(2020, 1), "north", 1.5),
            (quarter(2020, 2), "south", 2.5),
            (quarter(2020, 1), "south", 3.5),
        ]
        rel = ColumnarRelation.from_facts(facts, 3)
        assert rel.n_rows == 3
        assert rel.dims[0].decode_list() == [f[0] for f in facts]
        assert rel.dims[1].decode_list() == [f[1] for f in facts]
        assert rel.measures.tolist() == [1.5, 2.5, 3.5]

    def test_dictionary_encoding_shares_codes(self):
        facts = [("a", 1.0), ("b", 2.0), ("a", 3.0)]
        rel = ColumnarRelation.from_facts(facts, 2)
        codes = rel.dims[0].codes
        assert codes[0] == codes[2] != codes[1]
        assert rel.dims[0].dictionary == ["a", "b"]

    def test_non_float_measure_falls_back(self):
        with pytest.raises(FallbackUnsupported):
            ColumnarRelation.from_facts([("a", 1)], 2)

    def test_ragged_facts_fall_back(self):
        with pytest.raises(FallbackUnsupported):
            ColumnarRelation.from_facts([("a", 1.0), ("a", "b", 2.0)], 2)

    def test_empty_relation_encodes(self):
        rel = ColumnarRelation.from_facts([], 2)
        assert rel.n_rows == 0
        assert rel.dims[0].decode_list() == []

    def test_encoded_column_take(self):
        rel = ColumnarRelation.from_facts([("a", 1.0), ("b", 2.0)], 2)
        taken = rel.dims[0].take(np.array([1, 0, 1]))
        assert isinstance(taken, EncodedColumn)
        assert taken.decode_list() == ["b", "a", "b"]


class TestInstanceColumnarCache:
    def test_add_batch_counts_new_facts(self):
        instance = RelationalInstance()
        assert instance.add_batch("R", [(1, 2.0), (2, 3.0)]) == 2
        assert instance.add_batch("R", [(1, 2.0), (3, 4.0)]) == 1
        assert instance.size("R") == 3

    def test_mutation_refreshes_columnar_image(self):
        # columnar-native: the image is derived from the live column
        # buffers, so a mutation after an image was handed out yields a
        # *new* current image — stale images are impossible by
        # construction (they are content-tagged by row count)
        instance = RelationalInstance()
        instance.add("R", ("a", 1.0))
        image = instance.columnar_image("R", 2)
        assert image.n_rows == 1
        instance.add("R", ("b", 2.0))
        fresh = instance.columnar_image("R", 2)
        assert fresh is not image
        assert fresh.n_rows == 2
        assert fresh.dims[0].decode_list() == ["a", "b"]
        assert fresh.measures.tolist() == [1.0, 2.0]

    def test_copy_does_not_share_mutable_state(self):
        instance = RelationalInstance()
        instance.add("R", ("a", 1.0))
        clone = instance.copy()
        clone.add("R", ("b", 2.0))
        assert list(instance.facts("R")) == [("a", 1.0)]
        assert list(clone.facts("R")) == [("a", 1.0), ("b", 2.0)]
        assert instance.columnar_image("R", 2).n_rows == 1

    def test_tuple_view_and_image_agree_after_growth(self):
        instance = RelationalInstance()
        facts = [("a", 1.0), ("b", 2.0), ("a", 3.0)]
        for fact in facts:
            instance.add("R", fact)
        assert list(instance.facts("R")) == facts
        image = instance.columnar_image("R", 2)
        assert image.dims[0].decode_list() == ["a", "b", "a"]
        assert image.measures.tolist() == [1.0, 2.0, 3.0]

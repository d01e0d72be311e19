"""Tests for the stratified chase and data exchange verification."""

import pytest

from repro.chase import (
    RelationalInstance,
    StratifiedChase,
    cubes_from_instance,
    instance_from_cubes,
)
from repro.errors import ChaseError, ChaseSourceError, MappingError
from repro.exl import Program
from repro.mappings import (
    Atom,
    Const,
    Egd,
    FuncApp,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    generate_mapping,
    simplify_mapping,
)
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, Schema, quarter
from tests.oracle.verify import check_egds, check_tgd, is_solution, violations


@pytest.fixture
def series_schema():
    return Schema([CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")])


@pytest.fixture
def series_cube(series_schema):
    return Cube.from_series(
        series_schema["S"], quarter(2020, 1), [10.0, 20.0, 30.0, 40.0]
    )


def _run(source: str, schema: Schema, cubes) -> RelationalInstance:
    program = Program.compile(source, schema)
    mapping = generate_mapping(program)
    result = StratifiedChase(mapping).run(instance_from_cubes(cubes))
    return mapping, result


class TestInstances:
    def test_add_deduplicates(self):
        instance = RelationalInstance()
        assert instance.add("R", (1, 2.0))
        assert not instance.add("R", (1, 2.0))
        assert instance.size("R") == 1

    def test_cube_roundtrip(self, series_cube, series_schema):
        instance = instance_from_cubes({"S": series_cube})
        back = cubes_from_instance(instance, series_schema)["S"]
        assert back.approx_equals(series_cube)

    def test_copy_is_independent(self):
        instance = RelationalInstance()
        instance.add("R", (1, 2.0))
        clone = instance.copy()
        clone.add("R", (2, 3.0))
        assert instance.size("R") == 1

    def test_from_instance_bad_arity(self, series_schema):
        instance = RelationalInstance()
        instance.add("S", (quarter(2020, 1), "extra", 1.0))
        with pytest.raises(ChaseError):
            cubes_from_instance(instance, series_schema)


class TestChaseRuleKinds:
    def test_copy(self, series_schema, series_cube):
        mapping, result = _run("C := S", series_schema, {"S": series_cube})
        assert result.instance.facts("C") == result.instance.facts("S")

    def test_scalar(self, series_schema, series_cube):
        mapping, result = _run("C := S * 2", series_schema, {"S": series_cube})
        values = sorted(f[-1] for f in result.instance.facts("C"))
        assert values == [20.0, 40.0, 60.0, 80.0]

    def test_scalar_constant_on_left(self, series_schema, series_cube):
        mapping, result = _run("C := 100 / S", series_schema, {"S": series_cube})
        assert sorted(f[-1] for f in result.instance.facts("C")) == [
            2.5,
            pytest.approx(10.0 / 3),
            5.0,
            10.0,
        ]

    def test_vectorial_inner_join_semantics(self, series_schema):
        # B misses one quarter: the sum is defined only on the overlap
        a = Cube.from_series(series_schema["S"], quarter(2020, 1), [1.0, 2.0, 3.0])
        schema = series_schema.copy()
        schema.add(CubeSchema("B", series_schema["S"].dimensions, "w"))
        b = Cube.from_series(schema["B"], quarter(2020, 2), [10.0])
        mapping, result = _run("C := S + B", schema, {"S": a, "B": b})
        facts = result.instance.facts("C")
        assert facts == {(quarter(2020, 2), 12.0)}

    def test_shift(self, series_schema, series_cube):
        mapping, result = _run("C := shift(S, 1)", series_schema, {"S": series_cube})
        assert (quarter(2020, 2), 10.0) in result.instance.facts("C")
        assert result.instance.size("C") == 4

    def test_aggregation_by_year(self, series_schema, series_cube):
        mapping, result = _run(
            "C := sum(S, group by year(q) as y)", series_schema, {"S": series_cube}
        )
        from repro.model import year

        assert result.instance.facts("C") == {(year(2020), 100.0)}

    def test_aggregation_empty_group_by(self, series_schema, series_cube):
        mapping, result = _run("C := avg(S)", series_schema, {"S": series_cube})
        assert result.instance.facts("C") == {(25.0,)}

    def test_table_function(self, series_schema):
        cube = Cube.from_series(
            series_schema["S"], quarter(2019, 1), [float(i) for i in range(12)]
        )
        mapping, result = _run("C := cumsum(S)", series_schema, {"S": cube})
        facts = sorted(result.instance.facts("C"), key=lambda f: f[0].ordinal)
        assert [f[-1] for f in facts] == [
            0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 36.0, 45.0, 55.0, 66.0,
        ]

    def test_stats_recorded(self, series_schema, series_cube):
        mapping, result = _run("C := S * 2", series_schema, {"S": series_cube})
        assert result.stats.tuples_generated >= 8  # copy + derived
        assert result.stats.per_tgd["C"] == 4


class TestSimplifiedTgdMatching:
    def test_inverted_shift_atom_matches(self, series_schema, series_cube):
        program = Program.compile(
            "C := (S - shift(S, 1)) * 100 / S", series_schema
        )
        mapping = simplify_mapping(generate_mapping(program))
        result = StratifiedChase(mapping).run(
            instance_from_cubes({"S": series_cube})
        )
        facts = sorted(result.instance.facts("C"), key=lambda f: f[0].ordinal)
        assert facts[0][0] == quarter(2020, 2)
        assert facts[0][1] == pytest.approx((20.0 - 10.0) * 100 / 20.0)


class TestEgds:
    def test_defensive_egd_violation_detected(self, series_schema):
        # hand-build a broken tgd projecting away a dimension without
        # aggregating: two source tuples map to the same target tuple
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
        mapping = SchemaMapping(
            series_schema,
            schema,
            [copy],
            [tgd],
            [Egd("OUT", 0)],
            generate_mapping(
                Program.compile("C := S", series_schema)
            ).registry,
        )
        instance = RelationalInstance()
        instance.add("S", (quarter(2020, 1), 1.0))
        instance.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="egd violation"):
            StratifiedChase(mapping).run(instance)

    def test_check_egds_reports(self):
        instance = RelationalInstance()
        instance.add("R", (1, 2.0))
        instance.add("R", (1, 3.0))
        problems = check_egds(instance, [Egd("R", 1)])
        assert len(problems) == 1

    def test_check_egds_clean(self):
        instance = RelationalInstance()
        instance.add("R", (1, 2.0))
        instance.add("R", (2, 2.0))
        assert check_egds(instance, [Egd("R", 1)]) == []


class TestMissingSourceRelation:
    def test_chase_raises_dedicated_error_with_known_relations(
        self, series_schema
    ):
        program = Program.compile("C := S * 2", series_schema)
        mapping = generate_mapping(program)
        empty = RelationalInstance()
        empty.add("OTHER", (quarter(2020, 1), 1.0))
        with pytest.raises(
            ChaseSourceError,
            match=r"tgd 'S' references relation 'S', which is absent from "
            r"the source instance \(known relations: \['OTHER'\]\)",
        ) as excinfo:
            StratifiedChase(mapping).run(empty)
        # the dedicated subclass is still a ChaseError for API callers
        assert isinstance(excinfo.value, ChaseError)

    def test_empty_but_registered_relation_is_allowed(self, series_schema):
        program = Program.compile("C := S * 2", series_schema)
        mapping = generate_mapping(program)
        registered = RelationalInstance()
        registered.ensure("S")
        result = StratifiedChase(mapping).run(registered)
        assert result.instance.size("C") == 0


class TestAdversarialDagShapes:
    """Hand-built mappings whose statement order is no stratification:
    a sharded chase refuses them when it is built, since its partition
    plan and merge would otherwise leave the forward-read relations
    empty.  (The EXL layer rejects recursion and orders statements
    topologically, so generated mappings never get here.)"""

    def _mapping(self, series_schema, target_tgds, cubes=(), copy_to="S"):
        schema = series_schema.copy()
        for name in cubes:
            schema.add(CubeSchema(name, series_schema["S"].dimensions, "v"))
        copy = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom(copy_to, (Var("q"), Var("v"))),
            TgdKind.COPY,
            label=copy_to,
        )
        registry = generate_mapping(
            Program.compile("C := S", series_schema)
        ).registry
        egds = [Egd(name, 1) for name in cubes]
        return SchemaMapping(
            series_schema, schema, [copy], target_tgds, egds, registry
        )

    def test_redefining_a_consumed_cube_is_cyclic(self, series_schema):
        # D1 consumes S; a later tgd redefines S from D1 — statement
        # order would need S both before and after D1: a cycle.  (The
        # source is copied to E, so S is not also a copied cube.)
        consume = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("D1", (Var("q"), FuncApp("*", (Var("v"), Const(2.0))))),
            TgdKind.TUPLE_LEVEL,
            label="D1",
        )
        redefine = Tgd(
            [Atom("D1", (Var("q"), Var("v")))],
            Atom("S", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="S",
        )
        mapping = self._mapping(
            series_schema, [consume, redefine], ["D1", "E"], copy_to="E"
        )
        with pytest.raises(MappingError, match="cyclic"):
            StratifiedChase(mapping, shards=2)

    def test_redefining_an_elementary_cube_is_rejected(self, series_schema):
        derive = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("D1", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="D1",
        )
        redefine = Tgd(
            [Atom("D1", (Var("q"), Var("v")))],
            Atom("S", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="S",
        )
        mapping = self._mapping(series_schema, [derive, redefine], ["D1"])
        with pytest.raises(MappingError, match="redefines"):
            StratifiedChase(mapping, shards=2)

    def test_self_referential_mapping_raises(self, series_schema):
        # X := X + 1, hand-built: the EXL layer rejects recursion, so
        # bypass it and check the sharded chase also refuses (at
        # construction time — no worker is ever forked).
        loop = Tgd(
            [Atom("X", (Var("q"), Var("v")))],
            Atom("X", (Var("q"), FuncApp("+", (Var("v"), Const(1.0))))),
            TgdKind.TUPLE_LEVEL,
            label="X",
        )
        mapping = self._mapping(series_schema, [loop], ["X"])
        with pytest.raises(MappingError, match="self-referential"):
            StratifiedChase(mapping, shards=2)

    def test_mutual_recursion_raises(self, series_schema):
        a_from_b = Tgd(
            [Atom("B", (Var("q"), Var("v")))],
            Atom("A", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="A",
        )
        b_from_a = Tgd(
            [Atom("A", (Var("q"), Var("v")))],
            Atom("B", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="B",
        )
        mapping = self._mapping(series_schema, [a_from_b, b_from_a], ["A", "B"])
        with pytest.raises(MappingError, match="cyclic"):
            StratifiedChase(mapping, shards=2)
        # statement order walks it unsharded, as it walks every
        # hand-built mapping: A reads a still-empty B
        StratifiedChase(mapping)


class TestSolutions:
    def test_chase_output_is_solution(self, gdp_workload):
        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        mapping = generate_mapping(program)
        source = instance_from_cubes(gdp_workload.data)
        result = StratifiedChase(mapping).run(source)
        assert is_solution(mapping, source, result.instance)

    def test_missing_facts_detected(self, series_schema, series_cube):
        mapping, result = _run("C := S * 2", series_schema, {"S": series_cube})
        broken = RelationalInstance()
        for name in result.instance.relations():
            facts = list(result.instance.facts(name))
            broken.add_batch(name, facts[1:] if name == "C" else facts)
        assert violations(mapping, broken)

    def test_check_tgd_table_function(self, series_schema):
        cube = Cube.from_series(
            series_schema["S"], quarter(2019, 1), [float(i) for i in range(8)]
        )
        mapping, result = _run("C := cumsum(S)", series_schema, {"S": cube})
        tgd = mapping.tgd_for("C")
        assert check_tgd(tgd, result.instance, mapping) == []


class TestChaseSourceErrorContent:
    def test_known_relations_are_listed_sorted(self, series_schema):
        program = Program.compile("C := S * 2", series_schema)
        mapping = generate_mapping(program)
        source = RelationalInstance()
        source.add("ZULU", (quarter(2020, 1), 1.0))
        source.add("ALPHA", (quarter(2020, 1), 1.0))
        with pytest.raises(ChaseSourceError) as excinfo:
            StratifiedChase(mapping).run(source)
        message = str(excinfo.value)
        assert "references relation 'S'" in message
        assert "['ALPHA', 'ZULU']" in message

    def test_message_names_the_offending_tgd(self, series_schema):
        program = Program.compile("C := S * 2", series_schema)
        mapping = generate_mapping(program)
        with pytest.raises(ChaseSourceError, match="tgd 'S'"):
            StratifiedChase(mapping).run(RelationalInstance())

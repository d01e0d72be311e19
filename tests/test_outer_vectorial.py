"""Tests for the default-valued (outer) vectorial operators — the
Section 3 variant where missing tuples assume a default value — across
the whole pipeline, plus the LEFT JOIN support they rely on in SQL."""

import pytest

from repro.backends import compile_tgd_to_ir
from repro.backends.ir import OuterCombineOp
from repro.errors import ExlSemanticError
from repro.exl import Program
from repro.mappings import TgdKind, generate_mapping
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
from repro.sqlengine import Column, Database, SqlType


@pytest.fixture
def schema():
    return Schema(
        [
            CubeSchema("A", [Dimension("q", TIME(Frequency.QUARTER))], "v"),
            CubeSchema("B", [Dimension("q", TIME(Frequency.QUARTER))], "w"),
        ]
    )


@pytest.fixture
def data(schema):
    a = Cube.from_series(schema["A"], quarter(2020, 1), [1.0, 2.0, 3.0])
    b = Cube(schema["B"])
    b.set((quarter(2020, 2),), 10.0)
    b.set((quarter(2020, 4),), 40.0)
    return {"A": a, "B": b}


class TestLeftJoin:
    @pytest.fixture
    def db(self):
        db = Database()
        for name, measure, rows in (
            ("a", "v", [(1, 10.0), (2, 20.0)]),
            ("b", "w", [(2, 200.0), (3, 300.0)]),
        ):
            columns = [Column("k", SqlType.INTEGER), Column(measure, SqlType.REAL)]
            db.create_table(name, columns).insert_many(rows)
        return db

    def test_null_extension(self, db):
        rows = db.query("SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k").rows
        assert rows == [(1, None), (2, 200.0)]

    def test_left_outer_spelling(self, db):
        rows = db.query(
            "SELECT a.k FROM a LEFT OUTER JOIN b ON a.k = b.k"
        ).rows
        assert len(rows) == 2

    def test_anti_join_pattern(self, db):
        rows = db.query(
            "SELECT a.k FROM a LEFT JOIN b ON a.k = b.k WHERE b.w IS NULL"
        ).rows
        assert rows == [(1,)]

    def test_where_applies_after_extension(self, db):
        # WHERE must filter the null-extended result, not the input
        rows = db.query(
            "SELECT a.k FROM a LEFT JOIN b ON a.k = b.k WHERE b.w = 200"
        ).rows
        assert rows == [(2,)]

    def test_non_equi_on_condition(self, db):
        # no column of b alone on one side: no hash index, every pair
        # is tested
        rows = db.query("SELECT a.k, b.k FROM a LEFT JOIN b ON a.k = b.k - 2").rows
        assert rows == [(1, 3), (2, None)]

    def test_left_join_with_aggregate(self, db):
        rows = db.query(
            "SELECT COUNT(b.w) FROM a LEFT JOIN b ON a.k = b.k"
        ).rows
        assert rows[0][0] == 1.0


class TestSemantics:
    def test_osum_infers_operand_dims(self, schema):
        program = Program.compile("C := osum(A, B)", schema)
        assert program.schema_of("C").dim_names == ("q",)

    def test_requires_two_cubes(self, schema):
        with pytest.raises(ExlSemanticError):
            Program.compile("C := osum(A)", schema)

    def test_rejects_dim_mismatch(self, schema):
        from repro.model import STRING

        extended = schema.copy()
        extended.add(
            CubeSchema(
                "P",
                [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
                "v",
            )
        )
        with pytest.raises(ExlSemanticError, match="same"):
            Program.compile("C := osum(A, P)", extended)

    def test_default_must_be_literal(self, schema):
        with pytest.raises(ExlSemanticError):
            Program.compile("C := osum(A, B, A)", schema)


class TestMappingGeneration:
    def test_tgd_kind_and_annotations(self, schema):
        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        tgd = mapping.tgd_for("C")
        assert tgd.kind is TgdKind.OUTER_TUPLE_LEVEL
        assert tgd.outer_op == "+"
        assert tgd.outer_default == 0.0

    def test_explicit_default(self, schema):
        mapping = generate_mapping(
            Program.compile("C := osum(A, B, -1)", schema)
        )
        assert mapping.tgd_for("C").outer_default == -1.0

    def test_oprod_default_is_one(self, schema):
        mapping = generate_mapping(Program.compile("C := oprod(A, B)", schema))
        assert mapping.tgd_for("C").outer_default == 1.0

    def test_str_mentions_outer(self, schema):
        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        assert "outer +" in str(mapping.tgd_for("C"))

    def test_ir_has_outer_combine(self, schema):
        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        ir = compile_tgd_to_ir(mapping.tgd_for("C"), mapping)
        assert any(isinstance(op, OuterCombineOp) for op in ir)


class TestExecution:
    def _run(self, source, schema, data, backend):
        mapping = generate_mapping(Program.compile(source, schema))
        return backend.run_mapping(mapping, data)

    def test_union_semantics_on_chase(self, schema, data, backends):
        out = self._run("C := osum(A, B)", schema, data, backends["chase"])
        values = {str(k[0]): v for k, v in out["C"].items()}
        assert values == {
            "2020Q1": 1.0,   # A only
            "2020Q2": 12.0,  # both
            "2020Q3": 3.0,   # A only
            "2020Q4": 40.0,  # B only
        }

    @pytest.mark.parametrize("backend_name", ["sql", "r", "matlab", "etl"])
    def test_all_backends_agree(self, schema, data, backends, backend_name):
        source = "C := osum(A, B)\nD := odiff(A, B)\nE := oprod(A, B)"
        reference = self._run(source, schema, data, backends["chase"])
        output = self._run(source, schema, data, backends[backend_name])
        for name in ("C", "D", "E"):
            assert reference[name].approx_equals(output[name], rel_tol=1e-9)

    def test_custom_default(self, schema, data, backends):
        out = self._run("C := oprod(A, B, 2)", schema, data, backends["chase"])
        # A-only quarters multiply by the default 2
        assert out["C"][(quarter(2020, 1),)] == 2.0

    def test_same_cube_both_sides(self, schema, data, backends):
        out = self._run("C := osum(A, A)", schema, data, backends["chase"])
        assert out["C"][(quarter(2020, 1),)] == 2.0
        assert len(out["C"]) == 3

    def test_downstream_use(self, schema, data, backends):
        source = "C := osum(A, B)\nD := C * 10"
        out = self._run(source, schema, data, backends["sql"])
        assert out["D"][(quarter(2020, 4),)] == 400.0

    def test_solution_verified(self, schema, data):
        from repro.chase import StratifiedChase, instance_from_cubes
        from tests.oracle.verify import is_solution

        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        source = instance_from_cubes(data)
        result = StratifiedChase(mapping).run(source)
        assert is_solution(mapping, source, result.instance)

    def test_sql_uses_left_join_anti_pattern(self, schema, backends):
        mapping = generate_mapping(Program.compile("C := osum(A, B)", schema))
        sql = backends["sql"].sql_for(mapping.tgd_for("C"), mapping)
        assert sql.count("INSERT INTO C") == 3
        assert sql.count("LEFT JOIN") == 2
        assert "IS NULL" in sql


class TestKernelUnderEveryPolicy:
    """The outer and table-function kernels and the workers' collect
    equal the tuple-at-a-time reference in statement order and in shard
    workers (``--shards``)."""

    def test_kernels_equal_the_oracle(self, chase_shards):
        from repro.chase import StratifiedChase, instance_from_cubes
        from tests.oracle.chase import ScalarChase

        dims = [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)]
        schema = Schema([CubeSchema("A", dims, "v"), CubeSchema("B", dims, "w")])
        a, b = Cube(schema["A"]), Cube(schema["B"])
        for i in range(12):
            for j, region in enumerate(("north", "south", "east")):
                if (i + j) % 4:
                    a.set((quarter(2020, 1) + i, region), float(i * 3 + j))
                if (i * j) % 3 != 1:
                    b.set((quarter(2020, 1) + i, region), 0.5 * i - j)
        source = (
            "C := osum(A, B)\n"
            "D := odiff(C, A)\n"
            "E := oprod(B, D)\n"
            "F := sum(E, group by q)\n"
            "G := cumsum(F)\n"
            "H := sum(D, group by r)\n"
        )
        mapping = generate_mapping(Program.compile(source, schema))
        instance = instance_from_cubes({"A": a, "B": b})
        reference = ScalarChase(mapping).run(instance)
        result = StratifiedChase(mapping, shards=chase_shards).run(instance)
        assert result.stats.per_tgd == reference.stats.per_tgd
        for relation in reference.instance.relations():
            expected = list(reference.instance.facts(relation))
            facts = list(result.instance.facts(relation))
            if result.stats.shards:
                # merged from the workers' outputs, in the merge's order
                assert sorted(map(repr, facts)) == sorted(map(repr, expected))
            else:
                assert facts == expected, relation

"""Targeted edge-case tests across layers."""

import re

import pytest

from repro.backends import RBackend, SqlBackend
from repro.chase import RelationalInstance, StratifiedChase
from repro.errors import ChaseError
from repro.etl import OuterCombine, RowStore
from repro.exl import Program
from repro.mappings import (
    Atom,
    Const,
    FuncApp,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    generate_mapping,
)
from repro.model import (
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    quarter,
)


def _series(name="S", measure="v"):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], measure)


class TestChaseEdgeCases:
    def _mapping_with_tgd(self, tgd, schemas):
        schema = Schema(schemas)
        program = Program.compile("X := S * 1", Schema([_series()]))
        registry = generate_mapping(program).registry
        copy = Tgd(
            [Atom("S", (Var("q"), Var("v")))],
            Atom("S", (Var("q"), Var("v"))),
            TgdKind.COPY,
            label="S",
        )
        return SchemaMapping(
            Schema([_series()]), schema, [copy], [tgd], [], registry
        )

    def test_constant_in_lhs_atom_filters(self):
        """A Const term in a lhs atom acts as a selection."""
        tgd = Tgd(
            [Atom("S", (Const(quarter(2020, 2)), Var("v")))],
            Atom("PICK", (Var("v"),)),
            TgdKind.TUPLE_LEVEL,
            label="PICK",
        )
        mapping = self._mapping_with_tgd(
            tgd, [_series(), CubeSchema("PICK", (), "v")]
        )
        instance = RelationalInstance()
        instance.add("S", (quarter(2020, 1), 10.0))
        instance.add("S", (quarter(2020, 2), 20.0))
        result = StratifiedChase(mapping).run(instance)
        assert result.instance.facts("PICK") == {(20.0,)}

    def test_uninvertible_lhs_term_raises(self):
        """A lhs function term whose variable cannot be solved for is a
        clear error, not a silent mismatch."""
        tgd = Tgd(
            [
                Atom("S", (Var("q"), Var("v"))),
                # t * 2 cannot be inverted by the matcher
                Atom("S", (FuncApp("*", (Var("t"), Const(2.0))), Var("w"))),
            ],
            Atom("OUT", (Var("q"), FuncApp("+", (Var("v"), Var("w"))))),
            TgdKind.TUPLE_LEVEL,
            label="OUT",
        )
        mapping = self._mapping_with_tgd(tgd, [_series(), _series("OUT")])
        instance = RelationalInstance()
        instance.add("S", (quarter(2020, 1), 1.0))
        instance.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="not invertible"):
            StratifiedChase(mapping).run(instance)


class TestEtlOuterCombineStep:
    def test_step_semantics(self):
        store = RowStore()
        step = OuterCombine("oc", ["k"], "v", "w", "+", 0.0, "s")
        left = [{"k": 1, "v": 1.0}, {"k": 2, "v": 2.0}]
        right = [{"k": 2, "w": 20.0}]
        out = step.run([left, right], store)
        values = {row["k"]: row["s"] for row in out}
        assert values == {1: 1.0, 2: 22.0}

    def test_invalid_operator_rejected(self):
        from repro.errors import EtlError

        with pytest.raises(EtlError):
            OuterCombine("oc", ["k"], "v", "w", "/", 0.0, "s")

    def test_describe_roundtrips(self):
        from repro.etl import flow_from_metadata

        step = OuterCombine("oc", ["k"], "v", "w", "*", 1.0, "s")
        metadata = {
            "name": "f",
            "steps": [step.describe()],
            "hops": [],
        }
        flow = flow_from_metadata(metadata)
        rebuilt = flow.step("oc")
        assert rebuilt.op == "*" and rebuilt.default == 1.0


class TestScriptPrefixes:
    def test_sql_script_uses_sql_comments(self, gdp_mapping):
        script = SqlBackend().script(gdp_mapping)
        assert script.startswith("-- tgd:")

    def test_r_script_uses_hash_comments(self, gdp_mapping):
        script = RBackend().script(gdp_mapping)
        assert script.startswith("# tgd:")


class TestSqlTableFunctionParams:
    def test_ma_window_rendered_and_executed(self):
        schema = Schema([_series()])
        mapping = generate_mapping(Program.compile("C := ma(S, 3)", schema))
        backend = SqlBackend()
        sql = backend.sql_for(mapping.tgd_for("C"), mapping)
        assert "FROM MA(S, 3) F" in sql
        cube = Cube.from_series(
            schema["S"], quarter(2019, 1), [3.0, 6.0, 9.0, 12.0]
        )
        out = backend.run_mapping(mapping, {"S": cube})
        assert out["C"][(quarter(2019, 3),)] == pytest.approx(6.0)


class TestCliSimplify:
    def test_compile_emits_the_composed_tgds(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.model.io import write_cube_csv

        schema = _series()
        cube = Cube.from_series(schema, quarter(2020, 1), [1.0, 2.0, 3.0])
        write_cube_csv(cube, tmp_path / "s.csv")
        spec = {
            "elementary": [
                {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v", "csv": "s.csv"}
            ],
            "program": "A := (S - shift(S, 1)) / S",
        }
        (tmp_path / "p.json").write_text(json.dumps(spec))
        project = str(tmp_path / "p.json")

        def tgds(argv):
            main(argv)
            return len(re.findall(r"^  \(\d+\) ", capsys.readouterr().out, re.M))

        normalized = tgds(["show", project])
        composed = tgds(["show", project, "--simplify"])
        main(["compile", project, "--target", "sql"])
        inserts = capsys.readouterr().out.count("INSERT INTO")
        assert inserts == composed < normalized

"""Tests for schema-mapping generation (Section 4.1) and simplification."""

import pytest

from repro.errors import MappingError
from repro.exl import Program
from repro.mappings import (
    AggTerm,
    Atom,
    Const,
    Egd,
    FuncApp,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    evaluate,
    generate_mapping,
    simplify_mapping,
    substitute,
    term_vars,
)
from repro.model import TIME, CubeSchema, Dimension, Frequency, Schema, quarter


@pytest.fixture
def series_schema():
    return Schema([CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")])


class TestTerms:
    def test_term_vars(self):
        term = FuncApp("*", (Var("a"), FuncApp("+", (Var("b"), Const(1)))))
        assert term_vars(term) == {"a", "b"}

    def test_substitute(self):
        term = FuncApp("+", (Var("a"), Const(2)))
        out = substitute(term, {"a": Var("z")})
        assert out == FuncApp("+", (Var("z"), Const(2)))

    def test_substitute_inside_agg(self):
        term = AggTerm("sum", Var("y"))
        assert term_vars(term) == {"y"}

    def test_evaluate_arithmetic(self, registry):
        term = FuncApp("*", (Var("p"), Var("g")))
        assert evaluate(term, {"p": 3.0, "g": 4.0}, registry) == 12.0

    def test_evaluate_named_function(self, registry):
        term = FuncApp("quarter", (Var("t"),))
        from repro.model import day

        assert evaluate(term, {"t": day(2020, 5, 1)}, registry) == quarter(2020, 2)

    def test_evaluate_time_shift(self, registry):
        term = FuncApp("+", (Var("q"), Const(1.0)))
        assert evaluate(term, {"q": quarter(2020, 4)}, registry) == quarter(2021, 1)

    def test_evaluate_unbound_raises(self, registry):
        with pytest.raises(MappingError):
            evaluate(Var("missing"), {}, registry)

    def test_evaluate_agg_term_raises(self, registry):
        with pytest.raises(MappingError):
            evaluate(AggTerm("sum", Var("y")), {"y": 1.0}, registry)

    def test_str_renders_infix(self):
        term = FuncApp("/", (FuncApp("-", (Var("a"), Var("b"))), Var("a")))
        assert str(term) == "(a - b) / a"


class TestTgdValidation:
    def test_full_tgd_required(self):
        with pytest.raises(MappingError, match="not full"):
            Tgd(
                [Atom("A", (Var("x"), Var("y")))],
                Atom("B", (Var("x"), Var("z"))),
                TgdKind.TUPLE_LEVEL,
            )

    def test_aggregation_needs_agg_term(self):
        with pytest.raises(MappingError):
            Tgd(
                [Atom("A", (Var("x"), Var("y")))],
                Atom("B", (Var("x"), Var("y"))),
                TgdKind.AGGREGATION,
                group_arity=1,
            )

    def test_table_function_carries_no_variables(self):
        with pytest.raises(MappingError):
            Tgd(
                [Atom("A", (Var("x"),))],
                Atom("B", ()),
                TgdKind.TABLE_FUNCTION,
                table_function="stl_t",
            )

    def test_lhs_required(self):
        with pytest.raises(MappingError):
            Tgd([], Atom("B", ()), TgdKind.COPY)

    def test_egd_str(self):
        egd = Egd("GDP", 1)
        assert "y1 = y2" in str(egd)


class TestGeneration:
    def test_paper_tgd_shapes(self, gdp_mapping):
        kinds = [t.kind for t in gdp_mapping.target_tgds]
        # PQR: aggregation; RGDP: vectorial; GDP: aggregation; GDPT: table
        # function; then the shift/sub/mul/div chain from statement (5)
        assert kinds[0] is TgdKind.AGGREGATION
        assert kinds[1] is TgdKind.TUPLE_LEVEL
        assert kinds[2] is TgdKind.AGGREGATION
        assert kinds[3] is TgdKind.TABLE_FUNCTION
        assert len(gdp_mapping.target_tgds) == 8  # 5 statements, (5) -> 4 tgds

    def test_tgd1_matches_paper(self, gdp_mapping):
        tgd = gdp_mapping.tgd_for("PQR")
        assert str(tgd) == "PDR(d, r, p) -> PQR(quarter(d), r, avg(p))"

    def test_tgd2_matches_paper(self, gdp_mapping):
        tgd = gdp_mapping.tgd_for("RGDP")
        assert str(tgd) == "PQR(q, r, p) AND RGDPPC(q, r, g) -> RGDP(q, r, p * g)"

    def test_tgd3_matches_paper(self, gdp_mapping):
        assert str(gdp_mapping.tgd_for("GDP")) == "RGDP(q, r, p) -> GDP(q, sum(p))"

    def test_tgd4_is_table_function(self, gdp_mapping):
        tgd = gdp_mapping.tgd_for("GDPT")
        assert tgd.kind is TgdKind.TABLE_FUNCTION
        assert tgd.table_function == "stl_t"
        assert tgd.params_dict() == {"period": 4}

    def test_copy_tgds_for_elementary(self, gdp_mapping):
        assert [t.lhs[0].relation for t in gdp_mapping.st_tgds] == ["PDR", "RGDPPC"]
        assert all(t.kind is TgdKind.COPY for t in gdp_mapping.st_tgds)

    def test_egds_for_every_cube(self, gdp_mapping):
        relations = {e.relation for e in gdp_mapping.egds}
        assert {"PDR", "RGDPPC", "PQR", "RGDP", "GDP", "GDPT", "PCHNG"} <= relations

    def test_one_tgd_per_target(self, gdp_mapping):
        targets = [t.target_relation for t in gdp_mapping.target_tgds]
        assert len(targets) == len(set(targets))

    def test_scalar_multiplication_tgd(self, series_schema):
        mapping = generate_mapping(Program.compile("C2 := 3 * S", series_schema))
        assert str(mapping.tgd_for("C2")) == "S(q, v) -> C2(q, 3 * v)"

    def test_shift_tgd_moves_dimension(self, series_schema):
        mapping = generate_mapping(Program.compile("C := shift(S, 1)", series_schema))
        assert str(mapping.tgd_for("C")) == "S(q, v) -> C(q + 1, v)"

    def test_copy_statement_tgd(self, series_schema):
        mapping = generate_mapping(Program.compile("C := S", series_schema))
        assert mapping.tgd_for("C").kind is TgdKind.COPY

    def test_vectorial_same_measure_gets_suffixes(self, series_schema):
        mapping = generate_mapping(Program.compile("C := S + S", series_schema))
        assert str(mapping.tgd_for("C")) == "S(q, v1) AND S(q, v2) -> C(q, v1 + v2)"

    def test_subset_mapping(self, gdp_mapping):
        sub = gdp_mapping.subset(["PQR", "RGDP"])
        assert sub.derived_order == ["PQR", "RGDP"]
        assert "PDR" in sub.source.names

    def test_subset_missing_raises(self, gdp_mapping):
        with pytest.raises(MappingError):
            gdp_mapping.subset(["NOPE"])

    def test_two_tgds_same_target_rejected(self, gdp_mapping):
        tgd = gdp_mapping.target_tgds[0]
        with pytest.raises(MappingError, match="functional"):
            SchemaMapping(
                gdp_mapping.source,
                gdp_mapping.target,
                [],
                [tgd, tgd],
                [],
                gdp_mapping.registry,
            )

    def test_describe_lists_everything(self, gdp_mapping):
        text = gdp_mapping.describe()
        assert "Σst" in text and "egds" in text and "stl_t" in text


class TestSimplification:
    def test_gdp_simplifies_to_five_tgds(self, gdp_simplified):
        assert len(gdp_simplified.target_tgds) == 5

    def test_paper_tgd5_shape(self, gdp_simplified):
        tgd = gdp_simplified.tgd_for("PCHNG")
        assert tgd.kind is TgdKind.TUPLE_LEVEL
        assert len(tgd.lhs) == 2
        assert all(a.relation == "GDPT" for a in tgd.lhs)
        # one atom carries the inverted shift q - 1
        rendered = str(tgd)
        assert "q - 1" in rendered
        assert "* 100" in rendered and "/" in rendered

    def test_temps_removed_from_schema_and_egds(self, gdp_simplified):
        assert not [n for n in gdp_simplified.target.names if n.startswith("_tmp")]
        assert not [
            e for e in gdp_simplified.egds if e.relation.startswith("_tmp")
        ]

    def test_simplified_preserves_first_four_tgds(self, gdp_mapping, gdp_simplified):
        for name in ("PQR", "RGDP", "GDP", "GDPT"):
            assert str(gdp_mapping.tgd_for(name)) == str(gdp_simplified.tgd_for(name))

    def test_user_cubes_never_inlined(self, series_schema):
        program = Program.compile("A := S * 2\nB := A + S", series_schema)
        mapping = simplify_mapping(generate_mapping(program))
        assert {t.target_relation for t in mapping.target_tgds} == {"A", "B"}

    def test_duplicate_shift_operands_fully_collapse(self, series_schema):
        # normalization duplicates shift(S,1) into two temps; both inline
        # and the duplicate-atom elimination merges the identical atoms
        program = Program.compile(
            "B := shift(S, 1) + shift(S, 1)", series_schema
        )
        mapping = simplify_mapping(generate_mapping(program))
        assert len(mapping.target_tgds) == 1
        tgd = mapping.tgd_for("B")
        assert len(tgd.lhs) == 1
        assert "q - 1" in str(tgd)

    def test_nested_shifts_fold_into_one_lag(self, series_schema):
        # inlining shift(S, 1) into an atom already lagged by 1 folds the
        # two offsets: the lhs term is one shifted variable, which every
        # target binds, never (q - 1) - 1
        program = Program.compile("B := S - shift(shift(S, 1), 1)", series_schema)
        mapping = simplify_mapping(generate_mapping(program))
        assert [str(t) for t in mapping.target_tgds] == [
            "S(q, v1) AND S(q - 2, v2) -> B(q, v1 - v2)"
        ]
        program = Program.compile("B := shift(shift(S, 1), -1) + S", series_schema)
        mapping = simplify_mapping(generate_mapping(program))
        assert [str(t) for t in mapping.target_tgds] == ["S(q, v1) -> B(q, v1 + v1)"]

    def test_unmatchable_lhs_term_keeps_the_temporary(self, registry):
        # composing T(t, v) into B's T(q * 2, w) would leave S(q * 2, w),
        # a term no target can match: the temporary stays
        cubes = [
            CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")
            for name in "STB"
        ]
        producer = Tgd(
            [Atom("S", (Var("t"), Var("v")))],
            Atom("T", (Var("t"), Var("v"))),
            TgdKind.COPY,
        )
        consumer = Tgd(
            [Atom("T", (FuncApp("*", (Var("q"), Const(2))), Var("w")))],
            Atom("B", (Var("q"), Var("w"))),
            TgdKind.TUPLE_LEVEL,
        )
        mapping = SchemaMapping(
            Schema(cubes[:1]), Schema(cubes), [], [producer, consumer], [],
            registry, {"T": "B"},
        )
        assert simplify_mapping(mapping).target_tgds == [producer, consumer]

    def test_simplified_mapping_executes_identically(self, gdp_workload, backends):
        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        plain = generate_mapping(program)
        simplified = simplify_mapping(plain)
        chase = backends["chase"]
        ref = chase.run_mapping(plain, gdp_workload.data)
        out = chase.run_mapping(simplified, gdp_workload.data)
        for name in ("PQR", "RGDP", "GDP", "GDPT", "PCHNG"):
            assert ref[name].approx_equals(out[name], rel_tol=1e-9)

    def test_scalar_chain_composes(self, series_schema):
        program = Program.compile("A := 2 * (3 * S)", series_schema)
        mapping = simplify_mapping(generate_mapping(program))
        assert len(mapping.target_tgds) == 1
        rendered = str(mapping.tgd_for("A"))
        assert rendered.startswith("S(q, ")
        assert "2 * (3 * " in rendered

    def test_aggregation_consumer_composes_scalar_producer(self, series_schema):
        program = Program.compile(
            "A := sum(S * 2, group by year(q) as y)", series_schema
        )
        mapping = simplify_mapping(generate_mapping(program))
        assert len(mapping.target_tgds) == 1
        tgd = mapping.tgd_for("A")
        assert tgd.kind is TgdKind.AGGREGATION
        assert "sum(" in str(tgd) and "* 2)" in str(tgd)

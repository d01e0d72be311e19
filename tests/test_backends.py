"""Tests for the backend translations (Section 5): generated code shape
and per-backend execution."""

import json

import pytest

from repro.backends import (
    ChaseBackend,
    EtlBackend,
    MatlabBackend,
    RBackend,
    SqlBackend,
    all_backends,
    compile_tgd_to_ir,
    flow_metadata_for_tgd,
)
from repro.backends.ir import GroupAggOp, MergeOp, StoreOp, TableFuncOp
from repro.errors import UnsupportedOperatorError
from repro.exl import Program, OperatorSpec, OpKind
from repro.mappings import generate_mapping
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, Schema, quarter
from repro.model.io import canonical_text


@pytest.fixture
def series_schema():
    return Schema([CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")])


@pytest.fixture
def series_cube(series_schema):
    return Cube.from_series(
        series_schema["S"], quarter(2019, 1), [float(i + 1) for i in range(12)]
    )


def _mapping(source, schema):
    return generate_mapping(Program.compile(source, schema))


class TestSqlTranslation:
    def test_tgd2_sql_matches_paper_shape(self, gdp_mapping):
        backend = SqlBackend()
        sql = backend.sql_for(gdp_mapping.tgd_for("RGDP"), gdp_mapping)
        assert "INSERT INTO RGDP(q, r, p)" in sql
        assert "FROM PQR C1, RGDPPC C2" in sql
        assert "C1.p * C2.g" in sql
        assert "C2.q = C1.q" in sql and "C2.r = C1.r" in sql

    def test_tgd3_sql_group_by(self, gdp_mapping):
        backend = SqlBackend()
        sql = backend.sql_for(gdp_mapping.tgd_for("GDP"), gdp_mapping)
        assert "SUM(C1.p)" in sql
        assert "GROUP BY C1.q" in sql

    def test_tgd1_sql_frequency_conversion(self, gdp_mapping):
        backend = SqlBackend()
        sql = backend.sql_for(gdp_mapping.tgd_for("PQR"), gdp_mapping)
        assert "QUARTER(C1.d)" in sql
        assert "AVG(C1.p)" in sql
        assert "GROUP BY QUARTER(C1.d), C1.r" in sql

    def test_tgd4_sql_tabular_function(self, gdp_mapping):
        backend = SqlBackend()
        sql = backend.sql_for(gdp_mapping.tgd_for("GDPT"), gdp_mapping)
        assert "FROM STL_T(GDP, 4) F" in sql

    def test_simplified_tgd5_self_join(self, gdp_simplified):
        backend = SqlBackend()
        sql = backend.sql_for(gdp_simplified.tgd_for("PCHNG"), gdp_simplified)
        assert sql.count("GDPT") >= 2  # self join
        assert "- 1" in sql  # the shifted-dimension condition
        assert "* 100" in sql

    def test_shift_rhs_dimension_arithmetic(self, series_schema):
        mapping = _mapping("C := shift(S, 2)", series_schema)
        sql = SqlBackend().sql_for(mapping.tgd_for("C"), mapping)
        assert "C1.q + 2" in sql

    def test_simplified_mapping_executes(self, gdp_simplified, gdp_workload):
        backend = SqlBackend()
        out = backend.run_mapping(gdp_simplified, gdp_workload.data)
        assert len(out["PCHNG"]) == 9

    def test_script_concatenates_tgds(self, gdp_mapping):
        script = SqlBackend().script(gdp_mapping)
        assert script.count("INSERT INTO") == len(gdp_mapping.target_tgds)


class TestIrCompilation:
    def test_vectorial_ir_has_merge(self, gdp_mapping):
        ir = compile_tgd_to_ir(gdp_mapping.tgd_for("RGDP"), gdp_mapping)
        assert any(isinstance(op, MergeOp) for op in ir)

    def test_aggregation_ir(self, gdp_mapping):
        ir = compile_tgd_to_ir(gdp_mapping.tgd_for("GDP"), gdp_mapping)
        ops = [op for op in ir if isinstance(op, GroupAggOp)]
        assert len(ops) == 1
        assert ops[0].func == "sum"

    def test_table_function_ir(self, gdp_mapping):
        ir = compile_tgd_to_ir(gdp_mapping.tgd_for("GDPT"), gdp_mapping)
        tf = [op for op in ir if isinstance(op, TableFuncOp)][0]
        assert tf.function == "stl_t"
        assert dict(tf.params) == {"period": 4}

    def test_every_ir_ends_with_store(self, gdp_mapping):
        for tgd in gdp_mapping.target_tgds:
            ir = compile_tgd_to_ir(tgd, gdp_mapping)
            assert isinstance(ir.ops[-1], StoreOp)

    def test_composed_tgd5_compiles(self, gdp_simplified, gdp_workload):
        # GDPT(q, r1) AND GDPT(q - 1, r2): the lagged atom's frame has
        # its q column shifted by +1 before the merge on q
        tgd = gdp_simplified.tgd_for("PCHNG")
        assert len(tgd.lhs) == 2 and str(tgd.lhs[1].terms[0]) == "q - 1"
        ops = compile_tgd_to_ir(tgd, gdp_simplified).ops
        merges = [op for op in ops if isinstance(op, MergeOp)]
        assert len(merges) == 1 and merges[0].by == ("q",)
        chase = ChaseBackend().run_mapping(gdp_simplified, gdp_workload.data)
        expected = canonical_text(chase["PCHNG"])
        for backend in (RBackend(), MatlabBackend(), EtlBackend()):
            out = backend.run_mapping(gdp_simplified, gdp_workload.data)
            assert canonical_text(out["PCHNG"]) == expected, backend.name


class TestRTranslation:
    def test_merge_idiom(self, gdp_mapping):
        backend = RBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping).text
        assert 'merge(' in text and 'by=c("q", "r")' in text

    def test_stl_idiom_matches_paper(self, gdp_mapping):
        backend = RBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("GDPT"), gdp_mapping).text
        assert 'stl(tss, "periodic")' in text
        assert 'time.series[, "trend"]' in text

    def test_aggregate_idiom(self, gdp_mapping):
        backend = RBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("PQR"), gdp_mapping).text
        assert "aggregate(" in text and "FUN=mean" in text
        assert "quarter(" in text

    def test_data_frame_store(self, gdp_mapping):
        backend = RBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping).text
        assert "RGDP <- data.frame(" in text

    def test_runs_gdp(self, gdp_mapping, gdp_workload):
        out = RBackend().run_mapping(gdp_mapping, gdp_workload.data)
        assert len(out["GDPT"]) == 10


class TestMatlabTranslation:
    def test_join_idiom_with_positions(self, gdp_mapping):
        backend = MatlabBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping).text
        assert "join(" in text and "1:2" in text

    def test_elementwise_product(self, gdp_mapping):
        backend = MatlabBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping).text
        assert ".*" in text

    def test_isolate_trend_matches_paper(self, gdp_mapping):
        backend = MatlabBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("GDPT"), gdp_mapping).text
        assert "isolateTrend(" in text

    def test_matrix_composition_store(self, gdp_mapping):
        backend = MatlabBackend()
        text = backend.compile_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping).text
        assert "RGDP = [" in text

    def test_runs_gdp(self, gdp_mapping, gdp_workload):
        out = MatlabBackend().run_mapping(gdp_mapping, gdp_workload.data)
        assert len(out["PCHNG"]) == 9


class TestEtlTranslation:
    def test_figure1_flow_structure(self, gdp_mapping):
        """Figure 1: tgd (2) deploys as 2 inputs -> merge -> calc -> output."""
        metadata = flow_metadata_for_tgd(gdp_mapping.tgd_for("RGDP"), gdp_mapping)
        types = [s["type"] for s in metadata["steps"]]
        assert types.count("TableInput") == 2
        assert types.count("MergeJoin") == 1
        assert "Calculator" in types
        assert types[-1] == "TableOutput"
        merge = next(s for s in metadata["steps"] if s["type"] == "MergeJoin")
        assert merge["keys"] == ["q", "r"]

    def test_aggregation_flow_has_aggregate_step(self, gdp_mapping):
        metadata = flow_metadata_for_tgd(gdp_mapping.tgd_for("GDP"), gdp_mapping)
        assert any(s["type"] == "Aggregate" for s in metadata["steps"])

    def test_table_function_flow(self, gdp_mapping):
        metadata = flow_metadata_for_tgd(gdp_mapping.tgd_for("GDPT"), gdp_mapping)
        tf = next(
            s for s in metadata["steps"] if s["type"] == "TableFunctionStep"
        )
        assert tf["function"] == "stl_t"

    def test_metadata_is_json_serializable(self, gdp_mapping):
        for tgd in gdp_mapping.target_tgds:
            metadata = flow_metadata_for_tgd(tgd, gdp_mapping)
            json.dumps(metadata)

    def test_job_for_runs_whole_mapping(self, gdp_mapping, gdp_workload):
        backend = EtlBackend()
        job = backend.job_for(gdp_mapping)
        assert len(job.flows) == len(gdp_mapping.target_tgds)

    def test_runs_gdp(self, gdp_mapping, gdp_workload):
        out = EtlBackend().run_mapping(gdp_mapping, gdp_workload.data)
        assert len(out["PCHNG"]) == 9


class TestBackendInterface:
    def test_all_backends_names(self, backends):
        assert set(backends) == {"sql", "r", "matlab", "etl", "chase"}

    def test_missing_input_raises(self, gdp_mapping):
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="missing input"):
            SqlBackend().run_mapping(gdp_mapping, {})

    def test_unsupported_operator_rejected(self, series_schema):
        # register an operator natively supported only by r
        from repro.exl import default_registry

        registry = default_registry()
        registry.register(
            OperatorSpec(
                "r_only",
                OpKind.TABLE_FUNCTION,
                lambda rows, params: rows,
                (),
                frozenset({"r", "chase"}),
            )
        )
        program = Program.compile("C := r_only(S)", series_schema, registry)
        mapping = generate_mapping(program)
        with pytest.raises(UnsupportedOperatorError):
            SqlBackend().compile_mapping(mapping)
        # but the R backend accepts it
        RBackend().compile_mapping(mapping)

    def test_wanted_filters_outputs(self, gdp_mapping, gdp_workload):
        out = ChaseBackend().run_mapping(
            gdp_mapping, gdp_workload.data, wanted=["GDP"]
        )
        assert set(out) == {"GDP"}

    def test_temporaries_excluded_by_default(self, gdp_mapping, gdp_workload):
        out = ChaseBackend().run_mapping(gdp_mapping, gdp_workload.data)
        assert not [n for n in out if n.startswith("_tmp")]

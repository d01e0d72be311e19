"""Tests for the Matlab-subset parser and interpreter, which run the
Matlab backend's generated text end to end."""

import pytest

from repro.exl import Program
from repro.mappings import generate_mapping
from repro.matrixengine import Matrix
from repro.model import quarter
from repro.mscript import (
    MInterpreter,
    MInterpreterError,
    MSyntaxError,
    parse_m,
    run_m_script,
)
from repro.mscript.mparser import MApply, MAssign, MBinary, MColumnAssign, MCompose, MRange


class TestParser:
    def test_assignment(self):
        script = parse_m("x = 1 + 2;")
        assert isinstance(script.statements[0], MAssign)

    def test_column_assignment(self):
        script = parse_m("m(:,5) = m(:,3) .* m(:,4);")
        statement = script.statements[0]
        assert isinstance(statement, MColumnAssign)
        assert isinstance(statement.value, MBinary)
        assert statement.value.op == ".*"

    def test_range(self):
        script = parse_m("x = join(a, 1:2, b, 1:2);")
        call = script.statements[0].value
        assert isinstance(call.args[1], MRange)

    def test_composition(self):
        script = parse_m("x = [m(:,1) m(:,2) m(:,5)];")
        compose = script.statements[0].value
        assert isinstance(compose, MCompose)
        assert len(compose.elements) == 3

    def test_function_handle(self):
        script = parse_m("y = arrayfun(@quarter, m(:,1));")
        call = script.statements[0].value
        assert isinstance(call, MApply)

    def test_comments_and_semicolons(self):
        script = parse_m("% header\nx = 1;\ny = 2\n")
        assert len(script) == 2

    def test_string_literal(self):
        script = parse_m("x = exl_aggregate(m, 1, 2, 'mean');")
        assert script.statements[0].value.args[-1].value == "mean"

    def test_bad_statement(self):
        with pytest.raises(MSyntaxError):
            parse_m("= 1;")

    def test_unterminated_composition(self):
        with pytest.raises(MSyntaxError):
            parse_m("x = [a b")


class TestInterpreter:
    def test_scalar_arithmetic(self):
        env = run_m_script("x = 2 + 3 .* 4;", {})
        assert env["x"] == 14.0

    def test_elementwise_on_columns(self):
        m = Matrix([[1, 2.0], [2, 4.0]])
        env = run_m_script("v = M(:,2) .* 10;", {"M": m})
        assert env["v"] == [20.0, 40.0]

    def test_column_append(self):
        m = Matrix([[1, 2.0]])
        env = run_m_script("M(:,3) = M(:,2) + 1;", {"M": m})
        assert env["M"].ncol == 3

    def test_column_replace(self):
        m = Matrix([[1, 2.0]])
        env = run_m_script("M(:,2) = 9;", {"M": m})
        assert list(env["M"].col(2)) == [9.0]

    def test_composition(self):
        m = Matrix([[1, "a", 2.0]])
        env = run_m_script("X = [M(:,3) M(:,1)];", {"M": m})
        assert env["X"].rows() == [(2.0, 1)]

    def test_join(self):
        a = Matrix([[1, 10.0], [2, 20.0]])
        b = Matrix([[1, 5.0]])
        env = run_m_script("J = join(A, 1, B, 1);", {"A": a, "B": b})
        assert env["J"].rows() == [(1, 10.0, 5.0)]

    def test_exl_aggregate_keys_as_row_vector(self):
        m = Matrix([[1, "a", 2.0], [1, "b", 4.0], [1, "a", 6.0]])
        env = run_m_script("G = exl_aggregate(M, [2 1], 3, 'sum');", {"M": m})
        assert sorted(env["G"].rows()) == [("a", 1, 8.0), ("b", 1, 4.0)]

    def test_clear_unhides_a_function(self):
        a = Matrix([[1, 10.0]])
        env = run_m_script(
            "t1 = join;\nclear join;\nJ = join(t1, 1, t1, 1);", {"join": a}
        )
        assert "join" not in env
        assert env["J"].rows() == [(1, 10.0, 10.0)]

    def test_sortrows(self):
        m = Matrix([[2, 1.0], [1, 2.0]])
        env = run_m_script("S = sortrows(M, 1);", {"M": m})
        assert [r[0] for r in env["S"].rows()] == [1, 2]

    def test_exl_aggregate(self):
        m = Matrix([[1, 2.0], [1, 4.0], [2, 6.0]])
        env = run_m_script("G = exl_aggregate(M, 1, 2, 'mean');", {"M": m})
        assert sorted(env["G"].rows()) == [(1, 3.0), (2, 6.0)]

    def test_arrayfun_with_dim_function(self):
        from repro.model import day

        m = Matrix([[day(2020, 5, 1), 1.0]])
        env = run_m_script("M(:,1) = arrayfun(@quarter, M(:,1));", {"M": m})
        assert list(env["M"].col(1)) == [quarter(2020, 2)]

    def test_isolate_trend_infers_period(self):
        rows = [
            (quarter(2015, 1) + i, 100.0 + i + 5 * ((i % 4) - 1.5))
            for i in range(16)
        ]
        env = run_m_script("T = isolateTrend(M);", {"M": Matrix(rows)})
        assert env["T"].nrow == 16

    def test_exl_generic_with_params(self):
        rows = [(quarter(2020, 1) + i, float(i)) for i in range(6)]
        env = run_m_script("T = exl_ma(M, 2);", {"M": Matrix(rows)})
        values = [r[1] for r in env["T"].rows()]
        assert values[1] == pytest.approx(0.5)

    def test_time_shift(self):
        m = Matrix([[quarter(2020, 1), 1.0]])
        env = run_m_script("M(:,1) = M(:,1) + 1;", {"M": m})
        assert list(env["M"].col(1)) == [quarter(2020, 2)]

    def test_undefined_variable(self):
        with pytest.raises(MInterpreterError, match="undefined"):
            run_m_script("x = nope;", {})

    def test_unknown_function(self):
        with pytest.raises(MInterpreterError, match="unknown function"):
            run_m_script("x = whatisthis(1);", {})

    def test_row_indexing_unsupported(self):
        m = Matrix([[1, 2.0]])
        with pytest.raises(MInterpreterError):
            run_m_script("x = M(1, 2);", {"M": m})


class TestGeneratedScripts:
    def test_paper_listing_for_tgd2(self):
        """The verbatim Matlab listing from Section 5.2 executes."""
        pqr = Matrix([[1, "n", 10.0], [2, "n", 20.0]])
        rgdppc = Matrix([[1, "n", 2.0], [2, "n", 3.0]])
        env = run_m_script(
            "tmp = join(PQR, 1:2, RGDPPC, 1:2);\n"
            "tmp(:,5) = tmp(:,3) .* tmp(:,4);\n"
            "TGDP = [tmp(:,1) tmp(:,2) tmp(:,5)];\n",
            {"PQR": pqr, "RGDPPC": rgdppc},
        )
        assert env["TGDP"].rows() == [(1, "n", 20.0), (2, "n", 60.0)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matlab_backend_on_random_programs(self, seed, backends):
        from repro.workloads import random_workload

        workload = random_workload(seed + 80, n_statements=5, n_periods=10)
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        reference = backends["chase"].run_mapping(mapping, workload.data)
        output = backends["matlab"].run_mapping(mapping, workload.data)
        for name, expected in reference.items():
            assert expected.approx_equals(output[name], rel_tol=1e-8), name

    def test_every_generated_script_parses(self, gdp_mapping):
        from repro.backends import MatlabBackend

        backend = MatlabBackend()
        for tgd in gdp_mapping.target_tgds:
            unit = backend.compile_tgd(tgd, gdp_mapping)
            parse_m(unit.text)

"""Tests for the R-subset parser and interpreter, which run the R
backend's generated text end to end."""

import pytest

from repro.backends import RBackend
from repro.exl import Program
from repro.frames import DataFrame
from repro.mappings import generate_mapping
from repro.model import quarter
from repro.rscript import (
    RInterpreter,
    RInterpreterError,
    RSyntaxError,
    parse_r,
    run_r_script,
)
from repro.rscript.rast import RAssign, RBinary, RCall, RDollar, RIndex, RIndex2


class TestParser:
    def test_assignment(self):
        script = parse_r("x <- 1 + 2")
        statement = script.statements[0]
        assert isinstance(statement, RAssign)
        assert isinstance(statement.value, RBinary)

    def test_dollar_chain(self):
        script = parse_r('y <- dec$time.series[, "trend"]')
        value = script.statements[0].value
        assert isinstance(value, RIndex)
        assert isinstance(value.obj, RDollar)
        assert value.obj.name == "time.series"

    def test_double_bracket(self):
        script = parse_r('v <- df[["p"]]')
        value = script.statements[0].value
        assert isinstance(value, RIndex2)

    def test_row_index_with_trailing_comma(self):
        script = parse_r("x <- df[order(df[[\"q\"]]), ]")
        value = script.statements[0].value
        assert isinstance(value, RIndex)
        assert value.rows is not None and value.cols is None
        assert value.matrix_form

    def test_col_index_with_leading_comma(self):
        script = parse_r('x <- df[, setdiff(names(df), c("p"))]')
        value = script.statements[0].value
        assert value.rows is None and value.cols is not None

    def test_named_arguments(self):
        script = parse_r('m <- merge(a, b, by=c("q"), all=TRUE)')
        call = script.statements[0].value
        assert isinstance(call, RCall)
        assert set(call.named()) == {"by", "all"}

    def test_multiline_statements(self):
        script = parse_r("a <- 1\nb <- 2\n")
        assert len(script) == 2

    def test_newline_inside_parens_ignored(self):
        script = parse_r("a <- c(1,\n 2,\n 3)")
        assert len(script) == 1

    def test_comments_skipped(self):
        script = parse_r("# setup\na <- 1 # trailing\n")
        assert len(script) == 1

    def test_dotted_identifiers(self):
        script = parse_r("x <- data.frame(a=1)")
        assert script.statements[0].value.func == "data.frame"

    def test_unterminated_string(self):
        with pytest.raises(RSyntaxError):
            parse_r('x <- "oops')

    def test_unexpected_character(self):
        with pytest.raises(RSyntaxError):
            parse_r("x <- @")


class TestInterpreterBasics:
    def _run(self, source, **frames):
        return run_r_script(source, frames)

    def test_arithmetic_and_recycling(self):
        env = self._run("x <- c(1, 2, 3) * 2 + 1")
        assert env["x"] == [3.0, 5.0, 7.0]

    def test_vector_vector_arithmetic(self):
        env = self._run("x <- c(1, 2) + c(10, 20)")
        assert env["x"] == [11.0, 22.0]

    def test_recycling_mismatch_raises(self):
        with pytest.raises(RInterpreterError):
            self._run("x <- c(1, 2) + c(1, 2, 3)")

    def test_unknown_name(self):
        with pytest.raises(RInterpreterError, match="not found"):
            self._run("x <- missing_thing")

    def test_column_extraction(self):
        frame = DataFrame({"a": [1.0, 2.0]})
        env = self._run('x <- df[["a"]]\ny <- df$a', df=frame)
        assert env["x"] == [1.0, 2.0]
        assert env["y"] == [1.0, 2.0]

    def test_column_assignment(self):
        frame = DataFrame({"a": [1.0, 2.0]})
        env = self._run("df$b <- df$a * 10", df=frame)
        assert env["df"]["b"] == [10.0, 20.0]

    def test_scalar_broadcast_assignment(self):
        frame = DataFrame({"a": [1.0, 2.0]})
        env = self._run("df$b <- 7", df=frame)
        assert env["df"]["b"] == [7.0, 7.0]

    def test_names_rename_by_match(self):
        frame = DataFrame({"a": [1.0], "b": [2.0]})
        env = self._run('names(df)[names(df) == "a"] <- "z"', df=frame)
        assert env["df"].names == ["z", "b"]

    def test_names_rename_by_ncol(self):
        frame = DataFrame({"a": [1.0], "b": [2.0]})
        env = self._run('names(df)[ncol(df)] <- "last"', df=frame)
        assert env["df"].names == ["a", "last"]

    def test_na_replacement(self):
        frame = DataFrame({"a": [1.0, None, 3.0]})
        env = self._run('df[["a"]][is.na(df[["a"]])] <- 0', df=frame)
        assert env["df"]["a"] == [1.0, 0.0, 3.0]

    def test_order_and_row_indexing(self):
        frame = DataFrame({"q": [3, 1, 2], "v": [30.0, 10.0, 20.0]})
        env = self._run('s <- df[order(df[["q"]]), ]', df=frame)
        assert env["s"]["v"] == [10.0, 20.0, 30.0]

    def test_setdiff_column_drop(self):
        frame = DataFrame({"a": [1.0], "b": [2.0], "c": [3.0]})
        env = self._run('x <- df[, setdiff(names(df), c("b"))]', df=frame)
        assert env["x"].names == ["a", "c"]

    def test_merge_inner(self):
        left = DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        right = DataFrame({"k": [2, 3], "w": [20.0, 30.0]})
        env = self._run('m <- merge(a, b, by=c("k"))', a=left, b=right)
        assert env["m"].rows() == [(2, 2.0, 20.0)]

    def test_merge_outer_fills_na(self):
        left = DataFrame({"k": [1], "v": [1.0]})
        right = DataFrame({"k": [2], "w": [20.0]})
        env = self._run('m <- merge(a, b, by=c("k"), all=TRUE)', a=left, b=right)
        rows = {r[0]: r[1:] for r in env["m"].rows()}
        assert rows[1] == (1.0, None)
        assert rows[2] == (None, 20.0)

    def test_aggregate(self):
        frame = DataFrame({"g": ["a", "a", "b"], "v": [1.0, 3.0, 5.0]})
        env = self._run(
            'x <- aggregate(df[["v"]], by=list(g=df[["g"]]), FUN=mean)', df=frame
        )
        assert sorted(env["x"].rows()) == [("a", 2.0), ("b", 5.0)]

    def test_data_frame_constructor(self):
        env = self._run("x <- data.frame(a=c(1, 2), b=c(3, 4))")
        assert env["x"].rows() == [(1.0, 3.0), (2.0, 4.0)]

    def test_ts_and_stl(self):
        values = ", ".join(
            str(100 + 0.5 * t + 10 * ((t % 4) - 1.5)) for t in range(24)
        )
        env = self._run(
            f"tss <- ts(c({values}), frequency=4)\n"
            'dec <- stl(tss, "periodic")\n'
            'trend <- as.numeric(dec$time.series[, "trend"])\n'
        )
        assert len(env["trend"]) == 24
        assert env["trend"][-1] > env["trend"][0]  # upward trend recovered

    def test_time_shift_arithmetic(self):
        frame = DataFrame({"q": [quarter(2020, 1), quarter(2020, 2)], "v": [1.0, 2.0]})
        env = self._run('df$q2 <- df[["q"]] + 1', df=frame)
        assert env["df"]["q2"] == [quarter(2020, 2), quarter(2020, 3)]

    def test_registry_scalar_function(self):
        from repro.model import day

        frame = DataFrame({"d": [day(2020, 5, 4)]})
        env = self._run('df$q <- quarter(df[["d"]])', df=frame)
        assert env["df"]["q"] == [quarter(2020, 2)]

    def test_math_builtins(self):
        env = self._run("x <- round(exp(log(c(1, 10))), 6)")
        assert env["x"] == [1.0, 10.0]

    def test_operator_called_by_its_backtick_name(self):
        env = self._run("x <- `^`(c(2, 3), 2)")
        assert env["x"] == [4.0, 9.0]

    def test_unknown_function(self):
        with pytest.raises(RInterpreterError, match="could not find function"):
            self._run("x <- frobnicate(1)")


class TestGeneratedScripts:
    def test_paper_listing_for_tgd2(self):
        """The verbatim R listing from Section 5.2 executes correctly."""
        pqr = DataFrame({"q": [1, 2], "r": ["n", "n"], "p": [10.0, 20.0]})
        rgdppc = DataFrame({"q": [1, 2], "r": ["n", "n"], "g": [2.0, 3.0]})
        env = run_r_script(
            'tmp <- merge(PQR, RGDPPC, by=c("q","r"))\n'
            'tmp$i <- tmp[["p"]] * tmp[["g"]]\n'
            'TGDP <- tmp[, setdiff(names(tmp), c("p","g"))]\n',
            {"PQR": pqr, "RGDPPC": rgdppc},
        )
        assert env["TGDP"].rows() == [(1, "n", 20.0), (2, "n", 60.0)]

    @pytest.mark.parametrize("seed", range(6))
    def test_r_backend_on_random_programs(self, seed, backends):
        from repro.workloads import random_workload

        workload = random_workload(seed + 50, n_statements=5, n_periods=10)
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        reference = backends["chase"].run_mapping(mapping, workload.data)
        output = backends["r"].run_mapping(mapping, workload.data)
        for name, expected in reference.items():
            assert expected.approx_equals(output[name], rel_tol=1e-8), name

    def test_every_generated_script_parses(self, gdp_mapping):
        backend = RBackend()
        for tgd in gdp_mapping.target_tgds:
            unit = backend.compile_tgd(tgd, gdp_mapping)
            parse_r(unit.text)  # must not raise

"""Tests for cube CSV I/O and the command-line interface."""

import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import EXIT_CORRUPT_STATE, load_project, main
from repro.errors import ModelError
from repro.model import (
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    day,
    month,
    quarter,
)
from repro.model.io import (
    cube_from_csv_text,
    cube_to_csv_text,
    format_dimtype,
    parse_dimtype,
    read_cube_csv,
    write_cube_csv,
)


@pytest.fixture
def panel_schema():
    return CubeSchema(
        "P",
        [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
        "v",
    )


@pytest.fixture
def panel(panel_schema):
    cube = Cube(panel_schema)
    cube.set((quarter(2020, 1), "north"), 1.5)
    cube.set((quarter(2020, 2), "south"), -2.25)
    return cube


class TestDimTypeSpecs:
    def test_parse_string(self):
        assert parse_dimtype("string") is STRING

    def test_parse_time_specs(self):
        assert parse_dimtype("time:Q") == TIME(Frequency.QUARTER)
        assert parse_dimtype("time:D") == TIME(Frequency.DAY)
        assert parse_dimtype("time:month") == TIME(Frequency.MONTH)

    def test_parse_integer(self):
        from repro.model import INTEGER

        assert parse_dimtype("int") is INTEGER

    def test_parse_unknown(self):
        with pytest.raises(ModelError):
            parse_dimtype("floaty")

    def test_parse_unknown_frequency(self):
        with pytest.raises(ModelError):
            parse_dimtype("time:X")

    def test_roundtrip_format(self):
        for spec in ("time:Q", "time:D", "string", "integer"):
            assert format_dimtype(parse_dimtype(spec)) == spec


class TestCsvRoundtrip:
    def test_text_roundtrip(self, panel_schema, panel):
        text = cube_to_csv_text(panel)
        again = cube_from_csv_text(panel_schema, text)
        assert again.approx_equals(panel)

    def test_header_written(self, panel):
        text = cube_to_csv_text(panel)
        assert text.splitlines()[0] == "q,r,v"

    def test_file_roundtrip(self, panel_schema, panel, tmp_path):
        path = tmp_path / "panel.csv"
        write_cube_csv(panel, path)
        assert read_cube_csv(panel_schema, path).approx_equals(panel)

    def test_daily_and_monthly_points(self, tmp_path):
        schema = CubeSchema("S", [Dimension("d", TIME(Frequency.DAY))], "v")
        cube = Cube(schema)
        cube.set((day(2020, 2, 29),), 1.0)
        path = tmp_path / "s.csv"
        write_cube_csv(cube, path)
        assert read_cube_csv(schema, path)[(day(2020, 2, 29),)] == 1.0

    def test_header_mismatch_rejected(self, panel_schema):
        with pytest.raises(ModelError, match="header"):
            cube_from_csv_text(panel_schema, "a,b,c\n")

    def test_empty_file_rejected(self, panel_schema):
        with pytest.raises(ModelError, match="empty"):
            cube_from_csv_text(panel_schema, "")

    def test_bad_field_count(self, panel_schema):
        with pytest.raises(ModelError, match="line 2"):
            cube_from_csv_text(panel_schema, "q,r,v\n2020Q1,north\n")

    def test_bad_value_reports_line(self, panel_schema):
        with pytest.raises(ModelError, match="line 3"):
            cube_from_csv_text(
                panel_schema, "q,r,v\n2020Q1,north,1.0\n2020Q2,south,oops\n"
            )

    def test_blank_lines_skipped(self, panel_schema):
        cube = cube_from_csv_text(panel_schema, "q,r,v\n\n2020Q1,north,1.0\n\n")
        assert len(cube) == 1

    def test_conflicting_duplicate_key_reports_line(self, panel_schema):
        # used to surface as a bare CubeError with no line number
        text = "q,r,v\n2020Q1,north,1.0\n2020Q2,north,2.0\n2020Q1, north,3.0\n"
        with pytest.raises(ModelError, match=r"^line 4: functional violation on P\("):
            read_cube_csv(panel_schema, io.StringIO(text))
        # the same row twice is one tuple, as it always was
        again = read_cube_csv(panel_schema, io.StringIO(text.replace("3.0", "1.0")))
        assert len(again) == 2

    def test_input_cells_are_trimmed_canonical_text_is_not(self, panel_schema):
        text = "q , r,v\n 2020Q1 , north ,1.0\n"
        cube = read_cube_csv(panel_schema, io.StringIO(text))
        assert cube[(quarter(2020, 1), "north")] == 1.0
        with pytest.raises(ModelError, match="header"):
            cube_from_csv_text(panel_schema, text)
        kept = cube_from_csv_text(panel_schema, "q,r,v\n2020Q1, north ,1.0\n")
        assert kept[(quarter(2020, 1), " north ")] == 1.0

    def test_utf8_byte_order_mark_is_skipped(self, panel_schema, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        path = tmp_path / "panel.csv"
        path.write_bytes("q,r,v\r\n2020Q1,nörd,1.0\r\n".encode("utf-8-sig"))
        assert read_cube_csv(panel_schema, path)[(quarter(2020, 1), "nörd")] == 1.0

    def test_float_precision_preserved(self, panel_schema):
        cube = Cube(panel_schema)
        cube.set((quarter(2020, 1), "x"), 0.1 + 0.2)
        again = cube_from_csv_text(panel_schema, cube_to_csv_text(cube))
        assert again[(quarter(2020, 1), "x")] == 0.1 + 0.2


@pytest.fixture
def project_dir(tmp_path):
    """A minimal CLI project: one series, a two-statement program."""
    schema = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
    cube = Cube.from_series(schema, quarter(2020, 1), [1.0, 2.0, 3.0, 4.0])
    write_cube_csv(cube, tmp_path / "s.csv")
    (tmp_path / "program.exl").write_text("A := S * 2\nB := cumsum(A)\n")
    spec = {
        "elementary": [
            {
                "name": "S",
                "dimensions": [["q", "time:Q"]],
                "measure": "v",
                "csv": "s.csv",
            }
        ],
        "program": "program.exl",
        "outputs": ["B"],
    }
    (tmp_path / "project.json").write_text(json.dumps(spec))
    return tmp_path


class TestCli:
    def test_load_project(self, project_dir):
        project = load_project(str(project_dir / "project.json"))
        assert [s.name for s in project.schemas] == ["S"]
        data = project.load_data()
        assert len(data["S"]) == 4

    def test_inline_program(self, tmp_path):
        spec = {
            "elementary": [
                {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v"}
            ],
            "program": "A := S * 2",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        project = load_project(str(path))
        assert project.program_source == "A := S * 2"

    def test_inline_program_longer_than_a_file_name(self, tmp_path):
        # probing "base_dir / program" as a path raises ENAMETOOLONG
        # once the source outgrows NAME_MAX: still an inline program
        source = "\n".join(f"A{i} := S * {i + 2}" for i in range(40))
        assert len(source) > 255
        spec = {
            "elementary": [
                {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v"}
            ],
            "program": source,
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        project = load_project(str(path))
        assert project.program_source == source
        assert main(["show", str(path)]) == 0

    def test_show_prints_mapping(self, project_dir, capsys):
        code = main(["show", str(project_dir / "project.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "S(q, v) -> A(q, 2 * v)" in out or "A(q, v * 2)" in out or "-> A" in out

    def test_compile_sql(self, project_dir, capsys):
        code = main(
            ["compile", str(project_dir / "project.json"), "--target", "sql"]
        )
        assert code == 0
        assert "INSERT INTO A" in capsys.readouterr().out

    def test_compile_unknown_target(self, project_dir, capsys):
        code = main(
            ["compile", str(project_dir / "project.json"), "--target", "cobol"]
        )
        assert code == 2

    def test_compile_has_no_simplify_flag(self, project_dir, capsys):
        # compile prints the composed mapping every run executes
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", str(project_dir / "project.json"), "--simplify"])
        assert exit_info.value.code == 2
        assert "--simplify" in capsys.readouterr().err

    def test_explain(self, project_dir, capsys):
        code = main(["explain", str(project_dir / "project.json")])
        assert code == 0
        assert "[sql]" in capsys.readouterr().out

    def test_run_writes_outputs(self, project_dir, capsys):
        out_dir = project_dir / "results"
        code = main(
            ["run", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        written = (out_dir / "B.csv").read_text().splitlines()
        assert written[0] == "q,v"
        # B = cumsum(2 * S) = 2, 6, 12, 20
        assert [float(line.split(",")[1]) for line in written[1:]] == [
            2.0,
            6.0,
            12.0,
            20.0,
        ]

    def test_missing_program_errors(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elementary": []}))
        code = main(["show", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == repro.__version__


class TestCubeNamedLikeATemporary:
    """A temporary is what normalization recorded, not a name: a user
    cube called ``_tmp1_X`` is an output on every target."""

    PROGRAM = "_tmp1_X := S * 2\nY := _tmp1_X + 1\n"

    def _project(self, project_dir, target):
        (project_dir / "program.exl").write_text(self.PROGRAM)
        path = project_dir / "project.json"
        spec = json.loads(path.read_text())
        spec["outputs"] = ["_tmp1_X", "Y"]
        spec["preferred_targets"] = {"_tmp1_X": target, "Y": target}
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.mark.parametrize("target", ["sql", "r", "matlab", "etl", "chase"])
    def test_run_writes_it(self, target, project_dir, capsys):
        out = project_dir / "out"
        assert main(["run", self._project(project_dir, target), "--out", str(out)]) == 0
        assert f"[{target}]" in capsys.readouterr().out
        doubled = (out / "_tmp1_X.csv").read_text().splitlines()
        assert doubled == ["q,v", "2020Q1,2.0", "2020Q2,4.0", "2020Q3,6.0", "2020Q4,8.0"]
        assert (out / "Y.csv").read_text().splitlines()[1] == "2020Q1,3.0"

    def test_show_simplify_keeps_it(self, project_dir, capsys):
        assert main(["show", self._project(project_dir, "sql"), "--simplify"]) == 0
        out = capsys.readouterr().out
        assert "(1) S(q, v) -> _tmp1_X(q, v * 2)" in out
        assert "(2) _tmp1_X(q, v) -> Y(q, v + 1)" in out


class TestTemporaryCounter:
    """``engine.temporaries`` counts the temporaries the committed
    mappings fill: composition leaves only a reduce that a table
    function reads, and a degraded subgraph counts once."""

    PROGRAM = "A := S * 2 + S / 4\nL := S - shift(S, 1)\nB := cumsum(sum(S, group by q))\n"

    def _counters(self, project_dir, capsys, *flags):
        (project_dir / "program.exl").write_text(self.PROGRAM)
        out = str(project_dir / "out")
        assert main(["run", str(project_dir / "project.json"), "--out", out, "--metrics", *flags]) == 0
        text = capsys.readouterr().out.split("counters:")[1].split("histograms:")[0]
        return {name: int(value) for name, value in map(str.split, text.strip().splitlines())}

    def test_only_the_reduce_read_by_cumsum_is_filled(self, project_dir, capsys):
        assert self._counters(project_dir, capsys)["engine.temporaries"] == 1

    def test_degradation_does_not_inflate_it(self, project_dir, capsys, monkeypatch):
        # each subgraph's native attempt fails inside the backend's run,
        # and the chase (which overrides run_mapping) redoes it
        from repro.backends.base import Backend
        from repro.errors import PermanentBackendError

        def broken(self, mapping, *args, **kwargs):
            raise PermanentBackendError("injected")

        monkeypatch.setattr(Backend, "run_mapping", broken)
        counters = self._counters(project_dir, capsys, "--on-error", "degrade")
        assert counters["dispatch.degraded"] >= 1
        assert counters["engine.temporaries"] == 1


class TestCompiledTextIsExecuted:
    """``exl run`` on ``r`` / ``matlab`` interprets exactly the units
    ``exl compile --target`` prints."""

    PROGRAM = (
        "A := pow(S, 2) * 2\nB := cumsum(A)\nC := A - shift(B, 1)\n"
        "D := var(C, group by year(q) as y)\nE := range(S, group by year(q) as y)\n"
    )

    @pytest.mark.parametrize("target", ["r", "matlab"])
    def test_run_interprets_the_printed_units(
        self, target, project_dir, capsys, monkeypatch
    ):
        from repro.mscript import MInterpreter
        from repro.rscript import RInterpreter

        interpreter = RInterpreter if target == "r" else MInterpreter
        executed = []
        run_source = interpreter.run_source

        def recording(self, source):
            executed.append(source)
            return run_source(self, source)

        monkeypatch.setattr(interpreter, "run_source", recording)
        (project_dir / "program.exl").write_text(self.PROGRAM)
        path = project_dir / "project.json"
        spec = json.loads(path.read_text())
        spec["preferred_targets"] = {cube: target for cube in "ABCDE"}
        path.write_text(json.dumps(spec))
        project = str(path)
        assert main(["run", project, "--out", str(project_dir / "out")]) == 0
        assert "in 1 subgraphs" in capsys.readouterr().out
        assert main(["compile", project, "--target", target]) == 0
        printed = capsys.readouterr().out
        units = re.split(r"^# tgd: .*\n", printed, flags=re.MULTILINE)
        assert units[0] == ""
        assert executed == [unit.removesuffix("\n") for unit in units[1:]]


class TestCliInputErrors:
    """Bad paths and bad project files are one ``error: <path>: <reason>``
    line and exit 1, never a traceback."""

    def _fails(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    def test_missing_project_file(self, tmp_path, capsys):
        path = tmp_path / "nowhere.json"
        for command in ("show", "run", "query"):
            argv = [command, str(path)] + (["A"] if command == "query" else [])
            err = self._fails(argv, capsys)
            assert err == f"error: {path}: No such file or directory\n"

    def test_malformed_project_json(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"elementary": [')
        err = self._fails(["show", str(path)], capsys)
        assert err.startswith(f"error: {path}: not valid JSON")
        path.write_text("[1, 2]")
        err = self._fails(["show", str(path)], capsys)
        assert err == f"error: {path}: not a JSON object\n"

    def test_missing_input_csv(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        csv_path = project_dir / "s.csv"
        csv_path.unlink()
        expected = f"error: {csv_path}: No such file or directory\n"
        out = str(project_dir / "results")
        assert self._fails(["run", project, "--out", out], capsys) == expected
        assert self._fails(["update", project, "--out", out], capsys) == expected
        # a query of an elementary cube with no baseline reads the same file
        argv = ["query", project, "S", "--out", out]
        assert self._fails(argv, capsys) == expected

    def test_malformed_input_csv_names_file_and_line(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        csv_path = project_dir / "s.csv"
        out = str(project_dir / "results")
        csv_path.write_text("q,v\n2020Q1,1.0\n2020Q2,2.0\n2020Q1,5.0\n")
        err = self._fails(["run", project, "--out", out], capsys)
        assert err == (
            f"error: {csv_path}: line 4: functional violation on "
            f"S(TimePoint(QUARTER, 2020Q1),): 1.0 vs 5.0\n"
        )
        csv_path.write_text("q,v\n2020Q1,1.0\n2020Q2,oops\n")
        err = self._fails(["update", project, "--out", out], capsys)
        assert err == (
            f"error: {csv_path}: line 3: could not convert string to float: 'oops'\n"
        )
        csv_path.write_bytes(b"q,v\n2020Q1,1.0\n\xff\xfe,2.0\n")
        err = self._fails(["run", project, "--out", out], capsys)
        assert err.startswith(f"error: {csv_path}: not UTF-8 text")

    def test_program_file_not_found(self, project_dir, capsys):
        spec = json.loads((project_dir / "project.json").read_text())
        spec["program"] = "missing.exl"
        (project_dir / "project.json").write_text(json.dumps(spec))
        err = self._fails(["show", str(project_dir / "project.json")], capsys)
        assert err == (
            f"error: program file not found: {project_dir / 'missing.exl'}\n"
        )

    @pytest.mark.parametrize("command", ["run", "update", "resume"])
    @pytest.mark.parametrize("flags", [[], ["--no-journal"]])
    @pytest.mark.parametrize("below", ["", "/sub"])
    def test_out_naming_a_file(
        self, command, flags, below, project_dir, fresh_python
    ):
        # was NotADirectoryError from RunJournal's mkdir, 20 lines of
        # stack; through the process entry, so os._exit is on the path
        taken = project_dir / "somefile"
        taken.write_text("mine\n")
        before = _tree(project_dir)
        out = f"{taken}{below}"
        child = fresh_python(
            "-m", "repro", command, str(project_dir / "project.json"),
            "--out", out, *flags,
        )
        assert child.returncode == 1
        assert child.stderr == f"error: --out {out}: not a directory\n"
        assert child.stdout == ""
        assert _tree(project_dir) == before

    @pytest.mark.parametrize("command", ["run", "update", "resume"])
    def test_shard_count_out_of_range_is_a_usage_error(
        self, command, project_dir, capsys
    ):
        # --shards -1 once forked a worker per core
        argv = [command, str(project_dir / "project.json"), "--shards", "-1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --shards: must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "update", "resume"])
    @pytest.mark.parametrize(
        "flags, bound",
        [
            (["--deadline", "0"], "greater than 0"),
            (["--deadline", "-1"], "greater than 0"),
            (["--deadline", "nan"], "greater than 0"),
        ],
    )
    def test_failure_policy_out_of_range_is_a_usage_error(
        self, command, flags, bound, project_dir, capsys
    ):
        # --deadline 0 once failed every subgraph
        out = project_dir / "results"
        argv = [
            command, str(project_dir / "project.json"), "--out", str(out),
            "--inject-faults", "sql:permanent", *flags,
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flags[0]}: must be {bound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--parallel"], ["--no-vectorize"], ["--no-chase-cache"],
            ["--jobs", "2"], ["--retries", "1"], ["--backoff", "0"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_removed_flags_are_usage_errors(self, flags, project_dir, capsys):
        # no flag picks the kernels; subgraphs run one at a time, in
        # plan order, once each: no thread count, no retries, no backoff
        out = project_dir / "results"
        argv = ["run", str(project_dir / "project.json"), "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + flags)
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_shards_zero_is_one_per_core(self, project_dir, capsys):
        out = str(project_dir / "results")
        argv = ["run", str(project_dir / "project.json"), "--out", out]
        assert main(argv + ["--shards", "0"]) == 0

    def test_inline_program_is_not_mistaken_for_a_path(self, project_dir):
        # an assignment, or more than one token, is EXL source
        for source in ("A:=S*2", "A := S.v"):
            spec = json.loads((project_dir / "project.json").read_text())
            spec["program"] = source
            (project_dir / "project.json").write_text(json.dumps(spec))
            project = load_project(str(project_dir / "project.json"))
            assert project.program_source == source


class TestCliShards:
    def test_shards_two_writes_what_a_serial_run_writes(self, project_dir):
        # three independent chase strata, then one that reads them all
        (project_dir / "program.exl").write_text(
            "A := S * 2\nB := S + 1\nC := cumsum(S)\nD := A + B + C\n"
        )
        spec = json.loads((project_dir / "project.json").read_text())
        spec["preferred_targets"] = {name: "chase" for name in "ABCD"}
        spec["outputs"] = list("ABCD")
        (project_dir / "project.json").write_text(json.dumps(spec))
        outputs, schedulers = {}, {}
        for shards in ("1", "2"):
            out = project_dir / f"shards{shards}"
            trace = project_dir / f"trace{shards}.json"
            argv = [
                "run", str(project_dir / "project.json"), "--out", str(out),
                "--shards", shards, "--trace", str(trace),
            ]
            assert main(argv) == 0
            outputs[shards] = {
                path.name: path.read_bytes() for path in out.glob("*.csv")
            }
            events = json.loads(trace.read_text())["traceEvents"]
            schedulers[shards] = [
                event["args"].get("scheduler")
                for event in events
                if event["name"] == "chase"
            ]
        assert sorted(outputs["1"]) == ["A.csv", "B.csv", "C.csv", "D.csv"]
        assert outputs["2"] == outputs["1"]
        # every attempt opens a chase span (an injected fault adds one)
        assert set(schedulers["1"]) == {None}
        assert set(schedulers["2"]) == {"sharded"}


class TestCliUpdate:
    """``exl update``: baseline persistence and incremental reruns."""

    def _run(self, project_dir, out_dir):
        return main(
            ["run", str(project_dir / "project.json"), "--out", str(out_dir)]
        )

    def test_run_persists_a_baseline(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        baseline = out_dir / "baseline"
        assert (baseline / "baseline.json").exists()
        state = json.loads((baseline / "baseline.json").read_text())
        assert set(state["cubes"]) == {"S", "A", "B"}
        assert (baseline / "S.csv").exists()
        assert state["record"]["baseline_versions"]

    def test_update_without_baseline_runs_full(self, project_dir, capsys):
        out_dir = project_dir / "results"
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "no baseline" in err
        assert (out_dir / "B.csv").exists()
        assert (out_dir / "baseline" / "baseline.json").exists()

    def test_noop_update_recomputes_nothing(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "update-of" in out
        assert "affected=0 cubes in 0 subgraphs" in out

    def test_update_after_input_edit_matches_full_run(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        # revise one input point and update incrementally
        schema = CubeSchema(
            "S", [Dimension("q", TIME(Frequency.QUARTER))], "v"
        )
        cube = Cube.from_series(
            schema, quarter(2020, 1), [1.0, 2.0, 10.0, 4.0]
        )
        write_cube_csv(cube, project_dir / "s.csv")
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        # B = cumsum(2 * S) over the revised series
        written = (out_dir / "B.csv").read_text().splitlines()
        assert [float(line.split(",")[1]) for line in written[1:]] == [
            2.0,
            6.0,
            26.0,
            34.0,
        ]
        # the persisted baseline rolled forward to the revised state
        full_dir = project_dir / "full"
        assert self._run(project_dir, full_dir) == 0
        assert (out_dir / "B.csv").read_text() == (
            full_dir / "B.csv"
        ).read_text()

    def test_update_against_wrong_run_id(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        index = json.loads((out_dir / "baseline" / "baseline.json").read_text())
        code = main(
            [
                "update",
                str(project_dir / "project.json"),
                "--out",
                str(out_dir),
                "--against",
                str(index["record"]["run_id"] + 1),
            ]
        )
        assert code == 2
        assert "is run" in capsys.readouterr().err

    def test_unchanged_chase_output_leaves_its_consumer_clean(
        self, tmp_path, capsys
    ):
        """A revised measure leaves the chase's count N as it was: N
        keeps its version, so the subgraph of H (on ``r``) is replayed
        clean, and the directory is what a full run writes."""
        schema = CubeSchema(
            "S", [Dimension("r", STRING), Dimension("q", TIME(Frequency.QUARTER))], "v"
        )
        rows = [(r, quarter(2020, i), float(i)) for r in ("a", "b") for i in (1, 2, 3)]
        write_cube_csv(Cube.from_rows(schema, rows), tmp_path / "s.csv")
        spec = {
            "elementary": [
                {
                    "name": "S",
                    "dimensions": [["r", "string"], ["q", "time:Q"]],
                    "measure": "v",
                    "csv": "s.csv",
                }
            ],
            "program": "N := count(S, group by r)\nH := N + 1\n",
            "outputs": ["N", "H"],
            "preferred_targets": {"N": "chase", "H": "r"},
        }
        project = str(tmp_path / "project.json")
        (tmp_path / "project.json").write_text(json.dumps(spec))
        out_dir, full_dir = tmp_path / "results", tmp_path / "full"
        assert main(["run", project, "--out", str(out_dir)]) == 0
        rows[0] = rows[0][:-1] + (7.5,)
        write_cube_csv(Cube.from_rows(schema, rows), tmp_path / "s.csv")
        capsys.readouterr()
        assert main(["update", project, "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("  [chase] N:")]
        (consumer,) = [line for line in lines if line.startswith("  [r] H:")]
        assert "[clean]" in consumer
        assert main(["run", project, "--out", str(full_dir)]) == 0
        written = sorted(
            path.relative_to(out_dir)
            for path in out_dir.rglob("*.csv")
        )
        assert written == sorted(
            path.relative_to(full_dir) for path in full_dir.rglob("*.csv")
        )
        for path in written:
            assert (out_dir / path).read_bytes() == (full_dir / path).read_bytes()


_PINNED_CUBES = ("T", "Y", "D", "M", "Z")


class TestPinnedRunBuildsNoKeyedView:
    """Whatever target a cube is pinned to, it crosses every boundary
    as columns: reader's columns → column store or target engine, fed
    a column at a time → columns encoded from the engine's result →
    writer.  Nothing looks a key up, sorts rows or sets a cell, so no
    ``Cube._data`` dict is ever decoded and no row is ever set
    (DESIGN.md §9) — and every target writes the chase's bytes."""

    PINS = {
        target: dict.fromkeys(_PINNED_CUBES, target)
        for target in ("chase", "sql", "r", "matlab", "etl")
    }
    PINS["mix"] = dict(zip(_PINNED_CUBES, ("sql", "r", "matlab", "etl", "chase")))

    def _project(self, directory, targets, bump=0.0):
        directory.mkdir(exist_ok=True)
        rows = [
            f"2020Q{q},{r},{float(q * 10 + i) + bump * (q == 2)}"
            for q in range(1, 5) for i, r in enumerate(("north", "south", "west"))
        ]
        (directory / "p.csv").write_text("q,r,v\n" + "\n".join(rows) + "\n")
        spec = {
            "elementary": [
                {"name": "P", "dimensions": [["q", "time:Q"], ["r", "string"]],
                 "measure": "v", "csv": "p.csv"}
            ],
            "program": (
                "T := P * 2\nY := sum(T, group by r)\nD := T - P\n"
                "M := D * 0.5 + T\nZ := avg(M, group by q)\n"
            ),
            "preferred_targets": targets,
        }
        (directory / "project.json").write_text(json.dumps(spec))
        return str(directory / "project.json")

    def _chase_bytes(self, directory, bump):
        project = self._project(directory, self.PINS["chase"], bump)
        assert main(["run", project, "--out", str(directory / "out")]) == 0
        return {
            name: (directory / "out" / f"{name}.csv").read_bytes()
            for name in _PINNED_CUBES
        }

    @pytest.mark.parametrize("pin", list(PINS))
    def test_run_and_update_decode_and_set_nothing(
        self, tmp_path, capsys, monkeypatch, pin
    ):
        expected = [
            self._chase_bytes(tmp_path / f"chase{bump}", bump) for bump in (0.0, 0.5)
        ]
        calls = []
        for attr in ("_decode", "set", "to_rows"):
            real = getattr(Cube, attr)
            monkeypatch.setattr(
                Cube, attr,
                lambda cube, *args, _real=real, _attr=attr, **kwargs: (
                    calls.append((_attr, cube.schema.name))
                    or _real(cube, *args, **kwargs)
                ),
            )
        work, out = tmp_path / "work", tmp_path / "work" / "out"
        written = []
        for command, bump in (("run", 0.0), ("update", 0.5)):
            project = self._project(work, self.PINS[pin], bump)
            assert main([command, project, "--out", str(out)]) == 0
            written.append(
                {name: (out / f"{name}.csv").read_bytes() for name in _PINNED_CUBES}
            )
        assert "update-of=" in capsys.readouterr().out
        assert calls == [], calls
        assert written == expected


#: run states ``exl resume`` cannot finish from, whatever their JSON
#: says, and the detail its report gives (None: the parser's words);
#: ``exl recover`` quarantines the same ones
BAD_RUN_STATES = {
    "torn": ('{"record": {"subgra', None),
    "empty-object": ("{}", "not a run-state document"),
    "record-not-object": ('{"record": 5}', "not a run-state document"),
    "no-subgraphs": ('{"record": {"run_id": 1}}', "record.subgraphs"),
    "missing-snapshot": (
        json.dumps(
            {
                "record": {"run_id": 1, "subgraphs": []},
                "committed": {"A": ".committed/A.csv"},
            }
        ),
        "committed snapshot of A missing",
    ),
}

#: a finished run's baseline index made the wrong shape (None: a torn
#: index, no run)
BAD_INDEXES = {
    "torn": None,
    "sha256-not-object": lambda index: {**index, "sha256": []},
    "cubes-not-object": lambda index: {**index, "cubes": 5},
}


class TestCorruptStateFiles:
    """Torn, truncated, or empty state/baseline JSON — the debris a
    hard crash leaves without atomic writes — and well-formed JSON of
    the wrong shape must be reported with the offending path and exit
    code 4, never a traceback."""

    def _torn(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"record": {"subgra')

    def _bad_index(self, project_dir, damage):
        """The path of a baseline index damaged so."""
        out = project_dir / "results"
        index = out / "baseline" / "baseline.json"
        if BAD_INDEXES[damage] is None:
            self._torn(index)
            return index
        assert main(["run", str(project_dir / "project.json"), "--out", str(out)]) == 0
        index.write_text(json.dumps(BAD_INDEXES[damage](json.loads(index.read_text()))))
        return index

    def test_resume_torn_state(self, project_dir, capsys):
        out = project_dir / "results"
        self._torn(out / "run-state.json")
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "corrupt run state" in err
        assert str(out / "run-state.json") in err
        assert "exl recover" in err

    def test_resume_empty_state(self, project_dir, capsys):
        out = project_dir / "results"
        (out).mkdir(parents=True)
        (out / "run-state.json").write_text("")
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "text, detail",
        [('["not", "a", "run"]', "not a run-state document")]
        + list(BAD_RUN_STATES.values()),
        ids=["list", *BAD_RUN_STATES],
    )
    def test_resume_state_not_a_document(self, project_dir, capsys, text, detail):
        out = project_dir / "results"
        out.mkdir(parents=True)
        (out / "run-state.json").write_text(text)
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert f"corrupt run state at {out / 'run-state.json'}" in err
        assert detail is None or detail in err
        assert "Traceback" not in err

    def test_resume_after_a_committed_snapshot_went_missing(
        self, project_dir, capsys
    ):
        """A real partial failure: A commits on the chase, B fails on
        sql; without A's snapshot the state cannot be finished."""
        spec_path = project_dir / "project.json"
        spec = json.loads(spec_path.read_text())
        spec["preferred_targets"] = {"A": "chase", "B": "sql"}
        spec_path.write_text(json.dumps(spec))
        out = project_dir / "results"
        argv = [str(spec_path), "--out", str(out)]
        code = main(
            ["run", *argv, "--on-error", "continue", "--inject-faults", "sql:permanent"]
        )
        assert code == 3
        (out / ".committed" / "A.csv").unlink()
        capsys.readouterr()
        assert main(["resume", *argv]) == 4
        err = capsys.readouterr().err
        assert f"corrupt run state at {out / 'run-state.json'}" in err
        assert "committed snapshot of A missing" in err
        assert "exl recover" in err

    @pytest.mark.parametrize("damage", sorted(BAD_INDEXES))
    def test_update_torn_baseline(self, project_dir, capsys, damage):
        out = project_dir / "results"
        index = self._bad_index(project_dir, damage)
        capsys.readouterr()
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "corrupt baseline" in err and str(index) in err

    @pytest.mark.parametrize("damage", sorted(BAD_INDEXES))
    def test_query_torn_baseline(self, project_dir, capsys, damage):
        out = project_dir / "results"
        index = self._bad_index(project_dir, damage)
        capsys.readouterr()
        code = main(
            [
                "query", str(project_dir / "project.json"), "B",
                "--out", str(out),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "corrupt baseline" in err and str(index) in err

    def test_query_missing_csv_of_queried_cube(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        capsys.readouterr()
        missing = out / "baseline" / "B.csv"
        missing.unlink()
        assert main(["query", project, "B", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "corrupt baseline CSV" in err
        assert str(missing) in err
        assert "exl recover" in err
        # unreadable is reported the same way as missing
        missing.write_text("q,wrong\n2020Q1,1.0\n")
        assert main(["query", project, "B", "--out", str(out)]) == 4
        assert str(missing) in capsys.readouterr().err

    def test_query_refuses_an_output_edited_in_place(self, project_dir, capsys):
        """``<out>/B.csv`` and ``baseline/B.csv`` are one inode: an edit
        of the output is an edit of what a query would answer from."""
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        argv = ["query", project, "B", "--out", str(out), "--levels", "q=year"]
        assert main(["run", project, "--out", str(out)]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        stored = out / "baseline" / "B.csv"
        assert (out / "B.csv").samefile(stored)
        with open(out / "B.csv", "a") as handle:
            handle.write("2021Q1,1000.0\n")
        assert main(argv) == EXIT_CORRUPT_STATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(stored) in captured.err and "digest-mismatch" in captured.err
        assert "exl run" in captured.err and "exl recover" in captured.err
        # the advice holds: a full run rewrites the file
        assert main(["run", project, "--out", str(out)]) == 0
        assert main(argv) == 0

    def test_query_refuses_a_torn_csv(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        capsys.readouterr()
        stored = out / "baseline" / "B.csv"
        stored.write_bytes(stored.read_bytes()[:-7])  # parses, two rows short
        code = main(["query", project, "B", "--out", str(out)])
        assert code == EXIT_CORRUPT_STATE
        assert str(stored) in capsys.readouterr().err

    def test_query_reads_an_index_without_digests_on_trust(
        self, project_dir, capsys
    ):
        """A run directory older than the recorded digests is answered
        as it always was, edited file and all."""
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        argv = ["query", project, "B", "--out", str(out), "--levels", "q=year"]
        assert main(["run", project, "--out", str(out)]) == 0
        index = out / "baseline" / "baseline.json"
        state = json.loads(index.read_text())
        del state["sha256"]
        index.write_text(json.dumps(state, indent=2))
        capsys.readouterr()
        assert main(argv) == 0
        assert "20" in capsys.readouterr().out  # 2 + 6 + 12 + 20
        with open(out / "baseline" / "B.csv", "a") as handle:
            handle.write("2021Q1,1000.0\n")
        assert main(argv) == 0
        assert "1000" in capsys.readouterr().out

    def test_query_missing_csv_of_other_cube(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        (out / "baseline" / "A.csv").unlink()
        capsys.readouterr()
        code = main(
            ["query", project, "B", "--out", str(out), "--levels", "q=year"]
        )
        assert code == 0
        assert "20" in capsys.readouterr().out  # 2 + 6 + 12 + 20


def _tree(root):
    """Every file under ``root``: relative path -> (mtime_ns, bytes)."""
    return {
        str(path.relative_to(root)): (path.stat().st_mtime_ns, path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def record_opens(monkeypatch):
    """``record_opens(root)`` starts recording every ``open()`` of a
    file under ``root``: returns ``{relative path: [mode, ...]}``, one
    mode per call, filled in as the code under test runs."""
    import builtins
    import io

    def start(root):
        opened = {}
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            try:
                path = Path(file).resolve()
            except TypeError:  # a file descriptor
                path = None
            if path is not None and path.is_relative_to(root):
                opened.setdefault(str(path.relative_to(root)), []).append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        return opened

    return start


def _reads(opened):
    """The recorded files that were opened for reading."""
    return {
        path for path, modes in opened.items()
        if any(not set(mode) & set("wax+") for mode in modes)
    }


class TestQueryReadBudget:
    """``exl query CUBE`` reads one cube: the project file, the program
    (for its digest: the schemas come from the index), ``baseline.json``
    and ``CUBE.csv`` — and writes nothing."""

    QUERIES = (
        [],
        ["--levels", "q=year"],
        ["--point", "q=2020Q3"],
        ["--agg", "avg", "--levels", "q=year"],
        ["--agg", "sum", "--levels", "q=year"],
        ["--levels", "q=year", "--drilldown", "q"],
        ["--dice", "q=2020Q1|2020Q4"],
    )

    def _answers(self, project, out, capsys):
        answers = []
        for query in self.QUERIES:
            argv = ["query", project, "A", "--out", str(out), *query]
            assert main(argv) == 0, query
            answers.append(capsys.readouterr().out)
        return answers

    def test_other_cubes_files_are_never_needed(self, project_dir, capsys):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        capsys.readouterr()
        intact = self._answers(project, out, capsys)
        baseline = out / "baseline"
        (project_dir / "s.csv").unlink()
        (baseline / "S.csv").unlink()
        (baseline / "B.csv").write_text("torn,")
        # no run writes a columnar cache; one an older version left
        # behind (here a torn one) is inert
        assert not (baseline / "columnar").exists()
        (baseline / "columnar").mkdir()
        (baseline / "columnar" / "A.json").write_text('{"format": 2, "di')
        before = _tree(out)
        assert self._answers(project, out, capsys) == intact
        assert _tree(out) == before  # nothing created, nothing rewritten

    def test_only_the_queried_cubes_files_are_opened(
        self, project_dir, capsys, record_opens
    ):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        capsys.readouterr()
        # a columnar cache of the queried cube, as an older version
        # wrote it: never opened
        (out / "baseline" / "columnar").mkdir()
        (out / "baseline" / "columnar" / "A.json").write_text("{}")
        opened = record_opens(project_dir)
        self._answers(project, out, capsys)
        assert set(opened) == {
            "project.json",
            "program.exl",
            "results/baseline/baseline.json",
            "results/baseline/A.csv",
        }

    def test_elementary_cube_falls_back_to_the_project_csv(
        self, project_dir, capsys
    ):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        argv = ["query", project, "S", "--out", str(out), "--levels", "q=year"]
        # no baseline at all: the project CSV is the only copy
        assert main(argv) == 0
        from_project = capsys.readouterr().out
        assert "10" in from_project  # 1 + 2 + 3 + 4
        assert not out.exists()
        # a baseline that lacks S (and only then) falls back the same way
        assert main(["run", project, "--out", str(out)]) == 0
        index = out / "baseline" / "baseline.json"
        state = json.loads(index.read_text())
        del state["cubes"]["S"]
        index.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == from_project


QUARTERS = ["2020Q1", "2020Q2", "2020Q3", "2020Q4"]


def _write_series(path, values):
    path.write_text(
        "q,v\n" + "".join(f"{q},{v}\n" for q, v in zip(QUARTERS, values))
    )


@pytest.fixture
def two_input_dir(tmp_path):
    """Two series; ``Y`` feeds W and Z, ``X`` feeds U, V and (through U)
    Z — so a revision of ``Y`` leaves U and V alone but reads U."""
    _write_series(tmp_path / "x.csv", [1.0, 2.0, 3.0, 4.0])
    _write_series(tmp_path / "y.csv", [10.0, 20.0, 30.0, 40.0])
    (tmp_path / "program.exl").write_text(
        "U := X * 2\nV := U + 1\nW := Y * 3\nZ := W + U\n"
    )
    spec = {
        "elementary": [
            {"name": name, "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": f"{name.lower()}.csv"}
            for name in ("X", "Y")
        ],
        "program": "program.exl",
    }
    (tmp_path / "project.json").write_text(json.dumps(spec))
    return tmp_path


def _cube_files(out):
    """``{relative path: bytes}`` of every cube CSV under a run dir."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*.csv"))
        if ".committed" not in path.parts
    }


def _identity(path):
    status = path.stat()
    return status.st_ino, status.st_mtime_ns


class TestUpdateReadBudget:
    """``exl update`` reads the baseline by demand: inputs and recomputed
    cubes are compared by digest (``baseline.json`` records them), a
    baseline CSV is opened only when a recomputed statement reads it as
    an operand, and only files with new bytes are written."""

    def test_fully_affected_update_opens_no_baseline_cube(
        self, project_dir, capsys, record_opens
    ):
        project = str(project_dir / "project.json")
        out = project_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        _write_series(project_dir / "s.csv", [1.0, 2.0, 10.0, 4.0])
        opened = record_opens(project_dir)
        assert main(["update", project, "--out", str(out)]) == 0
        assert _reads(opened) == {
            "project.json",
            "program.exl",
            "s.csv",
            "results/baseline/baseline.json",
        }
        assert not (out / "baseline" / "columnar").exists()
        fresh = project_dir / "fresh"
        assert main(["run", project, "--out", str(fresh)]) == 0
        assert _cube_files(out) == _cube_files(fresh)

    def test_unaffected_cubes_are_left_alone(
        self, two_input_dir, capsys, record_opens, monkeypatch
    ):
        import repro.engine.baseline as baseline_store

        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        untouched = [
            out / "U.csv", out / "V.csv", out / "baseline" / "U.csv",
            out / "baseline" / "V.csv", out / "baseline" / "X.csv",
        ]
        before = {path: _identity(path) for path in untouched}
        _write_series(two_input_dir / "y.csv", [10.0, 20.0, 35.0, 40.0])
        parsed = []
        real_parse = baseline_store.cube_from_canonical_bytes

        def counting_parse(schema, data, digest):
            parsed.append(schema.name)
            return real_parse(schema, data, digest)

        monkeypatch.setattr(
            baseline_store, "cube_from_canonical_bytes", counting_parse
        )
        opened = record_opens(two_input_dir)
        assert main(["update", project, "--out", str(out)]) == 0
        out_text = capsys.readouterr().out
        assert "affected=2 cubes" in out_text  # W and Z
        # U is an operand of Z: read once, as bytes, and parsed once;
        # V, X and the affected W and Z are never opened
        assert _reads(opened) == {
            "project.json", "program.exl", "x.csv", "y.csv",
            "results/baseline/baseline.json", "results/baseline/U.csv",
        }
        assert opened["results/baseline/U.csv"] == ["rb"]
        assert parsed == ["U"]
        assert {path: _identity(path) for path in untouched} == before
        fresh = two_input_dir / "fresh"
        assert main(["run", project, "--out", str(fresh)]) == 0
        assert _cube_files(out) == _cube_files(fresh)
        index = json.loads((out / "baseline" / "baseline.json").read_text())
        assert set(index["cubes"]) == set(index["sha256"]) == set("XYUVWZ")

    def test_noop_update_writes_no_cube_file(self, two_input_dir, capsys):
        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        before = {path: _identity(path) for path in out.rglob("*.csv")}
        assert main(["update", project, "--out", str(out)]) == 0
        assert "affected=0 cubes" in capsys.readouterr().out
        assert {path: _identity(path) for path in out.rglob("*.csv")} == before

    def test_unchanged_recompute_short_circuits_downstream(
        self, tmp_path, capsys, record_opens
    ):
        # K := Y * 0 is recomputed but comes out byte-identical, so L
        # (its only consumer besides N) replays clean without being
        # opened; N also reads the revised Y, so it runs and parses L —
        # an affected cube — back from the baseline, once
        _write_series(tmp_path / "x.csv", [1.0, 2.0, 3.0, 4.0])
        _write_series(tmp_path / "y.csv", [10.0, 20.0, 30.0, 40.0])
        spec = {
            "elementary": [
                {"name": name, "dimensions": [["q", "time:Q"]],
                 "measure": "v", "csv": f"{name.lower()}.csv"}
                for name in ("X", "Y")
            ],
            "program": "K := Y * 0\nL := K + X\nN := L + Y",
            "preferred_targets": {"K": "sql", "L": "r", "N": "etl"},
        }
        (tmp_path / "project.json").write_text(json.dumps(spec))
        project = str(tmp_path / "project.json")
        out = tmp_path / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        kept = {
            path: _identity(path)
            for path in (out / "L.csv", out / "baseline" / "L.csv")
        }
        _write_series(tmp_path / "y.csv", [10.0, 20.0, 35.0, 40.0])
        capsys.readouterr()
        opened = record_opens(tmp_path)
        assert main(["update", project, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "[r] L: 0 tuples in 0.000s [clean" in summary
        assert _reads(opened) == {
            "project.json", "x.csv", "y.csv",
            "results/baseline/baseline.json", "results/baseline/L.csv",
        }
        assert {path: _identity(path) for path in kept} == kept
        fresh = tmp_path / "fresh"
        assert main(["run", project, "--out", str(fresh)]) == 0
        assert _cube_files(out) == _cube_files(fresh)


class TestUpdateDamagedBaseline:
    """A missing or torn baseline CSV never tracebacks and never yields
    a stale answer: an affected cube's file is not opened at all, a
    needed operand's is a counted, reported fallback to recomputing."""

    def _revise_and_update(self, directory, capsys):
        _write_series(directory / "y.csv", [10.0, 20.0, 35.0, 40.0])
        capsys.readouterr()
        code = main(
            ["update", str(directory / "project.json"),
             "--out", str(directory / "results")]
        )
        return code, capsys.readouterr().err

    def _matches_fresh_run(self, directory):
        fresh = directory / "fresh"
        assert main(
            ["run", str(directory / "project.json"), "--out", str(fresh)]
        ) == 0
        return _cube_files(directory / "results") == _cube_files(fresh)

    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_affected_cube(self, two_input_dir, capsys, damage):
        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        victim = out / "baseline" / "W.csv"
        victim.unlink() if damage == "missing" else victim.write_text("q,")
        code, err = self._revise_and_update(two_input_dir, capsys)
        assert code == 0 and "unusable" not in err
        assert self._matches_fresh_run(two_input_dir)

    @pytest.mark.parametrize(
        "damage, why",
        [("missing", "missing"), ("torn", "digest-mismatch")],
    )
    def test_needed_operand(self, two_input_dir, capsys, damage, why):
        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        victim = out / "baseline" / "U.csv"
        victim.unlink() if damage == "missing" else victim.write_text("q,")
        code, err = self._revise_and_update(two_input_dir, capsys)
        assert code == 0
        assert f"baseline cube {victim} unusable ({why}): recomputing U" in err
        assert "Traceback" not in err
        assert self._matches_fresh_run(two_input_dir)

    def test_fallback_is_counted(self, two_input_dir, capsys):
        from repro.cli import _build_engine
        from repro.engine.baseline import admit_for_update

        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        (out / "baseline" / "U.csv").unlink()
        _write_series(two_input_dir / "y.csv", [10.0, 20.0, 35.0, 40.0])
        engine = _build_engine(load_project(project))
        state = json.loads((out / "baseline" / "baseline.json").read_text())
        dirty, fallbacks = admit_for_update(engine, state, out / "baseline")
        # U joins the dirty set, so V — downstream of it — is recomputed too
        assert dirty == ["Y", "U"]
        assert fallbacks == [("U", out / "baseline" / "U.csv", "missing")]
        assert engine.metrics.value(
            "update.baseline.fallback.reason:missing"
        ) == 1

    def test_index_without_digests_recomputes_everything(
        self, two_input_dir, capsys
    ):
        # a run directory written before digests were recorded
        project = str(two_input_dir / "project.json")
        out = two_input_dir / "results"
        assert main(["run", project, "--out", str(out)]) == 0
        index = out / "baseline" / "baseline.json"
        state = json.loads(index.read_text())
        del state["sha256"]
        index.write_text(json.dumps(state))
        (out / "baseline" / "olap").mkdir()
        (out / "baseline" / "olap" / "X.json").write_text("{}")
        capsys.readouterr()
        assert main(["update", project, "--out", str(out)]) == 0
        assert "affected=4 cubes" in capsys.readouterr().out
        assert set(json.loads(index.read_text())["sha256"]) == set("XYUVWZ")
        assert not (out / "baseline" / "olap").exists()

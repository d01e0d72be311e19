"""Import budgets: each ``exl`` subcommand loads the layers it runs.

One child process per case calls ``repro.cli.main(argv)`` and dumps
``sys.modules``; the assertions are on module *sets*, never on wall
time (``TestQueryReadBudget`` in ``test_io_cli.py`` gates file opens the
same way).  A failure here means an import crept back onto a path that
does not execute it — see DESIGN.md, "Start-up and the import graph".
"""

import json

import pytest

from repro.cli import main

CHILD = """
import json, sys
import repro.cli
try:
    code = repro.cli.main(sys.argv[2:])
except SystemExit as exit:
    code = exit.code
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

#: everything ``exl query`` may load: the CLI, the model, the OLAP layer,
#: the one pure-Python aggregate module, the run directory's index
#: reader, and the group-reduce module the lattice folds its bags with —
#: no language, no mapping layer, no columnar store, no numpy
QUERY_PACKAGES = ("model", "olap")
QUERY_MODULES = {
    "repro",
    "repro._lazy",
    "repro.cli",
    "repro.errors",
    "repro.stats",
    "repro.stats.aggregates",
    "repro.chase",
    "repro.chase.groupreduce",
    "repro.engine",
    "repro.engine.baseline",
}
QUERY_MODULE_LIMIT = 20
#: what the compile fallback adds: the language and the operator
#: library under it (numpy with it)
FALLBACK_PACKAGES = ("exl", "stats")

#: an in-process engine on the library defaults, run twice on the chase
ENGINE_CHILD = """
import json, sys
from repro.engine import EXLEngine
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, quarter

schema = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
engine = EXLEngine()
engine.declare_elementary(schema)
engine.add_program("A := S * 2\\nB := cumsum(A)", {"A": "chase", "B": "chase"})
engine.load(Cube.from_series(schema, quarter(2020, 1), [1.0, 2.0, 3.0, 4.0]))
records = [engine.run(), engine.run()]
with open(sys.argv[1], "w") as handle:
    json.dump({
        "targets": sorted({s.executed_target for r in records for s in r.subgraphs}),
        "complete": all(r.complete for r in records),
        "modules": sorted(sys.modules),
    }, handle)
"""

TARGET_ENGINES = ("sqlengine", "etl", "frames", "matrixengine", "rscript", "mscript")


@pytest.fixture
def loaded_by(fresh_python, tmp_path):
    """``loaded_by(argv)``: ``sys.modules`` of a fresh interpreter after
    ``main(argv)`` returned 0."""
    dump = tmp_path / "modules.json"

    def run(argv):
        child = fresh_python("-c", CHILD, str(dump), *argv)
        assert child.returncode == 0, child.stderr
        report = json.loads(dump.read_text())
        assert report["code"] == 0, child.stderr
        return set(report["modules"])

    return run


def repro_modules(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def under(modules, *packages):
    """The loaded modules at or below ``repro.<package>``."""
    return {
        m for m in modules for p in packages
        if m == f"repro.{p}" or m.startswith(f"repro.{p}.")
    }


def write_project(directory, target):
    (directory / "s.csv").write_text(
        "q,v\n2020Q1,1.0\n2020Q2,2.0\n2020Q3,3.0\n2020Q4,4.0\n"
    )
    spec = {
        "elementary": [
            {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": "s.csv"}
        ],
        "program": "A := S * 2\nB := cumsum(A)",
        "outputs": ["B"],
        "preferred_targets": {"A": target, "B": target},
    }
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


@pytest.fixture
def chase_project(tmp_path):
    return write_project(tmp_path, "chase")


def write_panel_project(directory):
    """Two dimensions, so every query kind — cross-tab included — has
    something to ask; ``T`` is derived on the chase."""
    rows = [
        f"2020Q{q},{r},{float(q * 10 + i)}"
        for q in range(1, 5) for i, r in enumerate(("north", "south", "west"))
    ]
    (directory / "p.csv").write_text("q,r,v\n" + "\n".join(rows) + "\n")
    (directory / "program.exl").write_text("T := P * 2\n")
    spec = {
        "elementary": [
            {"name": "P", "dimensions": [["q", "time:Q"], ["r", "string"]],
             "measure": "v", "csv": "p.csv"}
        ],
        "program": "program.exl",
        "preferred_targets": {"T": "chase"},
        "groupings": {"T": {"r": {"zone": {"north": "N", "south": "S", "west": "S"}}}},
    }
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


QUERY_KINDS = {
    "describe": [],
    "point": ["--point", "q=2020Q3,r=south"],
    "rollup": ["--levels", "q=year,r=zone"],
    "slice": ["--levels", "r=zone", "--slice", "r=S"],
    "dice": ["--dice", "q=2020Q1|2020Q4"],
    "drilldown": ["--levels", "q=year,r=zone", "--drilldown", "q"],
    "crosstab": ["--crosstab", "q,r", "--levels", "q=year"],
}


def assert_query_budget(modules):
    """Only the allowlisted modules, at most the cap, and no numpy."""
    loaded = repro_modules(modules)
    stray = loaded - QUERY_MODULES - under(loaded, *QUERY_PACKAGES)
    assert not stray, sorted(stray)
    assert len(loaded) <= QUERY_MODULE_LIMIT, sorted(loaded)
    assert "numpy" not in modules


class TestQueryBudget:
    @pytest.mark.parametrize(
        "query",
        [
            ["--levels", "q=year"],
            ["--point", "q=2020Q3"],
            ["--agg", "avg", "--levels", "q=year"],
        ],
        ids=["rollup", "point", "avg"],
    )
    def test_query_loads_no_engine_machinery(
        self, chase_project, tmp_path, loaded_by, query
    ):
        out = str(tmp_path / "out")
        assert main(["run", chase_project, "--out", out]) == 0
        modules = loaded_by(["query", chase_project, "B", "--out", out, *query])
        assert_query_budget(modules)
        assert "multiprocessing" not in modules
        assert "concurrent.futures" not in modules

    @pytest.mark.parametrize("agg", ["sum", "avg", "median"])
    @pytest.mark.parametrize("kind", sorted(QUERY_KINDS))
    def test_no_query_kind_loads_numpy_or_the_compiler(
        self, tmp_path, loaded_by, kind, agg
    ):
        project = write_panel_project(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", project, "--out", out]) == 0
        modules = loaded_by(
            ["query", project, "T", "--out", out, "--agg", agg, *QUERY_KINDS[kind]]
        )
        assert_query_budget(modules)


class TestQueryCompileFallback:
    """An index without ``schemas``, or a program edited since the run,
    is answered by compiling — the parent's path, the parent's answer."""

    QUERY = ["--levels", "q=year,r=zone"]

    def _answer(self, fresh_python, project, out):
        child = fresh_python(
            "-m", "repro", "query", project, "T", "--out", out, *self.QUERY
        )
        assert child.returncode == 0, child.stderr
        return child.stdout

    def _ran(self, tmp_path):
        project = write_panel_project(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", project, "--out", out]) == 0
        return project, out

    def test_index_without_schemas(self, tmp_path, loaded_by, fresh_python):
        project, out = self._ran(tmp_path)
        from_index = self._answer(fresh_python, project, out)
        index = tmp_path / "out" / "baseline" / "baseline.json"
        state = json.loads(index.read_text())
        del state["schemas"], state["program_sha256"]
        index.write_text(json.dumps(state, indent=2))
        modules = loaded_by(["query", project, "T", "--out", out, *self.QUERY])
        assert "repro.exl.program" in modules
        stray = repro_modules(modules) - QUERY_MODULES - under(
            modules, *QUERY_PACKAGES, *FALLBACK_PACKAGES
        )
        assert not stray, sorted(stray)
        assert self._answer(fresh_python, project, out) == from_index

    def test_program_edited_after_the_run(self, tmp_path, loaded_by, fresh_python):
        project, out = self._ran(tmp_path)
        from_index = self._answer(fresh_python, project, out)
        with open(tmp_path / "program.exl", "a") as handle:
            handle.write("U := T + 1\n")
        modules = loaded_by(["query", project, "T", "--out", out, *self.QUERY])
        assert "repro.exl.program" in modules
        assert self._answer(fresh_python, project, out) == from_index
        # the statement the index has never heard of is catalogued too
        child = fresh_python("-m", "repro", "query", project, "U", "--out", out)
        assert child.returncode == 2 and "has no data" in child.stderr


class TestRunBudget:
    def test_chase_run_and_update_load_no_target_engine(
        self, chase_project, tmp_path, loaded_by
    ):
        out = str(tmp_path / "out")
        for command in ("run", "update"):
            modules = loaded_by([command, chase_project, "--out", out])
            forbidden = under(modules, *TARGET_ENGINES) | under(
                modules,
                *(f"backends.{m}" for m in (
                    "sql", "rlang", "matlab", "etlbackend", "ir", "ircompile",
                )),
                "chase.shard",
            )
            assert not forbidden, (command, sorted(forbidden))
            assert "multiprocessing" not in modules, command

    @pytest.mark.parametrize("target", ["chase", "sql"])
    def test_plain_run_and_update_load_no_cold_module(
        self, tmp_path, loaded_by, target
    ):
        # the cost model serves --adaptive only; nothing dispatches on a
        # thread pool (subgraphs run in plan order, a chase walks its
        # tgds in statement order)
        project = write_project(tmp_path, target)
        out = str(tmp_path / "out")
        for command in ("run", "update"):
            modules = loaded_by([command, project, "--out", out])
            cold = modules & {"repro.engine.costmodel", "concurrent.futures"}
            assert not cold, (command, sorted(cold))
            # an update that has something to recompute
            (tmp_path / "s.csv").write_text("q,v\n2020Q1,1.0\n2020Q2,2.5\n")
        assert "repro.engine.costmodel" in loaded_by(
            ["run", project, "--out", out, "--adaptive"]
        )

    def test_library_engine_run_loads_no_executor_pool(
        self, fresh_python, tmp_path
    ):
        # a default EXLEngine() dispatches on one thread and its chase
        # walks statement order: no pool, no schedule, no memo to build
        dump = tmp_path / "modules.json"
        child = fresh_python("-c", ENGINE_CHILD, str(dump))
        assert child.returncode == 0, child.stderr
        report = json.loads(dump.read_text())
        assert report["complete"] and report["targets"] == ["chase"]
        assert "concurrent.futures" not in report["modules"]

    def test_chase_run_does_not_import_numpy_ma(self, tmp_path, loaded_by):
        # numpy.unique imports numpy.ma (14 modules) on first use; the
        # kernels find distinct codes by chase.groupreduce.distinct
        project = write_panel_project(tmp_path)
        (tmp_path / "program.exl").write_text(
            "T := P * 2\nY := sum(T, group by year(q) as y, r)\n"
        )
        spec = json.loads((tmp_path / "project.json").read_text())
        spec["preferred_targets"]["Y"] = "chase"
        (tmp_path / "project.json").write_text(json.dumps(spec))
        modules = loaded_by(["run", project, "--out", str(tmp_path / "out")])
        assert "numpy" in modules and "repro.chase.columnar" in modules
        assert "numpy.ma" not in modules

    def test_every_target_run_loads_the_script_interpreters(
        self, tmp_path, loaded_by
    ):
        # r and matlab interpret the text they render
        project = write_project(tmp_path, "chase")
        spec = json.loads((tmp_path / "project.json").read_text())
        spec["program"] = "A := S * 2\nB := A + 1\nC := B * 3\nD := C - 1\nE := D + S"
        targets = ("sql", "r", "matlab", "etl", "chase")
        spec["preferred_targets"] = dict(zip("ABCDE", targets))
        (tmp_path / "project.json").write_text(json.dumps(spec))
        out = str(tmp_path / "out")
        for command in ("run", "update"):
            modules = loaded_by([command, project, "--out", out])
            assert {"repro.rscript", "repro.mscript"} <= modules, command
            (tmp_path / "s.csv").write_text("q,v\n2020Q1,1.0\n2020Q2,2.5\n")

    def test_sql_run_loads_the_sql_engine_alone(self, tmp_path, loaded_by):
        project = write_project(tmp_path, "sql")
        modules = loaded_by(["run", project, "--out", str(tmp_path / "out")])
        assert "repro.sqlengine" in modules
        others = under(modules, *(e for e in TARGET_ENGINES if e != "sqlengine"))
        assert not others, sorted(others)


class TestTextBudget:
    """``show`` and ``compile`` print text: the operator table they
    compile against names the array kernels of ``repro.stats`` without
    loading numpy, and ``compile`` builds the one target it was asked
    for."""

    @pytest.mark.parametrize(
        "command, flags",
        [("show", [])] + [("compile", ["--target", t]) for t in ("sql", "r", "etl")],
        ids=["show", "sql", "r", "etl"],
    )
    def test_no_numpy(self, chase_project, loaded_by, command, flags):
        modules = loaded_by([command, chase_project, *flags])
        assert "numpy" not in modules
        assert "repro.stats.smoothing" in modules
        assert not under(modules, "matrixengine", "chase.columnar")

    @pytest.mark.parametrize(
        "command, flags",
        [("show", [])] + [("compile", ["--target", t]) for t in ("r", "matlab")],
        ids=["show", "r", "matlab"],
    )
    def test_printing_a_script_loads_no_interpreter(
        self, chase_project, loaded_by, command, flags
    ):
        modules = loaded_by([command, chase_project, *flags])
        assert not under(modules, "rscript", "mscript")

    def test_compile_loads_the_asked_target_alone(self, chase_project, loaded_by):
        modules = loaded_by(["compile", chase_project, "--target", "sql"])
        assert "repro.backends.sql" in modules
        others = under(modules, *(e for e in TARGET_ENGINES if e != "sqlengine"))
        assert not others, sorted(others)


class TestNoWorkBudget:
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_load_no_layer(self, loaded_by, flag):
        modules = loaded_by([flag])
        assert "numpy" not in modules
        assert repro_modules(modules) <= {
            "repro", "repro._lazy", "repro.cli", "repro.errors"
        }

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

#: everything ``exl query`` may load: the CLI, the model, the language
#: (for the derived schemas), the OLAP layer, and the columnar store
#: under it — no engine, no backend, no chase executor, no persistence
QUERY_PACKAGES = ("model", "exl", "stats", "obs", "olap")
QUERY_MODULES = {
    "repro",
    "repro._lazy",
    "repro.cli",
    "repro.errors",
    "repro.mappings",
    "repro.mappings.dependencies",
    "repro.mappings.terms",
    "repro.mappings.mapping",
    "repro.chase",
    "repro.chase.colstore",
    "repro.chase.columnar",
    "repro.chase.instance",
    "repro.chase.groupreduce",
}
QUERY_MODULE_LIMIT = 43

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
        loaded = repro_modules(modules)
        stray = loaded - QUERY_MODULES - under(loaded, *QUERY_PACKAGES)
        assert not stray, sorted(stray)
        assert len(loaded) <= QUERY_MODULE_LIMIT, sorted(loaded)
        assert "multiprocessing" not in modules
        assert "concurrent.futures" not in modules


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
                    "sql", "rlang", "matlab", "etlbackend",
                    "ir", "ircompile", "irexec",
                )),
                "chase.shard",
            )
            assert not forbidden, (command, sorted(forbidden))
            assert "multiprocessing" not in modules, command

    def test_sql_run_loads_the_sql_engine_alone(self, tmp_path, loaded_by):
        project = write_project(tmp_path, "sql")
        modules = loaded_by(["run", project, "--out", str(tmp_path / "out")])
        assert "repro.sqlengine" in modules
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

"""The process entry ``repro.__main__:run`` (DESIGN.md, "Process
lifecycle"): what it adds around ``cli.main`` — a higher collector
threshold, one-thread native pools, ``os._exit`` after a clean return —
and what must not depend on the teardown it skips: exit codes, complete output through a pipe, a
quiet exit when the reader goes away, and a run directory byte for byte
the one an in-process ``cli.main`` followed by an ordinary exit leaves.
"""

import gc
import json
import os
import subprocess
import sys
import threading

import pytest

import repro.__main__ as entry
from repro import cli

DEFAULT_THRESHOLD = gc.get_threshold()

#: ``cli.main`` + the ordinary interpreter exit, in a child
ORDINARY = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"


# -- run(), in process ---------------------------------------------------------


class Exited(Exception):
    """Stands in for the process ending through ``os._exit``."""


@pytest.fixture
def hard_exit(monkeypatch):
    """``os._exit`` raises :class:`Exited` with the code; the collector
    threshold and the native-pool variables are put back afterwards."""

    def fake(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", fake)
    for name in entry.NATIVE_POOL_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    yield
    gc.set_threshold(*DEFAULT_THRESHOLD)


def _main_returning(monkeypatch, outcome):
    def main(argv=None):
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "main", main)


class TestRun:
    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
    def test_an_integer_return_leaves_through_os_exit(
        self, monkeypatch, hard_exit, code
    ):
        _main_returning(monkeypatch, code)
        with pytest.raises(Exited) as exited:
            entry.run([])
        assert exited.value.args == (code,)

    @pytest.mark.parametrize("raised, code", [(0, 0), (2, 2), (None, 0)])
    def test_argparse_system_exit_keeps_its_code(
        self, monkeypatch, hard_exit, raised, code
    ):
        _main_returning(monkeypatch, SystemExit(raised))
        with pytest.raises(Exited) as exited:
            entry.run([])
        assert exited.value.args == (code,)

    def test_a_message_exit_takes_the_ordinary_path(self, monkeypatch, hard_exit):
        _main_returning(monkeypatch, SystemExit("no such thing"))
        with pytest.raises(SystemExit) as exited:
            entry.run([])
        assert exited.value.code == "no such thing"

    def test_an_exception_propagates(self, monkeypatch, hard_exit):
        _main_returning(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            entry.run([])

    def test_a_live_thread_falls_back_to_sys_exit(self, monkeypatch, hard_exit):
        _main_returning(monkeypatch, 3)
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(30,))
        worker.start()
        try:
            with pytest.raises(SystemExit) as exited:
                entry.run([])
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert exited.value.code == 3

    def test_a_failing_flush_falls_back_to_sys_exit(self, monkeypatch, hard_exit):
        _main_returning(monkeypatch, 0)

        class Unflushable:
            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Unflushable())
        with pytest.raises(SystemExit) as exited:
            entry.run([])
        assert exited.value.code == 0

    def test_run_raises_the_threshold_and_leaves_the_collector_on(
        self, monkeypatch, hard_exit
    ):
        _main_returning(monkeypatch, 0)
        with pytest.raises(Exited):
            entry.run([])
        assert gc.isenabled()
        assert gc.get_threshold() == (entry.GC_THRESHOLD, *DEFAULT_THRESHOLD[1:])

    def test_importing_and_calling_main_leave_the_threshold_alone(self, capsys):
        # this process imported repro, repro.cli and repro.__main__ long ago
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        capsys.readouterr()
        assert gc.isenabled() and gc.get_threshold() == DEFAULT_THRESHOLD

    def test_run_pins_the_native_pools_it_was_not_told_about(
        self, monkeypatch, hard_exit
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        _main_returning(monkeypatch, 0)
        with pytest.raises(Exited):
            entry.run([])
        pinned = {name: os.environ[name] for name in entry.NATIVE_POOL_VARIABLES}
        assert pinned == {
            "OPENBLAS_NUM_THREADS": "2",  # exported: the user's value wins
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def test_calling_main_in_process_changes_no_environment_variable(
        self, tmp_path, capsys
    ):
        project = write_chase_project(tmp_path)
        before = dict(os.environ)
        assert cli.main(["run", project, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert dict(os.environ) == before


# -- the real process ----------------------------------------------------------


def write_project(directory, statements=3):
    """``A1 := S * 2`` on sql, the rest a chain on the chase: two
    subgraphs, so a fault on one target leaves the other to commit."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "s.csv").write_text("m,v\n2020M01,10.0\n2020M02,12.0\n2020M03,11.0\n")
    lines = ["A1 := S * 2"] + [
        f"A{i} := A{i - 1} + 1" for i in range(2, statements + 1)
    ]
    names = [f"A{i}" for i in range(1, statements + 1)]
    spec = {
        "elementary": [
            {"name": "S", "dimensions": [["m", "time:M"]], "measure": "v",
             "csv": "s.csv"}
        ],
        "program": "\n".join(lines),
        "outputs": [names[-1]],
        "preferred_targets": {n: ("sql" if n == "A1" else "chase") for n in names},
    }
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


def write_chase_project(directory):
    """A panel doubled and summed by year on the chase: the run loads
    numpy and goes through a tuple-level and an aggregation kernel."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = [
        f"{2019 + q // 4}Q{q % 4 + 1},{r},{float(q * 10 + i)}"
        for q in range(8) for i, r in enumerate(("north", "south", "west"))
    ]
    (directory / "p.csv").write_text("q,r,v\n" + "\n".join(rows) + "\n")
    spec = {
        "elementary": [
            {"name": "P", "dimensions": [["q", "time:Q"], ["r", "string"]],
             "measure": "v", "csv": "p.csv"}
        ],
        "program": "T := P * 2\nY := sum(T, group by year(q) as y, r)",
        "preferred_targets": {"T": "chase", "Y": "chase"},
    }
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


#: ``repro.__main__.run(argv)`` in a child that, where the process would
#: end, first reports on itself: native threads, the pool variables
REPORTING = """
import json, os, sys
import repro.__main__ as entry

leave = os._exit

def report(code):
    with open(sys.argv[1], "w") as handle:
        json.dump({
            "code": code,
            "threads": len(os.listdir("/proc/self/task")),
            "numpy": "numpy" in sys.modules,
            "env": {n: os.environ.get(n) for n in entry.NATIVE_POOL_VARIABLES},
        }, handle)
    leave(code)

os._exit = report
entry.run(sys.argv[2:])
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts /proc/self/task"
)
class TestNativeThreads:
    """DESIGN.md, "Native thread pools": a one-shot process starts no
    BLAS worker pool, and never overrides a value the user exported."""

    @pytest.fixture
    def reported(self, tmp_path, child_env):
        def run(argv, **exported):
            env = {
                name: value for name, value in child_env.items()
                if name not in entry.NATIVE_POOL_VARIABLES
            }
            env.update(exported)
            dump = tmp_path / "report.json"
            child = subprocess.run(
                [sys.executable, "-c", REPORTING, str(dump), *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            return {**json.loads(dump.read_text()), "stdout": child.stdout}

        return run

    @pytest.mark.skipif(os.cpu_count() == 1, reason="one core: no pool to start")
    @pytest.mark.parametrize("command", ["run", "update"])
    def test_a_chase_run_ends_with_one_native_thread(
        self, tmp_path, reported, command
    ):
        project = write_chase_project(tmp_path)
        report = reported([command, project, "--out", str(tmp_path / "out")])
        assert report["code"] == 0 and report["numpy"]
        assert report["threads"] == 1
        assert set(report["env"].values()) == {"1"}

    def test_an_exported_value_is_never_overwritten(self, tmp_path, reported):
        project = write_chase_project(tmp_path)
        report = reported(
            ["run", project, "--out", str(tmp_path / "out")],
            OPENBLAS_NUM_THREADS="2",
        )
        assert report["env"]["OPENBLAS_NUM_THREADS"] == "2"
        assert report["env"]["OMP_NUM_THREADS"] == "1"

    def test_importing_the_package_sets_nothing(self, fresh_python):
        child = fresh_python(
            "-c",
            "import os\n"
            "before = dict(os.environ)\n"
            "import repro, repro.cli, repro.__main__\n"
            "from repro import EXLEngine\n"
            "assert dict(os.environ) == before\n",
        )
        assert child.returncode == 0, child.stderr

    def test_sharded_workers_write_the_same_bytes(self, tmp_path, reported):
        texts = {}
        for side, flags in (("serial", []), ("sharded", ["--shards", "2"])):
            project = write_chase_project(tmp_path / side)
            out = tmp_path / side / "out"
            report = reported(["run", project, "--out", str(out), *flags])
            assert report["code"] == 0
            assert ("sharded chase: 2 shards" in report["stdout"]) == bool(flags)
            texts[side] = {
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*.csv"))
            }
        assert {"T.csv", "Y.csv"} <= set(texts["serial"])
        assert texts["sharded"] == texts["serial"]


class TestExitCodes:
    def test_codes_zero_to_four_and_argparse_two(self, tmp_path, fresh_python):
        project = write_project(tmp_path)
        out = str(tmp_path / "out")

        def code(*argv):
            return fresh_python("-m", "repro", *argv).returncode

        assert code("--version") == 0
        assert code("frobnicate") == 2  # argparse
        assert code("resume", project, "--out", out) == 2  # nothing to resume
        assert code("run", str(tmp_path / "absent.json")) == 1
        assert code(
            "run", project, "--out", out,
            "--on-error", "continue", "--inject-faults", "sql:permanent",
        ) == 3
        assert code("resume", project, "--out", out) == 0
        (tmp_path / "out" / "baseline" / "baseline.json").write_text("{")
        assert code("update", project, "--out", out) == 4

    def test_an_uncaught_exception_prints_its_traceback(self, fresh_python):
        child = fresh_python(
            "-c",
            "import repro.cli, repro.__main__\n"
            "def main(argv=None): raise RuntimeError('boom')\n"
            "repro.cli.main = main\n"
            "repro.__main__.run([])\n",
        )
        assert child.returncode == 1
        assert "Traceback" in child.stderr and "RuntimeError: boom" in child.stderr


def _normalised(value):
    """Timings differ between any two runs: every float becomes 0.0."""
    if isinstance(value, float):
        return 0.0
    if isinstance(value, dict):
        return {key: _normalised(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_normalised(item) for item in value]
    return value


def _tree(out):
    """``{relative path: content}`` of a run directory, with what no two
    runs share taken out: the journal's token, the timings inside JSON
    documents and journal headers (and the header checksum over them)."""
    tree = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        name = str(path.relative_to(out))
        raw = path.read_bytes()
        if path.suffix == ".wal":
            name, lines = "journal/RUN.wal", []
            for line in raw.split(b"\n"):
                if line.startswith(b'{"seq":'):
                    header = json.loads(line)
                    del header["sha256"]
                    lines.append(_normalised(header))
                else:
                    lines.append(line)
            tree[name] = lines
        elif path.suffix == ".json":
            try:
                tree[name] = _normalised(json.loads(raw))
            except ValueError:  # the corrupt index of the exit-4 case
                tree[name] = raw
        else:
            tree[name] = raw
    return tree


#: exit code -> (argv after the project, what to do to the directory first)
SCENARIOS = {
    0: (["run"], None),
    1: (["update", "--inject-faults", "*:permanent"], "revise"),
    2: (["update", "--against", "99"], None),
    3: (["run", "--on-error", "continue", "--inject-faults", "sql:permanent",
         "--state", "STATE"], None),
    4: (["update"], "corrupt"),
}


class TestRunDirectory:
    """Nothing may depend on finalisation: the directory ``python -m
    repro`` leaves is the one ``cli.main`` and an ordinary exit leave —
    including the journal an aborted update leaves behind, whose
    unflushed ``run-end`` the command now writes itself."""

    @pytest.mark.parametrize("code", sorted(SCENARIOS))
    def test_same_directory_as_an_ordinary_exit(self, tmp_path, fresh_python, code):
        (command, *flags), prepare = SCENARIOS[code]
        trees = {}
        for side, launcher in (("entry", ["-m", "repro"]), ("ordinary", ["-c", ORDINARY])):
            base = tmp_path / side
            project = write_project(base)
            out = base / "out"
            if prepare or code == 2:
                # in a child of its own: run ids count up per process
                ran = fresh_python("-c", ORDINARY, "run", project, "--out", str(out))
                assert ran.returncode == 0, ran.stderr
            if prepare == "revise":
                (base / "s.csv").write_text("m,v\n2020M01,10.0\n2020M02,13.5\n")
            if prepare == "corrupt":
                (out / "baseline" / "baseline.json").write_text('{"record": ')
            argv = [
                str(base / "run-state.json") if flag == "STATE" else flag
                for flag in flags
            ]
            child = fresh_python(*launcher, command, project, "--out", str(out), *argv)
            assert child.returncode == code, child.stderr
            trees[side] = (_tree(base), child.stdout.count("\n"))
        assert trees["entry"] == trees["ordinary"]

    def test_an_aborted_update_leaves_its_state_for_resume(
        self, tmp_path, fresh_python
    ):
        project = write_project(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", project, "--out", str(out)]) == 0
        (tmp_path / "s.csv").write_text("m,v\n2020M01,10.0\n2020M02,13.5\n")
        child = fresh_python(
            "-m", "repro", "update", project, "--out", str(out),
            "--inject-faults", "*:permanent",
        )
        assert child.returncode == 1
        # the durable state file supersedes the journal, like an aborted run's
        assert (out / "run-state.json").exists()
        assert not list(out.glob("journal/*.wal"))
        resumed = fresh_python("-m", "repro", "resume", project, "--out", str(out))
        assert resumed.returncode == 0, resumed.stderr
        assert not (out / "run-state.json").exists()


# -- through a pipe ------------------------------------------------------------


def write_wide_project(directory):
    """A 600-statement chain of long names over a 60 x 120 panel:
    ``show`` and a base-level roll-up of ``S`` each print several pipe
    buffers."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = [
        f"{1990 + m // 12}M{m % 12 + 1:02d},region{r:02d},{float(m * 60 + r)}"
        for m in range(120) for r in range(60)
    ]
    (directory / "s.csv").write_text("m,r,v\n" + "\n".join(rows) + "\n")
    name = "REVISED_SERIES_OF_THE_REGIONAL_PANEL_{}".format
    lines = [f"{name(1)} := S * 2"] + [
        f"{name(i)} := {name(i - 1)} + {i}" for i in range(2, 601)
    ]
    spec = {
        "elementary": [
            {"name": "S", "dimensions": [["m", "time:M"], ["r", "string"]],
             "measure": "v", "csv": "s.csv"}
        ],
        "program": "\n".join(lines),
    }
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


@pytest.fixture(scope="module")
def wide_project(tmp_path_factory):
    return write_wide_project(tmp_path_factory.mktemp("wide"))


@pytest.fixture
def piped(child_env):
    """``piped(argv)``: ``python -m repro *argv`` with both streams on
    pipes, not waited for."""

    def start(argv):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        )

    return start


class TestPipes:
    @pytest.mark.parametrize(
        "argv",
        [["show", "PROJECT"], ["query", "PROJECT", "S", "--rollup"]],
        ids=["show", "query"],
    )
    def test_output_larger_than_a_pipe_buffer_arrives_complete(
        self, wide_project, capsys, piped, argv
    ):
        argv = [wide_project if a == "PROJECT" else a for a in argv]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        assert len(expected) > 2 * 65536
        child = piped(argv)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.decode("utf-8") == expected

    def test_a_reader_that_leaves_gets_a_quiet_nonzero_exit(self, wide_project, piped):
        # exl show p.json | head -1
        child = piped(["show", wide_project])
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) != 0
        assert first.startswith(b"--")
        assert err == b""

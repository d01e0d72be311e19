"""Crash-safety suite: atomic writes, the write-ahead journal, and
seeded kill -9 recovery.

Three layers, bottom up:

- ``repro.chase.atomic``: tmp-write + rename atomicity and the stray
  tmp sweep;
- ``repro.engine.journal``: checksummed replay (torn tails dropped,
  never misread) and the ``recover`` algorithm (verify each commit by
  the content hash of the cube bytes its record carries, distrust the
  rest, synthesize a resumable ``run-state.json``);
- the end-to-end harness: ``exl run`` in a subprocess, SIGKILLed at
  seeded-random dispatch points via the ``kill`` fault kind, then
  ``exl recover`` + ``exl resume`` must converge to the uninterrupted
  run's outputs, byte for byte, across >= 20 seeds; and ``exl run`` /
  ``exl update`` SIGKILLed at each kind of boundary of the run
  directory's write protocol (DESIGN.md section 12).
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chase.atomic import TMP_SUFFIX, atomic_write, remove_stray_tmp
from repro.cli import main as cli_main
from repro.engine.journal import RunJournal, replay_journal
from repro.engine.rundir import RunDirectory
from repro.model import STRING, Cube, CubeSchema, Dimension
from repro.model.io import cube_to_csv_text


def _cube(name="A", values=(1.5, -2.0, 3.25)):
    schema = CubeSchema(name, [Dimension("r", STRING)], "v")
    cube = Cube(schema)
    for index, value in enumerate(values):
        cube.set((f"r{index}",), value)
    return cube


def _run_record(run_id=1, trigger=("S",), affected=("A", "B")):
    return SimpleNamespace(
        run_id=run_id, trigger=list(trigger), affected=list(affected)
    )


def _planned(cubes, target="chase"):
    return SimpleNamespace(
        subgraph=SimpleNamespace(cubes=tuple(cubes), target=target)
    )


def _sub_record(cubes, outcome="ok"):
    payload = {
        "cubes": list(cubes),
        "target": "chase",
        "duration_s": 0.01,
        "tuples_written": 3,
        "versions": {},
        "outcome": outcome,
        "attempts": 1,
        "error": None,
    }
    return SimpleNamespace(to_json=lambda: payload)


class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "f.txt"
        atomic_write(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write(path, b"\x00\x01\x02")
        assert path.read_bytes() == b"\x00\x01\x02"

    def test_overwrite_replaces_whole_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write(path, "a much longer first version\n")
        atomic_write(path, "v2\n")
        assert path.read_text() == "v2\n"

    def test_no_tmp_left_behind(self, tmp_path):
        atomic_write(tmp_path / "f.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_crlf_preserved_in_text_mode(self, tmp_path):
        # cube CSVs use \r\n terminators; text mode must not translate
        path = tmp_path / "f.csv"
        atomic_write(path, "a,b\r\n1,2\r\n")
        assert path.read_bytes() == b"a,b\r\n1,2\r\n"

    def test_stray_tmp_sweep(self, tmp_path):
        stray = tmp_path / "sub" / f".f.csv.123-0{TMP_SUFFIX}"
        stray.parent.mkdir()
        stray.write_text("torn")
        keep = tmp_path / "sub" / "f.csv"
        keep.write_text("good")
        removed = remove_stray_tmp(tmp_path)
        assert removed == [stray]
        assert not stray.exists() and keep.exists()


class TestJournalReplay:
    def _journal(self, tmp_path, n_commits=2):
        journal = RunJournal(tmp_path)
        journal.run_start(
            _run_record(), [_planned(("A",)), _planned(("B",))]
        )
        for index in range(n_commits):
            name = "AB"[index]
            journal.subgraph_dispatch((name,), "chase")
            journal.commit_subgraph(_sub_record((name,)), {name: _cube(name)})
        journal.close()
        return journal

    def test_clean_roundtrip(self, tmp_path):
        journal = self._journal(tmp_path)
        records, torn = replay_journal(journal.path)
        assert torn == 0
        assert [r["type"] for r in records] == [
            "run-start",
            "subgraph-dispatch",
            "staged-commit",
            "subgraph-dispatch",
            "staged-commit",
        ]
        assert [r["seq"] for r in records] == list(range(5))

    def test_torn_tail_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        with open(journal.path, "a") as handle:
            handle.write('{"seq": 5, "type": "trunca')
        records, torn = replay_journal(journal.path)
        assert len(records) == 5 and torn == 1

    def test_truncated_mid_record(self, tmp_path):
        journal = self._journal(tmp_path)
        blob = journal.path.read_bytes()
        journal.path.write_bytes(blob[:-10])
        records, torn = replay_journal(journal.path)
        assert len(records) == 4 and torn == 1

    def test_tampered_record_stops_replay(self, tmp_path):
        journal = self._journal(tmp_path)
        lines = journal.path.read_text().splitlines()
        record = json.loads(lines[1])
        record["payload"]["target"] = "forged"
        lines[1] = json.dumps(record)
        journal.path.write_text("\n".join(lines) + "\n")
        records, torn = replay_journal(journal.path)
        assert len(records) == 1  # everything after the forgery untrusted
        assert torn == 4

    def test_commit_record_carries_the_cube_bytes(self, tmp_path):
        journal = self._journal(tmp_path, n_commits=1)
        commit = replay_journal(journal.path)[0][-1]
        raw = cube_to_csv_text(_cube("A")).encode("utf-8")
        assert commit["frames"] == {"A": raw}
        assert commit["payload"]["files"] == {
            "A": {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}
        }
        # framed raw after the header line, not JSON-escaped into it
        assert raw in journal.path.read_bytes()
        assert not (tmp_path / ".committed").exists()

    def test_truncated_inside_cube_bytes(self, tmp_path):
        journal = self._journal(tmp_path)
        blob = journal.path.read_bytes()
        cut = blob.rindex(b"r1,")  # inside the last commit's frame
        journal.path.write_bytes(blob[:cut])
        records, torn = replay_journal(journal.path)
        assert [r["type"] for r in records][-1] == "subgraph-dispatch"
        assert len(records) == 4 and torn == 1
        report = RunDirectory(tmp_path).recover()
        assert report.committed == ["A"] and report.unfinished == ["B"]

    def test_cube_bytes_failing_their_digest(self, tmp_path):
        journal = self._journal(tmp_path)
        blob = journal.path.read_bytes()
        at = blob.index(b"r1,-2.0")  # inside the first commit's frame
        journal.path.write_bytes(blob[:at] + b"r1,-9.0" + blob[at + 7:])
        # the framing is intact, so replay reads on: the header vouches
        # for the lengths, only recovery weighs the bytes
        records, torn = replay_journal(journal.path)
        assert len(records) == 5 and torn == 0
        report = RunDirectory(tmp_path).recover()
        assert report.rolled_back == ["A"]
        assert report.committed == ["B"] and report.unfinished == ["A"]
        assert not (tmp_path / ".committed" / "A.csv").exists()
        state = json.loads((tmp_path / "run-state.json").read_text())
        assert state["committed"] == {"B": ".committed/B.csv"}

    def test_unflushed_intents_ride_on_the_next_commit(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        journal = self._journal(tmp_path)
        journal.run_end(1, None)
        journal.run_complete()
        journal.close()
        # run-start, two commits, run-complete; never a dispatch or run-end
        assert len(synced) == 4
        assert [r["type"] for r in replay_journal(journal.path)[0]] == [
            "run-start",
            "subgraph-dispatch", "staged-commit",
            "subgraph-dispatch", "staged-commit",
            "run-end", "run-complete",
        ]

    def test_missing_journal_is_empty(self, tmp_path):
        assert replay_journal(tmp_path / "nope.wal") == ([], 0)

    def test_discard_removes_file_and_dir(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.path.exists()
        journal.discard()
        assert not journal.path.exists()
        assert not journal.path.parent.exists()

    def test_no_artifact_before_first_append(self, tmp_path):
        RunJournal(tmp_path)
        assert not (tmp_path / "journal").exists()


class TestRecover:
    def test_clean_directory(self, tmp_path):
        report = RunDirectory(tmp_path).recover()
        assert report.status == "clean" and report.exit_code == 0

    def test_valid_state_without_journal_is_resumable(self, tmp_path):
        state = tmp_path / "run-state.json"
        state.write_text(json.dumps({"record": {"subgraphs": []}}))
        report = RunDirectory(tmp_path).recover()
        assert report.status == "resumable" and report.exit_code == 3
        assert report.state_path == state

    @pytest.mark.parametrize(
        "text",
        [
            '{"record": {"subgra',  # torn mid-write
            "{}",
            '{"record": 5}',
            '{"record": {"run_id": 1}}',
            json.dumps(
                {
                    "record": {"run_id": 1, "subgraphs": []},
                    "committed": {"A": ".committed/A.csv"},
                }
            ),
        ],
        ids=[
            "torn", "empty-object", "record-not-object", "no-subgraphs",
            "missing-snapshot",
        ],
    )
    def test_torn_state_without_journal_quarantined(self, tmp_path, text):
        """Whatever ``exl resume`` refuses, ``exl recover`` quarantines."""
        state = tmp_path / "run-state.json"
        state.write_text(text)
        report = RunDirectory(tmp_path).recover()
        assert report.status == "corrupt-state" and report.exit_code == 1
        assert not state.exists()
        assert report.quarantined.read_text() == text

    def test_run_complete_finishes_cleanup(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.run_start(_run_record(), [_planned(("A",))])
        journal.commit_subgraph(_sub_record(("A",)), {"A": _cube()})
        journal.run_complete()
        journal.close()
        # stale artifacts a crash-during-cleanup would leave behind
        (tmp_path / "run-state.json").write_text("{}")
        report = RunDirectory(tmp_path).recover()
        assert report.status == "complete" and report.exit_code == 0
        assert not (tmp_path / "run-state.json").exists()
        assert not (tmp_path / ".committed").exists()
        assert not (tmp_path / "journal").exists()

    def test_synthesizes_resumable_state(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.run_start(
            _run_record(affected=("A", "B")),
            [_planned(("A",)), _planned(("B",))],
        )
        journal.subgraph_dispatch(("A",), "chase")
        journal.commit_subgraph(_sub_record(("A",)), {"A": _cube("A")})
        journal.subgraph_dispatch(("B",), "chase")
        journal.close()  # killed before B committed

        report = RunDirectory(tmp_path).recover()
        assert report.status == "resumable" and report.exit_code == 3
        assert report.committed == ["A"] and report.unfinished == ["B"]
        state = json.loads((tmp_path / "run-state.json").read_text())
        outcomes = {
            tuple(s["cubes"]): s["outcome"]
            for s in state["record"]["subgraphs"]
        }
        assert outcomes == {("A",): "ok", ("B",): "failed"}
        assert state["committed"] == {"A": ".committed/A.csv"}
        # the snapshot resume reads is materialised here, from the record
        assert (tmp_path / ".committed" / "A.csv").read_bytes() == (
            cube_to_csv_text(_cube("A")).encode("utf-8")
        )
        # superseded by the state file, directory and all
        assert not (tmp_path / "journal").exists()

    def test_torn_commit_rolled_back(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.run_start(_run_record(), [_planned(("A",))])
        journal.commit_subgraph(_sub_record(("A",)), {"A": _cube("A")})
        journal.close()
        # simulate rot inside the record: bytes no longer match its digest
        blob = journal.path.read_bytes()
        journal.path.write_bytes(blob.replace(b"r0,1.5", b"r0,7.5"))
        report = RunDirectory(tmp_path).recover()
        assert report.rolled_back == ["A"]
        assert report.committed == [] and report.unfinished == ["A"]
        assert not (tmp_path / ".committed").exists()

    def test_commit_without_inline_bytes_is_not_trusted(self, tmp_path):
        # a journal an older version left: the record names a snapshot
        # file and its digest; the file may even verify, the record's
        # own bytes are the only evidence recovery takes
        snapshot = tmp_path / ".committed" / "A.csv"
        text = cube_to_csv_text(_cube("A"))
        atomic_write(snapshot, text)
        journal = RunJournal(tmp_path)
        journal.run_start(_run_record(), [_planned(("A",))])
        journal.append(
            "staged-commit",
            {
                "subgraph": _sub_record(("A",)).to_json(),
                "files": {
                    "A": {
                        "path": ".committed/A.csv",
                        "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    }
                },
            },
        )
        journal.close()
        report = RunDirectory(tmp_path).recover()
        assert report.status == "resumable"
        assert report.committed == [] and report.unfinished == ["A"]
        state = json.loads((tmp_path / "run-state.json").read_text())
        assert state["committed"] == {}

    def test_newest_journal_is_chosen_by_token_not_mtime(self, tmp_path):
        # a copied or restored run directory has arbitrary mtimes
        old = RunJournal(tmp_path, token="1000-1")
        old.run_start(_run_record(run_id=1), [_planned(("A",))])
        old.close()
        new = RunJournal(tmp_path, token="2000-1")
        new.run_start(_run_record(run_id=2), [_planned(("B",))])
        new.close()
        os.utime(new.path, ns=(10**9, 10**9))
        os.utime(old.path, ns=(3 * 10**9, 3 * 10**9))
        report = RunDirectory(tmp_path).recover()
        assert report.journal == new.path
        assert report.unfinished == ["B"]
        state = json.loads((tmp_path / "run-state.json").read_text())
        assert state["record"]["run_id"] == 2
        assert not (tmp_path / "journal").exists()

    def test_unparseable_journal_name_falls_back_to_mtime(self, tmp_path):
        named = RunJournal(tmp_path, token="restored")
        named.run_start(_run_record(run_id=7), [_planned(("A",))])
        named.close()
        os.utime(named.path, ns=(5000, 5000))
        stamped = RunJournal(tmp_path, token="4000-1")
        stamped.run_start(_run_record(run_id=8), [_planned(("B",))])
        stamped.close()
        assert RunDirectory(tmp_path).recover().journal == named.path

    def test_journal_without_records_leaves_no_directory(self, tmp_path):
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "1-1.wal").write_bytes(b'{"seq": 0, "type": "ru')
        report = RunDirectory(tmp_path).recover()
        assert report.status == "clean" and report.torn_records == 1
        assert not (tmp_path / "journal").exists()

    def test_resume_crash_keeps_prior_commits(self, tmp_path):
        # a crashed *resume* journals only its todo subgraphs; the
        # merge must keep what the first partial run already committed
        committed_dir = tmp_path / ".committed"
        committed_dir.mkdir()
        (committed_dir / "A.csv").write_text("r,v\r\nr0,1.0\r\n")
        prior = {
            "record": {
                "run_id": 1,
                "trigger": ["S"],
                "affected": ["A", "B"],
                "subgraphs": [
                    _sub_record(("A",)).to_json(),
                    _sub_record(("B",), outcome="failed").to_json(),
                ],
                "on_error": "continue",
                "error": "boom",
            },
            "committed": {"A": ".committed/A.csv"},
        }
        (tmp_path / "run-state.json").write_text(json.dumps(prior))
        journal = RunJournal(tmp_path)
        journal.run_start(
            _run_record(run_id=1, affected=("B",)), [_planned(("B",))]
        )
        journal.close()  # killed before B committed, again
        report = RunDirectory(tmp_path).recover()
        assert report.status == "resumable"
        state = json.loads((tmp_path / "run-state.json").read_text())
        outcomes = {
            tuple(s["cubes"]): s["outcome"]
            for s in state["record"]["subgraphs"]
        }
        assert outcomes == {("A",): "ok", ("B",): "failed"}
        assert state["committed"]["A"] == ".committed/A.csv"

    def test_stray_tmp_swept(self, tmp_path):
        (tmp_path / f".f.csv.9-0{TMP_SUFFIX}").write_text("torn")
        report = RunDirectory(tmp_path).recover()
        assert len(report.tmp_removed) == 1


@pytest.fixture
def crash_project(tmp_path):
    """Four chained subgraphs -> four seeded kill points per run."""
    (tmp_path / "e1.csv").write_text(
        "q,v\n"
        + "".join(
            f"20{20 + i // 4}Q{i % 4 + 1},{float(i + 1)}\n" for i in range(8)
        )
    )
    (tmp_path / "project.json").write_text(
        json.dumps(
            {
                "elementary": [
                    {
                        "name": "E1",
                        "dimensions": [["q", "time:Q"]],
                        "measure": "v",
                        "csv": "e1.csv",
                    }
                ],
                "program": (
                    "A := E1 * 2\nB := A + 1\nC := cumsum(E1)\nD := B + C"
                ),
                "outputs": ["A", "B", "C", "D"],
            }
        )
    )
    return tmp_path / "project.json"


def _run_subprocess(project, out_dir, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "run", str(project),
            "--out", str(out_dir), "--on-error", "continue",
            "--inject-faults", "*:kill:p=0.45",
            "--fault-seed", str(seed),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestKillMinusNineHarness:
    """SIGKILL at seeded-random dispatch points; recover + resume must
    reproduce the uninterrupted run's outputs exactly."""

    SEEDS = range(20)

    def test_recover_resume_converges(self, crash_project, tmp_path, capsys):
        project_dir = crash_project.parent
        reference = tmp_path / "reference"
        assert cli_main(
            ["run", str(crash_project), "--out", str(reference)]
        ) == 0
        expected = {
            name: (reference / f"{name}.csv").read_bytes()
            for name in "ABCD"
        }
        killed = 0
        for seed in self.SEEDS:
            out = tmp_path / f"crash-{seed}"
            proc = _run_subprocess(crash_project, out, seed)
            if proc.returncode != 0:
                assert proc.returncode == -signal.SIGKILL, (
                    f"seed {seed}: rc={proc.returncode}\n{proc.stderr}"
                )
                killed += 1
                code = cli_main(
                    ["recover", str(crash_project), "--out", str(out)]
                )
                assert code in (0, 3), f"seed {seed}: recover rc={code}"
                if code == 3:
                    assert cli_main(
                        ["resume", str(crash_project), "--out", str(out)]
                    ) == 0, f"seed {seed}: resume failed"
            for name, blob in expected.items():
                assert (out / f"{name}.csv").read_bytes() == blob, (
                    f"seed {seed}: {name}.csv diverged after recovery"
                )
            # every crash artifact consumed: the out dir is clean
            assert not (out / "run-state.json").exists(), f"seed {seed}"
            assert not (out / ".committed").exists(), f"seed {seed}"
            assert not (out / "journal").exists(), f"seed {seed}"
        # the harness is vacuous unless the kill actually lands often
        assert killed >= 5, f"only {killed}/20 seeds were killed"

    def test_recover_nonexistent_out_dir(self, crash_project, capsys):
        code = cli_main(
            ["recover", str(crash_project), "--out", "/nonexistent-xyz"]
        )
        assert code == 2


class TestCliJournalLifecycle:
    def test_successful_run_leaves_no_journal(self, crash_project, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", str(crash_project), "--out", str(out)]) == 0
        assert not (out / "journal").exists()
        assert not (out / "run-state.json").exists()
        assert not (out / ".committed").exists()

    def test_no_journal_flag(self, crash_project, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(crash_project), "--out", str(out), "--no-journal"]
        ) == 0
        assert not (out / "journal").exists()

    def test_partial_failure_discards_journal_keeps_state(
        self, crash_project, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", str(crash_project), "--out", str(out),
                "--on-error", "continue",
                "--inject-faults", "*:permanent:cubes=C",
            ]
        )
        assert code == 3
        assert (out / "run-state.json").exists()
        # the durable state file supersedes the journal
        assert list((out / "journal").glob("*.wal")) == []
        assert cli_main(
            ["resume", str(crash_project), "--out", str(out)]
        ) == 0
        assert not (out / "run-state.json").exists()


# -- SIGKILL inside ``exl update`` ---------------------------------------------

#: runs ``repro.cli.main(argv)`` and SIGKILLs itself at one boundary of
#: the write protocol:
#:
#: - ``before:<suffix>`` / ``after:<suffix>`` — around the rename
#:   (``os.replace``) onto the path ending with ``<suffix>``, whether it
#:   brings written bytes or a hard link;
#: - ``commit:<k>`` — once the k-th ``staged-commit`` record is flushed;
#: - ``barrier:<k>`` — once the run directory's k-th barrier returned;
#: - ``discard`` — inside the journal's removal, after ``run-complete``
#:   and the state clean-up.
#:
#: Nothing under ``src/`` knows: the entry points are wrapped from here.
KILLING_CHILD = """
import os, signal, sys
when, _, what = sys.argv[1].partition(":")
def die():
    os.kill(os.getpid(), signal.SIGKILL)
real_replace = os.replace
def killing_replace(src, dst, **kwargs):
    hit = when in ("before", "after") and str(dst).endswith(what)
    if hit and when == "before":
        die()
    real_replace(src, dst, **kwargs)
    if hit and when == "after":
        die()
os.replace = killing_replace
def die_after(cls, attr):
    real, calls = getattr(cls, attr), []
    def wrapper(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == int(what):
            die()
        return result
    setattr(cls, attr, wrapper)
import repro.cli
from repro.engine.journal import RunJournal
from repro.engine.rundir import RunDirectory
if when == "commit":
    die_after(RunJournal, "commit_subgraph")
if when == "barrier":
    die_after(RunDirectory, "barrier")
if when == "discard":
    def killing_discard(self):
        self.close()
        die()
    RunJournal.discard = killing_discard
sys.exit(repro.cli.main(sys.argv[2:]))
"""

QUARTER_LABELS = ["2020Q1", "2020Q2", "2020Q3", "2020Q4"]


def _series(path, values):
    path.write_text(
        "q,v\n" + "".join(f"{q},{v}\n" for q, v in zip(QUARTER_LABELS, values))
    )


@pytest.fixture
def update_project(tmp_path):
    """Two inputs, four statements, three subgraphs.  A revision of
    ``Y`` recomputes W then Z (two kill points between commits), reads U
    back from the baseline, and leaves U, V and X alone."""
    root = tmp_path / "project"
    root.mkdir()
    _series(root / "x.csv", [1.0, 2.0, 3.0, 4.0])
    _series(root / "y.csv", [10.0, 20.0, 30.0, 40.0])
    spec = {
        "elementary": [
            {"name": name, "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": f"{name.lower()}.csv"}
            for name in ("X", "Y")
        ],
        "program": "U := X * 2\nV := U + 1\nW := Y * 3\nZ := W + U",
        "preferred_targets": {"W": "r", "Z": "etl"},
    }
    (root / "project.json").write_text(json.dumps(spec))
    return root / "project.json"


def _cube_files(out):
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*.csv"))
    }


def _recorded_schemas(out):
    """What ``exl query`` builds its catalog from."""
    index = json.loads((out / "baseline" / "baseline.json").read_text())
    return list(index["schemas"].items()), index["program_sha256"]


class TestKillDuringRun:
    """SIGKILL a first ``exl run`` (three subgraphs, no previous index
    to fall back on) at each boundary of the write protocol; ``exl
    recover`` + ``exl resume`` must reach a clean run's directory: same
    bytes, each cube stored once, nothing else left."""

    #: in the order they are crossed
    KILL_POINTS = [
        "commit:1", "commit:2", "commit:3",
        "after:/out/U.csv", "after:/out/Z.csv", "barrier:1",
        "after:/baseline/X.csv", "before:/baseline/W.csv", "barrier:2",
        "before:/baseline/baseline.json", "after:/baseline/baseline.json",
        "discard",
    ]

    @pytest.mark.parametrize("kill", KILL_POINTS)
    def test_recover_resume_converges(
        self, update_project, tmp_path, fresh_python, capsys, kill
    ):
        reference = tmp_path / "reference"
        assert cli_main(
            ["run", str(update_project), "--out", str(reference)]
        ) == 0
        out = tmp_path / "out"
        child = fresh_python(
            "-c", KILLING_CHILD, kill, "run", str(update_project), "--out", str(out)
        )
        assert child.returncode == -signal.SIGKILL, (
            f"{kill}: rc={child.returncode}\n{child.stderr}"
        )
        code = cli_main(["recover", str(update_project), "--out", str(out)])
        assert code in (0, 3), f"{kill}: recover rc={code}"
        # only run-complete tells recovery the epilogue finished; short
        # of it resume repeats the epilogue, over whatever is there
        assert (code == 0) == (kill == "discard"), kill
        if code == 3:
            assert cli_main(
                ["resume", str(update_project), "--out", str(out)]
            ) == 0, kill
        assert _cube_files(out) == _cube_files(reference), kill
        assert _recorded_schemas(out) == _recorded_schemas(reference), kill
        for name in "UVWZ":
            assert os.path.samefile(
                out / f"{name}.csv", out / "baseline" / f"{name}.csv"
            ), f"{kill}: {name} stored twice"
        assert sorted(p.name for p in out.iterdir()) == [
            "U.csv", "V.csv", "W.csv", "Z.csv", "baseline"
        ], kill
        assert remove_stray_tmp(out) == [], kill


class TestKillDuringUpdate:
    """SIGKILL an ``exl update`` of a partially affected project after
    each commit record and at every kind of boundary of its epilogue;
    ``exl recover`` then either re-running ``exl update`` or ``exl
    resume`` must converge to the bytes of a clean full run, with the
    untouched cubes' files still matching the digests the index holds."""

    KILL_POINTS = [
        "commit:1",                         # between the two commits
        "commit:2",                         # all committed, nothing placed
        "after:/out/W.csv",                 # between places, before barrier 1
        "barrier:1",                        # outputs durable, baseline untouched
        "before:/baseline/Z.csv",           # between the two barriers
        "after:/baseline/Z.csv",            # between the two barriers
        "barrier:2",                        # all files durable, index stale
        "before:/baseline/baseline.json",   # index staged, not renamed
        "after:/baseline/baseline.json",    # committed, run-complete not logged
        "discard",                          # during journal discard
    ]

    def _killed_update(self, fresh_python, project, out, kill):
        child = fresh_python(
            "-c", KILLING_CHILD, kill, "update", str(project), "--out", str(out)
        )
        assert child.returncode == -signal.SIGKILL, (
            f"{kill}: rc={child.returncode}\n{child.stderr}"
        )

    @pytest.mark.parametrize("finish", ["update", "resume"])
    @pytest.mark.parametrize("kill", KILL_POINTS)
    def test_recover_converges(
        self, update_project, tmp_path, fresh_python, capsys, kill, finish
    ):
        out = tmp_path / "out"
        assert cli_main(["run", str(update_project), "--out", str(out)]) == 0
        _series(update_project.parent / "y.csv", [10.0, 20.0, 35.0, 40.0])
        reference = tmp_path / "reference"
        assert cli_main(
            ["run", str(update_project), "--out", str(reference)]
        ) == 0
        self._killed_update(fresh_python, update_project, out, kill)
        code = cli_main(["recover", str(update_project), "--out", str(out)])
        assert code in (0, 3), f"{kill}: recover rc={code}"
        if finish == "resume" and code == 3:
            assert cli_main(
                ["resume", str(update_project), "--out", str(out)]
            ) == 0, kill
        else:
            assert cli_main(
                ["update", str(update_project), "--out", str(out)]
            ) == 0, kill
        assert _cube_files(out) == _cube_files(reference), kill
        assert _recorded_schemas(out) == _recorded_schemas(reference), kill
        index = json.loads((out / "baseline" / "baseline.json").read_text())
        assert set(index["cubes"]) == set("XYUVWZ")
        for name, rel_path in index["cubes"].items():
            blob = (out / "baseline" / rel_path).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == index["sha256"][name], (
                f"{kill}: baseline/{rel_path} does not verify"
            )
        # every crash artifact consumed
        assert not (out / "run-state.json").exists(), kill
        assert not (out / ".committed").exists(), kill
        assert not (out / "journal").exists(), kill
        assert remove_stray_tmp(out) == [], kill

    def test_stale_cache_directories_are_inert_then_dropped(
        self, update_project, tmp_path, fresh_python, capsys
    ):
        # a run directory an older version wrote keeps its columnar and
        # lattice caches: recovery leaves them alone, nothing reads
        # them, and the next finished update removes them
        out = tmp_path / "out"
        assert cli_main(["run", str(update_project), "--out", str(out)]) == 0
        for cache in ("columnar", "olap"):
            (out / "baseline" / cache).mkdir()
            (out / "baseline" / cache / "U.json").write_text('{"format": 2, "di')
        _series(update_project.parent / "y.csv", [10.0, 20.0, 35.0, 40.0])
        self._killed_update(
            fresh_python, update_project, out, "before:/baseline/baseline.json"
        )
        assert cli_main(
            ["recover", str(update_project), "--out", str(out)]
        ) == 3
        assert (out / "baseline" / "columnar" / "U.json").exists()
        assert (out / "baseline" / "olap" / "U.json").exists()
        assert cli_main(["update", str(update_project), "--out", str(out)]) == 0
        assert not (out / "baseline" / "columnar").exists()
        assert not (out / "baseline" / "olap").exists()

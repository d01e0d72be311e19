"""The run directory's flush protocol, as an executable statement.

An in-process ``exl run`` and ``exl update`` of a 12-statement chain
(targets round-robin, so every statement is its own subgraph and its own
commit) with ``os.fsync`` / ``os.replace`` / ``os.link`` / ``os.unlink``
and every open-for-write recorded in order.  The assertions replay that
record against a small model of which file each name holds — they are
on *order* and *counts*, never on wall time (``test_import_budget.py``
gates imports the same way).  A failure here means a flush something
relies on went missing, or one nothing relies on came back — see
DESIGN.md, "Durability and crash recovery".
"""

import builtins
import hashlib
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import _build_engine, load_project, main
from repro.engine.baseline import admit_for_update
from repro.engine.journal import RunJournal
from repro.model import STRING, Cube, CubeSchema, Dimension

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"),
    reason="fsync targets are resolved through /proc/self/fd",
)

TARGETS = ("etl", "r", "sql", "matlab", "chase")
#: cycled down the chain; the last is the identity, so its cube has the
#: digest of the one before it
LINKS = (
    "{x} * 2",
    "cumsum({x})",
    "{x} * 0.75 + {x} / 4",
    "{x} - shift({x}, 1)",
    "{x} * 1",
)
STATEMENTS = 12
QUARTERS = [f"20{19 + i // 4}Q{i % 4 + 1}" for i in range(8)]


def write_series(path, values):
    path.write_text(
        "q,v\n" + "".join(f"{q},{v}\n" for q, v in zip(QUARTERS, values))
    )


@pytest.fixture
def chain(tmp_path):
    """``S`` feeds C1 … C11, one statement per subgraph; C12 adds the
    side input ``T``, so a revision of ``T`` alone recomputes C12 and
    reads C11 back from the baseline."""
    root = tmp_path / "project"
    root.mkdir()
    write_series(root / "s.csv", [1.5, 2.5, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0])
    write_series(root / "t.csv", [1.0] * 8)
    program = ["C1 := S * 2"]
    for k in range(2, STATEMENTS):
        program.append(f"C{k} := " + LINKS[(k - 1) % 5].format(x=f"C{k - 1}"))
    program.append(f"C{STATEMENTS} := C{STATEMENTS - 1} + T")
    spec = {
        "elementary": [
            {"name": name, "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": f"{name.lower()}.csv"}
            for name in "ST"
        ],
        "program": "\n".join(program),
        "preferred_targets": {
            f"C{k}": TARGETS[(k - 1) % 5] for k in range(1, STATEMENTS + 1)
        },
    }
    (root / "project.json").write_text(json.dumps(spec))
    return root / "project.json"


class Recording:
    """What one CLI call did to the files under ``root``, in order:
    ``("open", path)`` for each open-for-write, ``("fsync", path)``,
    ``("replace", source, destination)``, ``("link", source,
    destination)``, ``("unlink", path)``."""

    def __init__(self, root):
        self.root = str(root)
        self.events = []

    def note(self, kind, *paths):
        paths = [os.path.abspath(os.fspath(p)) for p in paths]
        if paths[-1].startswith(self.root):
            self.events.append((kind, *paths))

    def first(self, kind, suffix):
        """Index of the first ``kind`` event on a path ending so."""
        return next(
            i for i, event in enumerate(self.events)
            if event[0] == kind and event[-1].endswith(suffix)
        )

    def count(self, kind):
        return sum(event[0] == kind for event in self.events)

    def state_before(self, stop):
        """Replay ``events[:stop]``: ``(holds, dirty, pending)`` — the
        file (numbered by the open that created it) each name holds,
        the files written but not fsynced, and the directories renamed
        or linked into since their last fsync."""
        holds, dirty, pending = {}, set(), set()
        for number, event in enumerate(self.events[:stop]):
            kind, path = event[0], event[-1]
            if kind == "open":
                holds[path] = number
                dirty.add(number)
            elif kind == "fsync":
                dirty.discard(holds.get(path))
                pending.discard(path)
            elif kind == "unlink":
                holds.pop(path, None)
            else:
                source = event[1]
                holds[path] = (
                    holds[source] if kind == "link" else holds.pop(source)
                )
                pending.add(os.path.dirname(path))
        return holds, dirty, pending


@pytest.fixture
def recorded(monkeypatch):
    """``recorded(root, argv, code=0)`` runs ``main(argv)``, expecting
    exit code ``code``, and returns its :class:`Recording`; the process
    is left unpatched afterwards."""

    def run(root, argv, code=0):
        recording = Recording(root)
        real_open, real_fsync = io.open, os.fsync
        real = {name: getattr(os, name) for name in ("replace", "link", "unlink")}

        def recording_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+") and not isinstance(file, int):
                recording.note("open", file)
            return real_open(file, mode, *args, **kwargs)

        def recording_fsync(fd):
            recording.note("fsync", os.readlink(f"/proc/self/fd/{fd}"))
            return real_fsync(fd)

        def recorder(name):
            def call(*args, **kwargs):
                result = real[name](*args, **kwargs)
                recording.note(name, *args)
                return result

            return call

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", recording_open)
            patch.setattr(builtins, "open", recording_open)
            patch.setattr(os, "fsync", recording_fsync)
            for name in real:
                patch.setattr(os, name, recorder(name))
            assert main(argv) == code
        return recording

    return run


def cube_files(out):
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(Path(out).rglob("*.csv"))
    }


def published(out):
    """``(files, digests)``: every file the index names and every
    output CSV, and ``{digest: [those of them that hold it]}``."""
    index = json.loads((out / "baseline" / "baseline.json").read_text())
    by_digest = {}
    for name, rel_path in index["cubes"].items():
        by_digest.setdefault(index["sha256"][name], []).append(
            out / "baseline" / rel_path
        )
    for path in out.glob("*.csv"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        by_digest.setdefault(digest, []).append(path)
    files = [path for paths in by_digest.values() for path in paths]
    return files, by_digest


def check_protocol(recording, out, subgraphs, untouched=()):
    """``untouched`` names the files an update had no new bytes for:
    not opened, not renamed, not flushed again."""
    files, by_digest = published(out)
    assert len(files) == 2 * STATEMENTS + 2 and len(by_digest) < len(files) / 2
    for digest, paths in list(by_digest.items()):
        if paths[0].name in untouched:
            del by_digest[digest]

    # (a) before baseline.json is renamed into place, every file it
    # names and every output holds flushed data under a flushed name
    commit_point = recording.first("replace", "/baseline/baseline.json")
    holds, dirty, pending = recording.state_before(commit_point)
    for path in files:
        assert (str(path) in holds) == (path.name not in untouched), path
        assert holds.get(str(path)) not in dirty, f"{path}: data not fsynced"
    assert not pending & {str(out), str(out / "baseline")}, pending
    # ... the index through its own tmp -> fsync -> rename -> dir fsync
    assert holds[recording.events[commit_point][1]] not in dirty
    assert ("fsync", str(out / "baseline")) in recording.events[commit_point:]

    # (b) the bytes of a digest are written once; every role is a name
    # of that one file
    for digest, paths in by_digest.items():
        assert len({path.stat().st_ino for path in paths}) == 1, paths
        assert paths[0].stat().st_nlink == len(paths), paths
    staged_csvs = [
        event for event in recording.events
        if event[0] == "open" and ".csv." in os.path.basename(event[1])
    ]
    assert len(staged_csvs) == len(by_digest)

    # (c) one flush per commit record and per distinct file, a constant
    # for the rest; one staged write per distinct file, the index and
    # the journal itself
    assert recording.count("fsync") <= subgraphs + len(by_digest) + 12
    assert recording.count("open") <= len(by_digest) + 2

    # run-complete is flushed before anything is removed, and nothing
    # is removed before the commit point; the journal goes last
    removed = recording.first("unlink", "")
    assert removed > commit_point
    journal_flushes = [
        i for i, event in enumerate(recording.events)
        if event[0] == "fsync" and event[1].endswith(".wal")
    ]
    assert commit_point < journal_flushes[-1] < removed
    assert len(journal_flushes) == subgraphs + 2  # run-start, run-complete
    assert recording.events[-1][0] == "unlink"
    assert recording.events[-1][1].endswith(".wal")
    assert not (out / "journal").exists()


class TestFlushOrder:
    def test_run_then_update(self, chain, tmp_path, recorded, capsys):
        out = tmp_path / "out"
        argv = [str(chain), "--out", str(out)]
        check_protocol(recorded(tmp_path, ["run", *argv]), out, STATEMENTS)
        # a revision of S recomputes the whole chain: same protocol,
        # over files that exist
        before = {path: path.stat().st_ino for path in out.rglob("*.csv")}
        write_series(
            chain.parent / "s.csv", [1.5, 2.5, 4.0, 8.0, 16.0, 3.0, 5.0, 9.0]
        )
        check_protocol(
            recorded(tmp_path, ["update", *argv]), out, STATEMENTS, {"T.csv"}
        )
        assert [
            path.name for path, inode in before.items()
            if path.stat().st_ino == inode
        ] == ["T.csv"]
        fresh = tmp_path / "fresh"
        assert main(["run", str(chain), "--out", str(fresh)]) == 0
        assert cube_files(out) == cube_files(fresh)

    def test_no_journal_run_takes_the_same_path(
        self, chain, tmp_path, recorded, capsys
    ):
        out = tmp_path / "out"
        recording = recorded(
            tmp_path, ["run", str(chain), "--out", str(out), "--no-journal"]
        )
        files, by_digest = published(out)
        commit_point = recording.first("replace", "/baseline/baseline.json")
        holds, dirty, pending = recording.state_before(commit_point)
        assert all(holds[str(path)] not in dirty for path in files)
        assert not pending
        assert recording.count("fsync") <= len(by_digest) + 4
        journaled = tmp_path / "journaled"
        assert main(["run", str(chain), "--out", str(journaled)]) == 0
        assert cube_files(out) == cube_files(journaled)


    def test_recover_flushes_snapshots_then_writes_state(
        self, chain, tmp_path, recorded, capsys
    ):
        """``exl recover`` of a journal with two verified commits and
        one subgraph that never committed: every snapshot's data, then
        ``.committed/`` once, then ``run-state.json``, then the journal
        goes."""
        out = tmp_path / "out"
        journal = RunJournal(out)
        planned = [("A",), ("B",), ("C",)]
        journal.run_start(
            SimpleNamespace(run_id=1, trigger=["S"], affected=["A", "B", "C"]),
            [
                SimpleNamespace(subgraph=SimpleNamespace(cubes=c, target="chase"))
                for c in planned
            ],
        )
        for offset, (name,) in enumerate(planned[:2]):
            cube = Cube(CubeSchema(name, [Dimension("r", STRING)], "v"))
            for index in range(3):
                cube.set((f"r{index}",), float(index + 10 * offset))
            sub = {"cubes": [name], "target": "chase", "outcome": "ok"}
            journal.commit_subgraph(SimpleNamespace(to_json=lambda: sub), {name: cube})
        journal.close()

        recording = recorded(
            tmp_path, ["recover", str(chain), "--out", str(out)], code=3
        )
        committed = out / ".committed"
        snapshots = sorted(str(path) for path in committed.iterdir())
        assert [os.path.basename(path) for path in snapshots] == ["A.csv", "B.csv"]
        directory_flushes = [
            i for i, event in enumerate(recording.events)
            if event == ("fsync", str(committed))
        ]
        assert len(directory_flushes) == 1
        for path in snapshots:
            assert recording.events.index(("fsync", path)) < directory_flushes[0]
        state_renamed = recording.first("replace", "/run-state.json")
        journal_removed = recording.first("unlink", ".wal")
        assert directory_flushes[0] < state_renamed < journal_removed
        holds, dirty, pending = recording.state_before(state_renamed)
        assert all(holds[path] not in dirty for path in snapshots)
        assert str(committed) not in pending
        assert not (out / "journal").exists()


class TestHardLinks:
    def test_refused_link_falls_back_to_writing(
        self, chain, tmp_path, recorded, capsys, monkeypatch
    ):
        linked = tmp_path / "linked"
        assert main(["run", str(chain), "--out", str(linked)]) == 0

        def refuse(*args, **kwargs):
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "link", refuse)
        out = tmp_path / "out"
        recording = recorded(tmp_path, ["run", str(chain), "--out", str(out)])
        assert cube_files(out) == cube_files(linked)
        files, _ = published(out)
        assert all(path.stat().st_nlink == 1 for path in files)
        # copies are written, so each is flushed like any written file
        commit_point = recording.first("replace", "/baseline/baseline.json")
        holds, dirty, pending = recording.state_before(commit_point)
        assert all(holds[str(path)] not in dirty for path in files)
        assert not pending
        assert not list(out.rglob(".*.tmp"))

    def test_output_edited_in_place_is_a_counted_fallback(
        self, chain, tmp_path, capsys
    ):
        # <out>/C11.csv and baseline/C11.csv are one file: an edit of
        # the output in place is an edit of the baseline, which the
        # recorded digest catches when C12 needs C11 as an operand
        out = tmp_path / "out"
        argv = [str(chain), "--out", str(out)]
        assert main(["run", *argv]) == 0
        victim = out / f"C{STATEMENTS - 1}.csv"
        with open(victim, "a") as handle:
            handle.write("2030Q1,1.0\r\n")
        assert (out / "baseline" / victim.name).read_bytes() == victim.read_bytes()
        write_series(chain.parent / "t.csv", [1.0] * 7 + [2.0])

        engine = _build_engine(load_project(str(chain)))
        state = json.loads((out / "baseline" / "baseline.json").read_text())
        _, fallbacks = admit_for_update(engine, state, out / "baseline")
        assert [(name, why) for name, _, why in fallbacks] == [
            (victim.stem, "digest-mismatch")
        ]
        assert engine.metrics.value(
            "update.baseline.fallback.reason:digest-mismatch"
        ) == 1

        capsys.readouterr()
        assert main(["update", *argv]) == 0
        assert (
            f"baseline cube {out / 'baseline' / victim.name} unusable "
            f"(digest-mismatch): recomputing {victim.stem}"
        ) in capsys.readouterr().err
        fresh = tmp_path / "fresh"
        assert main(["run", str(chain), "--out", str(fresh)]) == 0
        assert cube_files(out) == cube_files(fresh)

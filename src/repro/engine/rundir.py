"""The run directory: what a run writes under ``<out>``, in which
order, which flush covers it, and how a crash is rolled forward.

Layout::

    <out>/X.csv                  an output cube
    <out>/baseline/X.csv         every cube with data, for ``exl update``
    <out>/baseline/baseline.json the index: the commit point; files,
                                 digests, cube schemas, program digest
    <out>/run-state.json         only after a partial failure (exit 3)
    <out>/.committed/X.csv       only beside a run-state.json
    <out>/journal/<token>.wal    only while a run is in flight

This module owns ``run-state.json``, ``.committed/`` and recovery; the
state file has one writer and one reader (:meth:`RunDirectory.read_state`).
``baseline/`` belongs to :mod:`repro.engine.baseline`, the journal's
format to :mod:`repro.engine.journal`.

The bytes of a cube exist once.  Every role a cube's canonical bytes
(:func:`repro.model.io.canonical_bytes`, the same object the journal
frame holds) play — output, baseline, committed snapshot — goes through
:meth:`RunDirectory.place` with the digest that rides with them: the
first destination of a digest is written, every later one is a hard
link to that file.  Nothing here
ever writes *into* a published file (new bytes arrive by rename over
the name), so two names of one inode cannot drift apart; a user who
edits ``<out>/X.csv`` in place edits the baseline's copy with it, which
the next ``exl update`` sees as a ``digest-mismatch`` and recomputes.

Each flush covers a group.  ``place`` renames without flushing;
:meth:`RunDirectory.barrier` then fsyncs every file written since the
last barrier and each directory renamed into, once.  Three ordering
invariants hold whatever the crash point:

1. a ``staged-commit`` record is flushed before its subgraph counts as
   committed (:mod:`repro.engine.journal`) — until ``run-complete`` the
   journal can rebuild every computed cube;
2. every file ``baseline.json`` names, and every output, is flushed —
   data, then directory entry — before ``baseline.json`` is renamed
   into place, itself through the full tmp → fsync → rename → directory
   fsync of :func:`~repro.chase.atomic.atomic_write`;
3. ``run-complete`` is flushed before anything a resume would need is
   removed.

A run without a journal takes the same path, minus the records, and
:meth:`RunDirectory.recover` the same order: snapshots placed and
flushed, then the state file naming them, then the journal goes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..chase.atomic import atomic_write, fsync_dir, remove_stray_tmp, staging_path
from ..errors import CorruptStateError
from ..model.io import canonical_bytes
from . import baseline
from .history import COMMITTED_OUTCOMES, fold_subgraphs
from .journal import (
    JOURNAL_DIRNAME,
    RUN_COMPLETE,
    RUN_START,
    STAGED_COMMIT,
    replay_journal,
)

__all__ = ["RunDirectory", "Finished", "RecoveryReport"]

STATE_NAME = "run-state.json"
COMMITTED_DIRNAME = ".committed"

#: caches older versions kept under ``baseline/`` (columnar and lattice
#: sidecars); nothing reads them, the next published baseline drops them
STALE_CACHE_DIRS = ("columnar", "olap")


@dataclass
class Finished:
    """What :meth:`RunDirectory.finish` did, for the caller to report."""

    #: output cubes whose files were written, in output order
    wrote: List[str]
    #: output cubes of unfinished subgraphs: no file
    skipped: List[str]
    #: subgraphs that did not commit; non-zero means the state file was
    #: written for ``exl resume`` instead of the baseline
    unfinished: int


@dataclass
class RecoveryReport:
    """What :meth:`RunDirectory.recover` found and did."""

    out_dir: Path
    #: "clean" (nothing to recover), "complete" (run fully persisted,
    #: journal deleted), "resumable" (run ``exl resume``), "corrupt-state"
    #: (a state ``exl resume`` refuses and no journal: quarantined)
    status: str
    journal: Optional[Path] = None
    records: int = 0
    torn_records: int = 0
    tmp_removed: List[str] = field(default_factory=list)
    #: journaled commits whose cube bytes fail their digest, or that carry
    #: none (an older journal), handed back to resume (cube lists joined +)
    rolled_back: List[str] = field(default_factory=list)
    #: subgraphs re-admitted from verified commits (cube lists joined +)
    committed: List[str] = field(default_factory=list)
    #: subgraphs left for ``exl resume`` to re-dispatch
    unfinished: List[str] = field(default_factory=list)
    state_path: Optional[Path] = None
    quarantined: Optional[Path] = None

    @property
    def exit_code(self) -> int:
        return {"clean": 0, "complete": 0, "resumable": 3}.get(self.status, 1)

    def summary(self) -> str:
        lines = [f"recover {self.out_dir}: {self.status}"]
        if self.journal is not None:
            torn = self.torn_records
            lines.append(
                f"  journal {self.journal.name}: {self.records} record(s)"
                + (f", {torn} torn line(s) dropped" if torn else "")
            )
        if self.tmp_removed:
            lines.append(f"  swept {len(self.tmp_removed)} stray tmp file(s)")
        lines += [f"  rolled back torn commit {label}" for label in self.rolled_back]
        for labels, what in (
            (self.committed, "re-admitted {} committed subgraph(s)"),
            (self.unfinished, "{} subgraph(s) to resume"),
        ):
            if labels:
                lines.append(f"  {what.format(len(labels))}: {', '.join(labels)}")
        if self.state_path is not None:
            lines.append(f"  state written to {self.state_path}")
        if self.quarantined is not None:
            lines.append(f"  quarantined corrupt state as {self.quarantined}")
        return "\n".join(lines)


def _journal_age(path: Path) -> int:
    """When a journal was started, in ns since the epoch: the ``time_ns``
    its token begins with (a copied or restored run directory has
    arbitrary mtimes), the mtime only for a name that does not say."""
    head = path.stem.partition("-")[0]
    return int(head) if head.isdigit() else path.stat().st_mtime_ns


def _commit_verifies(payload: Dict[str, Any], frames: Dict[str, bytes]) -> bool:
    """Whether every cube a ``staged-commit`` names came with bytes
    that hash to the digest its header records."""
    files = payload.get("files", {})
    return all(
        name in frames
        and hashlib.sha256(frames[name]).hexdigest() == entry.get("sha256")
        for name, entry in files.items()
    )


def _is_subgraph(sub: Any) -> bool:
    """Whether ``sub`` has what a resume reads of a subgraph record
    without a default: its cubes, target and outcome."""
    return (
        isinstance(sub, dict)
        and isinstance(sub.get("cubes"), list)
        and all(isinstance(cube, str) for cube in sub["cubes"])
        and isinstance(sub.get("target"), str)
        and isinstance(sub.get("outcome"), str)
    )


def _state_problem(state: Any, out_dir: Path) -> Optional[str]:
    """Why ``state`` is no run state ``exl resume`` can finish from, or
    None."""
    record = state.get("record") if isinstance(state, dict) else None
    if not isinstance(record, dict):
        return "not a run-state document"
    subgraphs = record.get("subgraphs")
    if not isinstance(subgraphs, list) or not all(map(_is_subgraph, subgraphs)):
        return "record.subgraphs is not a list of subgraph records"
    committed = state.get("committed", {})
    if not isinstance(committed, dict):
        return "committed is not an object"
    for name, rel_path in committed.items():
        if not isinstance(rel_path, str) or not (out_dir / rel_path).is_file():
            return f"committed snapshot of {name} missing: {rel_path}"
    return None


def _link_over(source: Path, destination: Path) -> bool:
    """Make ``destination`` another name of ``source``'s file, by
    rename like any other new content; False where the filesystem will
    not link (no hard links, link count exhausted, another device)."""
    staged = staging_path(destination)
    try:
        os.link(source, staged)
    except OSError:
        return False
    try:
        os.replace(staged, destination)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise
    return True


def _state_of(
    record_json: Dict[str, Any], previous_record: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """The state record of a run: a resumed run's subgraphs folded into
    those of ``previous_record``, the state it started from."""
    state_record = dict(record_json)
    if previous_record is not None:
        state_record["subgraphs"] = fold_subgraphs(
            previous_record["subgraphs"], record_json["subgraphs"]
        )
    return state_record


class RunDirectory:
    """The files of one output directory: the epilogue of a ``run`` /
    ``update`` / ``resume``, the state a ``resume`` starts from, and
    ``recover``.

    ``state_path`` overrides ``<out>/run-state.json``; ``journal`` is
    the run's :class:`~repro.engine.journal.RunJournal`, or None for a
    run without one (and for recovery, which replays what is on disk).
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        state_path: Optional[Union[str, Path]] = None,
        journal=None,
    ):
        self.out_dir = Path(out_dir)
        self.baseline_dir = baseline.directory(self.out_dir)
        self.committed_dir = self.out_dir / COMMITTED_DIRNAME
        self.state_path = (
            Path(state_path) if state_path else self.out_dir / STATE_NAME
        )
        self.journal = journal
        #: digest -> the file that was written with those bytes
        self._written: Dict[str, Path] = {}
        #: written since the last barrier: data not yet flushed
        self._unflushed: List[Path] = []
        #: directories renamed into since the last barrier
        self._touched: Dict[Path, None] = {}

    def output_path(self, name: str) -> Path:
        """Where output cube ``name`` is published."""
        return self.out_dir / f"{name}.csv"

    # -- the two verbs ---------------------------------------------------------
    def place(self, data: bytes, digest: str, destination: Path) -> None:
        """Make ``destination`` hold ``data``, whose digest is
        ``digest``, atomically and without flushing.

        The first destination of a digest is written; a later one is a
        hard link to it, renamed over the name.  Where the filesystem
        refuses the link the bytes are written again — the only second
        path.
        """
        destination.parent.mkdir(parents=True, exist_ok=True)
        source = self._written.get(digest)
        if source is None or not _link_over(source, destination):
            atomic_write(destination, data, fsync=False)
            self._written.setdefault(digest, destination)
            self._unflushed.append(destination)
        self._touched[destination.parent] = None

    def barrier(self) -> None:
        """Flush everything placed since the last barrier: each written
        file's data, then each directory renamed into, once.  A link
        adds no data of its own — its file was flushed when written."""
        for path in self._unflushed:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        for directory in self._touched:
            fsync_dir(directory)
        self._unflushed.clear()
        self._touched.clear()

    # -- the two ways a run ends -----------------------------------------------
    def finish(
        self,
        engine,
        record,
        program_source: str,
        previous_record: Optional[Dict[str, Any]] = None,
        outputs: Optional[List[str]] = None,
        previous_index: Optional[Dict[str, Any]] = None,
    ) -> Finished:
        """The epilogue shared by run, update and resume: decide what
        has new bytes, then :meth:`publish` when every subgraph
        committed or :meth:`suspend` when one did not.

        ``record`` is the run that just ended, ``program_source`` the
        EXL text its catalog was compiled from and ``previous_record``
        the state an ``exl resume`` started from, whose committed
        subgraphs count as this run's.  ``outputs`` names the project's
        output cubes (default: every cube of the run).
        ``previous_index`` is the baseline index the run started from,
        when it was an update or the resume of one: what it already
        records, byte for byte, is not written again.
        """
        record_json = record.to_json()
        state_record = _state_of(record_json, previous_record)
        subgraphs = state_record["subgraphs"]
        unfinished = [s for s in subgraphs if s["outcome"] not in COMMITTED_OUTCOMES]
        missing = {cube for sub in unfinished for cube in sub["cubes"]}
        computed = {
            cube
            for sub in subgraphs
            if sub["outcome"] in COMMITTED_OUTCOMES and sub["outcome"] != "clean"
            for cube in sub["cubes"]
        }
        fresh = baseline.fresh_bytes(engine, computed, previous_index)
        names = outputs or list(
            dict.fromkeys(cube for sub in subgraphs for cube in sub["cubes"])
        )
        wrote = [name for name in names if name in fresh and name not in missing]
        if unfinished:
            self.suspend(engine.catalog, state_record, fresh, wrote)
        else:
            self.publish(
                engine.catalog, record_json, fresh, wrote, program_source,
                previous_index,
            )
        return Finished(
            wrote, [name for name in names if name in missing], len(unfinished)
        )

    def abort(
        self, catalog, record, previous_record: Optional[Dict[str, Any]] = None
    ) -> None:
        """A run aborted fail-fast: only what ``exl resume`` needs, the
        state of ``record`` (folded into ``previous_record``'s, as in
        :meth:`finish`) and its committed cubes; no output is written."""
        self.suspend(catalog, _state_of(record.to_json(), previous_record))

    def publish(
        self,
        catalog,
        record_json: Dict[str, Any],
        fresh: Dict[str, Tuple[bytes, str]],
        outputs: Iterable[str],
        program_source: str,
        previous: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Every subgraph committed: outputs, baseline, clean-up.

        ``fresh`` maps each cube this run has new bytes for to its
        canonical bytes and their digest
        (:func:`repro.engine.baseline.fresh_bytes`),
        ``outputs`` names those of them that are output files,
        ``program_source`` is the text ``catalog`` was compiled from,
        and ``previous`` is the index the run started from, whose other
        entries are carried forward with their files left alone.  The
        state file, snapshots and journal go only once the new index is
        durable and ``run-complete`` journaled (invariant 3).
        """
        for name in outputs:
            self.place(*fresh[name], self.output_path(name))
        self.barrier()
        for name, (data, digest) in fresh.items():
            self.place(data, digest, self.baseline_dir / f"{name}.csv")
        self.barrier()
        digests = {name: digest for name, (_, digest) in fresh.items()}
        atomic_write(
            baseline.index_path(self.out_dir),
            baseline.index_text(
                catalog, record_json, digests, program_source, previous
            ),
        )
        for stale in STALE_CACHE_DIRS:
            shutil.rmtree(self.baseline_dir / stale, ignore_errors=True)
        if self.journal is not None:
            self.journal.run_complete()
        self._retire_state()
        if self.journal is not None:
            self.journal.discard()

    def suspend(
        self,
        catalog,
        state_record: Dict[str, Any],
        fresh: Optional[Dict[str, Tuple[bytes, str]]] = None,
        outputs: Iterable[str] = (),
    ) -> None:
        """Some subgraph did not commit: the outputs that were
        computed, then what ``exl resume`` needs — a snapshot of every
        committed cube under ``.committed/`` and, once those are
        flushed, ``run-state.json`` naming them.  The durable state file
        supersedes the journal, which goes last.

        A cube an update replayed clean and nobody read has no
        snapshot: the baseline still holds it, and the resume defers it
        from there.
        """
        for name in outputs:
            self.place(*fresh[name], self.output_path(name))
        committed: Dict[str, str] = {}
        for sub in state_record["subgraphs"]:
            if sub["outcome"] not in COMMITTED_OUTCOMES:
                continue
            for name in sub["cubes"]:
                if catalog.store.digest(name) is not None:
                    continue
                committed[name] = self._snapshot(
                    name, *canonical_bytes(catalog.data(name))
                )
        self.barrier()
        self._write_state(state_record, committed)
        if self.journal is not None:
            self.journal.discard()

    # -- the state file --------------------------------------------------------
    def _snapshot(self, name: str, data: bytes, digest: str) -> str:
        """Place a committed cube's snapshot; the path the state records."""
        snapshot = self.committed_dir / f"{name}.csv"
        self.place(data, digest, snapshot)
        return str(snapshot.relative_to(self.out_dir))

    def _write_state(self, record: Dict[str, Any], committed: Dict[str, str]) -> None:
        """The one writer of the state file, once ``committed`` is flushed."""
        atomic_write(
            self.state_path,
            json.dumps({"record": record, "committed": committed}, indent=2)
            + "\n",
        )

    def read_state(self) -> Optional[Dict[str, Any]]:
        """The state an ``exl resume`` finishes from, or None when there
        is none.  Raises :class:`~repro.errors.CorruptStateError` for a
        state a resume cannot finish from: unreadable, torn, a subgraph
        without cubes, target or outcome, or a snapshot that is gone."""
        try:
            state = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, ValueError) as exc:
            raise CorruptStateError("run state", self.state_path, exc) from None
        problem = _state_problem(state, self.out_dir)
        if problem is not None:
            raise CorruptStateError("run state", self.state_path, problem)
        return state

    def _retire_state(self) -> None:
        """A published baseline supersedes the state and its snapshots."""
        self.state_path.unlink(missing_ok=True)
        if self.committed_dir.is_dir():
            shutil.rmtree(self.committed_dir)

    def _quarantine_state(self) -> Path:
        quarantine = self.state_path.with_name(self.state_path.name + ".corrupt")
        os.replace(self.state_path, quarantine)
        return quarantine

    # -- after a hard crash ----------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Roll the directory forward after a hard crash.

        1. Sweep stray atomic-write temp files (torn unjournaled writes).
        2. Replay the newest ``journal/*.wal``, dropping its torn tail.
        3. ``run-complete`` present -> the run persisted everything
           before dying: finish its clean-up.
        4. Otherwise trust a journaled ``staged-commit`` only when the
           cube bytes it carries hash to their recorded digests; place
           and flush those under ``.committed/``, then write the state
           file: verified subgraphs keep their outcomes, every other
           *planned* one is failed, and ``exl resume`` re-dispatches
           exactly the work the crash destroyed.
        5. With no journal that began dispatch, a state file
           :meth:`read_state` accepts is resumable; any other is
           quarantined as ``*.corrupt``.

        Whichever way it ends, every journal and their directory are gone.
        """
        report = RecoveryReport(out_dir=self.out_dir, status="clean")
        report.tmp_removed = [str(p) for p in remove_stray_tmp(self.out_dir)]
        journal_dir = self.out_dir / JOURNAL_DIRNAME
        wals = sorted(journal_dir.glob("*.wal"), key=_journal_age)
        records: List[Dict[str, Any]] = []
        if wals:
            records, report.torn_records = replay_journal(wals[-1])
            report.journal, report.records = wals[-1], len(records)
        # records after the last run-start describe the interrupted run
        starts = [i for i, r in enumerate(records) if r["type"] == RUN_START]
        if any(r["type"] == RUN_COMPLETE for r in records):
            # the run persisted everything (run-complete precedes
            # clean-up): the state file and snapshots are stale
            self._retire_state()
            report.status = "complete"
        elif starts:
            self._roll_forward(records[starts[-1]:], report)
        else:
            # dispatch never began; whatever state exists already rules
            try:
                if self.read_state() is not None:
                    report.status = "resumable"
                    report.state_path = self.state_path
            except CorruptStateError:
                report.status = "corrupt-state"
                report.quarantined = self._quarantine_state()
        for wal in wals:
            wal.unlink(missing_ok=True)
        try:
            journal_dir.rmdir()
        except OSError:
            pass
        return report

    def _roll_forward(
        self, records: List[Dict[str, Any]], report: RecoveryReport
    ) -> None:
        """Write the state of the run ``records`` (a ``run-start`` and
        what followed it) describe, from the commits that verify."""
        start = records[0]["payload"]
        # trust a journaled commit only on the evidence of its own bytes
        verified: Dict[tuple, Dict[str, Any]] = {}
        for record in records:
            if record["type"] != STAGED_COMMIT:
                continue
            cubes = tuple(record["payload"].get("subgraph", {}).get("cubes", ()))
            if _commit_verifies(record["payload"], record.get("frames", {})):
                # a later commit of the same cubes (resume within one
                # journal) supersedes: dict assignment keeps the newest
                verified[cubes] = record
            else:
                verified.pop(cubes, None)
                report.rolled_back.append("+".join(cubes))

        subgraphs: List[Dict[str, Any]] = []
        committed: Dict[str, str] = {}
        for planned in start.get("planned", []):
            cubes = tuple(planned.get("cubes", ()))
            hit = verified.get(cubes)
            if hit is None:
                report.unfinished.append("+".join(cubes))
                subgraphs.append(
                    {
                        "cubes": list(cubes),
                        "target": planned.get("target", "chase"),
                        "duration_s": 0.0,
                        "tuples_written": 0,
                        "versions": {},
                        "outcome": "failed",
                        "attempts": 0,
                        "error": "crashed before commit (recovered from journal)",
                    }
                )
                continue
            subgraphs.append(hit["payload"]["subgraph"])
            report.committed.append("+".join(cubes))
            files = hit["payload"]["files"]
            for name, raw in hit.get("frames", {}).items():
                committed[name] = self._snapshot(name, raw, files[name]["sha256"])
        self.barrier()

        crash_error = (
            f"crashed: {len(report.unfinished)} subgraph(s) never "
            f"committed (recovered from journal)"
            if report.unfinished
            else None
        )
        record = {
            "run_id": start.get("run_id", 0),
            "trigger": list(start.get("trigger", [])),
            "affected": list(start.get("affected", [])),
            "subgraphs": subgraphs,
            "on_error": "continue",
            "error": crash_error,
        }
        # a crashed *resume* run only replans its todo subgraphs, but the
        # prior partial run's state file still names the rest — fold the
        # journal's results over it so earlier commits survive the merge
        try:
            previous = self.read_state()
        except CorruptStateError:
            previous = None
            report.quarantined = self._quarantine_state()
        if previous is not None and previous["record"].get("run_id") == record["run_id"]:
            prior = previous["record"]
            record = dict(
                prior,
                subgraphs=fold_subgraphs(prior["subgraphs"], subgraphs),
                on_error="continue",
                error=crash_error,
            )
            committed = {**previous.get("committed", {}), **committed}
        self._write_state(record, committed)
        report.status = "resumable"
        report.state_path = self.state_path

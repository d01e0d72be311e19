"""Write-ahead journal and crash recovery for engine runs.

ARIES in miniature: before a run mutates durable state it logs its
*intent*, and after every atomic state change it logs the *outcome*, so
a hard crash (SIGKILL, OOM, power loss) at any byte offset leaves enough
on disk to roll the run forward or back.  The journal is a per-run
append-only file of line-oriented JSON records
(``<out>/journal/<token>.wal``), each fsynced and carrying a checksum
over its own content — a torn tail fails the checksum and is dropped on
replay, never misread.

Record grammar (one JSON object per line)::

    {"seq": N, "type": TYPE, "payload": {...}, "sha256": HEX}

    TYPE := "run-start"         payload: run_id, trigger, affected,
                                         planned [{cubes, target}]
          | "subgraph-dispatch" payload: cubes, target
          | "staged-commit"     payload: subgraph (SubgraphRecord JSON),
                                         files {cube: {path, sha256}}
          | "sidecar-write"     payload: kind, path, sha256
          | "run-end"           payload: run_id, error
          | "run-complete"      payload: {}  (all persistence finished)

``sha256`` hashes the canonical serialization of ``{seq, type,
payload}``; ``seq`` is contiguous from 0, so replay also detects a
journal truncated *between* lines.

The crucial commit rule: :meth:`RunJournal.commit_subgraph` first makes
the subgraph's cubes durable (atomic CSV snapshots under
``<out>/.committed/``), *then* appends the ``staged-commit`` record with
each file's content hash.  Recovery therefore trusts a journaled commit
only when the snapshot bytes still hash to the journaled value — a kill
between the CSV write and the journal append simply leaves an
unjournaled file that recovery rolls back and the resume recomputes.

:func:`recover` replays the newest journal of an output directory and
synthesizes the standard ``run-state.json`` the CLI's ``resume`` path
already understands: verified commits are re-admitted, everything else
is marked failed, and ``exl resume`` finishes the run exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..chase.atomic import atomic_write, remove_stray_tmp
from ..model.io import canonical_text, text_sha256

__all__ = [
    "RunJournal",
    "RecoveryReport",
    "replay_journal",
    "recover",
    "JOURNAL_DIRNAME",
    "COMMITTED_DIRNAME",
]

JOURNAL_DIRNAME = "journal"
COMMITTED_DIRNAME = ".committed"

RUN_START = "run-start"
SUBGRAPH_DISPATCH = "subgraph-dispatch"
STAGED_COMMIT = "staged-commit"
SIDECAR_WRITE = "sidecar-write"
RUN_END = "run-end"
RUN_COMPLETE = "run-complete"


def _record_sha256(seq: int, rtype: str, payload: Dict[str, Any]) -> str:
    blob = json.dumps(
        {"seq": seq, "type": rtype, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class RunJournal:
    """Append-only, fsynced write-ahead journal for one CLI run.

    Lazily creates ``<out>/journal/<token>.wal`` on the first append, so
    constructing a journal for a run that fails before dispatch leaves
    no artifact.  Appends are serialized under a lock (the dispatcher
    commits from worker threads).  ``fsync=False`` skips the per-record
    and per-snapshot fsyncs — same crash atomicity against process
    death, no power-loss guarantee — for the overhead ablation.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        fsync: bool = True,
        token: Optional[str] = None,
    ):
        self.out_dir = Path(out_dir)
        self.fsync = fsync
        self.token = token or f"{time.time_ns()}-{os.getpid()}"
        self.path = self.out_dir / JOURNAL_DIRNAME / f"{self.token}.wal"
        self._lock = threading.Lock()
        self._handle = None
        self._seq = 0

    # -- low-level append ------------------------------------------------------
    def append(self, rtype: str, payload: Dict[str, Any]) -> None:
        """Append one checksummed record and force it to disk."""
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            seq = self._seq
            self._seq += 1
            line = json.dumps(
                {
                    "seq": seq,
                    "type": rtype,
                    "payload": payload,
                    "sha256": _record_sha256(seq, rtype, payload),
                },
                separators=(",", ":"),
            )
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    # -- record constructors ---------------------------------------------------
    def run_start(self, record, translated) -> None:
        """Log the full plan before any subgraph executes."""
        self.append(
            RUN_START,
            {
                "run_id": record.run_id,
                "trigger": list(record.trigger),
                "affected": list(record.affected),
                "planned": [
                    {
                        "cubes": list(item.subgraph.cubes),
                        "target": item.subgraph.target,
                    }
                    for item in translated
                ],
            },
        )

    def subgraph_dispatch(self, cubes, target: str) -> None:
        self.append(
            SUBGRAPH_DISPATCH, {"cubes": list(cubes), "target": target}
        )

    def commit_subgraph(self, sub_record, cubes: Dict[str, Any]) -> None:
        """Make one committed subgraph durable, then journal it.

        Writes each output cube as an atomic CSV snapshot under
        ``<out>/.committed/`` *before* appending the ``staged-commit``
        record, so the journal never vouches for bytes that are not on
        disk.  The record carries each snapshot's content hash; recovery
        re-admits the subgraph only when every file still verifies.
        The text is the cube's :func:`~repro.model.io.canonical_text`,
        so the epilogue's output and baseline files reuse it instead of
        serializing the cube again.
        """
        committed_dir = self.out_dir / COMMITTED_DIRNAME
        files: Dict[str, Dict[str, str]] = {}
        for name, cube in cubes.items():
            text = canonical_text(cube)
            destination = committed_dir / f"{name}.csv"
            atomic_write(destination, text, fsync=self.fsync)
            files[name] = {
                "path": str(destination.relative_to(self.out_dir)),
                "sha256": text_sha256(text),
            }
        self.append(
            STAGED_COMMIT,
            {"subgraph": sub_record.to_json(), "files": files},
        )

    def sidecar_write(self, kind: str, path: Union[str, Path],
                      sha256: Optional[str] = None) -> None:
        """Log one durable artifact written outside the commit path
        (baseline CSVs/JSON, output CSVs)."""
        path = Path(path)
        try:
            rel = str(path.relative_to(self.out_dir))
        except ValueError:
            rel = str(path)
        self.append(SIDECAR_WRITE, {"kind": kind, "path": rel, "sha256": sha256})

    def run_end(self, run_id: int, error: Optional[str]) -> None:
        self.append(RUN_END, {"run_id": run_id, "error": error})

    def run_complete(self) -> None:
        """All persistence (outputs + baseline) finished — the journal
        is now redundant and recovery treats the run as fully done."""
        self.append(RUN_COMPLETE, {})

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def discard(self) -> None:
        """Close and delete the journal (its run is fully persisted, or
        its state was captured by a durable ``run-state.json``)."""
        self.close()
        self.path.unlink(missing_ok=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def replay_journal(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a journal, dropping the torn tail.

    Returns ``(records, torn)``: the verified records in order, and how
    many trailing lines were dropped because they failed to parse,
    failed their checksum, or broke the contiguous ``seq`` sequence.
    Everything after the first bad line is untrusted (appends are
    ordered), so replay stops there.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return [], 0
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return records, len(lines) - index
        if not isinstance(record, dict):
            return records, len(lines) - index
        seq = record.get("seq")
        rtype = record.get("type")
        payload = record.get("payload")
        if (
            seq != len(records)
            or not isinstance(rtype, str)
            or not isinstance(payload, dict)
            or record.get("sha256") != _record_sha256(seq, rtype, payload)
        ):
            return records, len(lines) - index
        records.append({"seq": seq, "type": rtype, "payload": payload})
    return records, 0


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    out_dir: Path
    #: "clean" (nothing to recover), "complete" (run fully persisted,
    #: journal deleted), "resumable" (state synthesized/validated — run
    #: ``exl resume``), "corrupt-state" (torn state, no journal to
    #: rebuild it from; the file was quarantined)
    status: str
    journal: Optional[Path] = None
    records: int = 0
    torn_records: int = 0
    tmp_removed: List[str] = field(default_factory=list)
    #: committed snapshots whose bytes no longer hash to the journaled
    #: value — deleted, their subgraphs handed back to resume
    rolled_back: List[str] = field(default_factory=list)
    #: subgraphs re-admitted from verified snapshots (cube lists joined +)
    committed: List[str] = field(default_factory=list)
    #: subgraphs left for ``exl resume`` to re-dispatch
    unfinished: List[str] = field(default_factory=list)
    state_path: Optional[Path] = None
    quarantined: Optional[Path] = None

    @property
    def exit_code(self) -> int:
        if self.status in ("clean", "complete"):
            return 0
        if self.status == "resumable":
            return 3
        return 1

    def summary(self) -> str:
        lines = [f"recover {self.out_dir}: {self.status}"]
        if self.journal is not None:
            lines.append(
                f"  journal {self.journal.name}: {self.records} record(s)"
                + (
                    f", {self.torn_records} torn line(s) dropped"
                    if self.torn_records
                    else ""
                )
            )
        if self.tmp_removed:
            lines.append(
                f"  swept {len(self.tmp_removed)} stray tmp file(s)"
            )
        for path in self.rolled_back:
            lines.append(f"  rolled back torn commit {path}")
        if self.committed:
            lines.append(
                f"  re-admitted {len(self.committed)} committed "
                f"subgraph(s): {', '.join(self.committed)}"
            )
        if self.unfinished:
            lines.append(
                f"  {len(self.unfinished)} subgraph(s) to resume: "
                f"{', '.join(self.unfinished)}"
            )
        if self.state_path is not None:
            lines.append(f"  state written to {self.state_path}")
        if self.quarantined is not None:
            lines.append(f"  quarantined corrupt state as {self.quarantined}")
        return "\n".join(lines)


def _load_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _without_journal(
    out_dir: Path, state_path: Path, report: RecoveryReport
) -> RecoveryReport:
    """No journal to replay: validate or quarantine the state file."""
    if not state_path.exists():
        report.status = "clean"
        return report
    if _load_json(state_path) is not None:
        report.status = "resumable"
        report.state_path = state_path
        return report
    quarantine = state_path.with_name(state_path.name + ".corrupt")
    os.replace(state_path, quarantine)
    report.status = "corrupt-state"
    report.quarantined = quarantine
    return report


def recover(
    out_dir: Union[str, Path],
    state_path: Optional[Union[str, Path]] = None,
) -> RecoveryReport:
    """Replay the newest journal of ``out_dir`` after a hard crash.

    The recovery algorithm:

    1. Sweep stray atomic-write temp files (torn unjournaled writes).
    2. Replay the newest ``journal/*.wal``, dropping its torn tail;
       older journals are superseded and deleted.
    3. ``run-complete`` present -> the run persisted everything before
       dying (or the journal outlived a finished run): delete it, done.
    4. Otherwise verify every journaled ``staged-commit`` snapshot by
       content hash — mismatching or missing files are rolled back —
       and synthesize ``run-state.json``: verified subgraphs keep their
       recorded outcomes, every other *planned* subgraph is marked
       failed.  ``exl resume`` then re-dispatches exactly the work the
       crash destroyed.
    5. With no journal at all, a parseable ``run-state.json`` is already
       resumable; a torn one is quarantined as ``*.corrupt``.
    """
    out_dir = Path(out_dir)
    state_path = (
        Path(state_path) if state_path else out_dir / "run-state.json"
    )
    report = RecoveryReport(out_dir=out_dir, status="clean")
    report.tmp_removed = [str(p) for p in remove_stray_tmp(out_dir)]

    journal_dir = out_dir / JOURNAL_DIRNAME
    wals = sorted(
        journal_dir.glob("*.wal"), key=lambda p: p.stat().st_mtime
    ) if journal_dir.is_dir() else []
    for stale in wals[:-1]:
        stale.unlink(missing_ok=True)
    if not wals:
        return _without_journal(out_dir, state_path, report)

    journal_path = wals[-1]
    records, torn = replay_journal(journal_path)
    report.journal = journal_path
    report.records = len(records)
    report.torn_records = torn
    if not records:
        journal_path.unlink(missing_ok=True)
        return _without_journal(out_dir, state_path, report)

    if any(r["type"] == RUN_COMPLETE for r in records):
        # the run persisted everything (run-complete precedes cleanup);
        # finish the interrupted cleanup: state file and commit
        # snapshots are stale once the baseline superseded them
        if state_path.exists():
            state_path.unlink()
        committed_dir = out_dir / COMMITTED_DIRNAME
        if committed_dir.is_dir():
            shutil.rmtree(committed_dir, ignore_errors=True)
        journal_path.unlink(missing_ok=True)
        report.status = "complete"
        return report

    # records after the last run-start describe the interrupted run
    start_index = max(
        (i for i, r in enumerate(records) if r["type"] == RUN_START),
        default=None,
    )
    if start_index is None:
        # dispatch never began; whatever state exists already rules
        journal_path.unlink(missing_ok=True)
        return _without_journal(out_dir, state_path, report)
    start = records[start_index]["payload"]
    run_records = records[start_index:]

    # verify journaled commits against the bytes actually on disk
    verified: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    committed_files: Dict[str, str] = {}
    for record in run_records:
        if record["type"] != STAGED_COMMIT:
            continue
        payload = record["payload"]
        sub = payload.get("subgraph", {})
        files = payload.get("files", {})
        ok = True
        for name, entry in files.items():
            path = out_dir / entry.get("path", "")
            if _file_sha256(path) != entry.get("sha256"):
                ok = False
                if path.exists():
                    path.unlink(missing_ok=True)
                    report.rolled_back.append(entry.get("path", str(path)))
        if ok:
            verified[tuple(sub.get("cubes", ()))] = payload
        # a later commit of the same cubes (resume within one journal)
        # supersedes: dict assignment keeps the newest

    subgraphs: List[Dict[str, Any]] = []
    for planned in start.get("planned", []):
        cubes = tuple(planned.get("cubes", ()))
        hit = verified.get(cubes)
        if hit is not None:
            subgraphs.append(hit["subgraph"])
            report.committed.append("+".join(cubes))
            for name, entry in hit["files"].items():
                committed_files[name] = entry["path"]
        else:
            label = "+".join(cubes)
            report.unfinished.append(label)
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
    merged_committed = dict(committed_files)
    # a crashed *resume* run only replans its todo subgraphs, but the
    # prior partial run's state file still names the rest — fold the
    # journal's results over it so earlier commits survive the merge
    previous = _load_json(state_path)
    if previous is not None and isinstance(previous.get("record"), dict):
        prev_record = previous["record"]
        if prev_record.get("run_id") == record["run_id"]:
            by_cubes = {tuple(s["cubes"]): s for s in subgraphs}
            folded = [
                by_cubes.pop(tuple(s["cubes"]), s)
                for s in prev_record.get("subgraphs", [])
            ]
            folded.extend(by_cubes.values())
            record = dict(prev_record)
            record["subgraphs"] = folded
            record["on_error"] = "continue"
            record["error"] = crash_error
            merged_committed = dict(previous.get("committed", {}))
            merged_committed.update(committed_files)
    state = {"record": record, "committed": merged_committed}
    atomic_write(state_path, json.dumps(state, indent=2) + "\n")
    journal_path.unlink(missing_ok=True)
    report.status = "resumable"
    report.state_path = state_path
    return report

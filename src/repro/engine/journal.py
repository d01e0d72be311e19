"""Write-ahead journal and crash recovery for engine runs.

ARIES in miniature: before a run mutates durable state it logs its
*intent*, and after every atomic state change it logs the *outcome*, so
a hard crash (SIGKILL, OOM, power loss) at any byte offset leaves enough
on disk to roll the run forward or back.  The journal is a per-run
append-only file (``<out>/journal/<token>.wal``) of records that each
carry a checksum over their own content — a torn tail fails the
checksum and is dropped on replay, never misread.

Record grammar::

    RECORD := HEADER "\n" [ FRAME ... "\n" ]
    HEADER := {"seq": N, "type": TYPE, "payload": {...}, "sha256": HEX}
              (one JSON object on one line)
    FRAME  := the raw bytes of one cube's canonical CSV text

    TYPE := "run-start"         payload: run_id, trigger, affected,
                                         planned [{cubes, target}]
          | "subgraph-dispatch" payload: cubes, target
          | "staged-commit"     payload: subgraph (SubgraphRecord JSON),
                                         files {cube: {sha256, bytes}}
                                followed by one FRAME per ``files``
                                entry, in order, ``bytes`` long each
          | "sidecar-write"     payload: kind, path, sha256
          | "run-end"           payload: run_id, error
          | "run-complete"      payload: {}  (all persistence finished)

``sha256`` hashes the canonical serialization of ``{seq, type,
payload}``; ``seq`` is contiguous from 0, so replay also detects a
journal truncated *between* records.  The header vouches for the frame
lengths, each frame is vouched for by its own ``sha256`` in ``files``.

The commit rule: a ``staged-commit`` record *is* the snapshot.
:meth:`RunJournal.commit_subgraph` appends the subgraph's outcome and
the canonical text of each cube it produced in one write and one fsync,
so a journaled commit has its bytes on disk by construction — the cube
is written once here and once more under its final name by the run's
epilogue (:mod:`repro.engine.rundir`), nowhere else.  Only
``run-start``, ``staged-commit`` and ``run-complete`` are flushed:
recovery reads nothing else, and the intents between them sit in the
same append-only file, covered by the next commit's flush.

:func:`recover` replays the newest journal of an output directory and
synthesizes the standard ``run-state.json`` the CLI's ``resume`` path
already understands: commits whose frames still hash to their recorded
digests are written out under ``<out>/.committed/`` and re-admitted,
everything else is marked failed, and ``exl resume`` finishes the run
exactly.
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
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..chase.atomic import atomic_write, remove_stray_tmp
from ..model.io import canonical_text
from .history import fold_subgraphs

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


class RunJournal:
    """Append-only write-ahead journal for one CLI run.

    Lazily creates ``<out>/journal/<token>.wal`` on the first append, so
    constructing a journal for a run that fails before dispatch leaves
    no artifact.  Appends are serialized under a lock (the dispatcher
    commits from worker threads).  ``fsync=False`` skips the fsyncs —
    same crash atomicity against process death, no power-loss guarantee
    — for the overhead ablation.
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
    def append(
        self,
        rtype: str,
        payload: Dict[str, Any],
        frames: Sequence[bytes] = (),
        flush: bool = True,
    ) -> None:
        """Append one checksummed record, ``frames`` raw after its
        header line, and force the file to disk.  ``flush=False`` leaves
        the record to the next flushed append: for records recovery
        never reads, which need no durability of their own."""
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            seq = self._seq
            self._seq += 1
            header = json.dumps(
                {
                    "seq": seq,
                    "type": rtype,
                    "payload": payload,
                    "sha256": _record_sha256(seq, rtype, payload),
                },
                separators=(",", ":"),
            )
            self._handle.write(header.encode("utf-8") + b"\n")
            if frames:
                self._handle.writelines(frames)
                self._handle.write(b"\n")
            if flush:
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
            SUBGRAPH_DISPATCH,
            {"cubes": list(cubes), "target": target},
            flush=False,
        )

    def commit_subgraph(self, sub_record, cubes: Dict[str, Any]) -> None:
        """Journal one committed subgraph together with its cubes.

        The ``staged-commit`` record carries each output cube's
        :func:`~repro.model.io.canonical_text` as a raw frame and its
        content hash in the header: one write, one fsync, and the
        journal cannot vouch for bytes that are not on disk.  Recovery
        re-admits the subgraph only when every frame still verifies.
        The run's epilogue writes the same text under the cube's final
        names instead of serializing the cube again.
        """
        files: Dict[str, Dict[str, Any]] = {}
        frames: List[bytes] = []
        for name, cube in cubes.items():
            raw = canonical_text(cube).encode("utf-8")
            files[name] = {
                "sha256": hashlib.sha256(raw).hexdigest(),
                "bytes": len(raw),
            }
            frames.append(raw)
        self.append(
            STAGED_COMMIT,
            {"subgraph": sub_record.to_json(), "files": files},
            frames,
        )

    def sidecar_write(self, kind: str, path: Union[str, Path],
                      sha256: Optional[str] = None) -> None:
        """Log one durable artifact written outside the commit path.

        Nothing in the engine calls this any more — recovery never read
        these records, and a finished epilogue is marked by
        ``run-complete`` alone — but it stays part of the journal's
        surface for callers that want an audit line per file."""
        path = Path(path)
        try:
            rel = str(path.relative_to(self.out_dir))
        except ValueError:
            rel = str(path)
        self.append(
            SIDECAR_WRITE,
            {"kind": kind, "path": rel, "sha256": sha256},
            flush=False,
        )

    def run_end(self, run_id: int, error: Optional[str]) -> None:
        self.append(RUN_END, {"run_id": run_id, "error": error}, flush=False)

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


#: how a record header starts, whoever serialized it; cube text never
#: does (a CSV field holding a quote is itself quoted)
_HEADER_PREFIX = b'{"seq":'


def _parse_header(line: bytes, seq: int) -> Optional[Dict[str, Any]]:
    """The record a header line holds, or None when it is not the
    intact record number ``seq``."""
    try:
        record = json.loads(line)
    except ValueError:  # includes undecodable bytes
        return None
    if not isinstance(record, dict):
        return None
    rtype = record.get("type")
    payload = record.get("payload")
    if (
        record.get("seq") != seq
        or not isinstance(rtype, str)
        or not isinstance(payload, dict)
        or record.get("sha256") != _record_sha256(seq, rtype, payload)
    ):
        return None
    return {"seq": seq, "type": rtype, "payload": payload}


def _frame_sizes(record: Dict[str, Any]) -> Optional[Dict[str, int]]:
    """``{cube: frame length}`` for the frames that follow a record's
    header — none unless it is a ``staged-commit`` whose ``files``
    entries say so (one an older version wrote names snapshot paths
    instead) — or None when the lengths make no sense."""
    if record["type"] != STAGED_COMMIT:
        return {}
    files = record["payload"].get("files")
    if not isinstance(files, dict):
        return None
    sizes: Dict[str, int] = {}
    for name, entry in files.items():
        size = entry.get("bytes") if isinstance(entry, dict) else None
        if size is None:
            continue
        if not isinstance(size, int) or size < 0:
            return None
        sizes[name] = size
    return sizes


def replay_journal(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a journal, dropping the torn tail.

    Returns ``(records, torn)``: the verified records in order — a
    ``staged-commit`` one with its frames under ``"frames"`` as
    ``{cube: bytes}``, present in full but not yet checked against
    their digests — and how many trailing records were dropped because
    their header failed to parse, failed its checksum, broke the
    contiguous ``seq`` sequence, or was followed by fewer bytes than it
    announces.  Everything after the first bad record is untrusted
    (appends are ordered), so replay stops there.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return [], 0
    records: List[Dict[str, Any]] = []
    position = 0
    while position < len(data):
        end = data.find(b"\n", position)
        if end < 0:
            end = len(data)
        line = data[position:end].strip()
        if not line:
            position = end + 1
            continue
        record = _parse_header(line, len(records))
        sizes = _frame_sizes(record) if record is not None else None
        if sizes is None:
            break
        cursor = end + 1
        if sizes:
            frames = {}
            for name, size in sizes.items():
                frames[name] = data[cursor:cursor + size]
                cursor += size
            if data[cursor:cursor + 1] != b"\n":
                break  # torn inside the frames
            cursor += 1
            record["frames"] = frames
        records.append(record)
        position = cursor
    else:
        return records, 0
    tail = data[position:]
    dropped = tail.startswith(_HEADER_PREFIX) + tail.count(b"\n" + _HEADER_PREFIX)
    return records, max(1, dropped)


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
    #: journaled commits whose cube bytes no longer hash to the recorded
    #: digest, or that carry none (a journal an older version left) —
    #: not trusted, their subgraphs handed back to resume (cube lists
    #: joined +)
    rolled_back: List[str] = field(default_factory=list)
    #: subgraphs re-admitted from verified commits (cube lists joined +)
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
        for label in self.rolled_back:
            lines.append(f"  rolled back torn commit {label}")
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


def _journal_age(path: Path) -> int:
    """When a journal was started, in ns since the epoch: the
    ``time_ns`` its token begins with — a copied or restored run
    directory has arbitrary mtimes — and the mtime only for a name that
    does not say."""
    head = path.stem.partition("-")[0]
    return int(head) if head.isdigit() else path.stat().st_mtime_ns


def _drop_journals(journal_dir: Path) -> None:
    """Delete the journals and their directory, as
    :meth:`RunJournal.discard` does for a run that finished."""
    for wal in journal_dir.glob("*.wal"):
        wal.unlink(missing_ok=True)
    try:
        journal_dir.rmdir()
    except OSError:
        pass


def _commit_verifies(payload: Dict[str, Any], frames: Dict[str, bytes]) -> bool:
    """Whether every cube a ``staged-commit`` names came with bytes
    that hash to the digest its header records."""
    files = payload.get("files", {})
    return all(
        name in frames
        and hashlib.sha256(frames[name]).hexdigest() == entry.get("sha256")
        for name, entry in files.items()
    )


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
    4. Otherwise verify every journaled ``staged-commit`` from the cube
       bytes it carries — one whose bytes fail their digest, or that
       carries none, is not trusted — write the verified cubes to
       ``<out>/.committed/`` and synthesize ``run-state.json``:
       verified subgraphs keep their recorded outcomes, every other
       *planned* subgraph is marked failed.  ``exl resume`` then
       re-dispatches exactly the work the crash destroyed.
    5. With no journal at all, a parseable ``run-state.json`` is already
       resumable; a torn one is quarantined as ``*.corrupt``.

    Whichever way it ends, the journal and its directory are gone.
    """
    out_dir = Path(out_dir)
    state_path = (
        Path(state_path) if state_path else out_dir / "run-state.json"
    )
    report = RecoveryReport(out_dir=out_dir, status="clean")
    report.tmp_removed = [str(p) for p in remove_stray_tmp(out_dir)]

    journal_dir = out_dir / JOURNAL_DIRNAME
    wals = sorted(journal_dir.glob("*.wal"), key=_journal_age)
    for stale in wals[:-1]:
        stale.unlink(missing_ok=True)
    if not wals:
        _drop_journals(journal_dir)
        return _without_journal(out_dir, state_path, report)

    journal_path = wals[-1]
    records, torn = replay_journal(journal_path)
    report.journal = journal_path
    report.records = len(records)
    report.torn_records = torn
    if not records:
        _drop_journals(journal_dir)
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
        _drop_journals(journal_dir)
        report.status = "complete"
        return report

    # records after the last run-start describe the interrupted run
    start_index = max(
        (i for i, r in enumerate(records) if r["type"] == RUN_START),
        default=None,
    )
    if start_index is None:
        # dispatch never began; whatever state exists already rules
        _drop_journals(journal_dir)
        return _without_journal(out_dir, state_path, report)
    start = records[start_index]["payload"]

    # trust a journaled commit only on the evidence of its own bytes
    verified: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    for record in records[start_index:]:
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
    committed_files: Dict[str, str] = {}
    for planned in start.get("planned", []):
        cubes = tuple(planned.get("cubes", ()))
        hit = verified.get(cubes)
        if hit is not None:
            subgraphs.append(hit["payload"]["subgraph"])
            report.committed.append("+".join(cubes))
            for name, raw in hit.get("frames", {}).items():
                snapshot = out_dir / COMMITTED_DIRNAME / f"{name}.csv"
                atomic_write(snapshot, raw)
                committed_files[name] = str(snapshot.relative_to(out_dir))
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
            record = dict(prev_record)
            record["subgraphs"] = fold_subgraphs(
                prev_record.get("subgraphs", []), subgraphs
            )
            record["on_error"] = "continue"
            record["error"] = crash_error
            merged_committed = dict(previous.get("committed", {}))
            merged_committed.update(committed_files)
    state = {"record": record, "committed": merged_committed}
    atomic_write(state_path, json.dumps(state, indent=2) + "\n")
    _drop_journals(journal_dir)
    report.status = "resumable"
    report.state_path = state_path
    return report

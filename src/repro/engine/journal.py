"""The write-ahead journal (WAL) of an engine run: its record format.

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
    FRAME  := one cube's canonical bytes (its CSV text in UTF-8)

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
the canonical bytes of each cube it produced in one write and one
fsync, so a journaled commit has its bytes on disk by construction.  A
frame is those bytes themselves (:func:`repro.model.io.canonical_bytes`)
and its ``sha256`` the digest that rides with them: the journal neither
copies nor hashes a cube again, and the run's epilogue writes the same
object under the cube's final names.  Only
``run-start``, ``staged-commit`` and ``run-complete`` are flushed:
recovery reads nothing else, and the intents between them are covered
by the next commit's flush.

This module is the format alone: the run's epilogue and recovery
(:meth:`repro.engine.rundir.RunDirectory.recover`, which reads a
journal through :func:`replay_journal`) live in :mod:`repro.engine.rundir`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..model.io import canonical_bytes

__all__ = ["RunJournal", "replay_journal", "JOURNAL_DIRNAME"]

JOURNAL_DIRNAME = "journal"

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
    commits from worker threads).
    """

    def __init__(self, out_dir: Union[str, Path], token: Optional[str] = None):
        self.out_dir = Path(out_dir)
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
        :func:`~repro.model.io.canonical_bytes` as a raw frame and
        their digest in the header: one write, one fsync, and the
        journal cannot vouch for bytes that are not on disk.  Recovery
        re-admits the subgraph only when every frame still verifies.
        The run's epilogue writes the same bytes under the cube's final
        names instead of serializing the cube again.
        """
        files: Dict[str, Dict[str, Any]] = {}
        frames: List[bytes] = []
        for name, cube in cubes.items():
            data, digest = canonical_bytes(cube)
            files[name] = {"sha256": digest, "bytes": len(data)}
            frames.append(data)
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
        its state was captured by a durable run-state file)."""
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

"""The run directory: what a finished run writes under ``<out>``, in
which order, and which flush covers it.

Layout::

    <out>/X.csv                  an output cube
    <out>/baseline/X.csv         every cube with data, for ``exl update``
    <out>/baseline/baseline.json the index: the commit point; files,
                                 digests, cube schemas, program digest
    <out>/run-state.json         only after a partial failure (exit 3)
    <out>/.committed/X.csv       only beside a run-state.json
    <out>/journal/<token>.wal    only while a run is in flight

The bytes of a cube exist once.  Every role a cube's canonical text
plays — output, baseline, committed snapshot — goes through
:meth:`RunDirectory.place`: the first destination of a digest is
written, every later one is a hard link to that file.  Nothing here
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

A run without a journal takes the same path, minus the records.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..chase.atomic import atomic_write, fsync_dir, staging_path
from ..model.io import canonical_text, text_sha256
from . import baseline
from .history import COMMITTED_OUTCOMES, fold_subgraphs
from .journal import COMMITTED_DIRNAME

__all__ = ["RunDirectory", "Finished"]

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
    """The epilogue of one ``run`` / ``update`` / ``resume``.

    ``journal`` is the run's :class:`~repro.engine.journal.RunJournal`,
    or None for a run without one.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        state_path: Optional[Union[str, Path]] = None,
        journal=None,
    ):
        self.out_dir = Path(out_dir)
        self.baseline_dir = self.out_dir / "baseline"
        self.committed_dir = self.out_dir / COMMITTED_DIRNAME
        self.state_path = (
            Path(state_path) if state_path else self.out_dir / "run-state.json"
        )
        self.journal = journal
        #: digest -> the file that was written with those bytes
        self._written: Dict[str, Path] = {}
        #: written since the last barrier: data not yet flushed
        self._unflushed: List[Path] = []
        #: directories renamed into since the last barrier
        self._touched: Dict[Path, None] = {}

    # -- the two verbs ---------------------------------------------------------
    def place(self, text: str, digest: str, destination: Path) -> None:
        """Make ``destination`` hold ``text``, whose digest is
        ``digest``, atomically and without flushing.

        The first destination of a digest is written; a later one is a
        hard link to it, renamed over the name.  Where the filesystem
        refuses the link the text is written again — the only second
        path.
        """
        destination.parent.mkdir(parents=True, exist_ok=True)
        source = self._written.get(digest)
        if source is None or not _link_over(source, destination):
            atomic_write(destination, text, fsync=False)
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
        EXL text its catalog was compiled from (the index records its
        digest beside the schemas) and ``previous_record`` the state an
        ``exl resume`` started from, whose committed subgraphs count as
        this run's.  ``outputs`` names the project's
        output cubes (default: every cube of the run).
        ``previous_index`` is the ``baseline.json`` the run started
        from, when it was an update or the resume of one: what that
        index already records, byte for byte, is not written again — a
        cube replayed clean or never planned keeps its files.
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
        fresh = baseline.fresh_texts(engine, computed, previous_index)
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
        fresh: Dict[str, str],
        outputs: Iterable[str],
        program_source: str,
        previous: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Every subgraph committed: outputs, baseline, clean-up.

        ``fresh`` maps each cube this run has new bytes for to its
        canonical text (:func:`repro.engine.baseline.fresh_texts`),
        ``outputs`` names those of them that are output files,
        ``program_source`` is the text ``catalog`` was compiled from,
        and ``previous`` is the index the run started from, whose other
        entries are carried forward with their files left alone.  The
        state file, committed snapshots and journal stay until the new
        ``baseline.json`` is durable, and ``run-complete`` is journaled
        before they go: a crash anywhere stays recoverable, and one
        mid-clean-up is finished by ``exl recover`` instead of
        resurrecting a stale state file.
        """
        digests = {name: text_sha256(text) for name, text in fresh.items()}
        for name in outputs:
            self.place(fresh[name], digests[name], self.out_dir / f"{name}.csv")
        self.barrier()
        for name, text in fresh.items():
            self.place(text, digests[name], self.baseline_dir / f"{name}.csv")
        self.barrier()
        atomic_write(
            self.baseline_dir / baseline.INDEX_NAME,
            baseline.index_text(
                catalog, record_json, digests, program_source, previous
            ),
        )
        for stale in STALE_CACHE_DIRS:
            shutil.rmtree(self.baseline_dir / stale, ignore_errors=True)
        if self.journal is not None:
            self.journal.run_complete()
        self.state_path.unlink(missing_ok=True)
        if self.committed_dir.is_dir():
            shutil.rmtree(self.committed_dir)
        if self.journal is not None:
            self.journal.discard()

    def suspend(
        self,
        catalog,
        state_record: Dict[str, Any],
        fresh: Optional[Dict[str, str]] = None,
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
            self.place(
                fresh[name], text_sha256(fresh[name]), self.out_dir / f"{name}.csv"
            )
        committed: Dict[str, str] = {}
        for sub in state_record["subgraphs"]:
            if sub["outcome"] not in COMMITTED_OUTCOMES:
                continue
            for name in sub["cubes"]:
                if catalog.store.digest(name) is not None:
                    continue
                text = canonical_text(catalog.data(name))
                snapshot = self.committed_dir / f"{name}.csv"
                self.place(text, text_sha256(text), snapshot)
                committed[name] = str(snapshot.relative_to(self.out_dir))
        self.barrier()
        atomic_write(
            self.state_path,
            json.dumps({"record": state_record, "committed": committed}, indent=2)
            + "\n",
        )
        if self.journal is not None:
            self.journal.discard()

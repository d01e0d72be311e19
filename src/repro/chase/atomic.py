"""Crash-atomic file persistence.

Every durable artifact the system writes — run state, baseline CSVs and
JSON, columnar and lattice sidecars, committed cube snapshots — goes
through :func:`atomic_write`: the data lands in a temporary file in the
*same directory* as the destination, is flushed and fsynced, and is then
renamed over the destination with ``os.replace`` (atomic on POSIX within
one filesystem), followed by an fsync of the directory so the rename
itself survives power loss.  A reader therefore only ever observes the
old complete content or the new complete content, never a torn prefix —
the invariant the write-ahead journal (:mod:`repro.engine.journal`) and
``exl recover`` build on.

A crash *between* the temp-file write and the rename leaves a stray
``.<name>.<pid>-<n>.tmp`` file next to the destination; these are inert
(no reader ever opens them) and :func:`remove_stray_tmp` sweeps them
during recovery.

This module deliberately imports nothing from the rest of the package so
any layer (model, chase, engine, CLI) can use it without cycles.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import List, Union

__all__ = [
    "atomic_write",
    "fsync_dir",
    "remove_stray_tmp",
    "staging_path",
    "TMP_SUFFIX",
]

#: suffix of the temporary files :func:`atomic_write` stages; recovery
#: sweeps leftovers matching ``.*<TMP_SUFFIX>``
TMP_SUFFIX = ".tmp"

_counter = itertools.count()


def staging_path(path: Path) -> Path:
    """A fresh ``.<name>.<pid>-<n>.tmp`` sibling of ``path``: where new
    content is staged before ``os.replace`` puts it under its name.
    Whatever a crash strands under such a name, recovery sweeps."""
    return path.parent / f".{path.name}.{os.getpid()}-{next(_counter)}{TMP_SUFFIX}"


def fsync_dir(directory: Union[str, Path]) -> None:
    """Fsync a directory so a rename inside it is durable.

    Best-effort: platforms or filesystems that refuse to open/fsync a
    directory (Windows, some network mounts) degrade to the rename-only
    guarantee, which is still atomic for readers.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Union[str, Path],
    data: Union[str, bytes],
    fsync: bool = True,
) -> Path:
    """Write ``data`` to ``path`` so a crash never leaves a torn file.

    tmp file in the destination's directory -> write -> flush -> fsync
    -> ``os.replace`` over the destination -> directory fsync.  A
    ``str`` is written as UTF-8, whatever the locale.  Returns the
    destination path.  ``fsync=False`` keeps the same atomicity
    against process crashes (the rename still happens only after the
    data is fully written) but drops the power-loss guarantee — used by
    :meth:`repro.engine.rundir.RunDirectory.place`, whose barrier flushes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = staging_path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if fsync:
        fsync_dir(path.parent)
    return path


def remove_stray_tmp(root: Union[str, Path]) -> List[Path]:
    """Delete leftover atomic-write temp files under ``root``.

    A kill between staging and rename strands ``.<name>.<pid>-<n>.tmp``
    files; they hold partial data no reader trusts, so recovery sweeps
    them.  Returns the paths removed.
    """
    removed = []
    root = Path(root)
    if not root.is_dir():
        return removed
    for tmp in root.rglob(f".*{TMP_SUFFIX}"):
        if not tmp.is_file():
            continue
        try:
            tmp.unlink()
            removed.append(tmp)
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed

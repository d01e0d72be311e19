"""Reach census: which executable lines of ``src/repro`` product paths run.

A line of ``src/repro`` that no product path executes is code that only
tests keep alive.  This script runs the product paths below under the
stdlib line tracer (``sys.settrace``; no ``coverage`` needed), each in
its own child process, and reports what they did not reach:

* both pipeline-benchmark workloads at ``--quick`` through
  ``python -m repro``'s entry: ``run``, ``update`` (on revised inputs),
  the session's three ``query`` calls, ``compile`` for each of the five
  targets, ``show`` and ``recover``; ``cube_chase`` is also run with
  ``--shards 2``;
* the five scripts under ``examples/``;
* ``scenario_corpus(0)`` through the chase backend, on the composed
  mapping every target runs.

A forked child (a shard worker) keeps its parent's tracer and writes
its own line set, to ``<out>.<pid>``, when it leaves through
``os._exit``; a worker that is killed writes nothing.

Executable lines are taken from the compiled code objects of every
module (``co_lines``), so a def, a decorator or an import counts, and a
comment, a blank or a docstring continuation line does not.

Run from the repository root::

    python benchmarks/reach.py            # per-module table, then the total
    python benchmarks/reach.py --brief    # the total line only

The last line printed is always the total, e.g.
``reach: 10011 of 15615 executable lines (64.1%)``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PIPELINE = ROOT / "benchmarks" / "pipeline"

#: the child-side tracer: records (file, line) for frames in src/repro
#: and dumps them as JSON to argv[1] before the process leaves — also
#: when it leaves through ``os._exit``, as ``python -m repro`` does
_TRACER = """\
import json, os, sys, threading
_OUT, _PREFIX = sys.argv[1], sys.argv[2]
_HITS = {}

def _local(frame, event, arg):
    if event == "line":
        _HITS.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local

def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _HITS.setdefault(name, set()).add(frame.f_lineno)
    return _local

def _dump():
    sys.settrace(None)
    with open(_OUT, "w") as out:
        json.dump({k: sorted(v) for k, v in _HITS.items()}, out)

_exit = os._exit
def _leave(code):
    _dump()
    _exit(code)
os._exit = _leave

def _forked():
    global _OUT
    _OUT = f"{_OUT}.{os.getpid()}"
    _HITS.clear()
    sys.settrace(_global)
os.register_at_fork(after_in_child=_forked)
del sys.argv[1:3]
sys.settrace(_global)
threading.settrace(_global)
"""

#: what each child runs once its tracer is installed
_CLI = _TRACER + """\
from repro.__main__ import run
try:
    run(sys.argv[1:])
finally:
    _dump()
"""

_SCRIPT = _TRACER + """\
import runpy
sys.argv = sys.argv[1:]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    _dump()
"""

_SCENARIOS = _TRACER + """\
try:
    from repro.backends import ChaseBackend
    from repro.exl import Program
    from repro.mappings import generate_mapping, simplify_mapping
    from repro.workloads import scenario_corpus

    for workload in scenario_corpus(0):
        program = Program.compile(workload.source, workload.schema)
        mapping = simplify_mapping(generate_mapping(program))
        ChaseBackend().run_mapping(mapping, dict(workload.data))
finally:
    _dump()
"""


def executable_lines(path: Path) -> Set[int]:
    """Line numbers of ``path`` that carry bytecode."""
    lines: Set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _child(script: str, argv: List[str], cwd: Path, hits: Dict[str, Set[int]]) -> None:
    """Run one traced child and fold its hits into ``hits``."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out = Path(handle.name)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def dumps() -> List[Path]:
        """The child's line sets: its own, then one per forked worker."""
        return [out, *out.parent.glob(out.name + ".*")]

    try:
        done = subprocess.run(
            [sys.executable, "-c", script, str(out), str(PACKAGE), *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"reach: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}"
            )
        for dump in dumps():
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    finally:
        for dump in dumps():
            dump.unlink()


def _pipeline_calls(name: str, work: Path) -> Iterator[List[str]]:
    """The CLI calls of one quick pipeline cycle, inputs written as it goes."""
    sys.path.insert(0, str(PIPELINE))
    try:
        import workloads
    finally:
        sys.path.remove(str(PIPELINE))
    workload = workloads.generate(name, 7, quick=True)
    workloads.write_inputs(workload, work)
    project, out = str(work / "project.json"), str(work / "out")
    yield ["run", project, "--out", out]
    if name == "cube_chase":
        sharded = str(work / "sharded")
        yield ["run", project, "--out", sharded, "--shards", "2"]
    workloads.write_inputs(workload, work, revised=True)
    yield ["update", project, "--out", out]
    for query in workload.session:
        yield ["query", project, *query.argv(), "--out", out]
    for target in ("sql", "r", "matlab", "etl", "chase"):
        yield ["compile", project, "--target", target]
    yield ["show", project]
    yield ["recover", project, "--out", out]


def census() -> Dict[str, Set[int]]:
    """Run every product path; executed lines per source file."""
    hits: Dict[str, Set[int]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for name in ("cube_chase", "chain_targets"):
            work = scratch / name
            work.mkdir()
            for argv in _pipeline_calls(name, work):
                _child(_CLI, argv, work, hits)
        for example in sorted((ROOT / "examples").glob("*.py")):
            _child(_SCRIPT, [str(example)], scratch, hits)
        _child(_SCENARIOS, [], scratch, hits)
    return hits


def _ranges(lines: List[int]) -> str:
    parts, start, previous = [], None, None
    for line in lines:
        if start is None:
            start = previous = line
        elif line == previous + 1:
            previous = line
        else:
            parts.append(f"{start}" if start == previous else f"{start}-{previous}")
            start = previous = line
    if start is not None:
        parts.append(f"{start}" if start == previous else f"{start}-{previous}")
    return ", ".join(parts)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--brief", action="store_true", help="print the total line only"
    )
    args = parser.parse_args(argv)
    hits = census()
    total = reached = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        ran = hits.get(str(path), set()) & lines
        total += len(lines)
        reached += len(ran)
        missing = sorted(lines - ran)
        if missing:
            rows.append((path.relative_to(SRC).as_posix(), len(missing), len(lines), missing))
    if not args.brief:
        print("unreached executable lines per module")
        for module, count, size, missing in rows:
            print(f"{module}: {count} of {size} unreached: {_ranges(missing)}")
    print(
        f"reach: {reached} of {total} executable lines "
        f"({100.0 * reached / total:.1f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

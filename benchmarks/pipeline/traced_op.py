"""Child side of a traced cycle: one ``exl`` CLI call with spans around
the public entry points of each layer.

    python traced_op.py SPANS_OUT SPAWN_T OP -- <exl argv...>

Nothing under ``src/`` knows about this file.  Each entry point in
:func:`install` is wrapped from outside: the attribute is rebound in the
module that defines it and in every loaded ``repro`` module that imported
it by name (``repro.cli.read_cube_csv`` is its own binding), then
``repro.cli.main(argv)`` runs as usual.  Spans (name, start, end, parent)
stay in memory and are dumped with the counters when the call ends.

``SPAWN_T`` is the parent's ``time.perf_counter()`` just before it
spawned this process; on Linux that clock is system-wide, so
``main entry - SPAWN_T`` is the process start-up (interpreter + imports).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

#: [name, start, end, parent index or -1]
SPANS: list = []
COUNTS: Counter = Counter()
_stack: list = []


def traced(name, fn, after=None):
    """``fn`` with a span around it.  ``name`` is a string or a function
    of the call's positional arguments; ``after(args, result)`` bumps
    counters once the call has returned — only for the outermost span of
    a name, so a wrapped function that delegates to another wrapped one
    of the same layer (``cube_from_csv_text`` -> ``read_cube_csv``,
    ``ChaseBackend.run_mapping`` -> ``Backend.run_mapping``) counts once."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(SPANS)
        label = name if isinstance(name, str) else name(args)
        outermost = all(SPANS[i][0] != label for i in _stack)
        SPANS.append([label, time.perf_counter(), None, _stack[-1] if _stack else -1])
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            SPANS[index][2] = time.perf_counter()
            _stack.pop()
        if after is not None and outermost:
            after(args, result)
        return result

    return wrapper


def rebind_function(module, attr, name, after=None):
    original = getattr(module, attr)
    wrapper = traced(name, original, after)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def rebind_method(cls, attr, name, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(traced(name, raw.__func__, after)))
    else:
        setattr(cls, attr, traced(name, raw, after))


def install():
    import repro.cli  # loads every layer, so by-name imports are all bound
    from repro.backends.base import Backend
    from repro.backends.chasebackend import ChaseBackend
    from repro.chase import atomic, persist
    from repro.engine.determination import DependencyGraph
    from repro.engine.dispatcher import Dispatcher
    from repro.engine.exlengine import EXLEngine
    from repro.engine.journal import RunJournal
    from repro.engine.translation import TranslationEngine
    from repro.exl.program import Program
    from repro.mappings import generator, simplify
    from repro.model import io as model_io
    from repro.olap.lattice import CubeLattice
    from repro.olap.query import OlapService

    def rows_read(args, cube):
        COUNTS["model.io.rows_read"] += len(cube)

    def rows_written(args, text):
        COUNTS["model.io.rows_written"] += len(args[0])

    rebind_function(model_io, "read_cube_csv", "model.io.read", rows_read)
    rebind_function(model_io, "cube_from_csv_text", "model.io.read", rows_read)
    rebind_function(model_io, "cube_to_csv_text", "model.io.write", rows_written)

    rebind_method(Program, "compile", "exl.compile")
    rebind_method(EXLEngine, "add_program", "exl.compile")

    def tgds(args, mapping):
        COUNTS["mappings.tgds"] += len(mapping.target_tgds)

    rebind_function(generator, "generate_mapping", "mappings.generate", tgds)
    rebind_function(simplify, "simplify_mapping", "mappings.generate")

    for attr in ("__init__", "affected_by", "partition"):
        rebind_method(DependencyGraph, attr, "engine.determination")
    for attr in ("translate_all", "for_target"):
        rebind_method(TranslationEngine, attr, "engine.translation")
    rebind_method(Dispatcher, "dispatch", "engine.dispatcher")

    def backend_span(args):
        return f"backends.{args[0].name}.run_mapping"

    def tuples_out(args, cubes):
        COUNTS["backends.tuples_out"] += sum(len(cube) for cube in cubes.values())

    rebind_method(Backend, "run_mapping", backend_span, tuples_out)
    rebind_method(ChaseBackend, "run_mapping", backend_span, tuples_out)
    rebind_method(ChaseBackend, "run_mapping_delta", backend_span)

    def journal_record(args, result):
        COUNTS["engine.journal.records"] += 1

    rebind_method(RunJournal, "append", "engine.journal", journal_record)
    for attr in ("commit_subgraph", "sidecar_write", "run_complete", "discard"):
        rebind_method(RunJournal, attr, "engine.journal")

    def atomic_bytes(args, result):
        data = args[1]
        COUNTS["chase.atomic.writes"] += 1
        COUNTS["chase.atomic.bytes_written"] += len(
            data if isinstance(data, bytes) else data.encode("utf-8")
        )

    rebind_function(atomic, "atomic_write", "chase.atomic.write", atomic_bytes)

    def attach(args, hit):
        COUNTS["chase.persist.attach_attempts"] += 1
        COUNTS["chase.persist.attach_hits"] += bool(hit)

    rebind_function(persist, "write_store_sidecar", "chase.persist.store_write")
    rebind_function(persist, "attach_store_sidecar", "chase.persist.store_attach", attach)
    rebind_function(persist, "write_lattice_sidecar", "chase.persist.lattice_write")

    def lattice_size(lattice):
        # the one lattice the query serves: set, not add, so build and
        # attach in one process cannot count it twice
        COUNTS["olap.lattice.nodes"] = len(lattice.nodes)
        COUNTS["olap.lattice.groups"] = lattice.total_groups()

    def lattice_attached(args, hit):
        attach(args, hit)
        if hit:
            lattice_size(args[0])

    rebind_function(
        persist, "attach_lattice_sidecar", "chase.persist.lattice_attach", lattice_attached
    )
    rebind_method(
        CubeLattice, "build", "olap.lattice.build", lambda args, _: lattice_size(args[0])
    )
    for attr in ("rollup", "point"):
        rebind_method(OlapService, attr, "olap.query.answer")

    real_fsync = os.fsync

    def counting_fsync(fd):
        COUNTS["chase.atomic.fsyncs"] += 1
        return real_fsync(fd)

    os.fsync = counting_fsync
    return traced("cli", repro.cli.main)


def main() -> int:
    spans_out, spawn_t, op = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    cli_main = install()
    code = 1
    try:
        code = cli_main(argv)
    finally:
        with open(spans_out, "w") as handle:
            json.dump(
                {"op": op, "pid": os.getpid(), "spawn_t": spawn_t,
                 "spans": SPANS, "counts": dict(COUNTS)},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())

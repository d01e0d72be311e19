"""Process entry point: ``python -m repro`` and the ``exl`` / ``repro``
console scripts.

:func:`run` is what a one-shot process adds around :func:`repro.cli.main`
(DESIGN.md, "Process lifecycle"): fewer collector passes while the
modules load, no native worker pool started by numpy's BLAS, standard
streams in UTF-8 whatever the locale, and no interpreter teardown after
a clean return.  Code that calls ``cli.main``
in-process — tests, profilers, ``atexit``-based tools — gets none of it.
"""

import gc
import os
import sys

#: gen-0 threshold for the life of the process (CPython's default is
#: 700).  Importing allocates tens of thousands of long-lived containers
#: — functions, classes, module dicts — and a young-generation pass
#: walks every one allocated since the last: ~110 passes that find
#: nothing during one ``exl run`` at the default, none at this value
#: until a call has allocated 100 000 containers more than it freed.
#: The collector stays on, so a large input's cyclic garbage is still
#: bounded; peak RSS moves by < 1.5 % (EXPERIMENTS.md, EXP-LIFECYCLE).
GC_THRESHOLD = 100_000

#: What tells numpy's BLAS (OpenBLAS in the wheels; OpenMP / MKL in
#: other builds) how many worker threads to start when it is loaded.
#: Unset, ``import numpy`` starts one per extra core, each spinning
#: before it sleeps — on two cores 0.064 s of a 0.139 s import is the
#: main thread waiting — though no chase kernel, reader or writer calls
#: BLAS, and the two modules that do (``stats.regression``,
#: ``stats.smoothing``) work on series of a few hundred points.  The
#: engine's parallelism is its own: ``--jobs`` threads, ``--shards``
#: processes (EXPERIMENTS.md, EXP-BLASPOOL).
NATIVE_POOL_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _flushed() -> bool:
    """Flush both standard streams; False when one cannot be."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        raise
    except (OSError, ValueError):
        return False
    return True


def run(argv=None):
    """Run the CLI and end the process with its exit code.

    After a clean return — an integer exit code from ``main`` or
    argparse's ``SystemExit``, both standard streams flushed, no other
    thread alive — the process leaves through ``os._exit``: every
    durable write is closed or fsynced before ``main`` returns, so
    finalising the modules and freeing each object one by one is work
    for nobody.  An exception, a failed flush or a live thread takes
    the ordinary ``sys.exit`` path.

    Before ``repro.cli`` — hence numpy — is imported, each of
    :data:`NATIVE_POOL_VARIABLES` the user has not exported is set to
    one thread: an exported value wins, and ``--shards`` workers
    inherit the setting over the fork.  Standard output and error are
    UTF-8, as every file the CLI writes is, so a label prints the same
    bytes under ``LC_ALL=C`` as under ``C.UTF-8``.
    """
    gc.set_threshold(GC_THRESHOLD)
    for name in NATIVE_POOL_VARIABLES:
        os.environ.setdefault(name, "1")
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    from .cli import main

    try:
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = 0 if exit_.code is None else exit_.code
        clean = isinstance(code, int) and _flushed()
    except BrokenPipeError:
        # the reader went away (``exl show p.json | head -1``): nobody is
        # left to tell.  Point stdout at devnull so the interpreter's own
        # flush at shutdown has somewhere to write, and exit non-zero.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    threading = sys.modules.get("threading")
    if clean and (threading is None or threading.active_count() == 1):
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()

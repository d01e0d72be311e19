"""Command-line interface: ``python -m repro <command> project.json``.

A *project file* (JSON) declares the elementary cubes, points at the
EXL program and the input CSVs, and optionally pins cubes to targets:

.. code-block:: json

    {
      "elementary": [
        {"name": "PDR",
         "dimensions": [["d", "time:D"], ["r", "string"]],
         "measure": "p",
         "csv": "pdr.csv"}
      ],
      "program": "program.exl",
      "preferred_targets": {"GDPT": "r"},
      "outputs": ["PCHNG"]
    }

Commands:

* ``show``    — print the generated schema mapping (tgds + egds);
* ``compile`` — print the generated script for one target system;
* ``explain`` — print the determination plan (subgraphs and targets);
* ``run``     — execute the program, writing derived cubes as CSVs;
* ``resume``  — finish a partially-failed ``run`` from its state file;
* ``update``  — incremental run: compare the input CSVs with the last
  run's persisted baseline (``<out>/baseline/``) by content digest and
  recompute only the affected subgraphs; a baseline cube is parsed only
  when a recomputed statement reads it, and untouched files stay put;
* ``recover`` — replay the write-ahead journal after a hard crash
  (SIGKILL, OOM, power loss), roll back torn writes, and synthesize a
  resumable state file from the checksummed committed subgraphs;
* ``query``   — OLAP queries (point, roll-up, slice/dice, drill-down,
  cross-tab) over one cube of a finished run: reads that cube's
  baseline CSV, nothing else, and writes nothing.

``--version`` prints the package version.  Each command imports only
the layers it executes (see the note above the imports).

Fault tolerance: ``run``, ``update`` and ``resume`` are one code path
and accept ``--deadline`` / ``--on-error fail|continue|degrade`` and a
deterministic fault-injection spec (``--inject-faults``, see
:mod:`repro.engine.faults`).  Each subgraph gets one attempt, in plan
order.  A run that ends with unfinished subgraphs, or aborts on one,
leaves a run state that ``resume`` finishes, re-dispatching only those
subgraphs.

Files under ``--out``: this module names none.  The run state, its
committed snapshots, the write-ahead journal and ``recover`` belong to
:mod:`repro.engine.rundir`, which also writes everything in the order
and behind the flushes that let ``exl recover`` + ``exl resume``
reproduce an uninterrupted run after a kill at any byte offset; the
baseline and its index belong to :mod:`repro.engine.baseline`.

Exit codes: 0 success, 1 error, 2 usage/nothing-to-do, 3 partial
failure (state file written), 4 a run state, baseline index or baseline
cube that is corrupt, torn or the wrong shape (``exl recover`` advised).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .errors import CorruptStateError, ModelError, ReproError

# Every other layer is imported inside the command that runs it, so a
# call loads only what it executes (DESIGN.md, "Start-up and the import
# graph").  Those imports name the defining module, never a cached
# module global: an outside tracer that rebinds an entry point there
# before ``main()`` runs is then the function every command calls.
if TYPE_CHECKING:
    from .engine.exlengine import EXLEngine
    from .model.catalog import MetadataCatalog
    from .model.cube import Cube, CubeSchema
    from .model.schema import Schema

__all__ = ["main", "load_project"]

#: exit code for a corrupt/truncated run-state or baseline JSON file —
#: distinct from 1 (error) and 3 (resumable partial failure) so scripts
#: can route to ``exl recover`` instead of retrying blindly
EXIT_CORRUPT_STATE = 4


def _unreadable(path, exc: OSError) -> ReproError:
    """``<path>: <reason>`` for a file of the user's that cannot be read."""
    return ReproError(f"{path}: {exc.strerror or exc}")


class Project:
    """A parsed project file plus its base directory."""

    def __init__(self, spec: Dict[str, Any], base_dir: Path):
        from .model.io import schema_from_spec

        self.base_dir = base_dir
        self.schemas: List[CubeSchema] = []
        self.csv_paths: Dict[str, Optional[Path]] = {}
        for entry in spec.get("elementary", []):
            schema = schema_from_spec(entry["name"], entry)
            self.schemas.append(schema)
            csv_name = entry.get("csv")
            self.csv_paths[schema.name] = (
                (base_dir / csv_name) if csv_name else None
            )
        program_spec = spec.get("program")
        if program_spec is None:
            raise ReproError("project file needs a 'program' entry")
        program_path = base_dir / program_spec
        try:
            is_file = program_path.exists()
        except OSError:
            # an inline program longer than NAME_MAX is no file name
            is_file = False
        if is_file:
            try:
                self.program_source = program_path.read_text(encoding="utf-8")
            except OSError as exc:
                raise _unreadable(program_path, exc) from None
        elif ":=" not in program_spec and len(program_spec.split()) == 1:
            # one token and no assignment: a file name, not inline EXL
            raise ReproError(f"program file not found: {program_path}")
        else:
            # allow inline programs: "program": "C := A * 2"
            self.program_source = program_spec
        self.preferred_targets: Dict[str, str] = dict(
            spec.get("preferred_targets", {})
        )
        self.outputs: Optional[List[str]] = spec.get("outputs")
        # optional attribute groupings for the OLAP layer:
        # {"CUBE": {"dim": {"level": {"base value": "group", ...}}}}
        self.groupings: Dict[str, Any] = dict(spec.get("groupings", {}))

    @property
    def schema(self) -> Schema:
        from .model.schema import Schema

        return Schema(self.schemas, "project")

    def load_data(self) -> Dict[str, Cube]:
        data = {}
        for schema in self.schemas:
            path = self.csv_paths[schema.name]
            if path is None:
                continue
            data[schema.name] = _read_input_csv(schema, path)
        return data


def _read_input_csv(schema: CubeSchema, path: Path) -> Cube:
    """Read one of the project's input CSVs; a file that cannot be
    opened, or a row that cannot be a cube's, is the user's error to
    fix, reported with its path."""
    from .model.io import read_cube_csv

    try:
        return read_cube_csv(schema, path)
    except OSError as exc:
        raise _unreadable(path, exc) from None
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path}: not UTF-8 text ({exc})") from None
    except ModelError as exc:
        raise ReproError(f"{path}: {exc}") from None


def load_project(path: str) -> Project:
    """Parse a project file."""
    project_path = Path(path)
    try:
        spec = json.loads(project_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise _unreadable(path, exc) from None
    except ValueError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(spec, dict):
        raise ReproError(f"{path}: not a JSON object")
    return Project(spec, project_path.parent)


def _catalog_of(project: Project) -> MetadataCatalog:
    """The project's cubes and compiled program, with no data."""
    from .exl.program import Program
    from .model.catalog import MetadataCatalog

    catalog = MetadataCatalog()
    for schema in project.schemas:
        catalog.declare_elementary(schema)
    catalog.declare_program(
        Program.compile(project.program_source, catalog.as_schema()),
        project.preferred_targets,
    )
    return catalog


def _mapping_for(project: Project, simplify: bool):
    """The project's schema mapping: normalized, or composed as every
    target executes it — built as ``exl run`` builds it."""
    from .engine.translation import catalog_mapping

    return catalog_mapping(_catalog_of(project), composed=simplify)


def cmd_show(args) -> int:
    project = load_project(args.project)
    mapping = _mapping_for(project, args.simplify)
    print(mapping.describe())
    return 0


def cmd_compile(args) -> int:
    from .backends import LazyBackends

    project = load_project(args.project)
    # the composed mapping, whose units ``exl run`` executes
    mapping = _mapping_for(project, simplify=True)
    # only the asked target is imported and built: its script is text
    backends = LazyBackends()
    if args.target not in backends:
        print(f"unknown target {args.target!r}; known: {sorted(backends)}", file=sys.stderr)
        return 2
    print(backends[args.target].script(mapping))
    return 0


def _build_engine(
    project: Project, args=None, journal=None, tracer=None, metrics=None
) -> EXLEngine:
    """The engine of one command, its project declared and loaded;
    ``args`` carries the execution flags of ``run`` / ``update`` /
    ``resume`` (defaults without)."""
    from .engine.exlengine import EXLEngine

    # adaptive runs learn across processes: the cost history lives next
    # to the run's other durable state, under <out>/costs/
    adaptive = getattr(args, "adaptive", False)
    cost_model = None
    if adaptive:
        from .engine.costmodel import CostModel
        from .engine.rundir import RunDirectory

        cost_model = CostModel(RunDirectory(args.out).costs_dir)
    engine = EXLEngine(
        shards=getattr(args, "shards", 1),
        tracer=tracer,
        metrics=metrics,
        journal=journal,
        adaptive=adaptive,
        cost_model=cost_model,
    )
    for schema in project.schemas:
        engine.declare_elementary(schema)
    engine.add_program(project.program_source, project.preferred_targets)
    _declare_groupings(engine.catalog, project)
    for cube in project.load_data().values():
        engine.load(cube)
    return engine


def _declare_groupings(catalog: MetadataCatalog, project: Project) -> None:
    """The project's attribute groupings, as catalog metadata."""
    from .model.io import parse_dim_value

    for cube_name, dims in project.groupings.items():
        for dim_name, levels in dims.items():
            dtype = catalog.schema_of(cube_name).dimension(dim_name).dtype
            for level_name, mapping in levels.items():
                # JSON object keys are strings; parse them back through
                # the dimension type so integer dims group on integers
                catalog.declare_grouping(
                    cube_name,
                    dim_name,
                    level_name,
                    {
                        parse_dim_value(dtype, key): value
                        for key, value in mapping.items()
                    },
                )


def cmd_explain(args) -> int:
    project = load_project(args.project)
    engine = _build_engine(project)
    changed = [n for n, p in project.csv_paths.items() if p is not None]
    print("determination plan (subgraph -> target):")
    for subgraph in engine.plan(changed or None):
        print(f"  [{subgraph.target}] {', '.join(subgraph.cubes)}")
    return 0


def _policy_from(args) -> Dict[str, Any]:
    """The failure policy the flags ask for, as keywords of
    ``EXLEngine.run`` / ``update`` / ``resume``."""
    fault_plan = None
    if args.inject_faults:
        from .engine.faults import parse_fault_spec

        fault_plan = parse_fault_spec(args.inject_faults, seed=args.fault_seed)
    return dict(
        deadline_s=args.deadline, on_error=args.on_error, fault_plan=fault_plan,
    )


def _out_dir(args) -> Path:
    """``--out`` of a command that writes there; refused, before
    anything is written, when it (or a parent) is a file."""
    out_dir = Path(args.out)
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ReproError(f"--out {args.out}: not a directory")
            break
    return out_dir


def _report_corrupt(exc: CorruptStateError, out_dir) -> None:
    print(exc, file=sys.stderr)
    print(
        f"inspect or delete it, or try: exl recover --out {Path(out_dir)}",
        file=sys.stderr,
    )


def _finish_run(engine, project, record, previous, args, rundir, index) -> int:
    """Shared run/update/resume epilogue: the run directory ends the run
    with the state file (exit 3) or the baseline (exit 0), starting from
    ``previous`` (a resume's state) and ``index`` (an update's
    baseline); what it did is reported here."""
    done = rundir.finish(
        engine,
        record,
        project.program_source,
        previous["record"] if previous else None,
        project.outputs,
        index,
    )
    for name in done.skipped:
        print(f"skipped {name}: not computed (see run state)", file=sys.stderr)
    for name in done.wrote:
        print(f"wrote {rundir.output_path(name)} ({len(engine.data(name))} tuples)")
    if done.unfinished:
        print(
            f"partial failure: {done.unfinished} subgraph(s) unfinished; "
            f"state written to {rundir.state_path} — finish with: "
            f"exl resume {args.project} --out {rundir.out_dir}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_run(args) -> int:
    """``run``, ``update`` and ``resume``: one path that differs only in
    what the run starts from — nothing, the baseline, or the state of
    an unfinished run."""
    from .engine import baseline as baseline_store
    from .engine.journal import RunJournal
    from .engine.rundir import RunDirectory

    command = args.command
    project = load_project(args.project)
    out_dir = _out_dir(args)
    # the journal creates no file before its first record
    journal = None if args.no_journal else RunJournal(out_dir)
    rundir = RunDirectory(out_dir, args.state, journal)
    # previous: the run state a resume finishes; index: the baseline an
    # update (or the resume of one) starts from
    previous = rundir.read_state() if command == "resume" else None
    if command == "resume" and previous is None:
        print(f"no run state at {rundir.state_path}: nothing to resume", file=sys.stderr)
        return 2
    index = None
    if command != "run":
        # a resume reads the index too: an interrupted *update* planned
        # only part of the program, what it left alone is the baseline's
        try:
            index = baseline_store.read_index(out_dir)
        except CorruptStateError as exc:
            if command == "update":
                raise
            _report_corrupt(exc, out_dir)  # a resume reads on without it
    if command == "update" and index is not None:
        baseline_run_id = index["record"].get("run_id")
        if args.against not in (None, baseline_run_id):
            print(
                f"baseline at {baseline_store.index_path(out_dir)} is run "
                f"{baseline_run_id}, not {args.against}",
                file=sys.stderr,
            )
            return 2
    trace = getattr(args, "trace", None)
    tracer = metrics = None
    if trace or getattr(args, "metrics", False):
        from .obs import MetricsRegistry, Tracer

        tracer = Tracer() if trace else None
        metrics = MetricsRegistry()
    try:
        engine = _build_engine(project, args, journal, tracer, metrics)
        policy = _policy_from(args)
        execute, start = engine.run, {}
        if command == "resume":
            restored = baseline_store.admit_for_resume(engine, previous, out_dir, index)
            if not restored.unfinished_subgraphs():
                # every subgraph already committed (e.g. the crash hit
                # after the last commit but before cleanup): skip the
                # dispatch and just re-run the durable epilogue
                print(
                    f"run {restored.run_id}: all subgraphs already committed; "
                    f"finalizing outputs"
                )
                return _finish_run(
                    engine, project, restored, previous, args, rundir, index
                )
            execute, start = engine.resume, {"run_id": restored.run_id}
        elif command == "update" and index is None:
            print(
                f"no baseline at {baseline_store.index_path(out_dir)}: running in full",
                file=sys.stderr,
            )
        elif command == "update":
            # version counters mean nothing across processes, content is
            # the only signal: inputs are compared with the baseline by
            # digest, and the baseline's cubes come back deferred — parsed
            # when a recomputed statement reads one, otherwise not opened
            changed, fallbacks = baseline_store.admit_for_update(
                engine, index, rundir.baseline_dir
            )
            for name, path, why in fallbacks:
                print(
                    f"baseline cube {path} unusable ({why}): recomputing {name}",
                    file=sys.stderr,
                )
            execute = engine.update
            start = {"changed": changed, "against": engine.runs.last().run_id}
        started = engine.runs.last()
        try:
            record = execute(**start, **policy)
        except ReproError:
            # fail-fast abort: the closed record still carries per-subgraph
            # outcomes, so persist the resumable state before surfacing it
            record = engine.runs.last()
            if record is not started and record.subgraphs:
                rundir.abort(engine.catalog, record, previous and previous["record"])
                print(
                    f"run aborted; state written to {rundir.state_path}",
                    file=sys.stderr,
                )
            raise
        finally:
            # the trace is most valuable when the run failed mid-chase
            if tracer is not None:
                tracer.write_chrome_trace(trace)
                print(f"wrote trace {trace} ({len(tracer.spans)} spans)",
                      file=sys.stderr)
        print(record.summary())
        if tracer is not None:
            print("\ntrace summary:")
            print(tracer.summary())
        if metrics is not None:
            print("\nmetrics:")
            print(engine.metrics.render())
        return _finish_run(engine, project, record, previous, args, rundir, index)
    finally:
        # a journal the command leaves behind (a run that failed before
        # its state could be written) gets its unflushed tail from here,
        # not from whichever finaliser runs at interpreter exit
        if journal is not None:
            journal.close()


def cmd_recover(args) -> int:
    """Roll a hard crash forward (:meth:`RunDirectory.recover`), so
    ``exl resume`` can finish the run wherever the process died."""
    from .engine.rundir import RunDirectory

    out_dir = Path(args.out)
    if not out_dir.exists():
        print(f"no output directory at {out_dir}: nothing to recover",
              file=sys.stderr)
        return 2
    report = RunDirectory(out_dir, args.state).recover()
    print(report.summary())
    if report.status == "resumable":
        print(
            f"finish the run with: exl resume {args.project} --out {out_dir}"
        )
    return report.exit_code


def _parse_assignments(text: Optional[str], what: str) -> Dict[str, str]:
    """``"a=x,b=y"`` -> ``{"a": "x", "b": "y"}``."""
    out: Dict[str, str] = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ReproError(f"bad {what} {part!r}: expected dim=value")
        dim, _, value = part.partition("=")
        out[dim.strip()] = value.strip()
    return out


def _level_value(lattice, dim: str, level_name: str, text: str):
    """Parse one query value at the level ``dim`` is grouped at.

    Typed levels (base and calendar levels) parse through the level's
    dimension type; declared-grouping labels are opaque strings.
    """
    lvl = lattice.hierarchy(dim).level(level_name)
    if lvl.dtype is not None:
        from .model.io import parse_dim_value

        return parse_dim_value(lvl.dtype, text)
    return text


def _query_catalog(project: Project, index: Optional[dict]) -> MetadataCatalog:
    """The project's metadata with no data and no engine around it.

    A query needs the cube schemas and the groupings, no data.  The
    run directory's index records the schemas its run compiled, so
    while the program is the one it names nothing is compiled; an index
    without them, or a program edited since, compiles as ``exl run``
    would — the same catalog, just slower.
    """
    from .engine.baseline import catalog_from_index

    catalog = catalog_from_index(index, project.schemas, project.program_source)
    if catalog is None:
        catalog = _catalog_of(project)
    _declare_groupings(catalog, project)
    return catalog


def _load_queried_cube(
    catalog: MetadataCatalog, project: Project, name: str, out_dir: Path,
    index: Optional[dict],
) -> None:
    """Put the one cube a query reads into the catalog's store.

    The cube comes from the baseline file ``index`` lists for it,
    checked against the digest it records; an elementary cube the
    baseline lacks comes from its project CSV.  No other cube's file is
    opened.  The store stays empty when neither file is there to read.
    """
    from .engine.baseline import read_indexed_cube

    cube = read_indexed_cube(out_dir, index, catalog.schema_of(name))
    if cube is not None:
        catalog.store.put(cube)
        return
    csv_path = project.csv_paths.get(name)
    if csv_path is not None:
        catalog.load(_read_input_csv(catalog.schema_of(name), csv_path))


def cmd_query(args) -> int:
    from .engine.baseline import read_index
    from .model.io import parse_dim_value
    from .olap.query import OlapService, format_measure

    project = load_project(args.project)
    out_dir = Path(args.out)
    index = read_index(out_dir)
    catalog = _query_catalog(project, index)
    name = args.cube
    if name not in catalog:
        print(f"unknown cube {name!r}", file=sys.stderr)
        return 2
    _load_queried_cube(catalog, project, name, out_dir, index)
    if not catalog.has_data(name):
        print(
            f"cube {name!r} has no data; run the project first: "
            f"exl run {args.project} --out {out_dir}",
            file=sys.stderr,
        )
        return 2
    service = OlapService(catalog, aggregate=args.agg)
    lattice = service.lattice(name)
    levels = _parse_assignments(args.levels, "level assignment")
    if args.point:
        schema = catalog.schema_of(name)
        coords = {}
        for dim, text in _parse_assignments(args.point, "coordinate").items():
            coords[dim] = parse_dim_value(
                schema.dimension(dim).dtype, text
            )
        print(format_measure(service.point(name, coords)))
    elif args.crosstab:
        dims = [d.strip() for d in args.crosstab.split(",")]
        if len(dims) != 2:
            print("--crosstab needs exactly two dimensions: row,col",
                  file=sys.stderr)
            return 2
        print(service.crosstab(name, dims[0], dims[1], levels=levels))
    elif args.slice:
        fixed = {
            dim: _level_value(
                lattice, dim, levels.get(dim, lattice.hierarchy(dim).levels[0].name), text
            )
            for dim, text in _parse_assignments(args.slice, "slice").items()
        }
        print(service.slice_(name, fixed, levels=levels).to_text())
    elif args.dice:
        ranges = {}
        for dim, text in _parse_assignments(args.dice, "dice").items():
            level_name = levels.get(dim, lattice.hierarchy(dim).levels[0].name)
            ranges[dim] = [
                _level_value(lattice, dim, level_name, v)
                for v in text.split("|")
            ]
        print(service.dice(name, ranges, levels=levels).to_text())
    elif args.drilldown:
        print(
            service.drilldown(name, levels, args.drilldown).to_text()
        )
    elif args.rollup or levels:
        print(service.rollup(name, levels=levels).to_text())
    else:
        # no query: describe what can be asked
        print(f"cube {name}: dimensions and levels")
        for hierarchy in lattice.hierarchies:
            print(
                f"  {hierarchy.dim.name}: {', '.join(hierarchy.level_names)}"
            )
        print(f"  lattice nodes: {len(lattice.nodes)}")
    return 0


def _at_least(kind, minimum, strict: bool = False):
    """An argparse ``type=``: an ``int`` or ``float`` no smaller than
    ``minimum`` (greater than it when ``strict``; NaN is neither)."""

    def parse(text: str):
        value = kind(text)
        if not (value > minimum if strict else value >= minimum):
            bound = "greater than" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be {bound} {minimum}")
        return value

    parse.__name__ = kind.__name__  # argparse words a ValueError with it
    return parse


def main(argv: Optional[List[str]] = None) -> int:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EXLEngine reproduction: compile and run EXL statistical programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print the generated schema mapping")
    show.add_argument("project")
    show.add_argument("--simplify", action="store_true", help="compose complex tgds")
    show.set_defaults(func=cmd_show)

    compile_cmd = sub.add_parser("compile", help="print a target-system script")
    compile_cmd.add_argument("project")
    compile_cmd.add_argument(
        "--target", default="sql", help="sql | r | matlab | etl | chase"
    )
    compile_cmd.set_defaults(func=cmd_compile)

    explain = sub.add_parser("explain", help="print the determination plan")
    explain.add_argument("project")
    explain.set_defaults(func=cmd_explain)

    def add_execution_flags(command):
        command.add_argument(
            "--out", default="out", help="output directory for CSVs"
        )
        command.add_argument(
            "--shards",
            type=_at_least(int, 0),
            default=1,
            metavar="N",
            help="worker processes for sharded chase execution: "
            "elementary cubes are hash-partitioned on one dimension, "
            "chased per shard, and merged through the egd-checking "
            "insert (0 = one shard per CPU core, 1 = off; tuple-for-"
            "tuple equivalent to unsharded runs)",
        )
        command.add_argument(
            "--adaptive",
            action="store_true",
            help="cost-based adaptive dispatch: pick each subgraph's "
            "target from learned per-signature execution timings "
            "(EWMA over clean attempt times, persisted under "
            "<out>/costs/); unmeasured targets fall back to the "
            "static assignment and are explored deterministically",
        )
        command.add_argument(
            "--deadline",
            type=_at_least(float, 0, strict=True),
            default=None,
            metavar="SECONDS",
            help="wall-clock deadline per subgraph execution; overruns "
            "count as failures",
        )
        command.add_argument(
            "--on-error",
            choices=["fail", "continue", "degrade"],
            default="fail",
            help="partial-failure semantics: 'fail' aborts on the first "
            "failed subgraph (default); 'continue' keeps running "
            "independent subgraphs and skips dependents; 'degrade' "
            "additionally re-runs failed subgraphs on their fallback "
            "backend (the reference chase)",
        )
        command.add_argument(
            "--inject-faults",
            metavar="SPEC",
            help="deterministic fault injection, e.g. "
            "'sql:permanent' or 'r:hang:delay=0.1;*:kill:p=0.3' "
            "(see repro.engine.faults for the grammar)",
        )
        command.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            metavar="N",
            help="seed for the fault-injection plan (default: 0)",
        )
        command.add_argument(
            "--state",
            metavar="FILE",
            help="run-state file for resumable partial failures "
            "(default: <out>/run-state.json)",
        )
        command.add_argument(
            "--no-journal",
            action="store_true",
            help="skip the durable write-ahead journal "
            "(<out>/journal/*.wal); crashes then lose in-flight "
            "progress and 'exl recover' has nothing to replay",
        )

    run = sub.add_parser("run", help="execute the program and export CSVs")
    run.add_argument("project")
    add_execution_flags(run)
    run.add_argument(
        "--trace",
        metavar="FILE",
        help="record a hierarchical trace of the run (run -> wave -> "
        "tgd -> kernel phase) as Chrome trace-event JSON, loadable in "
        "chrome://tracing or Perfetto",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (counters and histograms: "
        "tuples, cache hits, kernel fallbacks with reasons, chase "
        "wave durations) after the run",
    )
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser(
        "resume",
        help="finish a partially-failed run: re-dispatch only its "
        "failed/skipped subgraphs, reusing the committed cubes",
    )
    resume.add_argument("project")
    add_execution_flags(resume)
    resume.set_defaults(func=cmd_run)

    update = sub.add_parser(
        "update",
        help="incremental run: compare the input CSVs with the "
        "persisted baseline (<out>/baseline/) by content digest and "
        "recompute only the affected subgraphs, parsing a baseline cube "
        "only when a recomputed statement reads it; without a "
        "baseline, runs in full",
    )
    update.add_argument("project")
    add_execution_flags(update)
    update.add_argument(
        "--against",
        type=int,
        default=None,
        metavar="RUN_ID",
        help="require the persisted baseline to be this run id "
        "(defensive pin; default: accept whatever baseline is there)",
    )
    update.set_defaults(func=cmd_run)

    recover_cmd = sub.add_parser(
        "recover",
        help="replay the write-ahead journal after a hard crash: roll "
        "back torn files, keep checksummed commits, and write a "
        "run-state.json that 'exl resume' can finish from",
    )
    recover_cmd.add_argument("project")
    recover_cmd.add_argument(
        "--out", default="out", help="output directory of the crashed run"
    )
    recover_cmd.add_argument(
        "--state",
        metavar="FILE",
        help="where to write the recovered run state "
        "(default: <out>/run-state.json)",
    )
    recover_cmd.set_defaults(func=cmd_recover)

    query = sub.add_parser(
        "query",
        help="OLAP queries over the computed cubes: point lookups, "
        "roll-ups along derived hierarchies, slice/dice, and cross-tabs "
        "with sub-totals — each call loads the queried cube alone "
        "(<out>/baseline/CUBE.csv), reduces the one roll-up lattice "
        "node the query names, and writes nothing",
    )
    query.add_argument("project")
    query.add_argument("cube", help="cube to query (elementary or derived)")
    query.add_argument(
        "--out", default="out", help="output directory of the prior run"
    )
    query.add_argument(
        "--agg",
        default="sum",
        metavar="NAME",
        help="measure aggregate for roll-ups (default: sum)",
    )
    query.add_argument(
        "--levels",
        metavar="DIM=LEVEL,...",
        help="level per dimension, e.g. 'm=quarter,r=zone'; unnamed "
        "dimensions stay at base, 'all' collapses a dimension",
    )
    query.add_argument(
        "--point",
        metavar="DIM=VALUE,...",
        help="the measure at one fully specified base coordinate",
    )
    query.add_argument(
        "--rollup",
        action="store_true",
        help="print the aggregates at --levels (the default action "
        "when --levels is given)",
    )
    query.add_argument(
        "--slice",
        metavar="DIM=VALUE,...",
        help="fix dimensions to single values and project them away",
    )
    query.add_argument(
        "--dice",
        metavar="DIM=V1|V2,...",
        help="filter dimensions to value sets",
    )
    query.add_argument(
        "--drilldown",
        metavar="DIM",
        help="refine DIM one level finer than --levels",
    )
    query.add_argument(
        "--crosstab",
        metavar="ROW,COL",
        help="print a cross-tab of two dimensions with row/column "
        "sub-totals and a grand total",
    )
    query.set_defaults(func=cmd_query)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorruptStateError as exc:
        _report_corrupt(exc, args.out)
        return EXIT_CORRUPT_STATE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

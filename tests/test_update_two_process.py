"""``exl run`` → revise → ``exl update`` across two processes.

Nothing survives from the first process but the run directory, so this
is the sweep that holds the on-disk baseline to its contract: after a
revision of the inputs (measure updates, inserted and deleted tuples,
some inputs left alone) an ``exl update`` in a fresh interpreter must
leave every ``<out>/*.csv`` and ``<out>/baseline/*.csv`` byte-identical
to a fresh ``exl run`` on the revised inputs — over random programs and
the scenario corpus, on the default target, pinned to the chase, and
spread round-robin over the targets (one subgraph per target switch).
The children inherit the environment, so the ``EXL_FORCE_TUPLE_VIEW=1``
legs of CI run the sweep on the tuple representation too.

The index is held to its contract as well: after the run and after the
update it records the schemas a fresh compile of the program declares,
and a query answered from them prints what a compiling query prints.
"""

import hashlib
import json
import random

import pytest

from repro.cli import main
from repro.exl.program import Program
from repro.model import Cube, MetadataCatalog
from repro.model.io import format_dimtype, write_cube_csv
from repro.workloads.randprog import random_workload
from repro.workloads.scenarios import scenario_corpus

RANDOM_SEEDS = range(9)
MODES = ("mixed", "chase", "default")
RANDOM_PROGRAMS = [
    random_workload(seed, n_statements=6, n_periods=14, n_regions=2)
    for seed in RANDOM_SEEDS
]
CORPUS = scenario_corpus(seed=3, size=4)
PROGRAMS = RANDOM_PROGRAMS + list(CORPUS)


TARGETS = ("sql", "r", "etl", "matlab", "chase")


def _pinned_targets(workload, mode):
    """``default``: no pins; ``chase``: every statement on the chase;
    ``mixed``: statement i on the i-th target that supports it."""
    if mode == "default":
        return {}
    from repro import EXLEngine

    engine = EXLEngine()
    for schema in workload.schema:
        engine.declare_elementary(schema)
    pins = {}
    for i, cube in enumerate(engine.add_program(workload.source)):
        supported = engine.graph.supported_targets(cube)
        wanted = [TARGETS[(i + k) % len(TARGETS)] for k in range(len(TARGETS))]
        pins[cube] = "chase" if mode == "chase" else next(
            t for t in wanted if t in supported
        )
    return pins


def _write_project(directory, workload, data, mode):
    directory.mkdir(exist_ok=True)
    for name, cube in data.items():
        write_cube_csv(cube, directory / f"{name.lower()}.csv")
    spec = {
        "elementary": [
            {
                "name": schema.name,
                "dimensions": [
                    [d.name, format_dimtype(d.dtype)] for d in schema.dimensions
                ],
                "measure": schema.measure,
                "csv": f"{schema.name.lower()}.csv",
            }
            for schema in workload.schema
        ],
        "program": "program.exl",
    }
    spec["preferred_targets"] = _pinned_targets(workload, mode)
    (directory / "program.exl").write_text(workload.source)
    (directory / "project.json").write_text(json.dumps(spec))
    return str(directory / "project.json")


def _first_vintage(data, rng):
    """The data the first run sees: ~2 % of the tuples are still missing
    (the revision inserts them)."""
    out = {}
    for name, cube in data.items():
        rows = [row for row in cube.to_rows() if rng.random() >= 0.02]
        out[name] = Cube.from_rows(cube.schema, rows or cube.to_rows()[:1])
    return out


def _revision(data, rng):
    """~1 % of the measures revised, ~1 % of the tuples deleted, and
    every input after the first left alone four times in ten."""
    out = {}
    for name, cube in data.items():
        if out and rng.random() < 0.4:
            out[name] = None  # keep the first vintage's file
            continue
        rows = []
        for row in cube.to_rows():
            roll = rng.random()
            if roll < 0.01:
                continue
            if roll < 0.02 or not rows:
                row = row[:-1] + (round(row[-1] * 1.05 + 0.5, 6),)
            rows.append(row)
        out[name] = Cube.from_rows(cube.schema, rows)
    return out


def _cube_files(out):
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*.csv"))
    }


def _compiled_schemas(workload):
    """``(schemas in catalog order, program digest)`` as an index must
    record them."""
    catalog = MetadataCatalog()
    for schema in workload.schema:
        catalog.declare_elementary(schema)
    catalog.declare_program(Program.compile(workload.source, catalog.as_schema()))
    schemas = {
        name: {
            "dimensions": [
                [d.name, format_dimtype(d.dtype)]
                for d in catalog.schema_of(name).dimensions
            ],
            "measure": catalog.schema_of(name).measure,
            "kind": "derived" if catalog.is_derived(name) else "elementary",
        }
        for name in catalog.names()
    }
    digest = hashlib.sha256(workload.source.encode("utf-8")).hexdigest()
    return list(schemas.items()), digest


def _recorded_schemas(out):
    index = json.loads((out / "baseline" / "baseline.json").read_text())
    return list(index["schemas"].items()), index["program_sha256"]


def _assert_query_matches_compile(project, out, fresh_python, monkeypatch, capsys):
    """The last statement's cube, described and collapsed to one total:
    answered from the index in a fresh process, and in this one with
    the index's schemas withheld."""
    from repro.engine import baseline

    name, spec = _recorded_schemas(out)[0][-1]
    everything = ",".join(f"{dim}=all" for dim, _ in spec["dimensions"])
    for query in ([], ["--levels", everything] if everything else ["--rollup"]):
        argv = ["query", project, name, "--out", str(out), *query]
        from_index = fresh_python("-m", "repro", *argv)
        with monkeypatch.context() as patched:
            patched.setattr(baseline, "catalog_from_index", lambda *args: None)
            capsys.readouterr()
            code = main(argv)
        compiled = capsys.readouterr()
        assert from_index.returncode == code, from_index.stderr
        assert from_index.stdout == compiled.out


def _sweep(workload, seed, tmp_path, fresh_python, mode, monkeypatch, capsys):
    rng = random.Random(f"two-process-{seed}")
    project_dir = tmp_path / "project"
    project = _write_project(
        project_dir, workload, _first_vintage(workload.data, rng), mode
    )
    out = tmp_path / "out"
    ran = fresh_python("-m", "repro", "run", project, "--out", str(out))
    if ran.returncode != 0:
        # a degenerate first vintage (a series too short for its
        # operator): the error is the program's, not the update's
        assert ran.returncode == 1 and "error:" in ran.stderr, ran.stderr
        return
    for name, cube in _revision(workload.data, rng).items():
        if cube is not None:
            write_cube_csv(cube, project_dir / f"{name.lower()}.csv")
    updated = fresh_python("-m", "repro", "update", project, "--out", str(out))
    reference = tmp_path / "reference"
    code = main(["run", project, "--out", str(reference)])
    if code != 0:
        assert updated.returncode == code, updated.stderr
        return
    assert updated.returncode == 0, updated.stderr
    assert "update-of=" in updated.stdout
    assert _cube_files(out) == _cube_files(reference)
    assert not (out / "baseline" / "columnar").exists()
    assert _recorded_schemas(out) == _recorded_schemas(reference)
    assert _recorded_schemas(out) == _compiled_schemas(workload)
    _assert_query_matches_compile(project, out, fresh_python, monkeypatch, capsys)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_program(seed, tmp_path, fresh_python, monkeypatch, capsys):
    _sweep(
        RANDOM_PROGRAMS[seed], seed, tmp_path, fresh_python, MODES[seed % 3],
        monkeypatch, capsys,
    )


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_scenario(index, tmp_path, fresh_python, monkeypatch, capsys):
    _sweep(
        CORPUS[index], 100 + index, tmp_path, fresh_python, MODES[index % 3],
        monkeypatch, capsys,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_index_records_the_compiled_schemas(index, mode, tmp_path, capsys):
    """Every program on every target mix, in process: the index a run
    writes, and the one an update after a revision writes over it,
    record what a fresh compile declares."""
    workload = PROGRAMS[index]
    rng = random.Random(f"schemas-{index}")
    project_dir = tmp_path / "project"
    project = _write_project(
        project_dir, workload, _first_vintage(workload.data, rng), mode
    )
    out = tmp_path / "out"
    if main(["run", project, "--out", str(out)]) != 0:
        return  # a degenerate first vintage, as in _sweep
    assert _recorded_schemas(out) == _compiled_schemas(workload)
    for name, cube in _revision(workload.data, rng).items():
        if cube is not None:
            write_cube_csv(cube, project_dir / f"{name.lower()}.csv")
    if main(["update", project, "--out", str(out)]) == 0:
        assert _recorded_schemas(out) == _compiled_schemas(workload)

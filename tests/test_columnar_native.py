"""Whole-run equivalence and run bookkeeping of columnar-native storage.

:class:`RelationalInstance` keeps each relation as a dictionary-encoded
:class:`ColumnStore` and derives the tuple view lazily (DESIGN.md §9).
The store itself is checked against a plain fact dict in
``tests/test_colstore_reference.py``; the sweeps here check whole runs
against references that do not share the columnar kernels: the
tuple-at-a-time chase (``tests/oracle/chase.py``) for every relation's
facts in insertion order, and the ``sql`` target for committed stores
through run, warm rerun, revision and ``update()``, with and without
injected faults, across 50 seeded-random programs.

Also here: the encode tax (a warm run and a no-op update build no
store for an unchanged input; a dirty update builds one, for the
revised input), the copy-on-write isolation pins of shared stores, and
the columnar sidecar persistence round-trip.
"""

import json
from contextlib import ExitStack
from unittest import mock

import pytest

import repro.chase.instance as instance_mod
from repro.chase import RelationalInstance, StratifiedChase, instance_from_cubes
from repro.chase.colstore import ColumnStore
from repro.chase.persist import (
    _payload_sha256,
    attach_store_sidecar,
    read_store_sidecar,
    sidecar_path_for,
    write_store_sidecar,
)
from repro.cli import main as cli_main
from repro.engine import EXLEngine, FaultPlan, FaultRule
from repro.engine.dispatcher import _store_matches_rows
from repro.errors import ChaseError, ReproError
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import Cube
from repro.model.cube import CubeSchema, Dimension
from repro.model.io import read_cube_csv, write_cube_csv
from repro.model.types import STRING
from repro.workloads import gdp_example, random_workload
from tests.oracle.chase import ScalarChase
from tests.oracle.delta import cube_delta

SEEDS = range(50)


def _build_engine(workload, *, target="chase"):
    engine = EXLEngine(target_priority=(target,))
    for schema in workload.schema:
        engine.declare_elementary(schema)
    engine.add_program(workload.source)
    return engine


def _truncate(data, seed):
    """Drop ~5% of each cube's rows (the revision re-inserts them)."""
    import random

    rng = random.Random(70_000 + seed)
    return {
        name: Cube.from_rows(
            cube.schema,
            [row for row in cube.to_rows() if rng.random() >= 0.05],
        )
        for name, cube in data.items()
    }


def _perturb(data, seed):
    """A random data revision: edits + deletions (and, against a
    truncated baseline, insertions); seeds ≡ 7 (mod 10) stay untouched,
    pinning the no-op update."""
    import random

    if seed % 10 == 7:
        return {name: cube.copy() for name, cube in data.items()}
    rng = random.Random(80_000 + seed)
    out = {}
    for name, cube in data.items():
        if len(out) and rng.random() < 0.4:
            out[name] = cube.copy()
            continue
        rows = []
        for row in cube.to_rows():
            roll = rng.random()
            if roll < 0.03:
                continue
            if roll < 0.25:
                row = row[:-1] + (row[-1] + rng.uniform(-3.0, 3.0),)
            rows.append(row)
        out[name] = Cube.from_rows(cube.schema, rows)
    return out


def _store_state(engine):
    return {
        name: engine.data(name)
        for name in engine.catalog.store.names()
        if engine.catalog.has_data(name)
    }


def _assert_same_stores(chase, reference, context):
    left, right = _store_state(chase), _store_state(reference)
    assert set(left) == set(right), context
    for name in left:
        delta = cube_delta(left[name], right[name])
        assert delta.is_empty, (
            f"{context}: {name} diverged between the chase and the sql "
            f"reference (+{len(delta.inserted)} -{len(delta.deleted)} "
            f"~{len(delta.updated)})"
        )


class TestChaseEquivalence:
    """The columnar kernels over column stores derive what the
    tuple-at-a-time chase derives — tuple for tuple *and* insertion
    order for insertion order."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernels_equal_the_scalar_chase(self, seed):
        workload = random_workload(
            seed + 600, n_statements=7, n_periods=10, n_regions=2
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        native = StratifiedChase(mapping).run(instance_from_cubes(workload.data))
        oracle = ScalarChase(mapping).run(instance_from_cubes(workload.data))
        assert sorted(native.instance.relations()) == sorted(
            oracle.instance.relations()
        )
        for relation in native.instance.relations():
            assert list(native.instance.facts(relation)) == list(
                oracle.instance.facts(relation)
            ), f"seed {seed}: relation {relation} differs from the scalar chase"
        assert native.stats.tuples_generated == oracle.stats.tuples_generated


class TestEngineEquivalence:
    """Full engine lifecycle — run, warm rerun, revise, update — lands
    on the committed stores the same lifecycle lands on on ``sql``."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_committed_stores_match_sql(self, seed):
        workload = random_workload(
            seed, n_statements=6, n_periods=12, n_regions=2
        )
        baseline = _truncate(workload.data, seed)
        revised = _perturb(workload.data, seed)
        engines = {}
        failures = {}
        for target in ("chase", "sql"):
            engine = _build_engine(workload, target=target)
            for cube in baseline.values():
                engine.load(cube)
            try:
                engine.run()
                engine.run()  # warm rerun over adopted column stores
                for cube in revised.values():
                    engine.load(cube)
                engine.update()
                failures[target] = None
            except ReproError as exc:
                failures[target] = type(exc).__name__
            engines[target] = engine
        # the same failure, or the same committed stores
        assert failures["chase"] == failures["sql"], f"seed {seed}"
        if failures["chase"] is None:
            _assert_same_stores(engines["chase"], engines["sql"], f"seed {seed}")


class TestFaultComposition:
    """Injected faults change what commits, never what a committed
    cube holds: every cube a faulty chase run commits equals the
    clean sql run's, and a failed or skipped subgraph commits
    nothing."""

    @pytest.mark.parametrize("seed", range(6))
    def test_faulty_dispatch_commits_what_a_clean_run_does(self, seed):
        workload = gdp_example(
            n_quarters=8, regions=("north", "south"), seed=seed
        )
        plan = FaultPlan(
            [FaultRule(kind="permanent", probability=0.5)], seed=seed
        )
        reference = _build_engine(workload, target="sql")
        engine = _build_engine(workload)
        for cube in workload.data.values():
            reference.load(cube)
            engine.load(cube)
        reference.run()
        record = engine.run(on_error="continue", fault_plan=plan)
        for subgraph in record.subgraphs:
            for name in subgraph.cubes:
                if subgraph.committed:
                    assert cube_delta(
                        engine.data(name), reference.data(name)
                    ).is_empty, f"seed {seed}: {name}"
                else:
                    assert not engine.catalog.has_data(name), f"seed {seed}"


class TestEncodeTax:
    """A cube's store is built once and travels with the cube: a warm
    run and a no-op update build no store for an unchanged input, a
    dirty update builds one, for the revised input.  A build is
    :func:`store_for_cube` encoding a cube (``from_cube_columns`` or
    ``from_distinct_rows``)."""

    def _loaded_engine(self):
        workload = gdp_example(
            n_quarters=10, regions=("north", "south"), seed=5
        )
        engine = _build_engine(workload)
        for cube in workload.data.values():
            engine.load(cube)
        return engine, workload

    @staticmethod
    def _builds(call):
        """The stores ``call()`` builds, as the row counts they hold."""
        built = []

        def counting(real):
            def build(cls, *args):
                store = real(cls, *args)
                built.append(store.n_rows)
                return store

            return classmethod(build)

        with ExitStack() as patches:
            for name in ("from_cube_columns", "from_distinct_rows"):
                real = getattr(ColumnStore, name).__func__
                patches.enter_context(
                    mock.patch.object(ColumnStore, name, counting(real))
                )
            call()
        return built

    def test_cold_run_builds_one_store_per_input(self):
        # the zero counts below only mean something if a build counts
        engine, workload = self._loaded_engine()
        assert sorted(self._builds(engine.run)) == sorted(
            len(cube) for cube in workload.data.values()
        )

    def test_warm_run_builds_no_store(self):
        engine, _ = self._loaded_engine()
        engine.run()
        assert self._builds(engine.run) == []

    def test_noop_update_builds_no_store(self):
        engine, workload = self._loaded_engine()
        engine.run()
        for cube in workload.data.values():
            engine.load(cube.copy())  # bit-identical revision
        assert self._builds(engine.update) == []

    def test_dirty_update_builds_the_revised_input_only(self):
        engine, workload = self._loaded_engine()
        engine.run()
        revised = workload.data["PDR"].copy()
        row = revised.to_rows()[0]
        revised.set(row[:-1], row[-1] + 1.5, overwrite=True)
        engine.load(revised)
        assert self._builds(engine.update) == [len(revised)]


class TestBulkEncode:
    """``ColumnStore.from_distinct_rows`` — how a cube's rows become a
    store — is the per-row ``add`` loop without the membership probe:
    same codes, dictionaries, measure objects and row order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_add_loop(self, seed):
        workload = random_workload(seed, n_statements=3, n_periods=10, n_regions=3)
        for cube in workload.data.values():
            rows = cube.to_rows()
            arity = cube.schema.arity + 1
            looped = ColumnStore(arity)
            for row in rows:
                assert looped.add(row)
            bulk = ColumnStore.from_distinct_rows(arity, rows)
            assert bulk.codes == looped.codes
            assert bulk.dicts == looped.dicts
            assert bulk.vmaps == looped.vmaps
            assert all(a is b for a, b in zip(bulk.measures, looped.measures))
            assert bulk.dims_distinct and bulk.n_rows == len(cube)
            assert list(bulk.rows()) == rows

    def test_empty_cube(self):
        store = ColumnStore.from_distinct_rows(3, [])
        assert store.n_rows == 0 and list(store.rows()) == []
        assert store.add(("a", "b", 1.0)) and store.n_rows == 1


class TestFactsThatDoNotFit:
    """A relation is a cube's relation: one arity, a float measure last.
    A fact that breaks either is refused, naming the relation, and the
    relation keeps what it held."""

    def test_ragged_arity_is_refused(self):
        instance = RelationalInstance()
        instance.add("R", ("a", 1.0))
        with pytest.raises(ChaseError, match=r"relation R: .*arity 3, 2 expected"):
            instance.add("R", ("a", "b", 2.0))
        assert list(instance.facts("R")) == [("a", 1.0)]

    def test_non_float_measure_is_refused(self):
        instance = RelationalInstance()
        with pytest.raises(ChaseError, match=r"relation R: .*float measure"):
            instance.add("R", ("a", 1))
        instance.add("R", ("a", 1.0))
        with pytest.raises(ChaseError, match=r"relation R: .*float measure"):
            instance.add("R", ("b", "2.0"))
        assert list(instance.facts("R")) == [("a", 1.0)]


class TestSharedStoreIsolation:
    """An exported store adopted by another instance is shared with its
    owner; a write through either side must fork, never corrupt the
    other's columnar state."""

    def test_clone_write_cannot_corrupt_owner(self):
        owner = RelationalInstance()
        owner.add("R", ("a", 1.0))
        owner.add("R", ("b", 2.0))
        before = owner.columnar_image("R", 2)
        clone = RelationalInstance()
        assert clone.adopt("R", owner.export_store("R")) == 2
        clone.add("R", ("z", 99.0))  # must fork the shared store
        assert list(owner.facts("R")) == [("a", 1.0), ("b", 2.0)]
        assert list(clone.facts("R")) == [
            ("a", 1.0), ("b", 2.0), ("z", 99.0),
        ]
        image = owner.columnar_image("R", 2)
        assert image.n_rows == 2
        assert image.dims[0].decode_list() == ["a", "b"]
        assert image.measures.tolist() == [1.0, 2.0]
        # the image handed out before the sharing stays valid too
        assert before.dims[0].decode_list() == ["a", "b"]
        # and the owner's own later write forks as well
        owner.add("R", ("c", 3.0))
        assert list(clone.facts("R")) == [
            ("a", 1.0), ("b", 2.0), ("z", 99.0),
        ]


class TestImageCacheInvalidation:
    """A store's columnar image is cached, tagged with the row count it
    was built at — sound because stores are append-only: a cache
    survives writes that add nothing and is replaced after any that
    grows the store, on a fork independently of its donor."""

    def test_image_survives_no_op_mutations(self):
        # a duplicate insert changes no content, so the image stays
        # current
        store = ColumnStore(2)
        store.add(("a", 1.0))
        store.add(("b", 2.0))
        image = store.image()
        assert not store.add(("a", 1.0))
        assert store.image() is image

    def test_fork_keeps_caches_coherent(self):
        store = ColumnStore(2)
        store.add(("a", 1.0))
        store.add(("b", 2.0))
        image = store.image()
        clone = store.fork()
        assert clone.image() is image
        clone.add(("a", 5.0))
        assert clone.image() is not image and clone.image().n_rows == 3
        # the donor is untouched
        assert store.image() is image and image.n_rows == 2

    def test_image_replaced_after_growth(self):
        store = ColumnStore(2)
        store.add(("a", 1.0))
        image = store.image()
        assert store.add(("b", 2.0))
        grown = store.image()
        assert grown is not image and grown.n_rows == 2
        # an image built at the current row count stays current
        assert store.image() is grown

    def test_instance_image_after_growth_matches_fresh(self):
        # facts added after an image was cached show in the next image,
        # in insertion order, as in one built from scratch
        def rows(instance):
            image = instance.columnar_image("R", 2)
            return list(zip(image.dims[0].decode_list(), image.measures.tolist()))

        instance = RelationalInstance()
        for fact in [("a", 1.0), ("b", 2.0)]:
            instance.add("R", fact)
        before = rows(instance)
        instance.add("R", ("c", 3.0))
        instance.add("R", ("a", 9.0))
        fresh = RelationalInstance()
        for fact in instance.facts("R"):
            fresh.add("R", fact)
        expected = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("a", 9.0)]
        assert rows(instance) == rows(fresh) == expected
        assert before == expected[:2]


class TestCleanPathStoreAdoption:
    """The dispatcher only carries a fresh output's columnar store onto
    a stored cube with the same rows when the store's insertion order is
    the stored cube's row order — otherwise warm runs would enumerate
    (and persist) the same content in a different order than cold
    runs."""

    def _store(self, rows):
        store = ColumnStore(2)
        for row in rows:
            store.add(row)
        return store

    def _cube(self, rows):
        schema = CubeSchema("C", [Dimension("r", STRING)], "v")
        return Cube.from_rows(schema, rows)

    def test_same_order_matches(self):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert _store_matches_rows(self._store(rows), self._cube(rows))

    def test_reordered_content_does_not_match(self):
        rows = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        store = self._store([rows[1], rows[0], rows[2]])
        assert not _store_matches_rows(store, self._cube(rows))

    def test_row_count_mismatch_does_not_match(self):
        rows = [("a", 1.0), ("b", 2.0)]
        assert not _store_matches_rows(
            self._store(rows[:1]), self._cube(rows)
        )

    def test_different_measure_does_not_match(self):
        store = self._store([("a", 1.0), ("b", 2.5)])
        assert not _store_matches_rows(
            store, self._cube([("a", 1.0), ("b", 2.0)])
        )

    def test_nan_measures_match_only_by_identity(self):
        shared = float("nan")
        rows = [("a", 1.0), ("b", shared)]
        assert _store_matches_rows(self._store(rows), self._cube(rows))
        # a *different* NaN object makes the store's facts unequal to
        # the cube's rows as tuples, so it must not be attached
        other = [("a", 1.0), ("b", float("nan"))]
        assert not _store_matches_rows(self._store(other), self._cube(rows))


class TestSidecarPersistence:
    """Dictionaries and key codes survive to disk next to the baseline
    CSVs, guarded by the CSV content hash."""

    def _cube(self):
        workload = gdp_example(n_quarters=6, regions=("north",), seed=2)
        return workload.data["PDR"]

    def test_roundtrip_restores_identical_store(self, tmp_path):
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        store = read_store_sidecar(cube.schema, csv_path, sidecar)
        assert store is not None
        assert store.dims_distinct
        original = instance_mod.store_for_cube(cube)
        assert list(store.rows()) == list(original.rows())

    def test_stale_csv_rejects_sidecar(self, tmp_path):
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        csv_path.write_text(csv_path.read_text() + "\n")
        assert read_store_sidecar(cube.schema, csv_path, sidecar) is None
        assert not attach_store_sidecar(cube.copy(), csv_path, sidecar)

    def test_tampered_sidecar_is_rejected(self, tmp_path):
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        payload = json.loads(sidecar.read_text())
        payload["measures"] = payload["measures"][:-1]
        sidecar.write_text(json.dumps(payload))
        assert read_store_sidecar(cube.schema, csv_path, sidecar) is None

    def test_value_tampered_sidecar_fails_payload_hash(self, tmp_path):
        # editing a value while keeping csv_sha256 valid must be caught
        # by the sidecar's own content hash — the CSV hash only ties
        # the sidecar to the companion file, not to its own payload
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        payload = json.loads(sidecar.read_text())
        payload["measures"][0] = payload["measures"][0] + 1.0
        sidecar.write_text(json.dumps(payload))
        assert read_store_sidecar(cube.schema, csv_path, sidecar) is None

    def test_divergent_measures_rejected_even_with_valid_hashes(
        self, tmp_path
    ):
        # a sidecar that is internally consistent (payload hash
        # recomputed) but whose measures diverge from the cube must
        # still not be attached: attach verifies row for row
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        payload = json.loads(sidecar.read_text())
        payload["measures"][0] = payload["measures"][0] + 1.0
        payload["payload_sha256"] = _payload_sha256(payload)
        sidecar.write_text(json.dumps(payload))
        assert read_store_sidecar(cube.schema, csv_path, sidecar) is not None
        assert not attach_store_sidecar(cube.copy(), csv_path, sidecar)

    def test_nonfinite_measures_stay_strict_json(self, tmp_path):
        schema = CubeSchema("NF", [Dimension("r", STRING)], "v")
        cube = Cube(schema)
        cube.set(("a",), 1.5)
        cube.set(("b",), float("nan"))
        cube.set(("c",), float("inf"))
        cube.set(("d",), float("-inf"))
        csv_path = tmp_path / "nf.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "NF")
        assert write_store_sidecar(cube, csv_path, sidecar)
        # strict JSON: no bare NaN/Infinity tokens for external tooling
        json.loads(
            sidecar.read_text(),
            parse_constant=lambda token: pytest.fail(
                f"sidecar contains non-strict JSON token {token!r}"
            ),
        )
        restored = read_store_sidecar(schema, csv_path, sidecar)
        assert restored is not None
        values = restored.measures
        assert values[0] == 1.5
        assert values[1] != values[1]
        assert values[2] == float("inf")
        assert values[3] == float("-inf")

    def test_attach_rebinds_measures_to_the_cubes_objects(self, tmp_path):
        # the store invariant: measures are the exact float objects the
        # cube holds, so NaN rows match by identity even on a
        # sidecar-restored store
        schema = CubeSchema("NF", [Dimension("r", STRING)], "v")
        cube = Cube(schema)
        cube.set(("a",), 2.5)
        cube.set(("b",), float("nan"))
        csv_path = tmp_path / "nf.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "NF")
        assert write_store_sidecar(cube, csv_path, sidecar)
        reread = read_cube_csv(schema, csv_path)
        assert attach_store_sidecar(reread, csv_path, sidecar)
        store = reread._colstore
        for measure, row in zip(store.measures, reread.to_rows()):
            assert measure is row[-1]

    def test_unreadable_csv_writes_no_sidecar(self, tmp_path):
        # a sidecar is tied to its CSV's digest: with no CSV to hash,
        # nothing is written and a stale sidecar is removed
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        assert write_store_sidecar(cube, csv_path, sidecar)
        csv_path.unlink()
        assert not write_store_sidecar(cube, csv_path, sidecar)
        assert not sidecar.exists()

    def test_cli_run_then_update_uses_sidecars(self, tmp_path):
        workload = gdp_example(n_quarters=10, regions=("north",), seed=4)
        for name, cube in workload.data.items():
            write_cube_csv(cube, tmp_path / f"{name.lower()}.csv")
        spec = {
            "elementary": [
                {
                    "name": schema.name,
                    "dimensions": [
                        [d.name, _dimtype_spec(d)] for d in schema.dimensions
                    ],
                    "measure": schema.measure,
                    "csv": f"{schema.name.lower()}.csv",
                }
                for schema in workload.schema
            ],
            "program": workload.source,
        }
        project = tmp_path / "project.json"
        project.write_text(json.dumps(spec))
        out = tmp_path / "out"
        # the sidecar pair is library-only now: neither command writes
        # a columnar cache, and one left by an older version is dropped
        # by the next baseline without ever being read
        assert cli_main(["run", str(project), "--out", str(out)]) == 0
        columnar_dir = out / "baseline" / "columnar"
        assert not columnar_dir.exists()
        columnar_dir.mkdir()
        (columnar_dir / "PDR.json").write_text('{"format": 2, "di')
        assert cli_main(["update", str(project), "--out", str(out)]) == 0
        assert not columnar_dir.exists()


def _dimtype_spec(dimension):
    from repro.model.io import format_dimtype

    return format_dimtype(dimension.dtype)


class TestUnreadableSidecar:
    """An unreadable or garbage sidecar is a *counted* cache miss
    (``chase.sidecar.fallback.reason:sidecar-unreadable``), never a
    traceback; a merely absent sidecar stays silent."""

    def _paths(self, tmp_path):
        workload = gdp_example(n_quarters=6, regions=("north",), seed=2)
        cube = workload.data["PDR"]
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        return cube, csv_path, sidecar_path_for(tmp_path, "PDR")

    def test_unreadable_sidecar_counted(self, tmp_path):
        from repro.obs import MetricsRegistry

        cube, csv_path, sidecar = self._paths(tmp_path)
        sidecar.mkdir(parents=True)  # reading a directory raises OSError
        metrics = MetricsRegistry()
        assert (
            read_store_sidecar(
                cube.schema, csv_path, sidecar, metrics=metrics
            )
            is None
        )
        assert (
            metrics.value(
                "chase.sidecar.fallback.reason:sidecar-unreadable"
            )
            == 1
        )

    def test_garbage_sidecar_counted(self, tmp_path):
        from repro.obs import MetricsRegistry

        cube, csv_path, sidecar = self._paths(tmp_path)
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_text('{"torn": ')
        metrics = MetricsRegistry()
        assert not attach_store_sidecar(
            cube.copy(), csv_path, sidecar, metrics=metrics
        )
        assert (
            metrics.value(
                "chase.sidecar.fallback.reason:sidecar-unreadable"
            )
            == 1
        )

    def test_missing_sidecar_is_a_silent_miss(self, tmp_path):
        from repro.obs import MetricsRegistry

        cube, csv_path, sidecar = self._paths(tmp_path)
        metrics = MetricsRegistry()
        assert (
            read_store_sidecar(
                cube.schema, csv_path, sidecar, metrics=metrics
            )
            is None
        )
        assert (
            metrics.value(
                "chase.sidecar.fallback.reason:sidecar-unreadable"
            )
            == 0
        )

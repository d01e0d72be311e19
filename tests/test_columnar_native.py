"""Property-based equivalence harness for columnar-native storage.

Columnar-native means :class:`RelationalInstance` keeps each relation as
dictionary-encoded struct-of-arrays and derives the tuple view lazily;
setting the module attribute ``instance.FORCE_TUPLE_VIEW`` per case
keeps the pre-refactor eager tuple representation as the oracle.  The
contract this suite pins (DESIGN.md §9): the representation is
*unobservable* — chase solutions, committed stores, failure behaviour,
and run bookkeeping are bit-identical between the two layouts across 50
seeded-random programs × perturbations, composed with the scalar and
columnar kernels, the suite-wide ``--jobs`` axis, ``update()``, and
injected faults.

Also here: the encode-tax regression (warm runs and no-op updates must
never re-encode an unchanged relation — and no relation is ever encoded
twice), the mutation-after-view isolation pins, and the columnar sidecar
persistence round-trip.
"""

import json
from contextlib import contextmanager

import pytest

import repro.chase.instance as instance_mod
from repro.backends import ChaseBackend
from repro.chase import RelationalInstance, StratifiedChase, instance_from_cubes
from repro.chase.colstore import ColumnStore, TupleStore
from repro.chase.columnar import ColumnarRelation
from repro.chase.delta import DeltaChase
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
from repro.errors import ReproError
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import Cube
from repro.model.cube import CubeSchema, Dimension
from repro.model.io import read_cube_csv, write_cube_csv
from repro.model.schema import Schema
from repro.model.types import STRING
from repro.workloads import gdp_example, random_workload
from tests.oracle.chase import ScalarChase

SEEDS = range(50)


@contextmanager
def _tuple_view(forced):
    """Run a block under the forced-eager-tuple (oracle) representation."""
    previous = instance_mod.FORCE_TUPLE_VIEW
    instance_mod.FORCE_TUPLE_VIEW = forced
    try:
        yield
    finally:
        instance_mod.FORCE_TUPLE_VIEW = previous


def _build_engine(workload, *, jobs=1):
    engine = EXLEngine(jobs=jobs, target_priority=("chase",))
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


def _assert_same_stores(native, oracle, context):
    left, right = _store_state(native), _store_state(oracle)
    assert set(left) == set(right), context
    for name in left:
        delta = left[name].delta(right[name])
        assert delta.is_empty, (
            f"{context}: {name} diverged between columnar-native and the "
            f"tuple oracle (+{len(delta.inserted)} -{len(delta.deleted)} "
            f"~{len(delta.updated)})"
        )


class TestChaseEquivalence:
    """StratifiedChase solutions are representation-independent —
    tuple for tuple *and* insertion order for insertion order."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_native_equals_tuple_oracle(self, seed):
        workload = random_workload(
            seed + 600, n_statements=7, n_periods=10, n_regions=2
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        # compose the rule-interpreter axis over the sweep
        chase = StratifiedChase if seed % 2 == 0 else ScalarChase
        results = {}
        for forced in (False, True):
            with _tuple_view(forced):
                source = instance_from_cubes(workload.data)
                results[forced] = chase(mapping).run(source)
        native, oracle = results[False], results[True]
        assert sorted(native.instance.relations()) == sorted(
            oracle.instance.relations()
        )
        for relation in native.instance.relations():
            assert list(native.instance.facts(relation)) == list(
                oracle.instance.facts(relation)
            ), f"seed {seed}: relation {relation} differs across layouts"
        assert native.stats.tuples_generated == oracle.stats.tuples_generated


class TestEngineEquivalence:
    """Full engine lifecycle — run, warm rerun, revise, update — lands
    on identical committed stores under both representations."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_committed_stores_match_tuple_oracle(self, seed, chase_jobs):
        workload = random_workload(
            seed, n_statements=6, n_periods=12, n_regions=2
        )
        baseline = _truncate(workload.data, seed)
        revised = _perturb(workload.data, seed)
        jobs = chase_jobs if seed % 3 == 0 else 1
        engines = {}
        failures = {}
        for forced in (False, True):
            with _tuple_view(forced):
                engine = _build_engine(workload, jobs=jobs)
                for cube in baseline.values():
                    engine.load(cube)
                try:
                    engine.run()
                    engine.run()  # warm rerun over adopted column stores
                    for cube in revised.values():
                        engine.load(cube)
                    engine.update()
                    failures[forced] = None
                except ReproError as exc:
                    failures[forced] = f"{type(exc).__name__}: {exc}"
                engines[forced] = engine
        # identical failure, or identical committed stores
        assert failures[False] == failures[True], f"seed {seed}"
        if failures[False] is None:
            _assert_same_stores(
                engines[False], engines[True], f"seed {seed}"
            )


class TestFaultComposition:
    """Injected faults fire identically under both layouts: same
    per-subgraph outcomes, same committed (partial) stores."""

    @pytest.mark.parametrize("seed", range(6))
    def test_faulty_dispatch_lands_identically(self, seed):
        workload = gdp_example(
            n_quarters=8, regions=("north", "south"), seed=seed
        )
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.5)], seed=seed
        )
        engines, outcomes = {}, {}
        for forced in (False, True):
            with _tuple_view(forced):
                engine = _build_engine(workload)
                for cube in workload.data.values():
                    engine.load(cube)
                record = engine.run(
                    retries=1, on_error="continue", fault_plan=plan
                )
                engines[forced] = engine
                outcomes[forced] = {
                    cube: s.outcome
                    for s in record.subgraphs
                    for cube in s.cubes
                }
        assert outcomes[False] == outcomes[True], f"seed {seed}"
        _assert_same_stores(engines[False], engines[True], f"seed {seed}")


class TestEncodeTax:
    """Unchanged relations are never re-encoded — and in the native
    layout nothing is encoded at all, because no relation ever lives as
    a tuple set in the first place."""

    def _loaded_engine(self, **kwargs):
        workload = gdp_example(
            n_quarters=10, regions=("north", "south"), seed=5
        )
        engine = _build_engine(workload, **kwargs)
        for cube in workload.data.values():
            engine.load(cube)
        return engine, workload

    def _assert_no_relation_encoded_twice(self, engine):
        per_relation = engine.metrics.counters("chase.kernel.encode.relation:")
        twice = {name: n for name, n in per_relation.items() if n > 1}
        assert not twice, f"relations encoded more than once: {twice}"

    def test_cold_and_warm_runs_never_encode(self):
        engine, _ = self._loaded_engine()
        engine.run()
        assert engine.metrics.value("chase.kernel.encode") == 0
        record = engine.run()  # warm full rerun adopts every cube store
        assert engine.metrics.value("chase.kernel.encode") == 0
        assert record.encode_count == 0
        self._assert_no_relation_encoded_twice(engine)

    def test_noop_update_never_encodes(self):
        engine, workload = self._loaded_engine()
        engine.run()
        for cube in workload.data.values():
            engine.load(cube.copy())  # bit-identical revision
        record = engine.update()
        assert engine.metrics.value("chase.kernel.encode") == 0
        assert record.encode_count == 0
        self._assert_no_relation_encoded_twice(engine)

    def test_dirty_update_never_encodes(self):
        engine, workload = self._loaded_engine()
        engine.run()
        revised = workload.data["PDR"].copy()
        row = revised.to_rows()[0]
        revised.set(row[:-1], row[-1] + 1.5, overwrite=True)
        engine.load(revised)
        record = engine.update()
        assert engine.metrics.value("chase.kernel.encode") == 0
        assert record.encode_count == 0
        self._assert_no_relation_encoded_twice(engine)

    def test_counter_is_live_under_forced_tuple_view(self):
        # the zero assertions above are only meaningful if the counter
        # actually fires when relations *do* live as tuple sets
        with _tuple_view(True):
            engine, _ = self._loaded_engine()
            record = engine.run()
            assert engine.metrics.value("chase.kernel.encode") > 0
            assert record.encode_count > 0
            assert "re-encodes" in record.summary()


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
                assert looped.can_store(row) and looped.add(row)
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


class TestViewIsolation:
    """``view()`` shares column images with the owner; a write through
    the clone must fork, never corrupt the owner's columnar state."""

    def test_clone_write_cannot_corrupt_owner(self):
        owner = RelationalInstance()
        owner.add("R", ("a", 1.0))
        owner.add("R", ("b", 2.0))
        before = owner.columnar_image("R", 2)
        clone = owner.view(["R"])
        clone.add("R", ("z", 99.0))  # must fork the shared store
        assert list(owner.facts("R")) == [("a", 1.0), ("b", 2.0)]
        assert list(clone.facts("R")) == [
            ("a", 1.0), ("b", 2.0), ("z", 99.0),
        ]
        image = owner.columnar_image("R", 2)
        assert image.n_rows == 2
        assert image.dims[0].decode_list() == ["a", "b"]
        assert image.measures.tolist() == [1.0, 2.0]
        # the image handed out before the view stays valid too
        assert before.dims[0].decode_list() == ["a", "b"]

    def test_clone_removal_cannot_corrupt_owner(self):
        owner = RelationalInstance()
        owner.add("R", ("a", 1.0))
        owner.add("R", ("b", 2.0))
        clone = owner.view(["R"])
        assert clone.remove_batch("R", [("a", 1.0)]) == 1
        assert list(owner.facts("R")) == [("a", 1.0), ("b", 2.0)]
        assert owner.columnar_image("R", 2).n_rows == 2
        assert list(clone.facts("R")) == [("b", 2.0)]

    def test_owner_write_stays_visible_through_unforked_view(self):
        # the owner is NOT marked shared by view(): it keeps appending
        # to its live store, and a clone that never wrote sees the
        # owner's later facts (the read-through semantics delta replay
        # relies on)
        owner = RelationalInstance()
        owner.add("R", ("a", 1.0))
        clone = owner.view(["R"])
        owner.add("R", ("b", 2.0))
        assert list(clone.facts("R")) == [("a", 1.0), ("b", 2.0)]


class TestMutationCacheInvalidation:
    """Net-zero churn — retract *k* facts, assert *k* new ones, the
    exact shape the delta splice produces for update-only revisions —
    restores the row count but not the content.  Every cached
    derivation (the columnar image) must notice; regression
    for caches that were keyed on ``len(facts)`` and so survived the
    churn stale."""

    def _encoded(self, store):
        image = ColumnarRelation.from_facts(list(store.rows()), 2)
        store.set_image(image)
        return image

    def test_tuple_store_image_invalidated_by_net_zero_churn(self):
        store = TupleStore()
        for fact in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            store.add(fact)
        image = self._encoded(store)
        assert store.cached_image() is image
        assert store.remove([("a", 1.0)]) == 1
        assert store.add(("a", 9.0))
        assert store.n_rows == 3  # same length, different content
        assert store.cached_image() is None

    def test_tuple_store_image_invalidated_by_removal_alone(self):
        store = TupleStore()
        store.add(("a", 1.0))
        store.add(("b", 2.0))
        self._encoded(store)
        store.remove([("b", 2.0)])
        assert store.cached_image() is None

    def test_tuple_store_image_survives_no_op_mutations(self):
        # a retraction of an absent fact or a duplicate insert changes
        # no content, so the image stays current
        store = TupleStore()
        store.add(("a", 1.0))
        store.add(("b", 2.0))
        image = self._encoded(store)
        assert store.remove([("z", 0.0)]) == 0
        assert not store.add(("a", 1.0))
        assert store.cached_image() is image

    def test_tuple_store_fork_keeps_caches_coherent(self):
        store = TupleStore()
        store.add(("a", 1.0))
        store.add(("b", 2.0))
        image = self._encoded(store)
        clone = store.fork()
        assert clone.cached_image() is image
        clone.remove([("a", 1.0)])
        clone.add(("a", 5.0))
        assert clone.cached_image() is None
        # the donor is untouched
        assert store.cached_image() is image

    @pytest.mark.parametrize("forced", [False, True])
    def test_instance_image_reflects_net_zero_churn(self, forced):
        with _tuple_view(forced):
            instance = RelationalInstance()
            for fact in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
                instance.add("R", fact)
            instance.columnar_image("R", 2)  # caches on either layout
            # first churn demotes a native relation to the tuple store
            instance.remove_batch("R", [("a", 1.0)])
            instance.add("R", ("d", 4.0))
            instance.columnar_image("R", 2)  # caches on the tuple store
            # second churn is net-zero *on the tuple store*
            instance.remove_batch("R", [("b", 2.0)])
            instance.add("R", ("e", 5.0))
            image = instance.columnar_image("R", 2)
            rows = sorted(
                zip(image.dims[0].decode_list(), image.measures.tolist())
            )
            assert rows == [("c", 3.0), ("d", 4.0), ("e", 5.0)]

    @pytest.mark.parametrize("forced", [False, True])
    def test_instance_image_after_net_zero_churn_matches_fresh(self, forced):
        # the delta splice's shape: one key keeps its dims and takes a
        # new measure; the image must be that of the same facts built
        # from scratch, in the same order
        def rows(instance):
            image = instance.columnar_image("R", 2)
            return list(zip(image.dims[0].decode_list(), image.measures.tolist()))

        with _tuple_view(forced):
            instance = RelationalInstance()
            for fact in [("a", 1.0), ("b", 2.0)]:
                instance.add("R", fact)
            before = rows(instance)
            instance.remove_batch("R", [("a", 1.0)])
            instance.add("R", ("a", 9.0))
            fresh = RelationalInstance()
            for fact in instance.facts("R"):
                fresh.add("R", fact)
            assert rows(instance) == rows(fresh) == [("b", 2.0), ("a", 9.0)]
            assert rows(instance) != before

    def test_net_zero_splice_then_full_recompute_reads_live_operands(self):
        """The review scenario end to end: two successive update-only
        revisions, with the target tgd forced onto the full-recompute
        fallback (the one delta path that re-reads whole operand
        images).  The second update's recompute must see the second
        revision's operand content, not a stale image cached during
        the first update at the same row count."""
        a_schema = CubeSchema("A", [Dimension("r", STRING)], "v")
        schema = Schema([a_schema], "src")
        program = Program.compile("Z := A * 2\n", schema)
        mapping = generate_mapping(program)

        def data(values):
            cube = Cube(a_schema)
            for key, value in values.items():
                cube.set((key,), value)
            return {"A": cube}

        backend = ChaseBackend()
        backend.run_mapping(mapping, data({"a": 1.0, "b": 2.0, "c": 3.0}))
        snapshot = backend._snapshot_for(mapping)
        chase = DeltaChase(snapshot)
        (tgd,) = [t for t in mapping.target_tgds if t.target_relation == "Z"]
        chase._plans[id(tgd)] = (None, "forced-fallback-for-test")
        snapshot.chaser = chase
        backend.run_mapping_delta(
            mapping, data({"a": 10.0, "b": 2.0, "c": 3.0})
        )
        final = data({"a": 10.0, "b": 20.0, "c": 3.0})
        result = backend.run_mapping_delta(mapping, final)
        expected = ChaseBackend().run_mapping(mapping, final)
        assert result.cubes["Z"].delta(expected["Z"]).is_empty, (
            "full-recompute fallback read a stale operand image"
        )


class TestCleanPathStoreAdoption:
    """The dispatcher only carries a fresh output's columnar store onto
    a delta-identical stored cube when the store's insertion order is
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
        # a *different* NaN object breaks retraction-by-identity on the
        # adopted store, so it must not be attached
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
        # cube holds, so NaN retraction matches by identity even on a
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

    def test_forced_tuple_view_writes_no_sidecar(self, tmp_path):
        cube = self._cube()
        csv_path = tmp_path / "PDR.csv"
        write_cube_csv(cube, csv_path)
        sidecar = sidecar_path_for(tmp_path, "PDR")
        with _tuple_view(True):
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

"""Re-running the chase: a re-run recomputes.

No layer memoises a stratum's output between runs, so every
``StratifiedChase.run`` builds a fresh solution instance from the
source it is given, and ``EXLEngine.run`` re-runs every affected
subgraph; ``EXLEngine.update`` is the one incremental path.  This suite
pins what that buys: a re-run on unchanged sources reproduces the first
run tuple for tuple, a re-run on changed sources or an edited statement
reflects the change, an executor reused across runs agrees with a
fresh one, and new source data that violates an egd always fails —
whatever ran before on the same executor.
"""

import subprocess
import sys

import pytest

from repro.backends import ChaseBackend
import repro.chase
from repro.chase import StratifiedChase, instance_from_cubes
from repro.engine import Dispatcher, EXLEngine, RunPolicy
from repro.errors import ChaseError
from repro.exl import Program
from repro.mappings import (
    Atom,
    Egd,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    generate_mapping,
)
from repro.model import TIME, CubeSchema, Dimension, Frequency, Schema, month, quarter
from repro.workloads.datagen import random_cube


def _two_source_setup():
    """Two independent elementary cubes, two independent strata."""
    dims = [Dimension("m", TIME(Frequency.MONTH))]
    schema = Schema(
        [CubeSchema("S", dims, "v"), CubeSchema("T", dims, "w")]
    )
    program = Program.compile("A := S * 2\nB := T * 3", schema)
    mapping = generate_mapping(program)
    domains = {"m": [month(2021, 1) + i for i in range(8)]}
    data = {
        "S": random_cube(schema["S"], domains, seed=1),
        "T": random_cube(schema["T"], domains, seed=2),
    }
    return schema, mapping, domains, data


def _revised(schema, domains, data, name, seed):
    changed = dict(data)
    changed[name] = random_cube(schema[name], domains, seed=seed)
    return changed


def _assert_identical(left, right):
    """Insertion-sequence equality of two solution instances."""
    assert sorted(left.instance.relations()) == sorted(
        right.instance.relations()
    )
    for relation in left.instance.relations():
        assert list(left.instance.facts(relation)) == list(
            right.instance.facts(relation)
        ), f"relation {relation} differs"


def _broken_projection_mapping():
    """A tgd projecting away the time dimension without aggregating:
    two source tuples with different measures violate OUT's egd."""
    series = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
    target = Schema([series, CubeSchema("OUT", (), "v")])
    registry = generate_mapping(
        Program.compile("C := S", Schema([series]))
    ).registry
    copy = Tgd(
        [Atom("S", (Var("q"), Var("v")))],
        Atom("S", (Var("q"), Var("v"))),
        TgdKind.COPY,
        label="S",
    )
    tgd = Tgd(
        [Atom("S", (Var("q"), Var("v")))],
        Atom("OUT", (Var("v"),)),
        TgdKind.TUPLE_LEVEL,
        label="OUT",
    )
    return SchemaMapping(
        Schema([series]), target, [copy], [tgd], [Egd("OUT", 0)], registry
    )


def _one_fact_source():
    source = instance_from_cubes({})
    source.ensure("S")
    source.add("S", (quarter(2020, 1), 1.0))
    return source


@pytest.mark.parametrize("shards", [1, 2])
class TestRerunOnOneExecutor:
    """One ``StratifiedChase`` run several times, in one process and
    with shard workers (forked again by every run)."""

    def test_second_run_equals_first(self, shards):
        _, mapping, _, data = _two_source_setup()
        source = instance_from_cubes(data)
        chase = StratifiedChase(mapping, shards=shards)
        first, second = chase.run(source), chase.run(source)
        _assert_identical(first, second)
        # the second run applied every tgd again, on the same kernels
        assert second.stats.rule_applications == first.stats.rule_applications
        assert second.stats.tuples_generated == first.stats.tuples_generated
        assert second.stats.per_tgd == first.stats.per_tgd

    def test_recomputed_stratum_reflects_new_data(self, shards):
        schema, mapping, domains, data = _two_source_setup()
        chase = StratifiedChase(mapping, shards=shards)
        chase.run(instance_from_cubes(data))
        changed = _revised(schema, domains, data, "T", seed=77)
        result = chase.run(instance_from_cubes(changed))
        expected = {
            key + (value * 3,) for key, value in changed["T"].items()
        }
        assert result.instance.facts("B") == expected

    def test_changed_source_leaves_other_strata_equal(self, shards):
        schema, mapping, domains, data = _two_source_setup()
        chase = StratifiedChase(mapping, shards=shards)
        before = chase.run(instance_from_cubes(data))
        changed = _revised(schema, domains, data, "T", seed=99)
        after = chase.run(instance_from_cubes(changed))
        # A depends only on S (unchanged), B only on T (changed)
        assert list(after.instance.facts("A")) == list(
            before.instance.facts("A")
        )
        assert after.instance.facts("B") != before.instance.facts("B")
        fresh = StratifiedChase(mapping, shards=shards).run(
            instance_from_cubes(changed)
        )
        _assert_identical(fresh, after)

    def test_earlier_result_is_untouched_by_a_rerun(self, shards):
        schema, mapping, domains, data = _two_source_setup()
        chase = StratifiedChase(mapping, shards=shards)
        first = chase.run(instance_from_cubes(data))
        kept = {r: list(first.instance.facts(r)) for r in first.instance.relations()}
        chase.run(instance_from_cubes(_revised(schema, domains, data, "S", seed=3)))
        assert {
            r: list(first.instance.facts(r)) for r in first.instance.relations()
        } == kept

    def test_revision_sequence_matches_fresh_executor(self, shards):
        schema, mapping, domains, data = _two_source_setup()
        reused = StratifiedChase(mapping, shards=shards)
        revised = data
        for seed in range(5):
            name = "ST"[seed % 2]
            revised = _revised(schema, domains, revised, name, seed=seed + 10)
            source = instance_from_cubes(revised)
            _assert_identical(
                StratifiedChase(mapping, shards=shards).run(source),
                reused.run(source),
            )

    def test_rerun_never_masks_new_egd_violation(self, shards):
        mapping = _broken_projection_mapping()
        chase = StratifiedChase(mapping, shards=shards)
        clean = _one_fact_source()
        # run 1: a single tuple cannot violate functionality
        result = chase.run(clean)
        assert result.instance.facts("OUT") == {(1.0,)}
        # run 2: new source data introduces the violation
        dirty = clean.copy()
        dirty.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="egd violation"):
            chase.run(dirty)

    def test_executor_recovers_after_an_egd_violation(self, shards):
        mapping = _broken_projection_mapping()
        chase = StratifiedChase(mapping, shards=shards)
        dirty = _one_fact_source()
        dirty.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="egd violation"):
            chase.run(dirty)
        # the failed run leaves nothing behind for the next one
        assert chase.run(_one_fact_source()).instance.facts("OUT") == {(1.0,)}


def test_editing_the_statement_recomputes():
    dims = [Dimension("m", TIME(Frequency.MONTH))]
    schema = Schema([CubeSchema("S", dims, "v")])
    domains = {"m": [month(2021, 1) + i for i in range(6)]}
    data = {"S": random_cube(schema["S"], domains, seed=5)}
    doubled = generate_mapping(Program.compile("A := S * 2", schema))
    tripled = generate_mapping(Program.compile("A := S * 3", schema))
    StratifiedChase(doubled).run(instance_from_cubes(data))
    result = StratifiedChase(tripled).run(instance_from_cubes(data))
    assert result.instance.facts("A") == {
        key + (value * 3,) for key, value in data["S"].items()
    }


def test_serial_and_sharded_reruns_agree():
    _, mapping, _, data = _two_source_setup()
    source = instance_from_cubes(data)
    serial = StratifiedChase(mapping)
    sharded = StratifiedChase(mapping, shards=2)
    warm = serial.run(source)
    for replay in (sharded.run(source), serial.run(source), sharded.run(source)):
        # the same solution; the shards' merge inserts in its own order
        for relation in warm.instance.relations():
            assert set(replay.instance.facts(relation)) == set(
                warm.instance.facts(relation)
            ), f"relation {relation} differs"
        assert replay.stats.per_tgd == warm.stats.per_tgd


def test_no_layer_takes_a_removed_setting(child_env):
    """No cache, no kernel switch, no thread count, no retry budget, and
    nothing picks the storage or the snapshotting."""
    _, mapping, _, _ = _two_source_setup()
    assert not hasattr(repro.chase, "ChaseCache")
    with pytest.raises(TypeError):
        StratifiedChase(mapping, cache=None)
    with pytest.raises(TypeError):
        StratifiedChase(mapping, vectorized=False)
    with pytest.raises(TypeError):
        StratifiedChase(mapping, jobs=4)
    with pytest.raises(TypeError):
        ChaseBackend(cache=None)
    with pytest.raises(TypeError):
        EXLEngine(chase_cache=False)
    with pytest.raises(TypeError):
        EXLEngine(vectorize=False)
    # dispatch runs one subgraph at a time, each once: no thread
    # count, no retry budget, no backoff
    for setting in ("jobs", "backoff_s"):
        with pytest.raises(TypeError):
            EXLEngine(**{setting: 1})
    for setting in ("retries", "backoff_s"):
        with pytest.raises(TypeError):
            RunPolicy(**{setting: 1})
    engine = EXLEngine()
    for execute in (engine.run, engine.update, engine.resume):
        with pytest.raises(TypeError):
            execute(retries=1)
    # the dispatcher reads the engine; the failure policy is one value
    with pytest.raises(TypeError):
        Dispatcher(engine.catalog, engine.graph, retries=1)
    with pytest.raises(TypeError):
        Dispatcher(engine.catalog, engine.graph, adaptive=True)
    for setting in (
        "vectorized", "capture_deltas", "shard_retries", "shard_timeout_s",
        "jobs",
    ):
        with pytest.raises(TypeError):
            ChaseBackend(**{setting: None})
    # a relation has one store, the column store: the retired
    # EXL_FORCE_TUPLE_VIEW variable switches nothing
    script = (
        "from repro.backends import ChaseBackend\n"
        "from repro.chase.colstore import ColumnStore\n"
        "from repro.exl import Program\n"
        "from repro.mappings import generate_mapping\n"
        "from repro.model import (\n"
        "    TIME, Cube, CubeSchema, Dimension, Frequency, Schema, month)\n"
        "s = CubeSchema('S', [Dimension('m', TIME(Frequency.MONTH))], 'v')\n"
        "mapping = generate_mapping(Program.compile('A := S * 2', Schema([s])))\n"
        "cube = Cube.from_rows(s, [(month(2021, 1) + i, float(i)) for i in range(4)])\n"
        "out = ChaseBackend().run_mapping(mapping, {'S': cube})['A']\n"
        "assert isinstance(out._colstore, ColumnStore), out._colstore\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**child_env, "EXL_FORCE_TUPLE_VIEW": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestEngineRerun:
    def _engine(self, data=None, **kwargs):
        dims = [Dimension("m", TIME(Frequency.MONTH))]
        schema = CubeSchema("S", dims, "v")
        engine = EXLEngine(**kwargs)
        engine.declare_elementary(schema)
        engine.add_program(
            "A := S * 2\nB := S + 5\nC := A + B",
            preferred_targets={"A": "chase", "B": "chase", "C": "chase"},
        )
        domains = {"m": [month(2022, 1) + i for i in range(8)]}
        engine.load(data or random_cube(schema, domains, seed=11))
        return engine, schema, domains

    @staticmethod
    def _rows(engine):
        return {name: set(engine.data(name).to_rows()) for name in "ABC"}

    def test_same_data_rerun_through_engine(self):
        engine, _, _ = self._engine()
        engine.run()
        before = self._rows(engine)
        record = engine.run(changed=["S"])  # same data: every stratum again
        assert record.finished and not record.error
        assert self._rows(engine) == before

    def test_changed_data_recomputes_through_engine(self):
        engine, schema, domains = self._engine()
        engine.run()
        revised = random_cube(schema, domains, seed=12)
        engine.load(revised)
        engine.run()
        expected = {k + (v * 2,) for k, v in revised.items()}
        assert set(engine.data("A").to_rows()) == expected

    def test_rerun_after_update_matches_fresh_engine(self):
        engine, schema, domains = self._engine()
        engine.run()
        revised = random_cube(schema, domains, seed=13)
        engine.load(revised)
        engine.update()
        engine.run(changed=["S"])
        fresh, _, _ = self._engine(data=revised)
        fresh.run()
        assert self._rows(engine) == self._rows(fresh)

"""Cube-level chase materialization cache: accounting, invalidation,
and the egd-safety regression.

The cache memoizes each stratum's result keyed by (tgd, content
fingerprint of its operand relations).  Repeated runs over unchanged
sources must hit; any change to an operand must miss; and — the
regression this file pins — a cached stratum must never mask an egd
violation introduced by new source data.
"""

import pytest

from repro.chase import (
    ChaseCache,
    StratifiedChase,
    instance_from_cubes,
)
from repro.engine import EXLEngine
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
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, Schema, month, quarter
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


class TestAccounting:
    def test_first_run_misses_second_run_hits(self):
        _, mapping, _, data = _two_source_setup()
        cache = ChaseCache()
        source = instance_from_cubes(data)
        first = StratifiedChase(mapping, cache=cache).run(source)
        second = StratifiedChase(mapping, cache=cache).run(source)
        n = len(mapping.target_tgds)
        assert first.stats.cache_misses == n
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits == n
        assert second.stats.cache_misses == 0
        # the cache's own counters agree with the per-run stats
        assert cache.hits == n and cache.misses == n

    def test_parallel_and_sequential_share_entries(self):
        _, mapping, _, data = _two_source_setup()
        cache = ChaseCache()
        source = instance_from_cubes(data)
        warm = StratifiedChase(mapping, cache=cache).run(source)
        replay = StratifiedChase(mapping, jobs=4, cache=cache).run(source)
        assert replay.stats.cache_hits == len(mapping.target_tgds)
        for relation in warm.instance.relations():
            assert warm.instance.facts(relation) == replay.instance.facts(relation)

    def test_no_cache_means_zero_counters(self):
        _, mapping, _, data = _two_source_setup()
        result = StratifiedChase(mapping).run(instance_from_cubes(data))
        assert result.stats.cache_hits == 0
        assert result.stats.cache_misses == 0

    def test_lru_eviction_bounds_entries(self):
        cache = ChaseCache(max_entries=2)
        cache.put(("a",), ((1, 2.0),))
        cache.put(("b",), ((1, 2.0),))
        cache.put(("c",), ((1, 2.0),))
        assert len(cache) == 2
        assert cache.get(("a",)) is None  # oldest entry evicted

    def test_clear(self):
        cache = ChaseCache()
        cache.put(("a",), ())
        cache.clear()
        assert len(cache) == 0


class TestInvalidation:
    def test_changed_source_invalidates_only_its_strata(self):
        schema, mapping, domains, data = _two_source_setup()
        cache = ChaseCache()
        StratifiedChase(mapping, cache=cache).run(instance_from_cubes(data))
        changed = dict(data)
        changed["T"] = random_cube(schema["T"], domains, seed=99)
        result = StratifiedChase(mapping, cache=cache).run(
            instance_from_cubes(changed)
        )
        # A depends only on S (unchanged) -> hit; B depends on T -> miss
        assert result.stats.cache_hits == 1
        assert result.stats.cache_misses == 1

    def test_recomputed_stratum_reflects_new_data(self):
        schema, mapping, domains, data = _two_source_setup()
        cache = ChaseCache()
        chase = StratifiedChase(mapping, cache=cache)
        chase.run(instance_from_cubes(data))
        changed = dict(data)
        changed["T"] = random_cube(schema["T"], domains, seed=77)
        result = chase.run(instance_from_cubes(changed))
        expected = {
            key + (value * 3,) for key, value in changed["T"].items()
        }
        assert result.instance.facts("B") == expected

    def test_editing_the_statement_invalidates(self):
        dims = [Dimension("m", TIME(Frequency.MONTH))]
        schema = Schema([CubeSchema("S", dims, "v")])
        domains = {"m": [month(2021, 1) + i for i in range(6)]}
        data = {"S": random_cube(schema["S"], domains, seed=5)}
        cache = ChaseCache()
        doubled = generate_mapping(Program.compile("A := S * 2", schema))
        tripled = generate_mapping(Program.compile("A := S * 3", schema))
        StratifiedChase(doubled, cache=cache).run(instance_from_cubes(data))
        result = StratifiedChase(tripled, cache=cache).run(
            instance_from_cubes(data)
        )
        assert result.stats.cache_misses == 1
        assert result.instance.facts("A") == {
            key + (value * 3,) for key, value in data["S"].items()
        }


class TestEgdSafetyRegression:
    def _broken_projection_mapping(self):
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

    def test_cached_stratum_never_masks_new_egd_violation(self):
        mapping = self._broken_projection_mapping()
        cache = ChaseCache()
        clean = instance_from_cubes({})
        clean.ensure("S")
        clean.add("S", (quarter(2020, 1), 1.0))
        # run 1: a single tuple cannot violate functionality -> cached
        result = StratifiedChase(mapping, cache=cache).run(clean)
        assert result.stats.cache_misses == 1
        assert result.instance.facts("OUT") == {(1.0,)}
        # run 2: new source data introduces the violation; the changed
        # operand fingerprint must force a recompute, which fails
        dirty = clean.copy()
        dirty.add("S", (quarter(2020, 2), 2.0))
        with pytest.raises(ChaseError, match="egd violation"):
            StratifiedChase(mapping, cache=cache).run(dirty)
        # and the parallel scheduler behaves identically
        with pytest.raises(ChaseError, match="egd violation"):
            StratifiedChase(mapping, jobs=4, cache=cache).run(dirty)

    def test_cache_replay_goes_through_egd_check(self):
        """Even a poisoned cache entry cannot smuggle conflicting facts
        past the functional index: replay uses the checking insert."""
        mapping = self._broken_projection_mapping()
        cache = ChaseCache()
        source = instance_from_cubes({})
        source.ensure("S")
        source.add("S", (quarter(2020, 1), 1.0))
        chase = StratifiedChase(mapping, cache=cache)
        key = cache.key_for(mapping.target_tgds[0], _target_preview(chase, source))
        cache.put(key, ((1.0,), (2.0,)))  # conflicting facts for OUT()
        with pytest.raises(ChaseError, match="egd violation"):
            chase.run(source)


def _target_preview(chase, source):
    """The target instance as it looks when the OUT stratum fires
    (after the copy stratum), used to forge its cache key."""
    from repro.chase import RelationalInstance

    target = RelationalInstance()
    for tgd in chase.mapping.st_tgds:
        for fact in source.facts(tgd.lhs[0].relation):
            target.add(tgd.target_relation, fact)
    return target


class TestEngineIntegration:
    def _engine(self, **kwargs):
        dims = [Dimension("m", TIME(Frequency.MONTH))]
        schema = CubeSchema("S", dims, "v")
        engine = EXLEngine(**kwargs)
        engine.declare_elementary(schema)
        engine.add_program(
            "A := S * 2\nB := S + 5\nC := A + B",
            preferred_targets={"A": "chase", "B": "chase", "C": "chase"},
        )
        domains = {"m": [month(2022, 1) + i for i in range(8)]}
        engine.load(random_cube(schema, domains, seed=11))
        return engine, schema, domains

    def test_incremental_rerun_hits_the_chase_cache(self):
        engine, schema, domains = self._engine(jobs=2)
        engine.run()
        assert engine.chase_cache is not None
        assert engine.chase_cache.misses > 0
        before_hits = engine.chase_cache.hits
        engine.run(changed=["S"])  # same data: every stratum replays
        assert engine.chase_cache.hits > before_hits
        assert engine.data("C").approx_equals(engine.data("C"))

    def test_changed_data_recomputes_through_engine(self):
        engine, schema, domains = self._engine(jobs=2)
        engine.run()
        revised = random_cube(schema, domains, seed=12)
        engine.load(revised)
        engine.run()
        expected = {k + (v * 2,) for k, v in revised.items()}
        assert set(engine.data("A").to_rows()) == expected

    def test_cache_can_be_disabled(self):
        engine, _, _ = self._engine(chase_cache=False)
        assert engine.chase_cache is None
        engine.run()
        assert set(engine.data("A").to_rows())


class TestAccountingReconciliation:
    """The counter invariant under arbitrary operation interleavings.

    Regression: ``put`` used to count neither stores nor same-key
    replacements, so after any overwrite the live entry count could not
    be reconciled with the counters — a slow leak in the accounting
    that only showed once incremental updates started re-putting
    recomputed strata under recurring keys.  The invariant is::

        len(cache) == puts - overwrites - invalidations
    """

    @staticmethod
    def _reconciles(cache):
        return len(cache) == cache.puts - cache.overwrites - cache.invalidations

    def test_overwrite_same_key_is_counted(self):
        cache = ChaseCache()
        key = ("A", "tgd-text", (("S", 123),))
        cache.put(key, ((1, 2.0),))
        cache.put(key, ((1, 3.0),))
        assert len(cache) == 1
        assert cache.puts == 2
        assert cache.overwrites == 1
        assert self._reconciles(cache)

    def test_eviction_counts_as_invalidation(self):
        cache = ChaseCache(max_entries=3)
        for i in range(10):
            cache.put((f"k{i}", "t", (("S", i),)), ())
        assert len(cache) == 3
        assert cache.puts == 10
        assert cache.invalidations == 7
        assert self._reconciles(cache)

    def test_hammer_random_operation_storm(self):
        """Random puts / overwrites / relation invalidations / clears /
        evictions must never desynchronize the counters."""
        import random as _random

        rng = _random.Random(1234)
        cache = ChaseCache(max_entries=16)
        relations = [f"R{i}" for i in range(6)]
        for step in range(2000):
            roll = rng.random()
            if roll < 0.70:
                label = f"tgd{rng.randrange(24)}"
                operands = tuple(
                    sorted(
                        (name, rng.randrange(4))
                        for name in rng.sample(relations, rng.randrange(1, 4))
                    )
                )
                cache.put((label, label, operands), ((step, float(step)),))
            elif roll < 0.90:
                doomed = rng.sample(relations, rng.randrange(1, 3))
                cache.invalidate_relations(doomed)
            elif roll < 0.97:
                cache.get((f"tgd{rng.randrange(24)}",) * 2 + ((("R0", 0),),))
            else:
                cache.clear()
            assert self._reconciles(cache), f"desync at step {step}"
        assert cache.puts > 0 and cache.overwrites > 0
        assert cache.invalidations > 0

    def test_counters_reconcile_through_engine_updates(self):
        """End-to-end: repeated incremental runs through the scheduler
        keep the cache's books balanced."""
        schema, mapping, domains, data = _two_source_setup()
        cache = ChaseCache(max_entries=4)
        chase = StratifiedChase(mapping, cache=cache)
        for seed in range(6):
            revised = dict(data)
            revised["T"] = random_cube(schema["T"], domains, seed=seed)
            chase.run(instance_from_cubes(revised))
            assert TestAccountingReconciliation._reconciles(cache)
        cache.invalidate_relations(["S", "T"])
        assert TestAccountingReconciliation._reconciles(cache)
        assert len(cache) == 0

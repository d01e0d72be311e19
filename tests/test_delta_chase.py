"""Incremental delta chase: ``EXLEngine.update`` must be observably
indistinguishable from a full rerun.

The contract under test (DESIGN.md §8): after ``update()``, every cube
in the store is tuple-for-tuple identical to what a fresh engine
computes from scratch on the same data — whatever mix of delta rules,
clean skips, and full-recompute fallbacks produced it.  The 50-seed
sweep drives random programs (aggregations, shifts, outer joins, table
functions) through random perturbations (measure edits, deletions,
insertions, and the empty delta) and composes with the suite-wide
``--jobs`` axis.
"""

import random

import pytest

from repro.backends import ChaseBackend
from repro.engine import EXLEngine
from repro.errors import ReproError
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import Cube
from repro.workloads import gdp_example, random_workload

SEEDS = range(50)


def _build_engine(workload, *, jobs=1, preferred_targets=None):
    engine = EXLEngine(jobs=jobs, target_priority=("chase",))
    for schema in workload.schema:
        engine.declare_elementary(schema)
    engine.add_program(workload.source, preferred_targets=preferred_targets)
    return engine


def _truncate(data, seed):
    """Drop ~5% of the rows of each cube (updates later re-insert them)."""
    rng = random.Random(40_000 + seed)
    out = {}
    for name, cube in data.items():
        rows = [row for row in cube.to_rows() if rng.random() >= 0.05]
        out[name] = Cube.from_rows(cube.schema, rows)
    return out


def _perturb(data, seed):
    """A random revision of the elementary data.

    Mixes measure edits and deletions; seeds ≡ 7 (mod 10) return the
    data untouched, pinning the empty-delta (no-op update) case.
    """
    if seed % 10 == 7:
        return {name: cube.copy() for name, cube in data.items()}
    rng = random.Random(90_000 + seed)
    out = {}
    for name, cube in data.items():
        if len(out) and rng.random() < 0.4:
            out[name] = cube.copy()  # leave some cubes untouched
            continue
        rows = []
        for row in cube.to_rows():
            roll = rng.random()
            if roll < 0.03:
                continue  # deletion
            if roll < 0.25:
                row = row[:-1] + (row[-1] + rng.uniform(-3.0, 3.0),)
            rows.append(row)
        out[name] = Cube.from_rows(cube.schema, rows)
    return out


def _store_state(engine):
    return {
        name: sorted(engine.data(name).to_rows())
        for name in engine.catalog.store.names()
        if engine.catalog.has_data(name)
    }


def _assert_same_state(updated, fresh, context):
    left, right = _store_state(updated), _store_state(fresh)
    assert set(left) == set(right), context
    for name in left:
        delta = updated.data(name).delta(fresh.data(name))
        assert delta.is_empty, (
            f"{context}: {name} diverged "
            f"(+{len(delta.inserted)} -{len(delta.deleted)} "
            f"~{len(delta.updated)})"
        )


class TestUpdateEquivalence:
    """update() ≡ full rerun, across 50 random program/perturbation pairs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_matches_full_rerun(self, seed, chase_jobs):
        workload = random_workload(
            seed, n_statements=6, n_periods=14, n_regions=2
        )
        baseline_data = _truncate(workload.data, seed)
        revised_data = _perturb(workload.data, seed)

        updated = _build_engine(workload, jobs=chase_jobs)
        fresh = _build_engine(workload, jobs=chase_jobs)
        for cube in baseline_data.values():
            updated.load(cube)
        try:
            updated.run()
        except ReproError:
            return  # degenerate truncation (e.g. series too short): no baseline
        for cube in revised_data.values():
            updated.load(cube)
        for cube in revised_data.values():
            fresh.load(cube)
        try:
            expected = fresh.run()
        except ReproError as full_error:
            # a full run fails on this revision — the update must
            # surface the same failure rather than silently diverge
            with pytest.raises(ReproError):
                updated.update()
            return
        record = updated.update()
        assert record.delta_of is not None, f"seed {seed}: not an update"
        _assert_same_state(updated, fresh, f"seed {seed}")

    def test_empty_delta_dispatches_nothing(self, gdp_workload):
        engine = _build_engine(gdp_workload)
        for cube in gdp_workload.data.values():
            engine.load(cube)
        first = engine.run()
        # reload bit-identical data: content diffing must keep it clean
        for cube in gdp_workload.data.values():
            engine.load(cube.copy())
        record = engine.update()
        assert record.delta_of == first.run_id
        assert record.trigger == ()
        assert record.subgraphs == []
        assert record.delta_dirty_tgds == 0


class TestUpdateSemantics:
    """The bookkeeping around an incremental run."""

    def _gdp_engine(self, workload, **kwargs):
        engine = _build_engine(workload, **kwargs)
        for cube in workload.data.values():
            engine.load(cube)
        return engine

    def _perturbed(self, cube, delta=1.5):
        rows = cube.to_rows()
        revised = cube.copy()
        revised.set(rows[0][:-1], rows[0][-1] + delta, overwrite=True)
        return revised

    def test_record_links_baseline_and_counts_tgds(self, gdp_workload):
        engine = self._gdp_engine(gdp_workload)
        first = engine.run()
        engine.load(self._perturbed(gdp_workload.data["PDR"]))
        record = engine.update()
        assert record.delta_of == first.run_id
        # the GDP program compiles to 8 target tgds; stl_t is a black
        # box (whole-cube fallback), everything else takes delta rules
        assert record.delta_dirty_tgds > 0
        assert record.delta_fallback_tgds == 1
        assert "update-of" in record.summary()

    def test_table_function_counts_as_fallback(self, gdp_workload):
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        engine.load(self._perturbed(gdp_workload.data["PDR"]))
        engine.update()
        assert engine.metrics.value("delta.fallback") >= 1

    def test_unchanged_outputs_keep_their_versions(self, gdp_workload):
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        store = engine.catalog.store
        before = {
            name: store.latest_version(name) for name in store.names()
        }
        # force a no-op recompute: PDR is "changed" but content-identical
        record = engine.update(changed=["PDR"])
        after = {name: store.latest_version(name) for name in store.names()}
        assert after == before, "no content changed, no version may move"
        assert record.delta_of is not None

    def test_clean_subgraphs_are_skipped(self, gdp_workload):
        # pin PQR to a non-chase target so it forms its own subgraph;
        # a forced no-op recompute of it must leave the downstream
        # chase subgraph clean (skipped without executing)
        engine = self._gdp_engine(
            gdp_workload, preferred_targets={"PQR": "sql"}
        )
        engine.run()
        record = engine.update(changed=["PDR"])
        outcomes = {s.outcome for s in record.subgraphs}
        assert "clean" in outcomes
        clean = [s for s in record.subgraphs if s.outcome == "clean"]
        assert all(s.attempts == 0 for s in clean)
        assert all(s.tuples_written == 0 for s in clean)
        assert all(s.committed for s in clean)
        assert engine.metrics.value("dispatch.clean") == len(clean)

    def test_update_without_baseline_runs_full(self, gdp_workload):
        engine = self._gdp_engine(gdp_workload)
        record = engine.update()  # no prior run to update against
        assert record.delta_of is None
        assert engine.catalog.has_data("PCHNG")

    def test_update_against_unknown_run_id(self, gdp_workload):
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        with pytest.raises(ReproError):
            engine.update(against=999)

    def test_updates_chain(self, gdp_workload):
        """Each update can serve as the next update's baseline."""
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        pdr = gdp_workload.data["PDR"]
        for step in range(3):
            pdr = self._perturbed(pdr, delta=float(step + 1))
            engine.load(pdr)
            record = engine.update()
            assert record.delta_of is not None
        fresh = _build_engine(gdp_workload)
        fresh.load(pdr)
        fresh.load(gdp_workload.data["RGDPPC"])
        fresh.run()
        _assert_same_state(engine, fresh, "chained updates")

    def test_add_program_releases_the_retired_snapshots(self, gdp_workload):
        """A new program means a new translator, and every later
        subgraph a new mapping object: no snapshot of an old one can be
        replayed, so the chase backend keeps none of them alive."""
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        backend = engine.backends["chase"]
        programs = [f"EXTRA{step} := GDP + {step}" for step in range(6)]
        pdr = gdp_workload.data["PDR"]
        for step, program in enumerate(programs[:-1]):
            engine.add_program(program)
            pdr = self._perturbed(pdr, delta=float(step + 1))
            engine.load(pdr)
            engine.run()
            ran = [s for s in engine.plan() if s.target == "chase"]
            assert len(backend._snapshots) == len(ran) == 1, step
        # an update right after add_program has no snapshot to replay
        engine.add_program(programs[-1])
        pdr = self._perturbed(pdr, delta=9.0)
        engine.load(pdr)
        record = engine.update()
        assert record.delta_of is not None
        fresh = _build_engine(gdp_workload)
        for program in programs:
            fresh.add_program(program)
        fresh.load(pdr)
        fresh.load(gdp_workload.data["RGDPPC"])
        fresh.run()
        _assert_same_state(engine, fresh, "update after add_program")


class TestSnapshotLifecycle:
    """Backend-level snapshot capture, fallback, and poisoning."""

    def _mapping_and_data(self, gdp_workload):
        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        return generate_mapping(program), gdp_workload.data

    def test_no_snapshot_falls_back_to_full_run(self, gdp_workload):
        mapping, data = self._mapping_and_data(gdp_workload)
        backend = ChaseBackend()
        result = backend.run_mapping_delta(mapping, data)
        assert result.stats.fallback_reasons.get("no-snapshot")
        assert all(result.changed.values())
        # the fallback run captured a snapshot: the next delta is live
        again = backend.run_mapping_delta(mapping, data)
        assert not again.stats.fallback_reasons.get("no-snapshot")
        assert not any(again.changed.values())

    def test_failed_update_poisons_the_snapshot(self, gdp_workload):
        mapping, data = self._mapping_and_data(gdp_workload)
        backend = ChaseBackend()
        backend.run_mapping(mapping, data)
        assert backend._snapshot_for(mapping) is not None
        broken = dict(data)
        del broken["PDR"]  # missing input: the update raises mid-flight
        with pytest.raises(ReproError):
            backend.run_mapping_delta(mapping, broken)
        assert backend._snapshot_for(mapping) is None, (
            "a half-spliced snapshot must not survive a failed update"
        )
        # recovery: the next delta call full-runs and re-captures
        result = backend.run_mapping_delta(mapping, data)
        assert result.stats.fallback_reasons.get("no-snapshot")
        assert backend._snapshot_for(mapping) is not None

    def test_delta_outputs_match_full_outputs(self, gdp_workload):
        mapping, data = self._mapping_and_data(gdp_workload)
        backend = ChaseBackend()
        full = backend.run_mapping(mapping, data)
        revised = dict(data)
        rows = data["RGDPPC"].to_rows()
        cube = data["RGDPPC"].copy()
        cube.set(rows[1][:-1], rows[1][-1] * 2.0, overwrite=True)
        revised["RGDPPC"] = cube
        result = backend.run_mapping_delta(mapping, revised)
        reference = ChaseBackend().run_mapping(mapping, revised)
        for name, expected in reference.items():
            assert result.cubes[name].delta(expected).is_empty, name
        # PQR reads only PDR, which did not change
        assert result.changed["PQR"] is False
        assert full["PQR"] is result.cubes["PQR"]


class TestFallbackCensus:
    """Which tgds an update recomputes whole, and why — the delta
    chase's side of the kernel census
    (``test_columnar_chase.py::TestComposition::test_fallback_census``).
    A new delta rule, or a shape that loses one, changes this census.
    It counts the tgds of the composed mappings the engine runs."""

    @staticmethod
    def _revised(data):
        # a third of every elementary cube's measures move; no key
        # comes or goes
        return {
            name: Cube.from_rows(
                cube.schema,
                [
                    row[:-1] + (row[-1] + 1.0,) if i % 3 == 0 else row
                    for i, row in enumerate(cube.to_rows())
                ],
            )
            for name, cube in data.items()
        }

    def _census(self, workloads):
        tgds = {"dirty": 0, "clean": 0, "fallback": 0}
        reasons = {}
        for workload in workloads:
            engine = _build_engine(workload)
            for cube in workload.data.values():
                engine.load(cube)
            engine.run()
            for cube in self._revised(workload.data).values():
                engine.load(cube)
            record = engine.update()
            tgds["dirty"] += record.delta_dirty_tgds
            tgds["clean"] += record.delta_clean_tgds
            tgds["fallback"] += record.delta_fallback_tgds
            for name, count in engine.metrics.counters("delta.fallback.reason:").items():
                reason = name.split(":", 1)[1]
                reasons[reason] = reasons.get(reason, 0) + count
        return tgds, reasons

    def test_fallback_census(self):
        from repro.workloads import scenario_corpus

        census = {
            "random_workload seeds 0-49": self._census(
                [random_workload(seed) for seed in range(50)]
            ),
            "scenario_corpus(0)": self._census(scenario_corpus(0)),
        }
        assert census == {
            "random_workload seeds 0-49": (
                {"dirty": 250, "clean": 18, "fallback": 32},
                {
                    "table function cumsum": 5,
                    "table function detrend": 8,
                    "table function fitted": 11,
                    "table function ma": 8,
                },
            ),
            "scenario_corpus(0)": (
                {"dirty": 27, "clean": 0, "fallback": 15},
                {"table function cumsum": 8, "table function ma": 7},
            ),
        }

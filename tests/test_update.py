"""Incremental updates: ``EXLEngine.update`` must be observably
indistinguishable from a full rerun.

The contract under test (DESIGN.md §8): after ``update()``, every cube
in the store is tuple-for-tuple identical to what a fresh engine
computes from scratch on the same data — whatever mix of recomputed
subgraphs, clean skips and kept versions produced it.  The 50-seed
sweep drives random programs (aggregations, shifts, outer joins, table
functions) through random perturbations (measure edits, deletions,
insertions, and the empty revision) and composes with the suite-wide
``--jobs`` axis.
"""

import random

import pytest

from repro.engine import EXLEngine, FaultPlan, FaultRule
from repro.errors import ReproError
from repro.model import Cube
from repro.workloads import random_workload
from tests.oracle.delta import cube_delta

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
        delta = cube_delta(updated.data(name), fresh.data(name))
        assert delta.is_empty, (
            f"{context}: {name} diverged "
            f"(+{len(delta.inserted)} -{len(delta.deleted)} "
            f"~{len(delta.updated)})"
        )


class TestUpdateEquivalence:
    """update() ≡ full rerun, across 50 random program/perturbation pairs."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_matches_full_rerun(self, seed, dispatch_jobs):
        workload = random_workload(
            seed, n_statements=6, n_periods=14, n_regions=2
        )
        baseline_data = _truncate(workload.data, seed)
        revised_data = _perturb(workload.data, seed)

        updated = _build_engine(workload, jobs=dispatch_jobs)
        fresh = _build_engine(workload, jobs=dispatch_jobs)
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
        # an update recomputes whole subgraphs: every target tgd of the
        # planned ones counts as recomputed, none as dirty or clean
        recomputed = sum(
            len(engine.translator.translate(s).mapping.target_tgds)
            for s in engine.plan(["PDR"])
        )
        assert recomputed > 0
        assert record.delta_fallback_tgds == recomputed
        assert record.delta_dirty_tgds == record.delta_clean_tgds == 0
        assert "update-of" in record.summary()

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

    def test_update_after_add_program_matches_a_fresh_engine(self, gdp_workload):
        """A new program means a new translator, and every later
        subgraph a new mapping object; runs and an update across
        several added programs still equal a fresh engine."""
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        programs = [f"EXTRA{step} := GDP + {step}" for step in range(6)]
        pdr = gdp_workload.data["PDR"]
        for step, program in enumerate(programs[:-1]):
            engine.add_program(program)
            pdr = self._perturbed(pdr, delta=float(step + 1))
            engine.load(pdr)
            engine.run()
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

    def test_unchanged_output_of_a_recomputed_subgraph_keeps_its_version(
        self, gdp_workload
    ):
        """A revision of RGDPPC, with PDR forced dirty, recomputes the
        one chase subgraph PQR included; PQR reads only PDR, so its
        recomputed rows equal the stored ones and its version does not
        move, while GDP's does."""
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        store = engine.catalog.store
        before = {name: store.latest_version(name) for name in ("PQR", "GDP")}
        engine.load(self._perturbed(gdp_workload.data["RGDPPC"], delta=2.0))
        record = engine.update(changed=["PDR", "RGDPPC"])
        assert [s.outcome for s in record.subgraphs] == ["ok"]
        assert "PQR" in record.subgraphs[0].cubes
        assert store.latest_version("PQR") == before["PQR"]
        assert store.latest_version("GDP") != before["GDP"]
        fresh = _build_engine(gdp_workload)
        fresh.load(gdp_workload.data["PDR"])
        fresh.load(engine.data("RGDPPC"))
        fresh.run()
        _assert_same_state(engine, fresh, "recomputed subgraph")

    def test_failed_update_leaves_the_next_update_correct(self, gdp_workload):
        """An update whose subgraph fails commits nothing; the next
        update recomputes from the store as it stands and equals a
        fresh engine."""
        engine = self._gdp_engine(gdp_workload)
        engine.run()
        store = engine.catalog.store
        derived = ("PQR", "RGDP", "GDP", "GDPT", "PCHNG")
        before = {name: store.latest_version(name) for name in derived}
        pdr = self._perturbed(gdp_workload.data["PDR"], delta=4.0)
        engine.load(pdr)
        plan = FaultPlan([FaultRule(kind="permanent")], seed=0)
        with pytest.raises(ReproError):
            engine.update(retries=0, fault_plan=plan)
        assert {name: store.latest_version(name) for name in derived} == before
        record = engine.update()
        assert record.delta_of is not None
        assert [s.outcome for s in record.subgraphs] == ["ok"]
        fresh = _build_engine(gdp_workload)
        fresh.load(pdr)
        fresh.load(gdp_workload.data["RGDPPC"])
        fresh.run()
        _assert_same_state(engine, fresh, "update after a failed update")


TARGETS = ("chase", "sql", "r", "matlab", "etl")
GDP_CUBES = ("PQR", "RGDP", "GDP", "GDPT", "PCHNG")


class TestUpdateOnEveryTarget:
    """Every target's recomputed outputs are classified against the
    store by one rule: an output whose rows did not change keeps its
    stored version, so its consumers stay clean."""

    def _engine(self, workload, pins):
        engine = _build_engine(workload, preferred_targets=pins)
        for cube in workload.data.values():
            engine.load(cube)
        engine.run()
        return engine

    @pytest.mark.parametrize("target", TARGETS)
    def test_unchanged_output_keeps_its_version(self, gdp_workload, target):
        """A revision of RGDPPC, with PDR forced dirty, recomputes the
        whole subgraph on ``target``: PQR reads only PDR and keeps its
        version, GDP moves, and the store equals a fresh engine's."""
        pins = {name: target for name in GDP_CUBES}
        engine = self._engine(gdp_workload, pins)
        assert [s.target for s in engine.plan()] == [target]
        store = engine.catalog.store
        before = {name: store.latest_version(name) for name in ("PQR", "GDP")}
        rgdppc = gdp_workload.data["RGDPPC"]
        rows = rgdppc.to_rows()
        revised = rgdppc.copy()
        revised.set(rows[0][:-1], rows[0][-1] + 2.0, overwrite=True)
        engine.load(revised)
        record = engine.update(changed=["PDR", "RGDPPC"])
        assert [s.outcome for s in record.subgraphs] == ["ok"]
        assert record.subgraphs[0].cubes == GDP_CUBES
        assert store.latest_version("PQR") == before["PQR"]
        assert store.latest_version("GDP") != before["GDP"]
        fresh = _build_engine(gdp_workload, preferred_targets=pins)
        fresh.load(gdp_workload.data["PDR"])
        fresh.load(revised)
        fresh.run()
        _assert_same_state(engine, fresh, target)

    @pytest.mark.parametrize("target", TARGETS)
    def test_consumer_of_an_unchanged_output_is_clean(
        self, gdp_workload, target
    ):
        """PQR alone on ``target``, the rest on another target: a
        forced no-op recompute of PQR leaves the downstream subgraph
        clean, skipped without executing."""
        other = "sql" if target == "chase" else "chase"
        pins = {name: other for name in GDP_CUBES}
        pins["PQR"] = target
        engine = self._engine(gdp_workload, pins)
        store = engine.catalog.store
        before = {name: store.latest_version(name) for name in GDP_CUBES}
        record = engine.update(changed=["PDR"])
        outcomes = {s.target: s.outcome for s in record.subgraphs}
        assert outcomes == {target: "ok", other: "clean"}
        assert {name: store.latest_version(name) for name in GDP_CUBES} == before

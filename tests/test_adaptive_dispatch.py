"""Cost-based adaptive dispatch (DESIGN.md §13).

Four contracts under test:

* the :class:`~repro.engine.CostModel` itself — signatures, EWMA
  estimation, the cold-start exploration policy, and the sha256-guarded
  atomic history (torn/tampered files are *counted* cold starts);
* the timing bugfix — per-subgraph ``observed_s`` is the successful
  attempt's execution time only, never retry backoff sleep or failed
  attempts (the numbers the model learns from must be clean);
* the backoff/deadline bugfixes — a retry whose backoff cannot fit the
  remaining deadline budget aborts *before* sleeping (counted as
  ``dispatch.deadline.aborted_backoffs``), including the degenerate
  already-past-deadline case that used to hot-loop on 0 s sleeps;
* the 50-seed equivalence sweep — adaptive dispatch commits cubes
  tuple-for-tuple identical to static dispatch, composed with the
  suite-wide ``--jobs``/``--shards`` axes and fault injection
  (degradation must feed the model, not corrupt the run).
"""

import json
import time
from types import SimpleNamespace

import pytest

from repro.engine import (
    CostModel,
    Dispatcher,
    EXLEngine,
    card_bucket,
    subgraph_signature,
)
from repro.engine.costmodel import COST_HISTORY_FILE
from repro.engine.faults import FaultPlan, FaultRule, RunPolicy, parse_fault_spec
from repro.errors import DeadlineExceededError
from repro.mappings.dependencies import TgdKind
from repro.obs import MetricsRegistry
from repro.workloads import (
    deep_chain_workload,
    random_workload,
    revision_storm,
    skewed_panel_workload,
)

SEEDS = range(50)

FALLBACK_METRIC = "dispatch.cost.fallback.reason:history-unreadable"


def _mapping(*kinds):
    return SimpleNamespace(
        target_tgds=[SimpleNamespace(kind=kind) for kind in kinds]
    )


def _build_engine(workload, **kwargs):
    engine = EXLEngine(**kwargs)
    for schema in workload.schema:
        engine.declare_elementary(schema)
    engine.add_program(
        workload.source, preferred_targets=kwargs.pop("preferred", None)
    )
    for cube in workload.data.values():
        engine.load(cube)
    return engine


def _store_state(engine):
    return {
        name: sorted(engine.data(name).to_rows())
        for name in engine.catalog.store.names()
        if engine.catalog.has_data(name)
    }


# ---------------------------------------------------------------------------
class TestSignatures:
    def test_card_bucket_is_log2(self):
        assert card_bucket(0) == 0
        assert card_bucket(1) == 1
        assert card_bucket(1000) == 10
        assert card_bucket(1400) == 11
        assert card_bucket(100_000) == 17
        assert card_bucket(-3) == 0  # defensive

    def test_signature_shape(self):
        mapping = _mapping(TgdKind.AGGREGATION, TgdKind.COPY)
        assert (
            subgraph_signature(mapping, [100, 5])
            == "full|aggregationx1,copyx1|3,7"
        )

    def test_signature_modes_and_empties(self):
        mapping = _mapping(TgdKind.TUPLE_LEVEL)
        full = subgraph_signature(mapping, [10])
        delta = subgraph_signature(mapping, [10], delta=True)
        assert full.startswith("full|") and delta.startswith("delta|")
        assert full.split("|", 1)[1] == delta.split("|", 1)[1]
        assert subgraph_signature(_mapping(), []) == "full|-|-"

    def test_signature_ignores_operand_order(self):
        mapping = _mapping(TgdKind.COPY)
        assert subgraph_signature(mapping, [7, 900]) == subgraph_signature(
            mapping, [900, 7]
        )


class TestCostModel:
    def test_ewma(self):
        cm = CostModel(alpha=0.3)
        cm.record("sql", "s", 1.0)
        assert cm.estimate("sql", "s") == 1.0
        cm.record("sql", "s", 2.0)
        assert cm.estimate("sql", "s") == pytest.approx(1.3)
        assert cm.observations("sql", "s") == 2
        assert cm.estimate("chase", "s") is None

    def test_rejects_garbage_samples(self):
        cm = CostModel()
        cm.record("sql", "s", -1.0)
        cm.record("sql", "s", float("nan"))
        assert cm.estimate("sql", "s") is None

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)

    def test_choice_policy(self):
        metrics = MetricsRegistry()
        cm = CostModel(metrics=metrics)
        # cold start: keep (and thereby measure) the static target
        first = cm.choose("s", ["sql", "chase"], "sql")
        assert (first.target, first.kind) == ("sql", "exploration")
        assert first.predicted_s is None
        # static measured: explore the unmeasured alternative
        cm.record("sql", "s", 1.0)
        second = cm.choose("s", ["sql", "chase"], "sql")
        assert (second.target, second.kind) == ("chase", "exploration")
        # everything measured: exploit the argmin estimate
        cm.record("chase", "s", 0.1)
        third = cm.choose("s", ["sql", "chase"], "sql")
        assert (third.target, third.kind) == ("chase", "hit")
        assert third.predicted_s == pytest.approx(0.1)
        assert metrics.value("dispatch.cost.decisions") == 3
        assert metrics.value("dispatch.cost.explorations") == 2
        assert metrics.value("dispatch.cost.hits") == 1

    def test_choice_is_deterministic_and_covers_static(self):
        cm = CostModel()
        # a static target missing from the candidate list is still legal
        decision = cm.choose("s", ["chase"], "etl")
        assert decision.target == "etl"
        cm.record("etl", "s", 0.5)
        # ties among unmeasured candidates break on the name
        assert cm.choose("s", ["r", "chase"], "etl").target == "chase"


class TestCostHistoryDurability:
    def _seeded(self, tmp_path):
        cm = CostModel(tmp_path)
        cm.record("sql", "full|copyx1|4", 0.25)
        cm.record("chase", "full|copyx1|4", 0.05)
        assert cm.save()
        return cm

    def test_roundtrip(self, tmp_path):
        self._seeded(tmp_path)
        metrics = MetricsRegistry()
        again = CostModel(tmp_path, metrics=metrics)
        assert again.load()
        assert again.estimate("chase", "full|copyx1|4") == pytest.approx(0.05)
        assert again.observations("sql", "full|copyx1|4") == 1
        assert metrics.value(FALLBACK_METRIC) == 0

    def test_absent_history_is_a_silent_cold_start(self, tmp_path):
        metrics = MetricsRegistry()
        cm = CostModel(tmp_path / "nowhere", metrics=metrics)
        assert not cm.load()
        assert metrics.value(FALLBACK_METRIC) == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # torn mid-document
            lambda text: "",  # truncated to nothing
            lambda text: text.replace('"ewma_s": 0.25', '"ewma_s": 99.0'),
            lambda text: text.replace('"format": 1', '"format": 99'),
            lambda text: '{"format": 1, "entries": "nope"}',
            lambda text: json.dumps({"weird": True}),
        ],
        ids=["torn", "empty", "tampered", "format", "entries", "shape"],
    )
    def test_damaged_history_is_a_counted_cold_start(self, tmp_path, damage):
        self._seeded(tmp_path)
        path = tmp_path / COST_HISTORY_FILE
        path.write_text(damage(path.read_text()))
        metrics = MetricsRegistry()
        cm = CostModel(tmp_path, metrics=metrics)
        assert not cm.load()
        assert len(cm) == 0
        assert metrics.value(FALLBACK_METRIC) == 1
        # the next save heals the file
        cm.record("sql", "s", 0.1)
        assert cm.save()
        assert CostModel(tmp_path).load()

    def test_memory_only_model_never_persists(self):
        cm = CostModel()
        cm.record("sql", "s", 0.1)
        assert not cm.save() and not cm.load()


# ---------------------------------------------------------------------------
class TestCleanAttemptTimings:
    """observed_s ≈ attempt execution time, even under retries with a
    large backoff — the regression the cost model depends on."""

    BACKOFF = 0.4  # jittered sleep is in [0.2, 0.6)

    def _run_with_transient(self, **engine_kwargs):
        plan = FaultPlan([FaultRule(kind="transient", first_n=1)])
        workload = deep_chain_workload(0, depth=3)
        engine = _build_engine(
            workload,
            target_priority=("chase",),
            backoff_s=self.BACKOFF,
            **engine_kwargs,
        )
        return engine, engine.run(retries=2, fault_plan=plan)

    def test_observed_excludes_backoff_and_failed_attempts(self):
        engine, record = self._run_with_transient()
        assert record.complete
        retried = [s for s in record.subgraphs if s.outcome == "retried"]
        assert retried, "fault plan should have forced a retry"
        for sub in retried:
            # the wall time swallowed the backoff sleep; the observed
            # attempt time did not
            assert sub.duration_s >= self.BACKOFF * 0.5
            assert 0.0 < sub.observed_s < self.BACKOFF * 0.25
        assert engine.metrics.value("dispatch.retries") >= 1

    def test_metrics_split_duration_from_wall(self):
        engine, _ = self._run_with_transient()
        clean = engine.metrics.histogram("dispatch.subgraph.duration_s")
        wall = engine.metrics.histogram("dispatch.subgraph.wall_s")
        assert clean.count == wall.count > 0
        assert clean.max < self.BACKOFF * 0.25
        assert wall.max >= self.BACKOFF * 0.5

    def test_cost_model_learns_clean_times_despite_faults(self):
        cm = CostModel()
        engine, record = self._run_with_transient(cost_model=cm)
        assert record.complete and len(cm) > 0
        for entry in cm._entries.values():
            assert entry["ewma_s"] < self.BACKOFF * 0.25


class TestBackoffDeadlineAbort:
    def _dispatcher(self, **kwargs):
        engine = _build_engine(
            deep_chain_workload(0, depth=2), target_priority=("chase",)
        )
        return Dispatcher(engine, RunPolicy(**kwargs))

    def test_backoff_larger_than_budget_returns_none(self):
        dispatcher = self._dispatcher(backoff_s=10.0)
        deadline = time.monotonic() + 0.05
        assert dispatcher._backoff_delay(("A",), 1, deadline) is None
        assert (
            dispatcher.metrics.value("dispatch.deadline.aborted_backoffs") == 1
        )

    def test_passed_deadline_zero_delay_hot_loop_regression(self):
        # the deadline is already behind us: the old clamp produced a
        # 0.0 s delay and the retry loop spun through its budget with
        # no backoff at all — now it must abort instead
        dispatcher = self._dispatcher(backoff_s=0.01)
        deadline = time.monotonic() - 1.0
        assert dispatcher._backoff_delay(("A",), 1, deadline) is None
        assert (
            dispatcher.metrics.value("dispatch.deadline.aborted_backoffs") == 1
        )

    def test_zero_backoff_with_budget_is_still_a_legal_retry(self):
        dispatcher = self._dispatcher(backoff_s=0.0)
        deadline = time.monotonic() + 60.0
        assert dispatcher._backoff_delay(("A",), 1, deadline) == 0.0
        assert dispatcher._backoff_delay(("A",), 1, None) == 0.0
        assert (
            dispatcher.metrics.value("dispatch.deadline.aborted_backoffs") == 0
        )

    def test_aborts_before_sleeping_into_a_dead_attempt(self):
        # permanent transient faults + a backoff far beyond the deadline:
        # the run must fail *fast* (no sleep right up to the deadline
        # followed by a doomed attempt) and count the aborted backoff
        plan = FaultPlan([FaultRule(kind="transient")])
        engine = _build_engine(
            deep_chain_workload(1, depth=2),
            target_priority=("chase",),
            backoff_s=30.0,
        )
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            engine.run(retries=5, deadline_s=0.2, fault_plan=plan)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, "dispatcher slept into the deadline"
        assert (
            engine.metrics.value("dispatch.deadline.aborted_backoffs") >= 1
        )


# ---------------------------------------------------------------------------
class TestAdaptiveWiring:
    def test_static_runs_train_the_model_without_choosing(self):
        cm = CostModel()
        engine = _build_engine(
            skewed_panel_workload(0), target_priority=("chase",), cost_model=cm
        )
        record = engine.run()
        assert record.complete and not record.adaptive
        assert len(cm) > 0
        assert all(s.chosen_target is None for s in record.subgraphs)

    def test_adaptive_records_decisions_and_explores(self):
        cm = CostModel()
        engine = _build_engine(
            skewed_panel_workload(1), adaptive=True, cost_model=cm
        )
        first = engine.run()
        assert first.adaptive and first.complete
        assert all(s.chosen_target is not None for s in first.subgraphs)
        # run 1 is the cold start: every choice keeps the static target
        assert all(
            s.chosen_target == s.target for s in first.subgraphs
        )
        assert engine.metrics.value("dispatch.cost.decisions") == len(
            first.subgraphs
        )
        # run 2 explores a not-yet-measured target for the same signature
        for cube in skewed_panel_workload(1).data.values():
            engine.load(cube)
        second = engine.run()
        assert second.complete
        assert any(
            s.chosen_target != s.target for s in second.subgraphs
        )
        assert engine.metrics.value("dispatch.cost.explorations") >= 2

    def test_exploitation_reports_predictions(self):
        cm = CostModel()
        workload = deep_chain_workload(2, depth=3)
        engine = _build_engine(workload, adaptive=True, cost_model=cm)
        # enough reruns to measure every candidate target of the chain
        for _ in range(8):
            for cube in workload.data.values():
                engine.load(cube)
            record = engine.run()
            assert record.complete
        assert engine.metrics.value("dispatch.cost.hits") >= 1
        hits = [
            s
            for r in engine.runs.runs
            for s in r.subgraphs
            if s.predicted_s is not None
        ]
        assert hits and all(h.predicted_s >= 0.0 for h in hits)
        assert all(h.observed_s >= 0.0 for h in hits)

    def test_subgraph_record_roundtrips_decisions(self):
        engine = _build_engine(
            skewed_panel_workload(3), adaptive=True, cost_model=CostModel()
        )
        record = engine.run()
        from repro.engine import RunLog

        restored = RunLog().restore(record.to_json())
        assert restored.adaptive
        for original, copy in zip(record.subgraphs, restored.subgraphs):
            assert copy.chosen_target == original.chosen_target
            assert copy.predicted_s == original.predicted_s
            assert copy.observed_s == original.observed_s


# ---------------------------------------------------------------------------
class TestAdaptiveEquivalence:
    """Adaptive ≡ static committed cubes, over 50 seeded workloads
    composed with the suite-wide --jobs/--shards axes; every fifth seed
    additionally runs under injected transient faults with degradation
    (which must feed the model, not corrupt the run)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adaptive_matches_static(self, seed, dispatch_jobs, chase_shards):
        faulty = seed % 5 == 0
        kwargs = dict(jobs=dispatch_jobs, shards=chase_shards)
        policy = {}
        if faulty:
            kwargs.update(backoff_s=0.001)
            policy = dict(
                retries=3,
                on_error="degrade",
                fault_plan=parse_fault_spec(
                    "*:transient:p=0.3:n=2", seed=seed
                ),
            )
        workload = random_workload(
            seed, n_statements=6, n_periods=10, n_regions=2
        )
        static = _build_engine(workload, **kwargs)
        cm = CostModel()
        adaptive = _build_engine(
            workload, adaptive=True, cost_model=cm, **kwargs
        )

        first_static = static.run(**policy)
        first_adaptive = adaptive.run(**policy)
        assert first_static.complete and first_adaptive.complete
        assert _store_state(static) == _store_state(adaptive), (
            f"seed {seed}: cold-start adaptive run diverged"
        )

        # revision storms drive re-runs (exploration, then possibly
        # exploitation) and one delta-mode update — the chosen targets
        # may differ per storm, the committed tuples must not
        storms = revision_storm(
            workload, n_storms=2, fraction=0.1, seed=seed
        )
        for index, storm in enumerate(storms):
            for engine in (static, adaptive):
                for cube in storm.values():
                    engine.load(cube)
            if index == len(storms) - 1:
                static_rec = static.update(**policy)
                adaptive_rec = adaptive.update(**policy)
            else:
                static_rec = static.run(**policy)
                adaptive_rec = adaptive.run(**policy)
            assert static_rec.complete and adaptive_rec.complete
            assert _store_state(static) == _store_state(adaptive), (
                f"seed {seed}: storm {index} diverged "
                f"(adaptive chose "
                f"{[s.chosen_target for s in adaptive_rec.subgraphs]})"
            )
        assert len(cm) > 0, f"seed {seed}: the model never learned"


# ---------------------------------------------------------------------------
class TestAdaptiveCli:
    @pytest.fixture
    def project_dir(self, tmp_path):
        from repro.model import Cube, CubeSchema, Dimension, Frequency, TIME
        from repro.model.io import write_cube_csv
        from repro.model.time import quarter

        schema = CubeSchema(
            "S", [Dimension("q", TIME(Frequency.QUARTER))], "v"
        )
        cube = Cube.from_series(
            schema, quarter(2020, 1), [1.0, 2.0, 3.0, 4.0]
        )
        write_cube_csv(cube, tmp_path / "s.csv")
        (tmp_path / "program.exl").write_text("A := S * 2\nB := cumsum(A)\n")
        (tmp_path / "project.json").write_text(
            json.dumps(
                {
                    "elementary": [
                        {
                            "name": "S",
                            "dimensions": [["q", "time:Q"]],
                            "measure": "v",
                            "csv": "s.csv",
                        }
                    ],
                    "program": "program.exl",
                    "outputs": ["B"],
                }
            )
        )
        return tmp_path

    def _run(self, project_dir, *extra):
        from repro.cli import main

        return main(
            [
                "run",
                str(project_dir / "project.json"),
                "--out",
                str(project_dir / "out"),
                "--adaptive",
                *extra,
            ]
        )

    def test_adaptive_run_persists_cost_history(self, project_dir):
        assert self._run(project_dir) == 0
        history = project_dir / "out" / "costs" / COST_HISTORY_FILE
        assert history.exists()
        document = json.loads(history.read_text())
        assert document["format"] == 1 and document["entries"]

    def test_torn_history_is_cold_start_not_crash(self, project_dir, capsys):
        assert self._run(project_dir) == 0
        history = project_dir / "out" / "costs" / COST_HISTORY_FILE
        text = history.read_text()
        history.write_text(text[: len(text) // 2])  # torn mid-write
        assert self._run(project_dir) == 0
        # the run healed the file
        assert json.loads(history.read_text())["entries"]

    def test_tampered_history_is_cold_start(self, project_dir):
        assert self._run(project_dir) == 0
        history = project_dir / "out" / "costs" / COST_HISTORY_FILE
        document = json.loads(history.read_text())
        document["entries"][0]["ewma_s"] = 1e9  # hand-edit, stale sha
        history.write_text(json.dumps(document))
        assert self._run(project_dir) == 0

    def test_adaptive_update_flows_through(self, project_dir):
        assert self._run(project_dir) == 0
        from repro.cli import main

        code = main(
            [
                "update",
                str(project_dir / "project.json"),
                "--out",
                str(project_dir / "out"),
                "--adaptive",
            ]
        )
        assert code == 0

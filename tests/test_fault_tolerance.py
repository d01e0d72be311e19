"""Fault-tolerant dispatch: taxonomy, retries, deadlines, degradation,
partial-failure runs, resume, and the deterministic fault-injection
harness.

Every fault in this suite comes from a seeded :class:`FaultPlan`, whose
decisions are a stable hash of (seed, target, cubes, attempt) — the
same faults fire no matter how many dispatcher workers run the waves,
which is what makes these tests (and the ``--jobs 1`` vs ``--jobs 4``
determinism suite) reproducible.
"""

import json
import threading

import pytest

from repro.cli import main as cli_main
from repro.engine import (
    EXLEngine,
    FaultPlan,
    FaultRule,
    RunLog,
    RunPolicy,
    SubgraphRecord,
    parse_fault_spec,
)
from repro.engine.faults import FaultyBackend
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    EngineError,
    PermanentBackendError,
    ReproError,
    TransientBackendError,
)
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, quarter

BACKOFF = 0.001  # keep retry sleeps negligible throughout the suite


def _series(name):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


def _diamond_engine(jobs=1, **kwargs):
    """E1,E2 -> A(sql) -> B(sql); C(r); D(sql) <- B,C: three subgraphs,
    the first wave holding the independent [sql A,B] and [r C]."""
    engine = EXLEngine(jobs=jobs, backoff_s=BACKOFF, **kwargs)
    engine.declare_elementary(_series("E1"))
    engine.declare_elementary(_series("E2"))
    engine.add_program(
        "A := E1 + E2\nB := A * 2\nC := stl_t(E2)\nD := B + C",
        preferred_targets={"C": "r"},
    )
    engine.load(
        Cube.from_series(_series("E1"), quarter(2018, 1), [float(i) for i in range(12)])
    )
    engine.load(
        Cube.from_series(
            _series("E2"), quarter(2018, 1), [10.0 + (i % 4) for i in range(12)]
        )
    )
    return engine


def _pinned_engine(target):
    """E1 -> A, with A pinned to ``target``: one single-cube subgraph."""
    engine = EXLEngine(backoff_s=BACKOFF)
    engine.declare_elementary(_series("E1"))
    engine.add_program("A := E1 * 2", preferred_targets={"A": target})
    engine.load(
        Cube.from_series(_series("E1"), quarter(2018, 1), [float(i) for i in range(8)])
    )
    return engine


def _wide_engine(width=12, jobs=8, **kwargs):
    """One wave of ``width`` single-cube subgraphs (alternating targets
    force the partitioner to split) — the thread-safety hammer."""
    engine = EXLEngine(jobs=jobs, backoff_s=BACKOFF, **kwargs)
    engine.declare_elementary(_series("E1"))
    lines = [f"W{i} := E1 * {i + 1}" for i in range(width)]
    targets = {f"W{i}": ("sql" if i % 2 else "r") for i in range(width)}
    engine.add_program("\n".join(lines), preferred_targets=targets)
    engine.load(
        Cube.from_series(_series("E1"), quarter(2020, 1), [float(i) for i in range(8)])
    )
    return engine


def _outcome_by_cube(record):
    return {cube: s.outcome for s in record.subgraphs for cube in s.cubes}


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransientBackendError, BackendError)
        assert issubclass(PermanentBackendError, BackendError)
        assert issubclass(DeadlineExceededError, PermanentBackendError)
        assert issubclass(BackendError, ReproError)

    def test_transient_is_not_permanent(self):
        assert not issubclass(TransientBackendError, PermanentBackendError)


class TestFaultPlan:
    def test_rule_matching(self):
        rule = FaultRule(target="sql", first_n=2, after=1, cubes=("A",))
        assert rule.matches("sql", ("A", "B"), 1)
        assert rule.matches("sql", ("A",), 2)
        assert not rule.matches("r", ("A",), 1)  # wrong target
        assert not rule.matches("sql", ("C",), 1)  # wrong cubes
        assert not rule.matches("sql", ("A",), 0)  # before `after`
        assert not rule.matches("sql", ("A",), 3)  # past the window

    def test_bad_kind_and_probability_rejected(self):
        with pytest.raises(EngineError, match="kind"):
            FaultRule(kind="sometimes")
        with pytest.raises(EngineError, match="probability"):
            FaultRule(probability=1.5)

    def test_decisions_deterministic_across_instances(self):
        keys = [("sql", ("A",)), ("r", ("C",)), ("chase", ("D", "E"))]
        plans = [
            FaultPlan([FaultRule(probability=0.5)], seed=42) for _ in range(2)
        ]
        for target, cubes in keys:
            for attempt in range(4):
                assert bool(plans[0].would_fire(target, cubes, attempt)) == bool(
                    plans[1].would_fire(target, cubes, attempt)
                )

    def test_decisions_thread_schedule_independent(self):
        """Firing decisions never depend on call order."""
        plan = FaultPlan([FaultRule(probability=0.5)], seed=7)
        keys = [("sql", (f"X{i}",), 0) for i in range(32)]
        forward = [bool(plan.would_fire(*k)) for k in keys]
        backward = [bool(plan.would_fire(*k)) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_seed_changes_decisions(self):
        keys = [("sql", (f"X{i}",), 0) for i in range(64)]
        rule = [FaultRule(probability=0.5)]
        first = [bool(FaultPlan(rule, seed=1).would_fire(*k)) for k in keys]
        second = [bool(FaultPlan(rule, seed=2).would_fire(*k)) for k in keys]
        assert first != second

    def test_probability_roughly_respected(self):
        plan = FaultPlan([FaultRule(probability=0.3)], seed=9)
        fired = sum(
            bool(plan.would_fire("sql", (f"C{i}",), 0)) for i in range(400)
        )
        assert 60 <= fired <= 180  # ~120 expected

    def test_apply_raises_and_counts(self):
        plan = FaultPlan([FaultRule(kind="transient")], seed=0)
        with pytest.raises(TransientBackendError, match="injected"):
            plan.apply("sql", ("A",), 0)
        assert plan.injected["transient"] == 1
        assert plan.total_injected == 1

    def test_permanent_wins_over_transient(self):
        plan = FaultPlan(
            [FaultRule(kind="transient"), FaultRule(kind="permanent")], seed=0
        )
        with pytest.raises(PermanentBackendError):
            plan.apply("sql", ("A",), 0)

    def test_parse_full_grammar(self):
        plan = parse_fault_spec(
            "sql:transient:p=0.25:n=2; *:permanent:after=3 ;"
            "r:delay:delay=0.2:cubes=A+B",
            seed=5,
        )
        assert plan.seed == 5
        assert len(plan.rules) == 3
        assert plan.rules[0] == FaultRule(
            target="sql", kind="transient", probability=0.25, first_n=2
        )
        assert plan.rules[1].after == 3
        assert plan.rules[2].delay_s == 0.2
        assert plan.rules[2].cubes == ("A", "B")

    @pytest.mark.parametrize(
        "spec", ["", "sql", "sql:transient:wat", "sql:transient:p"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(EngineError):
            parse_fault_spec(spec)

    def test_faulty_backend_wrapper(self, backends, gdp_workload):
        """FaultPlan.wrap: the Nth run_mapping call fails, then recovers."""
        from repro.exl import Program
        from repro.mappings import generate_mapping

        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        mapping = generate_mapping(program)
        plan = FaultPlan([FaultRule(kind="transient", first_n=1)], seed=0)
        wrapped = plan.wrap(backends["chase"])
        assert isinstance(wrapped, FaultyBackend)
        assert wrapped.name == "chase"
        with pytest.raises(TransientBackendError):
            wrapped.run_mapping(mapping, gdp_workload.data, wanted=["PCHNG"])
        result = wrapped.run_mapping(mapping, gdp_workload.data, wanted=["PCHNG"])
        assert len(result["PCHNG"]) > 0
        assert plan.injected["transient"] == 1


class TestRetries:
    def test_transient_fault_recovered_by_retry(self):
        plan = FaultPlan([FaultRule(kind="transient", first_n=2)], seed=0)
        engine = _diamond_engine()
        record = engine.run(retries=3, fault_plan=plan)
        assert record.error is None
        assert record.complete
        outcomes = record.outcomes()
        assert outcomes.get("retried", 0) == 3  # every subgraph hit twice
        assert all(s.attempts == 3 for s in record.subgraphs)
        # the recovered-from error is kept on the record
        assert all("injected transient" in s.error for s in record.subgraphs)
        assert engine.metrics.value("dispatch.retries") == 6
        assert engine.metrics.value("faults.injected") == 6

    def test_retried_run_matches_fault_free(self):
        baseline = _diamond_engine()
        baseline.run()
        plan = FaultPlan([FaultRule(kind="transient", first_n=2)], seed=0)
        engine = _diamond_engine()
        engine.run(retries=2, fault_plan=plan)
        for cube in "ABCD":
            assert engine.data(cube).approx_equals(baseline.data(cube))

    def test_retries_exhausted_raises_original_error(self):
        plan = FaultPlan([FaultRule(kind="transient")], seed=0)  # always fails
        engine = _diamond_engine()
        with pytest.raises(TransientBackendError, match="injected transient"):
            engine.run(retries=2, fault_plan=plan)
        record = engine.runs.last()
        assert record.failed
        failed = [s for s in record.subgraphs if s.outcome == "failed"]
        assert failed and failed[0].attempts == 3  # 1 try + 2 retries

    def test_permanent_fault_not_retried(self):
        plan = FaultPlan([FaultRule(kind="permanent")], seed=0)
        engine = _diamond_engine()
        with pytest.raises(PermanentBackendError):
            engine.run(retries=5, fault_plan=plan)
        failed = [s for s in engine.runs.last().subgraphs if s.outcome == "failed"]
        assert failed[0].attempts == 1
        assert engine.metrics.value("dispatch.retries") == 0

    @pytest.mark.parametrize(
        "make, policy",
        [
            (RunPolicy, {"retries": -1}),
            (RunPolicy, {"backoff_s": -1}),
            (RunPolicy, {"deadline_s": 0}),
            (RunPolicy, {"deadline_s": -1}),
            (EXLEngine, {"jobs": 0}),
            (EXLEngine, {"shards": -1}),
        ],
    )
    def test_policy_out_of_range_rejected(self, make, policy):
        with pytest.raises(EngineError, match=next(iter(policy))):
            make(**policy)

    def test_backoff_is_deterministic_and_bounded(self):
        from repro.engine.dispatcher import Dispatcher

        engine = _diamond_engine()
        dispatcher = Dispatcher(engine, RunPolicy(backoff_s=0.1))
        first = dispatcher._backoff_delay(("A",), 1, None)
        assert first == dispatcher._backoff_delay(("A",), 1, None)
        assert 0.05 <= first < 0.15
        second = dispatcher._backoff_delay(("A",), 2, None)
        assert 0.1 <= second < 0.3
        # different subgraphs jitter differently
        assert first != dispatcher._backoff_delay(("B",), 1, None)


class TestDeadline:
    def test_delay_fault_trips_deadline(self):
        plan = FaultPlan(
            [FaultRule(kind="delay", delay_s=0.1, target="r")], seed=0
        )
        engine = _diamond_engine()
        record = engine.run(
            deadline_s=0.02, on_error="continue", fault_plan=plan, retries=2
        )
        outcomes = _outcome_by_cube(record)
        assert outcomes["C"] == "failed"
        failed = next(s for s in record.subgraphs if s.outcome == "failed")
        assert "deadline" in failed.error
        assert outcomes["A"] == outcomes["B"] == "ok"
        assert outcomes["D"] == "skipped"

    def test_generous_deadline_is_harmless(self):
        engine = _diamond_engine()
        record = engine.run(deadline_s=60.0)
        assert record.complete
        assert record.error is None

    def test_deadline_checked_between_tgd_units(self, backends, gdp_workload):
        """base.run_mapping calls the cooperative check per unit."""
        from repro.exl import Program
        from repro.mappings import generate_mapping

        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        mapping = generate_mapping(program)
        calls = []

        def check():
            calls.append(1)
            if len(calls) > 2:
                raise DeadlineExceededError("stop now")

        with pytest.raises(DeadlineExceededError):
            backends["sql"].run_mapping(mapping, gdp_workload.data, check=check)
        assert len(calls) == 3

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("runner", ["statement-order", "sharded", "backend"])
    def test_deadline_checked_before_each_chase_wave(
        self, runner, k, gdp_workload
    ):
        from repro.backends.chasebackend import ChaseBackend
        from repro.chase import StratifiedChase, instance_from_cubes
        from repro.exl import Program
        from repro.mappings import generate_mapping
        from repro.obs import Tracer

        program = Program.compile(gdp_workload.source, gdp_workload.schema)
        mapping = generate_mapping(program)
        assert len(mapping.target_tgds) >= k
        tracer = Tracer()
        calls = []

        def check():
            calls.append(1)
            if len(calls) == k:
                raise DeadlineExceededError("stop now")

        with pytest.raises(DeadlineExceededError, match="stop now"):
            if runner == "backend":
                ChaseBackend(tracer=tracer).run_mapping(
                    mapping, gdp_workload.data, check=check
                )
            else:
                shards = 2 if runner == "sharded" else 1
                chase = StratifiedChase(mapping, shards=shards, tracer=tracer)
                chase.run(instance_from_cubes(gdp_workload.data), check=check)
        # the copy wave is the first; the k-th check stops the k-th wave
        # (the first check also comes before the shard workers fork)
        waves = [
            span for span in tracer.spans
            if span.category == "wave" and span.name != "wave:shard"
        ]
        assert len(waves) == k - 1
        if runner == "sharded":
            shard_waves = [s for s in tracer.spans if s.name == "wave:shard"]
            assert len(shard_waves) == (0 if k == 1 else 1)
        assert len(calls) == k


class TestDegradation:
    def test_sql_degrades_to_chase(self):
        baseline = _diamond_engine()
        baseline.run()
        plan = FaultPlan([FaultRule(kind="permanent", target="sql")], seed=0)
        engine = _diamond_engine()
        record = engine.run(on_error="degrade", fault_plan=plan)
        assert record.error is None and record.complete
        degraded = [s for s in record.subgraphs if s.outcome == "degraded"]
        assert {s.target for s in degraded} == {"sql"}
        assert all(s.executed_target == "chase" for s in degraded)
        assert all("injected permanent" in s.error for s in degraded)
        for cube in "ABCD":
            assert engine.data(cube).approx_equals(baseline.data(cube))
        assert engine.metrics.value("dispatch.degraded") == len(degraded)

    def test_default_chain_covers_every_native_target(self):
        for target in ("sql", "r", "matlab", "etl"):
            plan = FaultPlan([FaultRule(kind="permanent", target=target)], seed=0)
            engine = _pinned_engine(target)
            record = engine.run(on_error="degrade", fault_plan=plan)
            assert record.complete, target
            (subgraph,) = record.subgraphs
            assert subgraph.target == target
            assert subgraph.outcome == "degraded"
            assert subgraph.executed_target == "chase"

    def test_degrade_without_chain_fails(self):
        # the reference backend has no fallback
        plan = FaultPlan([FaultRule(kind="permanent", target="chase")], seed=0)
        engine = _pinned_engine("chase")
        record = engine.run(on_error="degrade", fault_plan=plan)
        assert record.failed
        (subgraph,) = record.subgraphs
        assert subgraph.outcome == "failed"
        assert engine.metrics.value("dispatch.degraded") == 0

    def test_degrade_when_fallback_also_fails(self):
        plan = FaultPlan([FaultRule(kind="permanent")], seed=0)  # every target
        engine = _diamond_engine()
        record = engine.run(on_error="degrade", fault_plan=plan)
        assert record.failed
        assert all(s.outcome in ("failed", "skipped") for s in record.subgraphs)

    def test_transient_exhaustion_also_degrades(self):
        plan = FaultPlan([FaultRule(kind="transient", target="r")], seed=0)
        engine = _diamond_engine()
        record = engine.run(on_error="degrade", retries=1, fault_plan=plan)
        assert record.complete
        degraded = next(s for s in record.subgraphs if s.outcome == "degraded")
        assert degraded.cubes == ("C",)
        assert degraded.executed_target == "chase"


class TestPartialFailure:
    def test_continue_runs_independent_and_skips_dependents(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        record = engine.run(on_error="continue", fault_plan=plan)
        outcomes = _outcome_by_cube(record)
        assert outcomes == {
            "A": "ok", "B": "ok", "C": "failed", "D": "skipped"
        }
        assert record.failed and "partial failure" in record.error
        skipped = next(s for s in record.subgraphs if s.outcome == "skipped")
        assert skipped.attempts == 0
        assert "C" in skipped.error  # names the unavailable upstream cube
        assert engine.metrics.value("dispatch.skipped") == 1
        assert engine.metrics.value("dispatch.failed") == 1
        # A and B committed, C and D have no data
        assert engine.catalog.has_data("A") and engine.catalog.has_data("B")
        assert not engine.catalog.has_data("C")
        assert not engine.catalog.has_data("D")

    def test_skips_cascade_transitively(self):
        engine = EXLEngine(backoff_s=BACKOFF)
        engine.declare_elementary(_series("E1"))
        engine.add_program(
            "A := E1 * 2\nB := A + 1\nC := B * 3",
            preferred_targets={"A": "r", "B": "sql", "C": "etl"},
        )
        engine.load(
            Cube.from_series(_series("E1"), quarter(2020, 1), [1.0, 2.0, 3.0])
        )
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        record = engine.run(on_error="continue", fault_plan=plan)
        assert _outcome_by_cube(record) == {
            "A": "failed", "B": "skipped", "C": "skipped"
        }

    def test_fail_mode_persists_outcomes_before_raising(self):
        """Satellite: per-subgraph error/outcome survive the failure path."""
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        with pytest.raises(PermanentBackendError):
            engine.run(fault_plan=plan)  # on_error defaults to "fail"
        record = engine.runs.last()
        assert record.failed and record.finished
        outcomes = _outcome_by_cube(record)
        assert outcomes["C"] == "failed"
        assert outcomes["D"] == "skipped"  # never reached, still recorded
        failed = next(s for s in record.subgraphs if s.outcome == "failed")
        assert "PermanentBackendError" in failed.error

    def test_failed_multi_cube_subgraph_commits_nothing(self):
        """Atomic staging: no cube of a failed subgraph is published."""
        plan = FaultPlan(
            [FaultRule(kind="permanent", target="sql", cubes=("A",))], seed=0
        )
        engine = _diamond_engine()
        engine.run(on_error="continue", fault_plan=plan)
        # A and B live in one sql subgraph: neither may have data
        assert not engine.catalog.has_data("A")
        assert not engine.catalog.has_data("B")

    def test_invalid_on_error_rejected(self):
        from repro.engine.dispatcher import Dispatcher

        engine = _diamond_engine()
        with pytest.raises(EngineError, match="on_error"):
            engine.run(on_error="explode")
        with pytest.raises(EngineError, match="on_error"):
            Dispatcher(engine, RunPolicy(on_error="explode"))


class TestResume:
    def test_resume_completes_partial_run(self):
        baseline = _diamond_engine()
        baseline.run()
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        partial = engine.run(on_error="continue", fault_plan=plan)
        committed_versions = {
            name: engine.catalog.store.versions(name) for name in ("A", "B")
        }
        resumed = engine.resume()
        assert resumed.resumed_from == partial.run_id
        assert resumed.error is None and resumed.complete
        assert _outcome_by_cube(resumed) == {"C": "ok", "D": "ok"}
        # already-committed cubes were not recomputed
        for name in ("A", "B"):
            assert engine.catalog.store.versions(name) == committed_versions[name]
        for cube in "ABCD":
            assert engine.data(cube).approx_equals(baseline.data(cube))

    def test_resume_after_fail_fast_abort(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        with pytest.raises(PermanentBackendError):
            engine.run(fault_plan=plan)
        resumed = engine.resume()
        assert resumed.complete
        assert engine.data("D") is not None

    def test_resume_does_not_inherit_fault_plan(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        engine.run(on_error="continue", fault_plan=plan)
        resumed = engine.resume()  # no faults: the plan is not inherited
        assert resumed.complete

    def test_resume_by_run_id_and_unknown_id(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        partial = engine.run(on_error="continue", fault_plan=plan)
        with pytest.raises(EngineError, match="unknown run id"):
            engine.resume(run_id=10**9)
        resumed = engine.resume(run_id=partial.run_id)
        assert resumed.resumed_from == partial.run_id

    def test_resume_with_nothing_to_do_raises(self):
        engine = _diamond_engine()
        record = engine.run()
        assert record.complete
        with pytest.raises(EngineError, match="resume"):
            engine.resume()
        with pytest.raises(EngineError, match="nothing to resume"):
            engine.resume(run_id=record.run_id)

    def test_runlog_failed_accessor(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        ok = engine.run(on_error="continue", fault_plan=plan)
        assert engine.runs.failed() == [ok]
        resumed = engine.resume()
        assert resumed not in engine.runs.failed()
        assert engine.runs.get(ok.run_id) is ok
        assert engine.runs.get(10**9) is None


class TestRecordSerialization:
    def test_subgraph_record_round_trip(self):
        record = SubgraphRecord(
            ("A", "B"), "sql", 0.5, 24, {"A": 3, "B": 4},
            outcome="degraded", attempts=4, error="boom",
            executed_target="chase",
        )
        clone = SubgraphRecord.from_json(
            json.loads(json.dumps(record.to_json()))
        )
        assert clone == record

    def test_run_record_restore(self):
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine = _diamond_engine()
        partial = engine.run(on_error="continue", fault_plan=plan)
        log = RunLog()
        restored = log.restore(json.loads(json.dumps(partial.to_json())))
        assert restored.run_id != partial.run_id  # fresh id in the new log
        assert restored.subgraphs == partial.subgraphs
        assert restored.error == partial.error
        assert restored.on_error == "continue"
        assert log.failed() == [restored]


class TestThreadSafety:
    def test_parallel_wide_wave_store_integrity(self):
        """Regression: _computed_this_run and store.put are now guarded
        by the dispatcher lock; a wide parallel wave must commit every
        cube exactly once with distinct versions."""
        for round_index in range(5):
            engine = _wide_engine(width=12, jobs=8)
            record = engine.run()
            assert record.complete
            assert record.max_wave_width == 12
            seen_versions = []
            for i in range(12):
                name = f"W{i}"
                versions = engine.catalog.store.versions(name)
                assert len(versions) == 1, f"{name} written {len(versions)}x"
                seen_versions.extend(versions)
            assert len(set(seen_versions)) == 12
            # elementary load + 12 commits = store clock
            assert engine.catalog.store.clock == 13

    def test_parallel_retry_storm_stays_consistent(self):
        """Wide wave where most subgraphs retry concurrently."""
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.7, first_n=2)], seed=11
        )
        engine = _wide_engine(width=12, jobs=8)
        record = engine.run(retries=3, fault_plan=plan)
        assert record.complete
        baseline = _wide_engine(width=12, jobs=1)
        baseline.run()
        for i in range(12):
            assert engine.data(f"W{i}").approx_equals(baseline.data(f"W{i}"))

    def test_single_pool_across_waves(self):
        """The dispatcher reuses one executor for all waves: thread
        names stay within one pool's namespace across a 3-wave run."""
        from repro.engine.dispatcher import Dispatcher

        engine = _diamond_engine(jobs=4)
        names = set()
        original = Dispatcher._run_subgraph

        def spy(self, item, wave_span=None):
            names.add(threading.current_thread().name)
            return original(self, item, wave_span)

        Dispatcher._run_subgraph = spy
        try:
            engine.run()
        finally:
            Dispatcher._run_subgraph = original
        pools = {
            name.rsplit("_", 1)[0]
            for name in names
            if "ThreadPoolExecutor" in name
        }
        assert len(pools) <= 1  # every pooled call came from one executor


class TestAcceptance:
    """The issue's acceptance scenario: 30% transient faults, parallel
    dispatch, retries — final cube versions tuple-for-tuple identical
    to a fault-free run."""

    def test_thirty_percent_transient_faults_fully_recovered(self):
        baseline = _diamond_engine(jobs=4)
        baseline.run()
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.3, first_n=3)], seed=7
        )
        engine = _diamond_engine(jobs=4)
        record = engine.run(retries=3, on_error="continue", fault_plan=plan)
        assert record.complete and record.error is None
        assert plan.injected["transient"] > 0  # faults actually fired
        for cube in "ABCD":
            fault_free = baseline.data(cube)
            recovered = engine.data(cube)
            assert recovered.to_rows() == fault_free.to_rows()  # tuple-for-tuple

    def test_wide_workload_thirty_percent(self):
        baseline = _wide_engine(width=10, jobs=1)
        baseline.run()
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.3, first_n=3)], seed=3
        )
        engine = _wide_engine(width=10, jobs=4)
        record = engine.run(retries=3, on_error="continue", fault_plan=plan)
        assert record.complete
        for i in range(10):
            assert (
                engine.data(f"W{i}").to_rows()
                == baseline.data(f"W{i}").to_rows()
            )


@pytest.fixture
def cli_project(tmp_path):
    (tmp_path / "e1.csv").write_text(
        "q,v\n"
        + "".join(
            f"20{20 + i // 4}Q{i % 4 + 1},{float(i + 1)}\n" for i in range(8)
        )
    )
    (tmp_path / "project.json").write_text(
        json.dumps(
            {
                "elementary": [
                    {
                        "name": "E1",
                        "dimensions": [["q", "time:Q"]],
                        "measure": "v",
                        "csv": "e1.csv",
                    }
                ],
                "program": "A := E1 * 2\nB := A + 1\nC := stl_t(E1)\nD := B + C",
                "preferred_targets": {"C": "r"},
                "outputs": ["A", "B", "C", "D"],
            }
        )
    )
    return tmp_path / "project.json"


class TestCli:
    def test_run_resume_round_trip(self, cli_project, tmp_path, capsys):
        out = tmp_path / "out"
        baseline_out = tmp_path / "baseline"
        assert cli_main(["run", str(cli_project), "--out", str(baseline_out)]) == 0
        code = cli_main(
            [
                "run", str(cli_project), "--out", str(out),
                "--on-error", "continue", "--inject-faults", "r:permanent",
            ]
        )
        assert code == 3  # partial failure
        state = json.loads((out / "run-state.json").read_text())
        outcomes = {
            tuple(s["cubes"]): s["outcome"] for s in state["record"]["subgraphs"]
        }
        assert outcomes[("C",)] == "failed"
        assert outcomes[("D",)] == "skipped"
        assert (out / "A.csv").exists() and not (out / "C.csv").exists()

        assert cli_main(["resume", str(cli_project), "--out", str(out)]) == 0
        assert not (out / "run-state.json").exists()  # state consumed
        for name in "ABCD":
            assert (out / f"{name}.csv").read_text() == (
                baseline_out / f"{name}.csv"
            ).read_text()

    def test_run_with_retries_recovers(self, cli_project, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", str(cli_project), "--out", str(out),
                "--retries", "3", "--backoff", "0.001",
                "--on-error", "continue",
                "--inject-faults", "*:transient:n=2", "--fault-seed", "1",
            ]
        )
        assert code == 0
        assert "retried" in capsys.readouterr().out
        assert not (out / "run-state.json").exists()

    def test_degrade_flag(self, cli_project, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", str(cli_project), "--out", str(out),
                "--on-error", "degrade", "--inject-faults", "r:permanent",
            ]
        )
        assert code == 0
        assert "degraded -> chase" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "update"])
    def test_fail_fast_writes_state_then_resume(
        self, cli_project, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        if command == "update":
            assert cli_main(["run", str(cli_project), "--out", str(out)]) == 0
            e1 = cli_project.parent / "e1.csv"
            e1.write_text(e1.read_text().replace(",1.0\n", ",11.0\n"))
        capsys.readouterr()
        code = cli_main(
            [
                command, str(cli_project), "--out", str(out),
                "--inject-faults", "r:permanent",
            ]
        )
        assert code == 1  # ReproError surfaced
        assert (out / "run-state.json").exists()
        assert "run aborted; state written to" in capsys.readouterr().err
        assert cli_main(["resume", str(cli_project), "--out", str(out)]) == 0
        assert not (out / "run-state.json").exists()
        # the resumed run's files are those of one uninterrupted run
        fresh = tmp_path / "fresh"
        assert cli_main(["run", str(cli_project), "--out", str(fresh)]) == 0
        for name in ("A", "B", "C", "D"):
            for sub in (".", "baseline"):
                assert (out / sub / f"{name}.csv").read_bytes() == (
                    fresh / sub / f"{name}.csv"
                ).read_bytes()

    def test_aborted_resume_keeps_what_the_run_committed(
        self, cli_project, tmp_path
    ):
        out = tmp_path / "out"
        faulty = ["--inject-faults", "r:permanent"]
        assert cli_main(["run", str(cli_project), "--out", str(out), *faulty]) == 1
        assert cli_main(["resume", str(cli_project), "--out", str(out), *faulty]) == 1
        # the second state still holds the first run's committed A + B,
        # which D reads when the last resume finally computes C
        state = json.loads((out / "run-state.json").read_text())
        assert sorted(state["committed"]) == ["A", "B"]
        assert cli_main(["resume", str(cli_project), "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert cli_main(["run", str(cli_project), "--out", str(fresh)]) == 0
        for name in ("A", "B", "C", "D"):
            assert (out / f"{name}.csv").read_bytes() == (
                fresh / f"{name}.csv"
            ).read_bytes()

    def test_resume_without_state(self, cli_project, tmp_path):
        assert (
            cli_main(
                ["resume", str(cli_project), "--out", str(tmp_path / "nope")]
            )
            == 2
        )

    def test_deadline_flag(self, cli_project, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", str(cli_project), "--out", str(out),
                "--deadline", "0.01", "--on-error", "continue",
                "--inject-faults", "r:delay:delay=0.1",
            ]
        )
        assert code == 3
        assert "deadline" in capsys.readouterr().out

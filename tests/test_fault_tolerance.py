"""Fault-tolerant dispatch: taxonomy, one attempt per subgraph,
deadlines, degradation, partial-failure runs, resume, and the
deterministic fault-injection harness.

Every fault in this suite comes from a seeded :class:`FaultPlan`, whose
decisions are a stable hash of (seed, target, cubes) — the
same faults fire run after run, which is what makes these tests (and
the determinism suite) reproducible.
"""

import json

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
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    EngineError,
    PermanentBackendError,
    ReproError,
)
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, quarter
from repro.workloads import deep_chain_workload


#: the deadline of the tests that trip one with a hang fault
DEADLINE_S = 1.0

#: ``RunRecord.to_json()`` of a diamond run with on_error="continue",
#: as an older version wrote it: A+B committed after one retry, C failed,
#: D skipped, and the dispatch's wave shape recorded
OLDER_RUN_RECORD = """{
 "run_id": 1, "trigger": ["E1", "E2"], "affected": ["A", "B", "C", "D"],
 "subgraphs": [
  {"cubes": ["A", "B"], "target": "sql", "duration_s": 0.0033866459998534992,
   "tuples_written": 24, "versions": {"A": 3, "B": 4}, "outcome": "retried",
   "attempts": 2,
   "error": "TransientBackendError: injected transient fault on sql:A+B attempt 0",
   "executed_target": "sql", "observed_s": 0.001678763999734656,
   "chosen_target": null, "predicted_s": null},
  {"cubes": ["C"], "target": "r", "duration_s": 8.461900142719969e-05,
   "tuples_written": 0, "versions": {}, "outcome": "failed", "attempts": 1,
   "error": "PermanentBackendError: injected permanent fault on r:C attempt 0",
   "executed_target": "r", "observed_s": 0.0, "chosen_target": null,
   "predicted_s": null},
  {"cubes": ["D"], "target": "sql", "duration_s": 0.0, "tuples_written": 0,
   "versions": {}, "outcome": "skipped", "attempts": 0,
   "error": "upstream cube(s) unavailable: C", "executed_target": "sql",
   "observed_s": 0.0, "chosen_target": null, "predicted_s": null}
 ],
 "waves": 2, "max_wave_width": 2, "shards": 0, "shard_tuples": [],
 "shard_merge_s": 0.0, "on_error": "continue", "adaptive": false,
 "resumed_from": null, "delta_of": null,
 "baseline_versions": {"E1": 1, "E2": 2, "A": 3, "B": 4},
 "delta_dirty_tgds": 0, "delta_clean_tgds": 0, "delta_fallback_tgds": 0,
 "error": "partial failure: 1 subgraph(s) failed, 1 skipped"
}"""


#: ``<out>/run-state.json`` an older version's ``exl run --retries 1
#: --on-error continue --inject-faults "sql:transient:n=1;r:permanent"``
#: wrote for ``cli_project``: A+B committed after a retry, C failed, D
#: skipped
OLDER_RUN_STATE = """{"record": {"run_id": 1, "trigger": ["E1"],
 "affected": ["A", "B", "C", "D"], "subgraphs": [
  {"cubes": ["A", "B"], "target": "sql", "duration_s": 0.0013209089993324596,
   "tuples_written": 16, "versions": {"A": 2, "B": 3}, "outcome": "retried",
   "attempts": 2,
   "error": "TransientBackendError: injected transient fault on sql:A+B attempt 0",
   "executed_target": "sql", "observed_s": 0.0011344320009811781,
   "chosen_target": null, "predicted_s": null},
  {"cubes": ["C"], "target": "r", "duration_s": 0.00010163899969484191,
   "tuples_written": 0, "versions": {}, "outcome": "failed", "attempts": 1,
   "error": "PermanentBackendError: injected permanent fault on r:C attempt 0",
   "executed_target": "r", "observed_s": 0.0, "chosen_target": null,
   "predicted_s": null},
  {"cubes": ["D"], "target": "sql", "duration_s": 0.0, "tuples_written": 0,
   "versions": {}, "outcome": "skipped", "attempts": 0,
   "error": "upstream cube(s) unavailable: C", "executed_target": "sql",
   "observed_s": 0.0, "chosen_target": null, "predicted_s": null}],
 "waves": 2, "max_wave_width": 2, "shards": 0, "shard_tuples": [],
 "shard_merge_s": 0.0, "on_error": "continue", "adaptive": false,
 "resumed_from": null, "delta_of": null,
 "baseline_versions": {"E1": 1, "A": 2, "B": 3}, "delta_dirty_tgds": 0,
 "delta_clean_tgds": 0, "delta_fallback_tgds": 0,
 "error": "partial failure: 1 subgraph(s) failed, 1 skipped"},
 "committed": {"A": ".committed/A.csv", "B": ".committed/B.csv"}}
"""


def _series(name):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


def _diamond_engine(**kwargs):
    """E1,E2 -> A(sql) -> B(sql); C(r); D(sql) <- B,C: three subgraphs,
    dispatched in plan order [sql A,B], [r C], [sql D] — C depends on
    neither A nor B."""
    engine = EXLEngine(**kwargs)
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
    engine = EXLEngine()
    engine.declare_elementary(_series("E1"))
    engine.add_program("A := E1 * 2", preferred_targets={"A": target})
    engine.load(
        Cube.from_series(_series("E1"), quarter(2018, 1), [float(i) for i in range(8)])
    )
    return engine


def _outcome_by_cube(record):
    return {cube: s.outcome for s in record.subgraphs for cube in s.cubes}


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(PermanentBackendError, BackendError)
        assert issubclass(DeadlineExceededError, PermanentBackendError)
        assert issubclass(BackendError, ReproError)


class TestFaultPlan:
    def test_rule_matching(self):
        rule = FaultRule(target="sql", cubes=("A",))
        assert rule.matches("sql", ("A", "B"))
        assert rule.matches("sql", ("A",))
        assert not rule.matches("r", ("A",))  # wrong target
        assert not rule.matches("sql", ("C",))  # wrong cubes
        assert FaultRule().matches("etl", ("C",))  # "*" and any cubes

    def test_bad_kind_and_probability_rejected(self):
        with pytest.raises(EngineError, match="kind"):
            FaultRule(kind="sometimes")
        with pytest.raises(EngineError, match="probability"):
            FaultRule(probability=1.5)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("delay_s", -1.0, "delay"),
            ("delay_s", float("nan"), "delay"),
            ("delay_s", float("inf"), "delay"),
        ],
    )
    def test_out_of_range_options_rejected(self, option, value, message):
        with pytest.raises(EngineError, match=message):
            FaultRule(**{option: value})

    def test_boundary_options_accepted(self):
        rule = FaultRule(kind="hang", delay_s=0.0, probability=0.0)
        assert rule.matches("sql", ("A",))
        assert not FaultPlan([rule]).would_fire("sql", ("A",))
        assert FaultPlan([FaultRule(probability=1.0)]).would_fire("sql", ("A",))

    @pytest.mark.parametrize("option", ["first_n", "after"])
    def test_no_rule_takes_an_attempt_window(self, option):
        # a subgraph runs once and a dead shard worker is not re-forked:
        # there is no later attempt for a rule to select
        with pytest.raises(TypeError):
            FaultRule(**{option: 1})
        with pytest.raises(TypeError):
            FaultRule().matches("sql", ("A",), 0)
        with pytest.raises(TypeError):
            FaultPlan([FaultRule()]).would_fire("sql", ("A",), 0)

    @pytest.mark.parametrize("kind", ["transient", "delay"])
    def test_retired_kinds_rejected(self, kind):
        # nothing retries a subgraph, so no kind asks for a retry; a
        # stall is a "hang" with a short delay=
        with pytest.raises(EngineError, match="unknown fault kind"):
            FaultRule(kind=kind)

    def test_decisions_deterministic_across_instances(self):
        keys = [("sql", ("A",)), ("r", ("C",)), ("chase", ("D", "E"))]
        plans = [
            FaultPlan([FaultRule(probability=0.5)], seed=42) for _ in range(2)
        ]
        for target, cubes in keys:
            assert bool(plans[0].would_fire(target, cubes)) == bool(
                plans[1].would_fire(target, cubes)
            )

    def test_decisions_independent_of_call_order(self):
        """Firing decisions never depend on call order."""
        plan = FaultPlan([FaultRule(probability=0.5)], seed=7)
        keys = [("sql", (f"X{i}",)) for i in range(32)]
        forward = [bool(plan.would_fire(*k)) for k in keys]
        backward = [bool(plan.would_fire(*k)) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_seed_changes_decisions(self):
        keys = [("sql", (f"X{i}",)) for i in range(64)]
        rule = [FaultRule(probability=0.5)]
        first = [bool(FaultPlan(rule, seed=1).would_fire(*k)) for k in keys]
        second = [bool(FaultPlan(rule, seed=2).would_fire(*k)) for k in keys]
        assert first != second

    def test_seeded_decisions_match_the_recorded_table(self):
        # recorded before the attempt index left the plan: every draw
        # still hashes a literal 0 in its place, so no seeded decision
        # may move.  Keys: the gdp example's cubes, whole and one by
        # one, on sql and chase, and its chase key per shard
        gdp = ("PQR", "RGDP", "GDP", "GDPT", "PCHNG")
        keys = [
            (target, cubes)
            for target in ("sql", "chase")
            for cubes in [gdp] + [(cube,) for cube in gdp]
        ]
        keys += [("chase", gdp + (f"shard:{s}",)) for s in range(4)]
        rules = [
            FaultRule(probability=0.25),
            FaultRule(probability=0.5, cubes=("GDP", "shard:2")),
            FaultRule(probability=1.0, cubes=("PQR", "shard:1")),
            FaultRule(target="chase", probability=0.5),
        ]
        # per seed, per key: the indices of the rules that fire
        table = {
            0: "12 2 0 - - - 12 2 - 013 - 3 23 012 12 123",
            7: "12 2 - 01 - - 123 023 3 - - 3 123 123 2 123",
            42: "2 2 0 1 - 0 23 2 3 03 3 3 12 12 2 23",
        }
        for seed, recorded in table.items():
            plan = FaultPlan(rules, seed=seed)
            decided = [
                "".join(
                    str(rules.index(rule))
                    for rule in plan.would_fire(target, cubes)
                ) or "-"
                for target, cubes in keys
            ]
            assert " ".join(decided) == recorded, f"seed {seed}"

    def test_probability_roughly_respected(self):
        plan = FaultPlan([FaultRule(probability=0.3)], seed=9)
        fired = sum(
            bool(plan.would_fire("sql", (f"C{i}",))) for i in range(400)
        )
        assert 60 <= fired <= 180  # ~120 expected

    def test_apply_raises_and_counts(self):
        plan = FaultPlan([FaultRule(kind="permanent")], seed=0)
        with pytest.raises(PermanentBackendError, match="injected"):
            plan.apply("sql", ("A",))
        assert plan.injected["permanent"] == 1
        assert plan.total_injected == 1

    def test_hang_sleeps_before_permanent_raises(self):
        plan = FaultPlan(
            [FaultRule(kind="permanent"), FaultRule(kind="hang", delay_s=0.001)],
            seed=0,
        )
        with pytest.raises(PermanentBackendError):
            plan.apply("sql", ("A",))
        assert plan.injected == {"permanent": 1, "kill": 0, "hang": 1}

    def test_parse_full_grammar(self):
        plan = parse_fault_spec(
            "sql:permanent:p=0.25; *:kill:p=0.5 ;"
            "r:hang:delay=0.2:cubes=A+B; chase:hang",
            seed=5,
        )
        assert plan.seed == 5
        assert len(plan.rules) == 4
        assert plan.rules[0] == FaultRule(
            target="sql", kind="permanent", probability=0.25
        )
        assert plan.rules[1] == FaultRule(kind="kill", probability=0.5)
        assert plan.rules[2].delay_s == 0.2
        assert plan.rules[2].cubes == ("A", "B")
        assert plan.rules[3].delay_s == 30.0  # the default stall

    @pytest.mark.parametrize(
        "spec",
        [
            "", "sql", "sql:permanent:wat", "sql:permanent:p",
            "*:transient:p=0.3", "r:delay:delay=0.1",
            "r:hang:delay=-0.5", "r:hang:delay=nan", "sql:permanent:n=0",
            "sql:permanent:after=-2",
        ],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(EngineError):
            parse_fault_spec(spec)

    @pytest.mark.parametrize(
        "spec, option", [("sql:permanent:p=abc", "p"), ("r:hang:delay=x", "delay")]
    )
    def test_parse_names_the_option_that_is_not_a_number(self, spec, option):
        # the library's own error, naming the option and the rule, not
        # float()'s bare ValueError
        with pytest.raises(EngineError) as caught:
            parse_fault_spec(spec)
        assert str(caught.value) == (
            f"fault option {option}= needs a number, got "
            f"{spec.rsplit('=', 1)[1]!r} in rule {spec!r}"
        )

class TestOneAttempt:
    def test_permanent_fault_fails_in_one_attempt(self):
        plan = FaultPlan([FaultRule(kind="permanent")], seed=0)
        engine = _diamond_engine()
        with pytest.raises(PermanentBackendError):
            engine.run(fault_plan=plan)
        failed = [s for s in engine.runs.last().subgraphs if s.outcome == "failed"]
        assert [s.attempts for s in failed] == [1]
        assert plan.injected["permanent"] == 1

    @pytest.mark.parametrize(
        "make, policy",
        [
            (RunPolicy, {"deadline_s": 0}),
            (RunPolicy, {"deadline_s": -1}),
            (RunPolicy, {"deadline_s": float("nan")}),
            (RunPolicy, {"on_error": "retry"}),
            (EXLEngine, {"shards": -1}),
        ],
    )
    def test_policy_out_of_range_rejected(self, make, policy):
        with pytest.raises(EngineError, match=next(iter(policy))):
            make(**policy)


class TestDeadline:
    def test_hang_fault_trips_deadline(self):
        # the hang outlasts the deadline whatever the host's load (a
        # sleep never ends early); the 1 s deadline leaves the healthy
        # 12-row subgraphs ~1000x their usual time
        plan = FaultPlan(
            [FaultRule(kind="hang", delay_s=DEADLINE_S * 1.5, target="r")],
            seed=0,
        )
        engine = _diamond_engine()
        record = engine.run(
            deadline_s=DEADLINE_S, on_error="continue", fault_plan=plan
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
    #: the failed native attempt of _run_degraded hangs this long first
    STALL = 0.4

    def _run_degraded(self):
        plan = FaultPlan(
            [
                FaultRule(target="sql", kind="hang", delay_s=self.STALL),
                FaultRule(target="sql", kind="permanent"),
            ]
        )
        workload = deep_chain_workload(0, depth=3)
        engine = EXLEngine(target_priority=("sql", "chase"))
        for schema in workload.schema:
            engine.declare_elementary(schema)
        engine.add_program(workload.source)
        for cube in workload.data.values():
            engine.load(cube)
        return engine, engine.run(on_error="degrade", fault_plan=plan)

    def test_observed_excludes_failed_attempts(self):
        engine, record = self._run_degraded()
        assert record.complete
        degraded = [s for s in record.subgraphs if s.outcome == "degraded"]
        assert degraded, "fault plan should have forced a degradation"
        for sub in degraded:
            # the wall time swallowed the stalled native attempt; the
            # observed attempt time did not
            assert sub.attempts == 2
            assert sub.duration_s >= self.STALL
            assert 0.0 < sub.observed_s < self.STALL * 0.25

    def test_metrics_split_duration_from_wall(self):
        engine, _ = self._run_degraded()
        clean = engine.metrics.histogram("dispatch.subgraph.duration_s")
        wall = engine.metrics.histogram("dispatch.subgraph.wall_s")
        assert clean.count == wall.count > 0
        assert clean.max < self.STALL * 0.25
        assert wall.max >= self.STALL

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
        engine = EXLEngine()
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

    def test_fail_fast_stops_at_the_first_failure(self):
        """Under on_error="fail" nothing after the failed subgraph runs
        or commits, not even C, which does not read A or B."""
        from repro.obs import Tracer

        baseline = _diamond_engine()
        baseline.run()
        plan = FaultPlan([FaultRule(kind="permanent", target="sql")], seed=0)
        tracer = Tracer()
        engine = _diamond_engine(tracer=tracer)
        with pytest.raises(PermanentBackendError):
            engine.run(fault_plan=plan)
        record = engine.runs.last()
        assert [(s.cubes, s.outcome) for s in record.subgraphs] == [
            (("A", "B"), "failed"),
            (("C",), "skipped"),
            (("D",), "skipped"),
        ]
        for skipped in record.subgraphs[1:]:
            assert skipped.attempts == 0
            assert skipped.error.startswith("not reached")
        ran = [s.name for s in tracer.spans if s.name.startswith("subgraph:")]
        assert ran == ["subgraph:sql:A+B"]  # C never ran
        assert not any(engine.catalog.has_data(name) for name in "ABCD")
        resumed = engine.resume()
        assert resumed.complete
        assert _outcome_by_cube(resumed) == dict.fromkeys("ABCD", "ok")
        for cube in "ABCD":
            assert engine.data(cube).approx_equals(baseline.data(cube))

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

    def test_record_of_an_older_version_resumes(self):
        """A record written when dispatch retried and grouped subgraphs
        into waves: ``retried`` counts as committed and the wave fields
        are ignored."""
        engine = _diamond_engine()
        plan = FaultPlan([FaultRule(kind="permanent", target="r")], seed=0)
        engine.run(on_error="continue", fault_plan=plan)
        old = engine.runs.restore(json.loads(OLDER_RUN_RECORD))
        assert [s.committed for s in old.subgraphs] == [True, False, False]
        assert [s.cubes for s in old.unfinished_subgraphs()] == [("C",), ("D",)]
        # the record also carries the retired adaptive-dispatch keys,
        # which load as nothing
        for key in ('"adaptive"', '"chosen_target"', '"predicted_s"'):
            assert key in OLDER_RUN_RECORD
        assert not hasattr(old, "waves") and not hasattr(old, "adaptive")
        assert not hasattr(old.subgraphs[0], "chosen_target")
        assert not hasattr(old.subgraphs[0], "predicted_s")
        resumed = engine.resume(run_id=old.run_id)
        assert resumed.complete
        assert _outcome_by_cube(resumed) == {"C": "ok", "D": "ok"}


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

    def test_resume_reads_an_older_state_file(
        self, cli_project, tmp_path, capsys
    ):
        out = tmp_path / "out"
        faulty = ["--on-error", "continue", "--inject-faults", "r:permanent"]
        assert cli_main(["run", str(cli_project), "--out", str(out), *faulty]) == 3
        # the same partial run, its state as an older version wrote it,
        # retired adaptive-dispatch keys and all
        for key in ('"adaptive"', '"chosen_target"', '"predicted_s"'):
            assert key in OLDER_RUN_STATE
        (out / "run-state.json").write_text(OLDER_RUN_STATE)
        capsys.readouterr()
        assert cli_main(["resume", str(cli_project), "--out", str(out)]) == 0
        assert not (out / "run-state.json").exists()
        # the retried A+B counted as committed: only C and D ran again
        summary = capsys.readouterr().out
        assert "affected=2 cubes in 2 subgraphs" in summary
        assert "[sql] A, B" not in summary
        fresh = tmp_path / "fresh"
        assert cli_main(["run", str(cli_project), "--out", str(fresh)]) == 0
        for name in ("A", "B", "C", "D"):
            for sub in (".", "baseline"):
                assert (out / sub / f"{name}.csv").read_bytes() == (
                    fresh / sub / f"{name}.csv"
                ).read_bytes()

    @pytest.mark.parametrize(
        "spec, shards",
        [
            ("sql:permanent:after=1", "1"),
            ("sql:permanent:after=1", "2"),
            ("r:hang:delay=0:after=2", "4"),
            ("chase:permanent:after=1", "1"),
            ("*:permanent:after=1", "1"),
            ("chase:kill:n=1", "2"),
        ],
    )
    def test_after_that_only_the_dispatcher_meets_is_refused(
        self, cli_project, tmp_path, capsys, spec, shards
    ):
        # the dispatcher runs each subgraph once and a sharded chase
        # re-forks no worker: no later attempt exists, so the attempt
        # window options left the grammar and are usage errors anywhere
        self._assert_fault_option_refused(
            cli_project, tmp_path, capsys, spec, shards
        )

    @pytest.mark.parametrize(
        "spec", ["chase:permanent:after=1", "*:permanent:after=1"]
    )
    def test_after_a_sharded_chase_once_met_is_refused(
        self, cli_project, tmp_path, capsys, spec
    ):
        # a sharded chase once numbered its pool rebuild rounds from 1,
        # so these rules were accepted there; with the rebuilds gone they
        # are refused like any other attempt window
        self._assert_fault_option_refused(
            cli_project, tmp_path, capsys, spec, "2"
        )

    @staticmethod
    def _assert_fault_option_refused(cli_project, tmp_path, capsys, spec, shards):
        out = tmp_path / "out"
        argv = [
            "run", str(cli_project), "--out", str(out), "--shards", shards,
            "--inject-faults", spec,
        ]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--inject-faults" in err and "unknown fault option" in err
        assert not out.exists()

    def test_a_shard_key_is_refused_with_its_reason(
        self, cli_project, tmp_path, capsys
    ):
        # ':' separates options, so "shard:0" cannot be a cubes= value;
        # the refusal says so and points at the library spelling
        out = tmp_path / "out"
        argv = [
            "run", str(cli_project), "--out", str(out), "--shards", "2",
            "--inject-faults", "chase:kill:cubes=shard:0",
        ]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "may not contain ':'" in err
        assert "FaultRule(cubes=" in err and "library-only" in err
        assert not out.exists()

    def test_deadline_flag(self, cli_project, tmp_path, capsys):
        # margins as in TestDeadline.test_hang_fault_trips_deadline
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", str(cli_project), "--out", str(out),
                "--deadline", f"{DEADLINE_S:g}", "--on-error", "continue",
                "--inject-faults", f"r:hang:delay={DEADLINE_S * 1.5:g}",
            ]
        )
        assert code == 3
        assert "deadline" in capsys.readouterr().out

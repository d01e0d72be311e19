"""Dispatch-order determinism under injected faults.

The fault plan's firing decisions are a stable hash of
(seed, target, cubes) — never a shared RNG stream — so one
seeded plan run twice under ``on_error="continue"`` fires the same
faults and commits the same cubes, with the same per-cube outcomes,
store versions and data.  Subgraphs run one at a time, in the order
determination planned them, which is a topological order of the cube
dependency graph.  Under the default ``on_error="fail"`` the first
failure stops the dispatch; under ``"continue"`` exactly the
dependents of failed subgraphs are skipped.  Either way a ``resume``
ends in the state of a fault-free run.
"""

import pytest

from repro.engine import Dispatcher, EXLEngine, parse_fault_spec
from repro.errors import PermanentBackendError
from repro.workloads import random_workload

TARGET_CYCLE = ("sql", "r", "etl", "chase")
FAULT_SPEC = "*:permanent:p=0.15;sql:permanent:p=0.15"
SEEDS = range(20)


def _engine_for(workload):
    engine = EXLEngine()
    for schema in workload.schema:
        engine.declare_elementary(schema)
    derived = [
        line.split(":=")[0].strip() for line in workload.source.splitlines()
    ]
    targets = {
        name: TARGET_CYCLE[i % len(TARGET_CYCLE)]
        for i, name in enumerate(derived)
    }
    engine.add_program(workload.source, preferred_targets=targets)
    for cube in workload.data.values():
        engine.load(cube)
    return engine


def _observable_state(engine, record):
    """Everything a client can see: outcomes, committed cubes, data."""
    outcomes = {
        cube: s.outcome for s in record.subgraphs for cube in s.cubes
    }
    committed = sorted(
        name
        for s in record.subgraphs
        if s.committed
        for name in s.cubes
    )
    version_counts = {
        name: len(engine.catalog.store.versions(name)) for name in committed
    }
    data = {name: engine.data(name).to_rows() for name in committed}
    return outcomes, committed, version_counts, data


@pytest.mark.parametrize("seed", SEEDS)
def test_one_plan_run_twice_commits_identical_state(seed):
    workload = random_workload(seed=seed, n_statements=6)
    runs = []
    for _ in range(2):
        engine = _engine_for(workload)
        plan = parse_fault_spec(FAULT_SPEC, seed=seed)
        record = engine.run(on_error="continue", fault_plan=plan)
        ledger = [
            (s.cubes, s.outcome, s.attempts, s.versions) for s in record.subgraphs
        ]
        runs.append((plan.injected, ledger, _observable_state(engine, record)))
    (first_faults, first_ledger, first), (faults, ledger, state) = runs
    assert faults == first_faults, f"injected faults diverge (seed {seed})"
    assert ledger == first_ledger, f"subgraph ledgers diverge (seed {seed})"
    assert state[0] == first[0], f"outcomes diverge (seed {seed})"
    assert state[1] == first[1], f"committed sets diverge (seed {seed})"
    assert state[2] == first[2], f"version counts diverge (seed {seed})"
    assert state[3] == first[3], f"cube data diverges (seed {seed})"


@pytest.mark.parametrize("seed", SEEDS)
def test_subgraphs_run_one_at_a_time_in_topological_order(seed, monkeypatch):
    workload = random_workload(seed=seed, n_statements=6)
    engine = _engine_for(workload)
    started, running = [], []
    original = Dispatcher._run_subgraph

    def spy(self, item):
        assert not running, f"{item.subgraph.cubes} overlaps {running}"
        running.append(item.subgraph.cubes)
        started.append(item.subgraph.cubes)
        try:
            return original(self, item)
        finally:
            running.pop()

    monkeypatch.setattr(Dispatcher, "_run_subgraph", spy)
    record = engine.run()
    assert record.complete
    assert started == [s.cubes for s in record.subgraphs]
    assert started == [tuple(s.cubes) for s in engine.plan()]
    # every operand computed elsewhere was committed before its reader ran
    done = set(engine.catalog.elementary_names)
    for cubes in started:
        operands = {
            ref for cube in cubes for ref in engine.graph.operands[cube]
        }
        assert operands - set(cubes) <= done, f"{cubes} ran before an operand"
        done.update(cubes)
    assert done == set(engine.catalog.names())


def _assert_matches_fault_free(engine, clean, seed):
    for name in clean.catalog.names():
        assert engine.data(name).approx_equals(clean.data(name)), (
            f"{name} diverges from a fault-free run (seed {seed})"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_fail_fast_then_resume_matches_a_fault_free_run(seed):
    workload = random_workload(seed=seed, n_statements=6)
    clean = _engine_for(workload)
    assert clean.run().complete
    engine = _engine_for(workload)
    plan = parse_fault_spec(FAULT_SPEC, seed=seed)
    try:
        engine.run(fault_plan=plan)
    except PermanentBackendError:
        pass
    record = engine.runs.last()
    outcomes = [s.outcome for s in record.subgraphs]
    if plan.total_injected == 0:
        assert record.complete, f"no fault fired, yet incomplete (seed {seed})"
        _assert_matches_fault_free(engine, clean, seed)
        return
    # the first fault stops the dispatch: nothing after it is attempted
    first = outcomes.index("failed")
    assert outcomes[:first] == ["ok"] * first
    fires = [
        plan.would_fire(s.target, s.cubes)
        for s in record.subgraphs[: first + 1]
    ]
    assert [bool(rules) for rules in fires] == [False] * first + [True]
    assert plan.total_injected == len(fires[-1]), f"dispatch went on (seed {seed})"
    for later in record.subgraphs[first + 1:]:
        assert later.outcome == "skipped"
        assert later.attempts == 0
        assert later.error.startswith("not reached")
        assert not any(engine.catalog.has_data(name) for name in later.cubes)
    resumed = engine.resume()
    assert resumed.complete
    assert [s.cubes for s in resumed.subgraphs] == [
        s.cubes for s in record.subgraphs[first:]
    ]
    _assert_matches_fault_free(engine, clean, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_continue_skips_exactly_the_dependents_of_failures(seed):
    workload = random_workload(seed=seed, n_statements=6)
    clean = _engine_for(workload)
    assert clean.run().complete
    engine = _engine_for(workload)
    plan = parse_fault_spec(FAULT_SPEC, seed=seed)
    record = engine.run(on_error="continue", fault_plan=plan)
    # walk the plan's (topological) order: a subgraph is skipped iff it
    # reads, from outside itself, a cube that failed or was skipped
    lost = set()
    for s in record.subgraphs:
        reads = {
            ref for cube in s.cubes for ref in engine.graph.operands[cube]
        } - set(s.cubes)
        if reads & lost:
            assert s.outcome == "skipped", f"{s.cubes} ran (seed {seed})"
            assert s.attempts == 0
        else:
            assert s.outcome in ("ok", "failed"), f"{s.cubes} (seed {seed})"
            assert s.attempts == 1
        if s.outcome == "ok":
            for name in s.cubes:
                assert engine.data(name).approx_equals(clean.data(name))
        else:
            lost.update(s.cubes)
            assert not any(engine.catalog.has_data(name) for name in s.cubes)
    assert record.complete == (not lost)
    if lost:
        assert engine.resume().complete
    _assert_matches_fault_free(engine, clean, seed)


def test_some_seed_actually_exercises_faults():
    """Guard against the plan silently never firing (e.g. after a
    grammar change): across the seeds above, faults must both fire and
    fail a subgraph, and leave some subgraph committed."""
    fired = failed = committed = 0
    for seed in SEEDS:
        workload = random_workload(seed=seed, n_statements=6)
        engine = _engine_for(workload)
        plan = parse_fault_spec(FAULT_SPEC, seed=seed)
        record = engine.run(on_error="continue", fault_plan=plan)
        fired += plan.total_injected
        failed += sum(1 for s in record.subgraphs if s.outcome == "failed")
        committed += sum(1 for s in record.subgraphs if s.committed)
    assert fired > 0
    assert failed > 0
    assert committed > 0

"""Dispatch-order determinism under injected faults.

The fault plan's firing decisions are a stable hash of
(seed, target, cubes, attempt) — never a shared RNG stream — so a run
with ``--jobs 4`` sees exactly the same faults as the same run with
``--jobs 1``, and under ``on_error="continue"`` both must commit the
same cubes with the same per-cube outcomes and identical data.

Raw store version integers are NOT compared between the two: the
versioned store's clock ticks in commit order, which legitimately
differs between parallel schedules.  What must match is everything
observable: which cubes committed, how many versions each has, and the
tuples inside.  One seeded plan run twice on one thread must agree on
the store versions too, and ``jobs=1`` runs subgraphs one at a time in
a topological order of the cube dependency graph.
"""

import pytest

from repro.engine import Dispatcher, EXLEngine, parse_fault_spec
from repro.workloads import random_workload

TARGET_CYCLE = ("sql", "r", "etl", "chase")
FAULT_SPEC = "*:transient:p=0.5:n=2;sql:permanent:p=0.15"
SEEDS = range(20)


def _engine_for(workload, jobs=1):
    engine = EXLEngine(jobs=jobs, backoff_s=0.001)
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
def test_jobs1_and_jobs4_commit_identical_state(seed):
    plan_spec = FAULT_SPEC
    workload = random_workload(seed=seed, n_statements=6)

    sequential = _engine_for(workload, jobs=1)
    seq_record = sequential.run(
        retries=3,
        on_error="continue",
        fault_plan=parse_fault_spec(plan_spec, seed=seed),
    )
    parallel = _engine_for(workload, jobs=4)
    par_record = parallel.run(
        retries=3,
        on_error="continue",
        fault_plan=parse_fault_spec(plan_spec, seed=seed),
    )

    seq_state = _observable_state(sequential, seq_record)
    par_state = _observable_state(parallel, par_record)
    assert par_state[0] == seq_state[0], f"outcomes diverge (seed {seed})"
    assert par_state[1] == seq_state[1], f"committed sets diverge (seed {seed})"
    assert par_state[2] == seq_state[2], f"version counts diverge (seed {seed})"
    assert par_state[3] == seq_state[3], f"cube data diverges (seed {seed})"


@pytest.mark.parametrize("seed", SEEDS)
def test_one_plan_run_twice_commits_identical_state(seed):
    workload = random_workload(seed=seed, n_statements=6)
    runs = []
    for _ in range(2):
        engine = _engine_for(workload)
        plan = parse_fault_spec(FAULT_SPEC, seed=seed)
        record = engine.run(retries=3, on_error="continue", fault_plan=plan)
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

    def spy(self, item, wave_span=None):
        assert not running, f"{item.subgraph.cubes} overlaps {running}"
        running.append(item.subgraph.cubes)
        started.append(item.subgraph.cubes)
        try:
            return original(self, item, wave_span)
        finally:
            running.pop()

    monkeypatch.setattr(Dispatcher, "_run_subgraph", spy)
    record = engine.run()
    assert record.complete
    assert started == [s.cubes for s in record.subgraphs]
    # every operand computed elsewhere was committed before its reader ran
    done = set(engine.catalog.elementary_names)
    for cubes in started:
        operands = {
            ref for cube in cubes for ref in engine.graph.operands[cube]
        }
        assert operands - set(cubes) <= done, f"{cubes} ran before an operand"
        done.update(cubes)
    assert done == set(engine.catalog.names())


def test_some_seed_actually_exercises_faults():
    """Guard against the plan silently never firing (e.g. after a
    grammar change): across the seeds above, faults must both fire and
    sometimes permanently fail a subgraph."""
    fired = failed = 0
    for seed in SEEDS:
        workload = random_workload(seed=seed, n_statements=6)
        engine = _engine_for(workload, jobs=1)
        plan = parse_fault_spec(FAULT_SPEC, seed=seed)
        record = engine.run(retries=3, on_error="continue", fault_plan=plan)
        fired += plan.total_injected
        failed += sum(1 for s in record.subgraphs if s.outcome == "failed")
    assert fired > 0
    assert failed > 0

"""EXP-FAULT-RECOVERY — overhead of fault-tolerant dispatch.

Two claims of the hardened dispatcher:

1. *Recovery overhead*: a run under a 30%-transient fault plan with
   ``retries=3`` commits exactly what a fault-free run commits, and the
   wall-clock cost of the faults (failed attempts + backoff) stays a
   small multiple of the clean run.
2. *Resume beats rerun*: after a partial failure, ``resume`` finishes
   only the uncommitted subgraphs and is cheaper than recomputing the
   whole program from scratch.

Both entries are gated by ``check_regression.py`` as *ceilings* (the
ratio must stay small): the 30%-transient run may cost at most 2x the
clean run, and resume may cost at most 0.3x of a full rerun.  The
ceilings are looser than quiet-machine measurements (~1.3x overhead,
~0.15x resume) so the gate catches structural regressions — retries
gone quadratic, resume re-dispatching committed subgraphs — without
flaking on shared CI runners.

One run takes 10-30 ms, so the overhead is not read off single runs:
each timed sample is ``SAMPLE_RUNS`` runs back to back, clean and
faulty samples alternate (which side goes first alternates too), and
the gated value is the median of the ``PAIRS`` per-pair ratios; the
report also records their interquartile range.  A resume (~3 ms) is
timed against a full rerun the same way, one of each per pair.
"""

import gc
import statistics
import time

from repro.engine import EXLEngine, FaultPlan, FaultRule
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, quarter

WIDTH = 8  # independent derived cubes per wave
PERIODS = 24
BACKOFF_S = 0.001  # keep retry sleeps out of the measurement's way
SAMPLE_RUNS = 8  # runs per timed overhead sample
PAIRS = 9  # alternating sample pairs behind each gated ratio
OVERHEAD_CEILING = 2.0  # faulty run vs clean run
RESUME_CEILING = 0.3  # resume vs full rerun


def _series(name):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


CHAIN_TARGETS = ("sql", "r", "etl", "chase")


def _build_engine(**kwargs):
    """WIDTH independent chains of depth 2 over one elementary series.

    Each chain is pinned to one target (cycling sql/r/etl/chase), so the
    partitioner yields WIDTH mutually independent subgraphs in one wave
    — a quarter of them on the "r" backend the resume benchmark kills."""
    engine = EXLEngine(jobs=4, backoff_s=BACKOFF_S, **kwargs)
    engine.declare_elementary(_series("E"))
    lines = []
    targets = {}
    for i in range(WIDTH):
        lines.append(f"A{i} := E * {i + 1}")
        lines.append(f"B{i} := A{i} + 1")
        targets[f"A{i}"] = targets[f"B{i}"] = CHAIN_TARGETS[
            i % len(CHAIN_TARGETS)
        ]
    engine.add_program("\n".join(lines), preferred_targets=targets)
    engine.load(
        Cube.from_series(
            _series("E"), quarter(2018, 1), [float(i) for i in range(PERIODS)]
        )
    )
    return engine


def _transient_plan(seed):
    return FaultPlan(
        [FaultRule(kind="transient", probability=0.3, first_n=3)], seed=seed
    )


def _sample(fn):
    """Wall time of ``SAMPLE_RUNS`` calls back to back."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(SAMPLE_RUNS):
        fn()
    return time.perf_counter() - t0


def test_recovery_overhead(bench_report):
    baseline = _build_engine()
    baseline.run()

    def clean_run():
        return _build_engine().run()

    def faulty_run():
        engine = _build_engine()
        record = engine.run(
            retries=3, on_error="continue", fault_plan=_transient_plan(3)
        )
        return engine, record

    clean_run(), faulty_run()  # warm-up: first-use imports and caches
    samples = {clean_run: [], faulty_run: []}
    for pair in range(PAIRS):
        order = (clean_run, faulty_run) if pair % 2 else (faulty_run, clean_run)
        for side in order:
            samples[side].append(_sample(side))
    engine, record = faulty_run()
    ratios = [f / c for f, c in zip(samples[faulty_run], samples[clean_run])]
    clean_s = statistics.median(samples[clean_run]) / SAMPLE_RUNS
    faulty_s = statistics.median(samples[faulty_run]) / SAMPLE_RUNS

    # the acceptance claim: full recovery, identical committed state
    assert record.complete and record.error is None
    names = [f"A{i}" for i in range(WIDTH)] + [f"B{i}" for i in range(WIDTH)]
    for name in names:
        assert engine.data(name).to_rows() == baseline.data(name).to_rows()
    retries = engine.metrics.value("dispatch.retries")
    assert retries > 0  # faults actually fired and were retried

    overhead = statistics.median(ratios)
    quartiles = statistics.quantiles(ratios, n=4)
    spread = quartiles[2] - quartiles[0]
    bench_report.record(
        "fault_recovery",
        "transient_30pct_overhead",
        {
            "clean_s": clean_s,
            "faulty_s": faulty_s,
            "overhead_x": overhead,
            "value": round(overhead, 3),
            "ceiling": OVERHEAD_CEILING,
            "spread": round(spread, 3),
            "pairs": PAIRS,
            "runs_per_sample": SAMPLE_RUNS,
            "retries": retries,
            "fault_probability": 0.3,
            "retry_budget": 3,
        },
    )
    print(
        f"\nclean {clean_s * 1e3:.1f}ms  faulty {faulty_s * 1e3:.1f}ms  "
        f"overhead {overhead:.2f}x  spread {spread:.2f}  ({retries} retries)"
    )
    assert overhead <= OVERHEAD_CEILING, (
        f"30% transient faults cost {overhead:.2f}x a clean run "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )


def test_resume_vs_full_rerun(bench_report):
    """Recovering via resume re-dispatches only the failed subgraphs."""
    fail_plan = [FaultRule(kind="permanent", target="r")]

    def partial_then_resume():
        engine = _build_engine()
        engine.run(
            on_error="continue", fault_plan=FaultPlan(fail_plan, seed=0)
        )
        gc.collect()
        t0 = time.perf_counter()
        record = engine.resume()
        return time.perf_counter() - t0, engine, record

    def full_rerun():
        gc.collect()
        t0 = time.perf_counter()
        _build_engine().run()
        return time.perf_counter() - t0

    partial_then_resume(), full_rerun()  # warm-up: first-use imports
    resumes, reruns = [], []
    for pair in range(PAIRS):
        if pair % 2:
            reruns.append(full_rerun())
        elapsed, engine, record = partial_then_resume()
        resumes.append(elapsed)
        if not pair % 2:
            reruns.append(full_rerun())
    resume_s = statistics.median(resumes)
    rerun_s = statistics.median(reruns)

    assert record.complete
    resumed_cubes = {cube for s in record.subgraphs for cube in s.cubes}
    all_cubes = {f"A{i}" for i in range(WIDTH)} | {
        f"B{i}" for i in range(WIDTH)
    }
    assert resumed_cubes < all_cubes  # strictly fewer than a full rerun
    for name in sorted(all_cubes):
        assert engine.catalog.has_data(name)

    ratio = statistics.median([r / f for r, f in zip(resumes, reruns)])
    bench_report.record(
        "fault_recovery",
        "resume_vs_rerun",
        {
            "resume_s": resume_s,
            "full_rerun_s": rerun_s,
            "resume_over_rerun_x": ratio,
            "value": round(ratio, 3),
            "ceiling": RESUME_CEILING,
            "pairs": PAIRS,
            "resumed_subgraphs": len(record.subgraphs),
            "total_cubes": len(all_cubes),
        },
    )
    print(
        f"\nresume {resume_s * 1e3:.1f}ms  rerun {rerun_s * 1e3:.1f}ms  "
        f"ratio {ratio:.2f}x  ({len(resumed_cubes)}/{len(all_cubes)} cubes)"
    )
    assert ratio <= RESUME_CEILING, (
        f"resume cost {ratio:.2f}x of a full rerun "
        f"(ceiling {RESUME_CEILING}x)"
    )

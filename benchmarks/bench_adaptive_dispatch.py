"""EXP-ADAPTIVE — cost-based adaptive dispatch on a mixed corpus.

The setup makes the paper's static target assignment *wrong* for half
of the subgraphs: WIDTH independent two-statement chains are pinned
round-robin across four backends, and an injected per-attempt stall (a
``hang`` fault with a short delay) makes two of those backends (sql, r) an order of magnitude slower than
the rest.  A static plan has no way to know this — the technical
metadata is identical — so 4 of 8 subgraphs run on a slow backend.
The adaptive dispatcher measures clean attempt times, learns the skew
within one cold-start run, and re-routes every subgraph to the fast
tier.

Two gates (both in ``check_regression.py``'s REQUIRED manifest):

* *adaptive vs worst-case static* — a plan that statically lands every
  subgraph on the slow tier.  Adaptive must be at least **1.3x**
  faster (measured ~4-5x; the floor is loose for shared CI runners).
* *adaptive vs oracle-best static* — every subgraph pinned to the fast
  tier up front.  Adaptive may cost at most **1.1x** of the oracle:
  its overhead is one cost-model lookup plus one re-translation per
  re-routed subgraph, which must stay marginal.

All three plans must keep the same 8-subgraph structure: the
partitioner merges *contiguous same-target* cubes, so pinning every
chain to one backend would collapse the plan to a single subgraph and
the comparison would conflate dispatch count with target choice.  The
worst/oracle assignments therefore cycle within their tier (consecutive
chains always differ in target), exactly like the mixed assignment.

A correctness claim rides along: the adaptive run commits tuples
identical to the oracle run — re-routing changes *where* a subgraph
executes, never *what* it commits.
"""

import time

from repro.engine import CostModel, EXLEngine, FaultPlan, FaultRule
from repro.model import TIME, Cube, CubeSchema, Dimension, Frequency, quarter

WIDTH = 8  # independent pinned chains = subgraphs per run
PERIODS = 24
REPEATS = 3
BASE_DELAY_S = 0.03  # every attempt pays this — the "real work" floor
SLOW_DELAY_S = 0.12  # extra cost of the secretly-slow backends
SLOW_TARGETS = ("sql", "r")
FAST_TARGETS = ("matlab", "etl", "chase")
MIXED_TARGETS = ("sql", "r", "etl", "chase")  # the static default: 50% slow
WORST_FLOOR = 1.3  # adaptive must beat worst-case static by this
ORACLE_CEILING = 1.1  # ...while costing at most this vs oracle-best


def _series(name):
    return CubeSchema(name, [Dimension("q", TIME(Frequency.QUARTER))], "v")


def _delay_plan():
    """Every backend costs BASE_DELAY_S per attempt; sql and r cost
    SLOW_DELAY_S more.  The stalls fire *inside* the attempt, so they
    land in the clean per-attempt timings the cost model learns from."""
    rules = [FaultRule(kind="hang", delay_s=BASE_DELAY_S)]
    rules += [
        FaultRule(target=t, kind="hang", delay_s=SLOW_DELAY_S)
        for t in SLOW_TARGETS
    ]
    return FaultPlan(rules)


def _build_engine(chain_targets, **kwargs):
    """WIDTH independent depth-2 chains over one elementary series,
    chain i pinned to ``chain_targets[i % len(chain_targets)]``; each
    run passes ``fault_plan=_delay_plan()``."""
    engine = EXLEngine(**kwargs)
    engine.declare_elementary(_series("E"))
    lines = []
    targets = {}
    for i in range(WIDTH):
        lines.append(f"A{i} := E * {i + 1}")
        lines.append(f"B{i} := A{i} + 1")
        targets[f"A{i}"] = targets[f"B{i}"] = chain_targets[
            i % len(chain_targets)
        ]
    engine.add_program("\n".join(lines), preferred_targets=targets)
    engine.load(
        Cube.from_series(
            _series("E"), quarter(2018, 1), [float(i) for i in range(PERIODS)]
        )
    )
    return engine


def _wall(fn, repeats=REPEATS):
    """Best-of-N wall time plus the last call's return value."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_adaptive_beats_worst_and_tracks_oracle(bench_report):
    # train the model: one cold-start run measures all four static
    # targets plus the explored fifth; the second run stabilizes EWMAs
    cost_model = CostModel()
    for _ in range(2):
        engine = _build_engine(
            MIXED_TARGETS, adaptive=True, cost_model=cost_model
        )
        record = engine.run(fault_plan=_delay_plan())
        assert record.complete and len(record.subgraphs) == WIDTH

    def adaptive_run():
        engine = _build_engine(
            MIXED_TARGETS, adaptive=True, cost_model=cost_model
        )
        return engine, engine.run(fault_plan=_delay_plan())

    adaptive_s, (adaptive_engine, adaptive_record) = _wall(adaptive_run)
    worst_s, (_, worst_record) = _wall(
        lambda: (None, _build_engine(SLOW_TARGETS).run(fault_plan=_delay_plan()))
    )
    oracle_s, (oracle_engine, oracle_record) = _wall(
        lambda: (
            e := _build_engine(FAST_TARGETS), e.run(fault_plan=_delay_plan())
        )
    )

    # all three plans really dispatched the same 8-subgraph structure
    for record in (adaptive_record, worst_record, oracle_record):
        assert record.complete and len(record.subgraphs) == WIDTH

    # the static default is wrong for half the corpus — above the >=30%
    # the experiment claims — and the trained model re-routes all of it
    wrong_static = sum(
        1 for s in adaptive_record.subgraphs if s.target in SLOW_TARGETS
    )
    assert wrong_static / WIDTH >= 0.3
    assert all(
        s.chosen_target not in SLOW_TARGETS
        for s in adaptive_record.subgraphs
    )
    assert adaptive_engine.metrics.value("dispatch.cost.hits") >= 1

    # re-routing changes where subgraphs run, never what they commit
    for i in range(WIDTH):
        for name in (f"A{i}", f"B{i}"):
            assert (
                adaptive_engine.data(name).to_rows()
                == oracle_engine.data(name).to_rows()
            )

    speedup = worst_s / adaptive_s if adaptive_s > 0 else float("inf")
    overhead = adaptive_s / oracle_s if oracle_s > 0 else float("inf")
    bench_report.record(
        "adaptive_dispatch",
        "vs_worst_static",
        {
            "adaptive_s": adaptive_s,
            "worst_static_s": worst_s,
            "speedup": round(speedup, 3),
            "floor": WORST_FLOOR,
            "subgraphs": WIDTH,
            "wrong_static_fraction": wrong_static / WIDTH,
        },
    )
    bench_report.record(
        "adaptive_dispatch",
        "vs_oracle_static",
        {
            "adaptive_s": adaptive_s,
            "oracle_s": oracle_s,
            "overhead_x": overhead,
            "value": round(overhead, 3),
            "ceiling": ORACLE_CEILING,
        },
    )
    print(
        f"\nadaptive {adaptive_s * 1e3:.0f}ms  worst-static "
        f"{worst_s * 1e3:.0f}ms  oracle {oracle_s * 1e3:.0f}ms  "
        f"speedup {speedup:.2f}x  overhead {overhead:.3f}x"
    )
    assert speedup >= WORST_FLOOR, (
        f"adaptive is only {speedup:.2f}x faster than worst-case static "
        f"(floor {WORST_FLOOR}x)"
    )
    assert overhead <= ORACLE_CEILING, (
        f"adaptive costs {overhead:.3f}x the oracle-best static plan "
        f"(ceiling {ORACLE_CEILING}x)"
    )

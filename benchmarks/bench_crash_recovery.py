"""EXP-CRASH — cost of the write-ahead journal and of crash recovery.

Two claims of the durability layer (DESIGN §12):

1. *Journal overhead*: a journaled ``exl run`` (one WAL append and one
   fsync per committed subgraph, the record carrying the cubes' bytes)
   stays within a small factor of ``--no-journal`` on the 120k-tuple
   workload; both take the same epilogue.  The canonical text carried
   on each cube means the epilogue reuses the commit-time
   serialization, so the journal largely pays for itself.
2. *Recovery beats rerun*: after a crash that lands late in a
   compute-heavy run, ``recover`` (journal replay, checksum
   verification of the bytes each commit record carries, snapshots
   written out for ``resume``) plus ``resume`` (re-dispatch of only the
   unfinished subgraphs) costs a small fraction of rerunning the whole
   program.

Both entries are gated by ``check_regression.py`` as *ceilings*: the
journaled run may cost at most 1.15x the unjournaled one, and recovery
at most 0.3x of a full rerun.  The journal's overhead is the median
ratio of ``JOURNAL_PAIRS`` pairs of runs, which side goes first
alternating: one pair's ratio moves by ±0.1 from run to run, most of
the gap to the ceiling.  The ceilings are looser than
quiet-machine measurements (~1.0x overhead, ~0.15x recovery) so the
gate catches structural regressions — the epilogue re-serializing
committed cubes, recovery re-dispatching committed subgraphs —
without flaking on shared CI runners.
"""

import json
import statistics
import time

from repro.cli import _build_engine, load_project
from repro.cli import main as cli_main
from repro.engine import FaultPlan, FaultRule, RunDirectory, RunJournal
from repro.model import quarter

JOURNAL_PERIODS = 600  # x 200 regions = 120k tuples (the PR-6 workload)
JOURNAL_REGIONS = 200
RECOVERY_PERIODS = 300  # x 100 regions = 30k tuples, compute-heavy
RECOVERY_REGIONS = 100
JOURNAL_PAIRS = 3  # journaled / --no-journal run pairs
OVERHEAD_CEILING = 1.15  # journaled run vs --no-journal
RECOVERY_CEILING = 0.3  # recover + resume vs full rerun

TARGETS = ("sql", "r", "matlab", "etl", "chase")

# Arithmetic-heavy expression: recovery's payoff is skipping committed
# compute, so the four committed subgraphs do real work while the
# crashed one (plain chase) stays cheap — the "crash near the end of a
# long run" shape recovery exists for.
HEAVY = "(E * 2 + E * 3 - E / 4) * (E + 1) / (E * 5 - E + 2) + E * 7 - E / 8"


def _write_inputs(root, periods, regions, program, preferred_targets):
    rows = ["q,r,v"]
    q0 = quarter(1900, 1)
    for p in range(periods):
        for r in range(regions):
            rows.append(f"{q0 + p},{r:03d},{float(p + r) + 1.0}")
    (root / "e.csv").write_text("\n".join(rows) + "\n")
    project = root / "project.json"
    project.write_text(
        json.dumps(
            {
                "elementary": [
                    {
                        "name": "E",
                        "dimensions": [["q", "time:Q"], ["r", "string"]],
                        "measure": "v",
                        "csv": "e.csv",
                    }
                ],
                "program": program,
                "preferred_targets": preferred_targets,
                "outputs": ["A0"],
            }
        )
    )
    return project


def test_journal_overhead(bench_report, tmp_path):
    """Journaled run vs --no-journal on 120k tuples, same program."""
    program = "\n".join(
        f"A{i} := E * {i + 2}" for i in range(3)
    )
    targets = {f"A{i}": TARGETS[i] for i in range(3)}
    project = _write_inputs(
        tmp_path, JOURNAL_PERIODS, JOURNAL_REGIONS, program, targets
    )

    def timed_run(out_name, *flags):
        out = tmp_path / out_name
        t0 = time.perf_counter()
        code = cli_main(
            ["run", str(project), "--out", str(out), *flags]
        )
        assert code == 0
        return time.perf_counter() - t0, out

    ratios, plain_times, journaled_times = [], [], []
    for pair in range(JOURNAL_PAIRS):
        if pair % 2:
            journaled_s, journaled_out = timed_run(f"journaled{pair}")
            plain_s, plain_out = timed_run(f"plain{pair}", "--no-journal")
        else:
            plain_s, plain_out = timed_run(f"plain{pair}", "--no-journal")
            journaled_s, journaled_out = timed_run(f"journaled{pair}")
        ratios.append(journaled_s / plain_s)
        plain_times.append(plain_s)
        journaled_times.append(journaled_s)

    # identical outputs, and the journal cleaned up after itself
    assert (journaled_out / "A0.csv").read_bytes() == (
        plain_out / "A0.csv"
    ).read_bytes()
    assert sorted(p.name for p in journaled_out.iterdir()) == sorted(
        p.name for p in plain_out.iterdir()
    )

    overhead = statistics.median(ratios)
    plain_s = statistics.median(plain_times)
    journaled_s = statistics.median(journaled_times)
    tuples = JOURNAL_PERIODS * JOURNAL_REGIONS
    bench_report.record(
        "crash_recovery",
        "journal_overhead",
        {
            "plain_s": plain_s,
            "journaled_s": journaled_s,
            "overhead_x": overhead,
            "value": round(overhead, 3),
            "ceiling": OVERHEAD_CEILING,
            "pairs": JOURNAL_PAIRS,
            "tuples": tuples,
            "fsync": True,
        },
    )
    print(
        f"\nno-journal {plain_s:.2f}s  journaled {journaled_s:.2f}s  "
        f"overhead {overhead:.2f}x  ({tuples} tuples)"
    )
    assert overhead <= OVERHEAD_CEILING, (
        f"journal+fsync cost {overhead:.2f}x an unjournaled run "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )


def test_recovery_vs_full_rerun(bench_report, tmp_path):
    """recover + resume after a late crash vs rerunning everything."""
    program = "\n".join(
        f"A{i} := {HEAVY}" for i in range(4)
    ) + "\nA4 := E * 2"
    targets = {f"A{i}": TARGETS[i] for i in range(5)}
    project_file = _write_inputs(
        tmp_path, RECOVERY_PERIODS, RECOVERY_REGIONS, program, targets
    )

    full_out = tmp_path / "full"
    t0 = time.perf_counter()
    assert cli_main(["run", str(project_file), "--out", str(full_out)]) == 0
    full_s = time.perf_counter() - t0

    # Manufacture the crash: run in-process with a journal, fail the
    # cheap chase subgraph, then drop the process state on the floor
    # (journal closed, no run-state.json persisted) — the on-disk
    # picture a SIGKILL after the fourth commit leaves behind.
    crashed_out = tmp_path / "crashed"
    journal = RunJournal(crashed_out)
    project = load_project(str(project_file))
    engine = _build_engine(project, journal=journal)
    engine.run(
        on_error="continue",
        fault_plan=FaultPlan([FaultRule(kind="permanent", cubes=("A4",))]),
    )
    journal.close()
    # crash artifacts: the journal, and nothing else yet
    assert [p.name for p in crashed_out.iterdir()] == ["journal"]

    t0 = time.perf_counter()
    report = RunDirectory(crashed_out).recover()
    assert report.status == "resumable"
    assert (
        cli_main(["resume", str(project_file), "--out", str(crashed_out)])
        == 0
    )
    recovery_s = time.perf_counter() - t0

    # tuple-for-tuple convergence with the uninterrupted run, and its
    # end state: no journal, no state file, no snapshots
    assert (crashed_out / "A0.csv").read_bytes() == (
        full_out / "A0.csv"
    ).read_bytes()
    assert sorted(p.name for p in crashed_out.iterdir()) == sorted(
        p.name for p in full_out.iterdir()
    )

    ratio = recovery_s / full_s if full_s > 0 else float("inf")
    bench_report.record(
        "crash_recovery",
        "recovery_vs_rerun",
        {
            "full_rerun_s": full_s,
            "recovery_s": recovery_s,
            "recovery_over_rerun_x": ratio,
            "value": round(ratio, 3),
            "ceiling": RECOVERY_CEILING,
            "committed_subgraphs": len(report.committed),
            "unfinished_subgraphs": len(report.unfinished),
            "tuples": RECOVERY_PERIODS * RECOVERY_REGIONS,
        },
    )
    print(
        f"\nfull rerun {full_s:.2f}s  recover+resume {recovery_s:.2f}s  "
        f"ratio {ratio:.2f}x  ({len(report.committed)} committed / "
        f"{len(report.unfinished)} unfinished)"
    )
    assert ratio <= RECOVERY_CEILING, (
        f"recovery cost {ratio:.2f}x of a full rerun "
        f"(ceiling {RECOVERY_CEILING}x)"
    )

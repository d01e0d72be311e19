#!/usr/bin/env python3
"""Pipeline benchmark: what a user of the ``exl`` CLI pays, in absolute terms.

    python3 benchmarks/pipeline/run.py                      # all workloads, all metrics
    python3 benchmarks/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/pipeline/run.py --quick              # tiny, not comparable
    python3 benchmarks/pipeline/run.py --selfcheck          # two passes must agree
    python3 benchmarks/pipeline/run.py --write-manifest     # regenerate BENCHMARK.json

A closed loop of one client: one ``python -m repro`` child at a time,
default engine flags.  A *cycle* is pristine inputs -> ``exl run`` ->
1 % revision -> ``exl update`` -> three ``exl query`` calls (cold
roll-up, the same roll-up warm, a warm point lookup); every output is
checked against :mod:`reference`.  A timing is each call's fastest
sample over the cycles.  README.md beside this file has the metric
definitions and the protocol.

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: the traced cycle's Chrome trace and flat layer table (git-ignored)
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans as span_tools  # noqa: E402
import workloads  # noqa: E402

#: how long one run measures.  The driver gives 48 runs (4 + 22 x 2
#: workloads) 3420 s, ~71 s each: five set-ups (1-1.5 s each), 50 s of
#: cycles (9-11; the last one ends after the deadline) and, in the
#: traced runs, one more cycle
RUN_SECONDS = 50
MIN_CYCLES = 3
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
OP_TIMEOUT_S = 90.0

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_wall_s", "s", "lower", 0.25),
    ("update_wall_s", "s", "lower", 0.25),
    ("query_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("rundir_bytes_per_input_byte", "ratio", "lower", 0.08),
]

OPS = ("run", "update", "query")

#: span name -> metric stem, for the layers every op passes through
COMMON_LAYERS = {
    span_tools.STARTUP: "proc.startup",
    "cli": "cli.self",
    "model.io.read": "model.io.read",
    "model.io.write": "model.io.write",
    "exl.compile": "exl.compile",
    "mappings.generate": "mappings.generate",
    "engine.determination": "engine.determination",
    "engine.translation": "engine.translation",
    "engine.dispatcher": "engine.dispatcher.self",
    "backends.sql.run_mapping": "backends.sql.run_mapping",
    "backends.r.run_mapping": "backends.r.run_mapping",
    "backends.matlab.run_mapping": "backends.matlab.run_mapping",
    "backends.etl.run_mapping": "backends.etl.run_mapping",
    "backends.chase.run_mapping": "backends.chase.run_mapping",
    "engine.journal": "engine.journal",
    "chase.atomic.write": "chase.atomic.write",
    "chase.persist.store_write": "chase.persist.store_write",
    "chase.persist.store_attach": "chase.persist.store_attach",
}
#: a query dispatches nothing and journals nothing: only these can move
QUERY_LAYERS = {
    **{k: COMMON_LAYERS[k] for k in (
        span_tools.STARTUP, "cli", "model.io.read", "exl.compile",
        "chase.atomic.write", "chase.persist.store_attach")},
    "olap.lattice.build": "olap.lattice.build",
    "chase.persist.lattice_write": "chase.persist.lattice_write",
    "chase.persist.lattice_attach": "chase.persist.lattice_attach",
    "olap.query.answer": "olap.query.answer",
}
#: exact counts of one cycle; (name, better).  The two byte totals are
#: listed apart: run records embed durations as text, so they differ by a
#: few bytes between identical runs and are not held to repeat exactly
BYTE_TOTALS = ("chase.atomic.bytes_written", "rundir.bytes")
COUNTS = [
    ("model.io.rows_read", "lower"),
    ("model.io.rows_written", "lower"),
    ("chase.atomic.writes", "lower"),
    ("chase.atomic.fsyncs", "lower"),
    ("chase.atomic.bytes_written", "lower"),
    ("engine.journal.records", "lower"),
    ("engine.subgraphs", "lower"),
    ("mappings.tgds", "lower"),
    ("backends.tuples_out", "lower"),
    ("update.delta.tgds_incremental", "higher"),
    ("update.delta.tgds_fallback", "lower"),
    ("chase.persist.attach_attempts", "lower"),
    ("chase.persist.attach_hits", "higher"),
    ("olap.lattice.nodes", "lower"),
    ("olap.lattice.groups", "lower"),
    ("rundir.files", "lower"),
    ("rundir.bytes", "lower"),
]


def per_layer_table() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in print order."""
    table = []
    for op in OPS:
        layers = QUERY_LAYERS if op == "query" else COMMON_LAYERS
        table += [(f"{op}.{stem}_s", "s", "lower") for stem in layers.values()]
    table += [(f"query.{q}_s", "s", "lower") for q in ("cold", "warm_rollup", "warm_point")]
    table += [(name, "bytes" if name in BYTE_TOTALS else "count", better)
              for name, better in COUNTS]
    table += [("trace.overhead_s", "s", "lower"), ("trace.unattributed_s", "s", "lower")]
    return table


def manifest() -> dict:
    """``BENCHMARK.json``: built from the tables above so the file and
    the code cannot disagree (``test_smoke.py`` compares them)."""
    return {
        "command": ["python3", "benchmarks/pipeline/run.py"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, why) in workloads.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer_table()
        ],
    }


# -- one CLI call ------------------------------------------------------------


@dataclass
class Call:
    op: str  # run / update / query
    label: str  # run / update / cold / warm_rollup / warm_point
    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: Optional[str] = None
    stdout: str = ""
    spans_path: Optional[Path] = None


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(call: Call, exl_argv: List[str], scratch: Path, traced: bool) -> Call:
    """Run one ``exl`` call in a fresh child and wait for it.

    Wall is ``perf_counter`` around spawn -> exit; the child's own
    ``ru_maxrss`` comes from ``os.wait4`` (``RUSAGE_CHILDREN`` would be
    the maximum over every child so far).
    """
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    # flush what the parent and earlier calls left dirty (copied inputs,
    # the removed previous cycle), so this call's fsyncs pay only for
    # its own writes: without it run/update samples of one run differ
    # by +-15 %, with it by +-3 %
    os.sync()
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        start = time.perf_counter()
        if traced:
            call.spans_path = scratch / f"spans-{call.label}.json"
            argv = [sys.executable, str(HERE / "traced_op.py"), str(call.spans_path),
                    repr(start), call.op, "--", *exl_argv]
        else:
            argv = [sys.executable, "-m", "repro", *exl_argv]
        pid = os.posix_spawn(
            sys.executable, argv, child_env(),
            file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                          (os.POSIX_SPAWN_DUP2, err_fd, 2)],
        )
        killer = threading.Timer(OP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
        call.wall_s = time.perf_counter() - start
    finally:
        os.close(out_fd)
        os.close(err_fd)
    call.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    call.stdout = out_path.read_text()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        reason = "timed out" if code == -signal.SIGKILL else f"exit code {code}"
        call.error = f"{reason}: {err_path.read_text()[-400:].strip()}"
    return call


# -- oracle ------------------------------------------------------------------


class Oracle:
    """What every output of a cycle must be, from :mod:`reference`."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        input_dims = {spec["name"]: workload.dims_of(spec["name"])
                      for spec in workload.elementary}
        self.expected = {}
        for phase, inputs in (("run", workload.pristine), ("update", workload.revised)):
            derived, self.dims = reference.evaluate(
                workload.statements, inputs, input_dims
            )
            self.expected[phase] = derived
        # the session runs after the update: answers come from revised data
        cubes = {**workload.revised, **self.expected["update"]}
        self.answers = {}
        for query in workload.session:
            data, dims = cubes[query.cube], self.dims[query.cube]
            if query.point:
                self.answers[query.name] = data[tuple(v for _, v in query.point)]
            else:
                self.answers[query.name] = reference.rollup_answer(
                    data, dims, dict(query.levels),
                    workload.groupings.get(query.cube, {}),
                )
        #: (phase, cube, sha256) already compared: a byte-identical file
        #: in a later cycle is not parsed again
        self._verified = set()

    def check_outputs(self, phase: str, out_dir: Path) -> Optional[str]:
        for name, expected in self.expected[phase].items():
            path = out_dir / f"{name}.csv"
            try:
                raw = path.read_bytes()
            except OSError as exc:
                return f"{name}: {exc}"
            token = (phase, name, hashlib.sha256(raw).hexdigest())
            if token in self._verified:
                continue
            dim_names = [d for d, _ in self.dims[name]]
            try:
                got = reference.read_csv_cube(raw.decode("utf-8"), dim_names)
            except ValueError as exc:
                return f"{name}: {exc}"
            difference = reference.compare_cubes(name, got, expected)
            if difference:
                return difference
            self._verified.add(token)
        return None

    def check_answer(self, query: workloads.Query, stdout: str) -> Optional[str]:
        expected = self.answers[query.name]
        try:
            if query.point:
                got, expected = {(): float(stdout.strip())}, {(): expected}
            else:
                got = reference.parse_rollup_text(stdout)
        except ValueError as exc:
            return f"{query.name}: unreadable answer ({exc})"
        return reference.compare_cubes(
            query.name, got, expected, rel_tol=reference.PRINTED_REL_TOL
        )


# -- one cycle ---------------------------------------------------------------


@dataclass
class Cycle:
    calls: List[Call] = field(default_factory=list)
    rundir_bytes: int = 0
    rundir_files: int = 0
    input_bytes: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for call in self.calls if call.error)


def run_cycle(oracle: Oracle, work: Path, traced: bool = False,
              only_run: bool = False) -> Cycle:
    """One cycle in ``work/cycle``; ``only_run`` stops after ``exl run``
    (a set-up's warm-up).  A failed call ends the cycle."""
    workload = oracle.workload
    cycle_dir = work / "cycle"
    if cycle_dir.exists():
        shutil.rmtree(cycle_dir)
    project_dir = cycle_dir / "project"
    shutil.copytree(work / "inputs" / "pristine", project_dir)
    out_dir = cycle_dir / "out"
    project = str(project_dir / "project.json")
    cycle = Cycle()

    def attempt(op: str, label: str, argv: List[str], check) -> bool:
        call = spawn(Call(op, label), argv, cycle_dir, traced)
        if call.error is None:
            call.error = check(call)
        cycle.calls.append(call)
        return call.error is None

    if not attempt("run", "run", ["run", project, "--out", str(out_dir)],
                   lambda call: oracle.check_outputs("run", out_dir)) or only_run:
        return cycle
    for csv_path in (work / "inputs" / "revised").glob("*.csv"):
        shutil.copyfile(csv_path, project_dir / csv_path.name)
        cycle.input_bytes += csv_path.stat().st_size
    if not attempt("update", "update", ["update", project, "--out", str(out_dir)],
                   lambda call: oracle.check_outputs("update", out_dir)):
        return cycle
    for query in workload.session:
        if not attempt("query", query.name,
                       ["query", project, *query.argv(), "--out", str(out_dir)],
                       lambda call, query=query: oracle.check_answer(query, call.stdout)):
            return cycle
    for path in out_dir.rglob("*"):
        if path.is_file():
            cycle.rundir_files += 1
            cycle.rundir_bytes += path.stat().st_size
    return cycle


# -- one workload ------------------------------------------------------------


#: the five calls of a cycle -> the name their samples go by
CALL_METRICS = {
    "run": "run_wall_s",
    "update": "update_wall_s",
    "cold": "query.cold_s",
    "warm_rollup": "query.warm_rollup_s",
    "warm_point": "query.warm_point_s",
}
SESSION = ("query.cold_s", "query.warm_rollup_s", "query.warm_point_s")


@dataclass
class Result:
    workload: str
    sizes: Dict[str, int]
    cycles: int
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    #: the samples behind each number: one per set-up, or per cycle and call
    samples: Dict[str, List[float]]
    errors: List[str]


def fastest(samples: Dict[str, List[float]], errors: List[str]) -> Dict[str, float]:
    """Each call's fastest successful sample over the timed cycles.

    On a shared host interference only ever adds time, in bursts of
    seconds to minutes, so the minimum is the estimate it spoils least:
    across repeated runs it moved half as much as the median.  It is
    taken per call, not per cycle, so one slow call does not spoil the
    cycle's four others.
    """
    for metric in CALL_METRICS.values():
        if not samples[metric]:
            raise SystemExit(f"no successful sample of {metric}: {'; '.join(errors)}")
    return {metric: min(samples[metric]) for metric in CALL_METRICS.values()}


def traced_metrics(traced: Cycle, untraced: Dict[str, float],
                   workload: str) -> Dict[str, float]:
    calls = [span_tools.load_call(call.spans_path, call.label, call.wall_s)
             for call in traced.calls]
    metrics: Dict[str, float] = {}
    layers = span_tools.by_op(calls)
    for op in OPS:
        table = QUERY_LAYERS if op == "query" else COMMON_LAYERS
        for span_name, stem in table.items():
            metrics[f"{op}.{stem}_s"] = layers[op].get(span_name, 0.0)
    for metric in SESSION:
        metrics[metric] = untraced[metric]
    counts = span_tools.total_counts(calls)
    by_label = {call.label: call for call in traced.calls}
    run_summary = re.search(r"in (\d+) subgraphs", by_label["run"].stdout)
    counts["engine.subgraphs"] = int(run_summary.group(1)) if run_summary else 0
    delta = re.search(r"tgds: (\d+) dirty / (\d+) clean / (\d+) fallback",
                      by_label["update"].stdout)
    counts["update.delta.tgds_incremental"] = int(delta.group(1)) if delta else 0
    counts["update.delta.tgds_fallback"] = int(delta.group(3)) if delta else 0
    counts["rundir.files"] = traced.rundir_files
    counts["rundir.bytes"] = traced.rundir_bytes
    for name, _ in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["trace.overhead_s"] = (sum(c.wall_s for c in traced.calls)
                                   - sum(untraced.values()))
    metrics["trace.unattributed_s"] = sum(
        layers[op].get(span_tools.UNATTRIBUTED, 0.0) for op in OPS
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    span_tools.write_chrome_trace(calls, RESULTS / f"{workload}.trace.json")
    span_tools.write_flat_table(calls, RESULTS / f"{workload}.layers.txt")
    return metrics


def set_up(name: str, seed: int, quick: bool, work: Path) -> Oracle:
    """One set-up: generate the inputs and their revision, compute the
    oracle, write the inputs, and warm up with one checked ``exl run``."""
    workload = workloads.generate(name, seed, quick)
    oracle = Oracle(workload)
    if work.exists():
        shutil.rmtree(work)
    workloads.write_inputs(workload, work / "inputs" / "pristine")
    workloads.write_inputs(workload, work / "inputs" / "revised", revised=True)
    warmup = run_cycle(oracle, work, only_run=True)
    if warmup.failed:
        raise SystemExit(f"{name}: warm-up failed: {warmup.calls[0].error}")
    return oracle


def bench_workload(name: str, seed: int, seconds: float, cycles: Optional[int],
                   trace: bool, quick: bool) -> Result:
    """Set up ``SETUPS`` times, time cycles for ``seconds`` (or exactly
    ``cycles``), then one traced cycle when ``trace``."""
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    try:
        samples: Dict[str, List[float]] = {"setup_s": []}
        for _ in range(1 if quick else SETUPS):
            start = time.perf_counter()
            oracle = set_up(name, seed, quick, work)
            samples["setup_s"].append(time.perf_counter() - start)
        attempted = len(samples["setup_s"])

        timed: List[Cycle] = []
        deadline = time.perf_counter() + seconds

        def measured_enough() -> bool:
            if cycles is not None:
                return len(timed) >= cycles
            return len(timed) >= MIN_CYCLES and time.perf_counter() >= deadline

        while not measured_enough():
            timed.append(run_cycle(oracle, work))
        traced = run_cycle(oracle, work, traced=True) if trace else None

        failed = 0
        errors: List[str] = []
        for cycle in timed + ([traced] if traced else []):
            attempted += len(cycle.calls)
            failed += cycle.failed
            errors += [f"{c.label}: {c.error}" for c in cycle.calls if c.error]
        # a failed operation's time is not a sample
        samples.update({
            metric: [c.wall_s for cycle in timed for c in cycle.calls
                     if c.label == label and not c.error]
            for label, metric in CALL_METRICS.items()
        })
        complete = [c for c in timed if c.failed == 0]
        samples["peak_rss_mb"] = [max(c.rss_mb for c in cycle.calls) for cycle in complete]
        samples["rundir_bytes_per_input_byte"] = [
            cycle.rundir_bytes / cycle.input_bytes for cycle in complete
        ]
        untraced = fastest(samples, errors)
        end_to_end = {
            "setup_s": statistics.median(samples["setup_s"]),
            "run_wall_s": untraced["run_wall_s"],
            "update_wall_s": untraced["update_wall_s"],
            "query_wall_s": sum(untraced[metric] for metric in SESSION),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "rundir_bytes_per_input_byte": statistics.median(
                samples["rundir_bytes_per_input_byte"]),
        }
        per_layer: Dict[str, float] = {}
        if traced is not None:
            if traced.failed:
                raise SystemExit(f"{name}: traced cycle failed: {errors}")
            per_layer = traced_metrics(traced, untraced, name)
        return Result(name, oracle.workload.sizes, len(timed), attempted, failed,
                      end_to_end, per_layer, samples, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- reporting ---------------------------------------------------------------

UNITS = {n: u for n, u, _, _ in END_TO_END}
UNITS.update({n: u for n, u, _ in per_layer_table()})


def print_result(result: Result, quick: bool) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in result.sizes.items())
    note = "  [--quick: tiny sizes, not comparable]" if quick else ""
    print(f"== {result.workload} ({sizes}; {result.cycles} timed cycles){note}")
    print(f"   ops_attempted {result.attempted}   ops_failed {result.failed}")
    for error in result.errors:
        print(f"   FAILED {error}")
    for metric, values in result.samples.items():
        if metric.endswith("_s"):
            print(f"   samples {metric:<36}" + " ".join(f"{v:.4f}" for v in values))
    for name, value in {**result.end_to_end, **result.per_layer}.items():
        shown = f"{value:.0f}" if UNITS[name] in ("count", "bytes") else f"{value:.6f}"
        print(f"   {name:<44}{shown:>16} {UNITS[name]}")


def contract_line(result: Result, trace: bool) -> str:
    values = result.per_layer if trace else result.end_to_end
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()},
    })


def selfcheck(seed: int, seconds: float, cycles: Optional[int]) -> int:
    """Two passes of the whole benchmark, back to back, must agree within
    each end-to-end bound and on every exact count."""
    passes = []
    for _ in range(2):
        passes.append({
            name: bench_workload(name, seed, seconds, cycles, True, False)
            for name in workloads.WORKLOADS
        })
    bounds = {n: bound for n, _, _, bound in END_TO_END}
    count_names = [n for n, _ in COUNTS if n not in BYTE_TOTALS]
    bad = 0
    print(f"{'workload':<15}{'metric':<30}{'pass 1':>12}{'pass 2':>12}{'diff':>9}{'bound':>8}")
    for name in workloads.WORKLOADS:
        first, second = passes[0][name], passes[1][name]
        for metric, bound in bounds.items():
            a, b = first.end_to_end[metric], second.end_to_end[metric]
            diff = abs(b - a) / min(a, b)
            verdict = "" if diff <= bound else "  EXCEEDS"
            bad += diff > bound
            print(f"{name:<15}{metric:<30}{a:>12.4f}{b:>12.4f}{diff:>9.2%}{bound:>8.0%}{verdict}")
        for metric in count_names:
            if first.per_layer[metric] != second.per_layer[metric]:
                bad += 1
                print(f"{name:<15}{metric:<30}{first.per_layer[metric]:>12.0f}"
                      f"{second.per_layer[metric]:>12.0f}  COUNT DIFFERS")
        bad += first.failed + second.failed
    print("\nper-cycle samples (pass 1): quartiles, IQR as a share of the median")
    for name, result in passes[0].items():
        for metric in CALL_METRICS.values():
            values = result.samples[metric]
            if len(values) >= 2:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                print(f"{name:<15}{metric:<30}{q1:>10.4f}{q2:>10.4f}{q3:>10.4f}"
                      f"{(q3 - q1) / q2:>9.2%}  n={len(values)}")
    print("selfcheck", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long to time cycles for (default %(default)s)")
    parser.add_argument("--cycles", type=int,
                        help="time exactly this many cycles instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: which metric set the JSON line carries")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one set-up, one cycle: not comparable")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    cycles = 1 if args.quick else args.cycles
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, cycles)
    if args.workload:
        trace = bool(args.trace)
        result = bench_workload(args.workload, args.seed, args.seconds, cycles,
                                trace, args.quick)
        print_result(result, args.quick)
        print(contract_line(result, trace))
        return 0
    for name in workloads.WORKLOADS:
        result = bench_workload(name, args.seed, args.seconds, cycles, True,
                                args.quick)
        print_result(result, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The observability layer: tracer, metrics registry, CI gate.

Pins the contracts the instrumentation relies on:

* disabled tracing is a true no-op (one shared span object, zero
  recorded spans, no behavioural difference);
* a traced chase produces the documented span tree
  (chase → wave → tgd → kernel phase), one wave per tgd in statement
  order, with or without shard workers;
* the metrics registry agrees with the legacy per-run ``ChaseStats``
  counters it supersedes;
* the Chrome trace-event export round-trips through ``json.loads``
  with consistent timestamps and parent containment;
* ``RunRecord`` duration/summary stay meaningful for failed and
  unfinished runs;
* ``benchmarks/check_regression.py`` passes at-floor reports and fails
  below-floor ones.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from repro.engine.history import RunRecord, RunLog
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.model import TIME, CubeSchema, Dimension, Frequency, Schema, month
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.workloads.datagen import random_cube
from tests.oracle.chase import ScalarChase

REPO_ROOT = Path(__file__).resolve().parents[1]
GATE = REPO_ROOT / "benchmarks" / "check_regression.py"

# three strata in a chain: wave:1 .. wave:3 after the copy wave
THREE_STRATA = """\
A := S * 2
B := A + 1
C := B * 3
"""


def _series_workload(source_text=THREE_STRATA, n_months=6):
    schema = Schema(
        [CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")]
    )
    program = Program.compile(source_text, schema)
    mapping = generate_mapping(program)
    data = {
        "S": random_cube(
            schema["S"],
            {"m": [month(2021, 1) + i for i in range(n_months)]},
            seed=5,
        )
    }
    return mapping, instance_from_cubes(data)


# -- disabled tracing ---------------------------------------------------------


class TestNullTracer:
    def test_default_tracer_is_the_shared_null_tracer(self):
        mapping, _ = _series_workload()
        assert StratifiedChase(mapping).tracer is NULL_TRACER

    def test_span_is_one_shared_noop_object(self):
        first = NULL_TRACER.span("anything", category="x", rows=1)
        second = NULL_TRACER.span("other")
        assert first is second
        with first as span:
            assert span.note(k=1) is span
        assert not first.enabled
        assert not NULL_TRACER.enabled

    def test_untraced_chase_records_zero_spans(self):
        mapping, source = _series_workload()
        result = StratifiedChase(mapping).run(source)
        assert result.stats.tuples_generated > 0
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.chrome_trace() == []
        assert NULL_TRACER.current() is None
        assert "disabled" in NULL_TRACER.summary()

    def test_null_tracer_swallows_nothing(self):
        with pytest.raises(ValueError):
            with NullTracer().span("s"):
                raise ValueError("propagates")


# -- span tree shape ----------------------------------------------------------


def _tree(tracer):
    children = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


@pytest.mark.parametrize("shards", [1, 2])
class TestSpanTree:
    def _run(self, shards, chase_class=StratifiedChase):
        mapping, source = _series_workload()
        tracer = Tracer()
        chase = chase_class(mapping, shards=shards, tracer=tracer)
        result = chase.run(source)
        return chase, tracer, result

    def test_root_is_the_chase_span(self, shards):
        _, tracer, result = self._run(shards)
        roots = _tree(tracer).get(None, [])
        assert [span.name for span in roots] == ["chase"]
        # only a sharded run names its scheduler
        if shards == 1:
            assert "scheduler" not in roots[0].args
        else:
            assert result.stats.shards == shards
            assert roots[0].args["scheduler"] == "sharded"
            assert roots[0].args["shards"] == shards

    def test_three_strata_make_three_waves_plus_copy(self, shards):
        _, tracer, result = self._run(shards)
        children = _tree(tracer)
        root = children[None][0]
        waves = [span.name for span in children[root.span_id]]
        # a sharded run first fans the partitionable tgds out
        fan_out = ["wave:shard"] if shards > 1 else []
        assert waves == fan_out + ["wave:copy", "wave:1", "wave:2", "wave:3"]
        assert result.stats.waves == 3

    def test_each_wave_holds_its_tgd_spans(self, shards):
        _, tracer, _ = self._run(shards)
        children = _tree(tracer)
        root = children[None][0]
        for wave in children[root.span_id]:
            if wave.name == "wave:shard":
                assert sorted(s.name for s in children[wave.span_id]) == [
                    f"shard:{n}" for n in range(shards)
                ]
                continue
            tgds = children.get(wave.span_id, [])
            # chain program: one st-tgd under the copy wave, one target
            # tgd under each stratum wave
            assert len(tgds) == 1
            assert tgds[0].name.startswith("tgd:")
            assert tgds[0].category == "tgd"

    def test_kernel_phases_nest_under_their_tgd(self, shards):
        _, scalar, _ = self._run(shards, ScalarChase)
        assert [s for s in scalar.spans if s.category == "kernel"] == []
        _, tracer, _ = self._run(shards)
        kernel_spans = [s for s in tracer.spans if s.category == "kernel"]
        assert kernel_spans, "vectorized chase should emit kernel spans"
        by_id = {span.span_id: span for span in tracer.spans}
        for span in kernel_spans:
            assert span.name.split(":", 1)[0] == "kernel"
            parent = by_id[span.parent_id]
            assert parent.category == "tgd"


# -- metrics parity with ChaseStats -------------------------------------------


class TestMetricsParity:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_counters_match_stats(self, shards):
        mapping, source = _series_workload()
        metrics = MetricsRegistry()
        chase = StratifiedChase(mapping, shards=shards, metrics=metrics)
        stats = chase.run(source).stats
        assert metrics.value("chase.rule_applications") == stats.rule_applications
        assert metrics.value("chase.tuples.inserted") == stats.tuples_generated
        assert metrics.value("chase.waves") == stats.waves
        assert metrics.histogram("chase.wave.duration_s").count == stats.waves
        assert metrics.value("chase.tuples.read") > 0
        assert metrics.value("chase.egd.checks") >= stats.tuples_generated

    def test_rerun_counts_every_stratum_again(self):
        # a re-run recomputes: the registry an executor keeps across
        # runs counts both runs in full, and no chase.cache.* exists
        mapping, source = _series_workload()
        metrics = MetricsRegistry()
        chase = StratifiedChase(mapping, metrics=metrics)
        cold = chase.run(source).stats
        warm = chase.run(source).stats
        assert warm.rule_applications == cold.rule_applications
        assert warm.tuples_generated == cold.tuples_generated
        assert metrics.value("chase.rule_applications") == 2 * cold.rule_applications
        assert metrics.value("chase.tuples.inserted") == 2 * cold.tuples_generated
        assert metrics.histogram("chase.wave.duration_s").count == 2 * cold.waves
        assert metrics.counters("chase.cache.") == {}

    def test_a_table_function_runs_on_its_kernel(self):
        # every tgd kind has a kernel: a table function emits its
        # kernel span under its tgd span, and no kernel counter exists
        mapping, source = _series_workload("A := stl_t(S)\n", n_months=24)
        metrics = MetricsRegistry()
        tracer = Tracer()
        chase = StratifiedChase(mapping, metrics=metrics, tracer=tracer)
        assert chase.run(source).stats.per_tgd["A"] == 24
        (tgd,) = [s for s in tracer.spans if s.name == "tgd:A"]
        assert [s.name for s in tracer.spans if s.parent_id == tgd.span_id] == [
            "kernel:eval", "kernel:egd-check", "kernel:insert"
        ]
        assert metrics.counters("chase.kernel.fallback") == {}
        assert metrics.counters("chase.kernel.vectorized") == {}


# -- metrics registry unit behaviour ------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate_and_default_to_zero(self):
        registry = MetricsRegistry()
        assert registry.value("never.touched") == 0
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.inc("a.c", 2)
        assert registry.value("a.b") == 5
        assert registry.counters("a.") == {"a.b": 5, "a.c": 2}

    def test_histogram_moments(self):
        histogram = Histogram("h")
        assert histogram.snapshot()["count"] == 0
        assert histogram.mean == 0.0
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap == {
            "count": 3,
            "total": 15.0,
            "min": 2.0,
            "max": 8.0,
            "mean": 5.0,
        }

    def test_snapshot_and_render_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("chase.waves", 3)
        registry.observe("chase.wave.duration_s", 0.5)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        rendered = registry.render()
        assert "chase.waves" in rendered and "chase.wave.duration_s" in rendered
        assert MetricsRegistry().render() == "(no metrics recorded)"


# -- chrome trace export ------------------------------------------------------


class TestChromeTrace:
    def _traced_run(self, tmp_path):
        mapping, source = _series_workload()
        tracer = Tracer()
        StratifiedChase(mapping, tracer=tracer).run(source)
        out = tmp_path / "trace.json"
        tracer.write_chrome_trace(out)
        return tracer, json.loads(out.read_text())

    def test_round_trips_through_json_loads(self, tmp_path):
        tracer, document = self._traced_run(tmp_path)
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(tracer.spans)
        assert metadata and metadata[0]["name"] == "thread_name"
        assert {e["ph"] for e in events} == {"M", "X"}

    def test_timestamps_are_consistent(self, tmp_path):
        _, document = self._traced_run(tmp_path)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["tid"], int) and event["tid"] >= 1

    def test_children_are_contained_in_their_parents(self, tmp_path):
        _, document = self._traced_run(tmp_path)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in complete}
        tolerance_us = 5.0
        checked = 0
        for event in complete:
            parent_id = event["args"]["parent_id"]
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            assert event["ts"] >= parent["ts"] - tolerance_us
            assert (
                event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + tolerance_us
            )
            checked += 1
        assert checked > 0

    def test_error_spans_carry_the_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["inner"].args["error"] == "RuntimeError: boom"
        assert by_name["outer"].args["error"] == "RuntimeError: boom"
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("tick", category="test"):
                pass
        summary = tracer.summary()
        assert "tick" in summary
        assert "     3" in summary


# -- RunRecord failure/duration semantics -------------------------------------


class TestRunRecord:
    def _record(self, **kwargs):
        return RunRecord(run_id=1, trigger=("S",), affected=("A",), **kwargs)

    def test_unfinished_run_has_zero_duration(self):
        record = self._record(started_at=123.4)
        assert record.finished_at == 0.0
        assert record.duration_s == 0.0
        assert not record.finished
        assert " UNFINISHED" in record.summary()

    def test_clock_skew_clamps_to_zero(self):
        record = self._record(started_at=100.0, finished_at=99.0)
        assert record.duration_s == 0.0

    def test_failed_run_surfaces_the_error(self):
        record = self._record(started_at=1.0, finished_at=2.5)
        record.error = "ChaseSourceError: missing cube"
        assert record.failed
        assert record.duration_s == pytest.approx(1.5)
        summary = record.summary()
        assert "FAILED" in summary and "missing cube" in summary

    def test_healthy_run_summary_is_unchanged(self):
        log = RunLog()
        record = log.open(("S",), ("A",))
        log.close(record)
        assert record.finished and not record.failed
        assert "FAILED" not in record.summary()
        assert "UNFINISHED" not in record.summary()
        assert record.duration_s >= 0.0


# -- the CI regression gate ---------------------------------------------------


def _run_gate(tmp_path, document):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(document))
    return subprocess.run(
        [sys.executable, str(GATE), str(report)],
        capture_output=True,
        text=True,
    )


# covers every name in check_regression.REQUIRED, so the pass case
# exercises the missing-entry check staying quiet
PASSING_REPORT = {
    "columnar_chase": {
        "scalar_arith": {"speedup": 6.6, "floor": 5.0},
        "aggregation": {"speedup": 5.0, "floor": 3.0},
        "tracing_overhead": {"overhead_pct": 1.0},
    },
    "crash_recovery": {
        "journal_overhead": {"value": 1.0, "ceiling": 1.15},
        "recovery_vs_rerun": {"value": 0.15, "ceiling": 0.3},
    },
    "delta_chase": {
        "noop_update": {"speedup": 80.0, "floor": 5.0},
    },
    "fault_recovery": {
        "resume_vs_rerun": {"value": 0.15, "ceiling": 0.3},
    },
    "olap_query": {
        "warm_rollup_vs_csv": {"speedup": 150.0, "floor": 100.0},
        "first_touch_node": {"speedup": 5.0, "floor": 3.0},
    },
    "sharded_chase": {
        "panel_scaling": {"speedup": 2.6, "floor": 2.5},
    },
}


class TestRegressionGate:
    def test_passes_at_or_above_floors(self, tmp_path):
        completed = _run_gate(tmp_path, PASSING_REPORT)
        assert completed.returncode == 0, completed.stderr
        assert (
            "all benchmarks within their floors and ceilings"
            in completed.stdout
        )

    def test_fails_below_floor(self, tmp_path):
        doctored = json.loads(json.dumps(PASSING_REPORT))
        doctored["sharded_chase"]["panel_scaling"]["speedup"] = 2.4
        completed = _run_gate(tmp_path, doctored)
        assert completed.returncode == 1
        assert "REGRESSION" in completed.stdout
        assert "below floor" in completed.stderr

    def test_fails_above_ceiling(self, tmp_path):
        doctored = json.loads(json.dumps(PASSING_REPORT))
        doctored["fault_recovery"]["resume_vs_rerun"]["value"] = 0.4
        completed = _run_gate(tmp_path, doctored)
        assert completed.returncode == 1
        assert "REGRESSION" in completed.stdout
        assert "above ceiling" in completed.stderr

    def test_entry_with_both_gates_checks_both(self, tmp_path):
        doctored = json.loads(json.dumps(PASSING_REPORT))
        doctored["olap_query"]["first_touch_node"] = {
            "speedup": 120.0,
            "floor": 100.0,
            "value": 0.4,
            "ceiling": 0.25,
        }
        completed = _run_gate(tmp_path, doctored)
        assert completed.returncode == 1
        assert "above ceiling" in completed.stderr
        assert "below floor" not in completed.stderr

    def test_fails_on_empty_report(self, tmp_path):
        completed = _run_gate(tmp_path, {"columnar_chase": {}})
        assert completed.returncode == 1
        assert "no gated entries" in completed.stderr

    def test_fails_when_required_entry_is_missing(self, tmp_path):
        doctored = json.loads(json.dumps(PASSING_REPORT))
        del doctored["crash_recovery"]["recovery_vs_rerun"]
        completed = _run_gate(tmp_path, doctored)
        assert completed.returncode == 1
        assert "MISSING" in completed.stdout
        assert (
            "crash_recovery.recovery_vs_rerun: required gated entry "
            "is missing" in completed.stderr
        )

    def test_fails_when_gate_keys_are_dropped(self, tmp_path):
        # an entry that lost its ceiling no longer counts as gated, so
        # the manifest must flag it even though the name is present
        doctored = json.loads(json.dumps(PASSING_REPORT))
        del doctored["crash_recovery"]["journal_overhead"]["ceiling"]
        completed = _run_gate(tmp_path, doctored)
        assert completed.returncode == 1
        assert "crash_recovery.journal_overhead" in completed.stderr

    def test_missing_report_is_an_error(self, tmp_path):
        completed = subprocess.run(
            [sys.executable, str(GATE), str(tmp_path / "absent.json")],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2

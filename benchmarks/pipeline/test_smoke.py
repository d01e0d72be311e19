"""Smoke test of the pipeline benchmark, on ``--quick`` sizes.

Not collected by tier-1 (``testpaths = ["tests"]``); run it as
``pytest benchmarks/pipeline``.  Takes about a minute: every check
drives the real ``exl`` CLI in child processes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick(workload: str, seed: int, trace: int) -> dict:
    """One ``--quick`` run through the contract's command line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_is_what_the_code_declares():
    assert MANIFEST == bench.manifest()
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_and_counts_repeat(workload):
    end_to_end = quick(workload, seed=7, trace=0)
    assert set(end_to_end) == {"correct", "attempted", "failed", "metrics"}
    assert end_to_end["correct"] and end_to_end["failed"] == 0
    assert end_to_end["attempted"] == 6  # one warm-up run, one cycle of five
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {n: m["unit"] for n, m in end_to_end["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())

    first = quick(workload, seed=7, trace=1)
    second = quick(workload, seed=7, trace=1)
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == declared
    for name, unit in declared.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_seed_changes_the_inputs_and_nothing_else():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 1, quick=True)
        again = workloads.generate(name, 1, quick=True)
        b = workloads.generate(name, 2, quick=True)
        assert a.pristine == again.pristine and a.revised == again.revised
        assert a.pristine != b.pristine
        assert a.pristine != a.revised
        assert a.sizes == b.sizes
        assert {k: v.keys() for k, v in a.pristine.items()} == {
            k: v.keys() for k, v in b.pristine.items()
        }


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's files has
    nothing to measure: exit non-zero, print no result."""
    copy = tmp_path / "benchmarks" / "pipeline"
    copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "cube_chase",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""

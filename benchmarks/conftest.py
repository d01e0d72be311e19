"""Shared helpers for the benchmark suite.

Every benchmark corresponds to an experiment id in DESIGN.md §3 and
EXPERIMENTS.md.  The paper reports no absolute numbers, so each bench
asserts the *shape* claims (who wins, what scales how) and records the
measured values via pytest-benchmark.

Machine-readable output: run with ``--bench-json FILE`` and every bench
that records into the session-scoped :func:`bench_report` fixture is
written to one unified JSON file at session end.  Entries that carry
both ``speedup`` and ``floor`` keys are what
``benchmarks/check_regression.py`` gates on in CI.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.backends import all_backends
from repro.exl import Program
from repro.mappings import generate_mapping
from repro.workloads import gdp_example


# the benches compare with the reference chase under tests/oracle/
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="FILE",
        help="write all recorded benchmark results to FILE as one "
        "unified JSON document (sections keyed by benchmark family)",
    )


class BenchReport:
    """Session-wide accumulator of benchmark measurements.

    Benches call ``record(section, name, entry)``; the conftest writes
    the merged ``{section: {name: entry}}`` document at session finish
    when ``--bench-json`` was given.
    """

    def __init__(self):
        self.sections: Dict[str, Dict[str, Any]] = {}

    def record(self, section: str, name: str, entry: Dict[str, Any]) -> None:
        self.sections.setdefault(section, {})[name] = entry

    def write(self, path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.sections, indent=2) + "\n")
        return out


def _report_for(config) -> BenchReport:
    report = getattr(config, "_bench_report", None)
    if report is None:
        report = config._bench_report = BenchReport()
    return report


@pytest.fixture(scope="session")
def bench_report(request) -> BenchReport:
    return _report_for(request.config)


def pytest_sessionfinish(session, exitstatus):
    try:
        path = session.config.getoption("--bench-json")
    except ValueError:  # pragma: no cover - option not registered
        return
    report = getattr(session.config, "_bench_report", None)
    if path and report is not None and report.sections:
        out = report.write(path)
        print(f"\nwrote benchmark report {out.resolve()}")


@pytest.fixture(scope="session")
def backends():
    return all_backends()


def gdp_setup(n_quarters: int = 12, regions=("north", "centre", "south"), seed: int = 7):
    """Workload + compiled program + mapping for the paper's example."""
    workload = gdp_example(n_quarters=n_quarters, regions=regions, seed=seed)
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    return workload, program, mapping


@pytest.fixture(scope="session")
def gdp_small():
    return gdp_setup(n_quarters=8, regions=("north", "south"))


@pytest.fixture(scope="session")
def gdp_medium():
    return gdp_setup(n_quarters=20)


@pytest.fixture(scope="session")
def gdp_large():
    return gdp_setup(n_quarters=40, regions=("north", "centre", "south", "islands"))

"""Shared fixtures: the paper's schemas, small workloads, backends."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backends import all_backends
from repro.exl import Program, default_registry
from repro.mappings import generate_mapping, simplify_mapping
from repro.model import (
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    Schema,
    quarter,
)
from repro.workloads import gdp_example

def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=4,
        help="dispatcher worker threads for the engine-level sweeps",
    )
    parser.addoption(
        "--shards",
        action="store",
        type=int,
        default=4,
        help="worker processes for the sharded chase equivalence tests "
        "(CI runs the sharded suite with 1 and with 4)",
    )
    parser.addoption(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="chaos mode: run the whole suite with this deterministic "
        "fault plan active in every dispatcher built without an "
        "explicit one (e.g. '*:transient:p=0.25:n=2'); paired with "
        "--fault-retries, bounded transient rules must always recover, "
        "so the suite is expected to stay green",
    )
    parser.addoption(
        "--fault-seed",
        action="store",
        type=int,
        default=0,
        help="seed for the chaos-mode fault plan",
    )
    parser.addoption(
        "--fault-retries",
        action="store",
        type=int,
        default=3,
        help="dispatcher retry budget while chaos mode is active",
    )


def pytest_configure(config):
    spec = config.getoption("--inject-faults")
    if spec:
        from repro.engine import faults

        faults.enable_chaos(
            spec,
            seed=config.getoption("--fault-seed"),
            retries=config.getoption("--fault-retries"),
        )


@pytest.fixture(scope="session")
def dispatch_jobs(request) -> int:
    """Dispatcher thread count under test (``EXLEngine(jobs=)``)."""
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def chase_shards(request) -> int:
    """Shard count under test (CI runs the sharded suite with 1 and 4)."""
    return request.config.getoption("--shards")


GDP_SOURCE = """\
PQR := avg(PDR, group by quarter(d) as q, r)
RGDP := PQR * RGDPPC
GDP := sum(RGDP, group by q)
GDPT := stl_t(GDP)
PCHNG := (GDPT - shift(GDPT, 1)) * 100 / GDPT
"""


@pytest.fixture
def gdp_schema() -> Schema:
    """The elementary schema of the paper's Section 2 example."""
    return Schema(
        [
            CubeSchema(
                "PDR",
                [Dimension("d", TIME(Frequency.DAY)), Dimension("r", STRING)],
                "p",
            ),
            CubeSchema(
                "RGDPPC",
                [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
                "g",
            ),
        ]
    )


@pytest.fixture
def gdp_program(gdp_schema) -> Program:
    return Program.compile(GDP_SOURCE, gdp_schema)


@pytest.fixture
def gdp_mapping(gdp_program):
    return generate_mapping(gdp_program)


@pytest.fixture
def gdp_simplified(gdp_mapping):
    return simplify_mapping(gdp_mapping)


@pytest.fixture(scope="session")
def gdp_workload():
    """A small but realistic instance of the GDP example (session-cached)."""
    return gdp_example(n_quarters=10, regions=("north", "south"), seed=3)


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports this
    checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


@pytest.fixture(scope="session")
def fresh_python(child_env):
    """``fresh_python(*args)`` runs ``python *args`` in a new interpreter
    that imports this checkout's ``repro``; returns the completed
    process with text output captured."""

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=child_env, capture_output=True,
            text=True, timeout=120,
        )

    return run


@pytest.fixture
def backends():
    return all_backends()


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def ts_schema() -> CubeSchema:
    """A quarterly time-series cube schema."""
    return CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")


@pytest.fixture
def ts_cube(ts_schema) -> Cube:
    return Cube.from_series(
        ts_schema, quarter(2020, 1), [float(v) for v in range(1, 13)]
    )

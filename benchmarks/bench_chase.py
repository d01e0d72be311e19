"""EXP-CHASE — stratified chase behaviour and scaling (Section 4.2).

Checks the termination/shape claims: the chase terminates on programs
of growing depth and width, work grows roughly linearly in the input
size for tuple-level tgds, and the simplified (complex-tgd) mapping
chases the same solution with fewer rule applications.
"""

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from repro.exl import Program
from repro.mappings import generate_mapping, simplify_mapping
from repro.model import Cube, CubeSchema, Dimension, Frequency, Schema, TIME, month
from repro.workloads import random_workload
from repro.workloads.datagen import random_cube


def _series_instance(n: int):
    schema = CubeSchema("S", [Dimension("m", TIME(Frequency.MONTH))], "v")
    domains = {"m": [month(2000, 1) + i for i in range(n)]}
    return Schema([schema]), {"S": random_cube(schema, domains, seed=5)}


def _chain_program(depth: int) -> str:
    lines = ["D1 := S * 2"]
    for i in range(2, depth + 1):
        lines.append(f"D{i} := D{i - 1} + S")
    return "\n".join(lines)


@pytest.mark.parametrize("n", (500, 2000, 8000))
def test_chase_scaling_in_input_size(benchmark, n):
    schema, data = _series_instance(n)
    mapping = generate_mapping(Program.compile("C := (S - shift(S, 1)) / S", schema))
    source = instance_from_cubes(data)

    result = benchmark(StratifiedChase(mapping).run, source)
    assert result.stats.tuples_generated >= n


@pytest.mark.parametrize("depth", (2, 8, 32))
def test_chase_scaling_in_program_depth(benchmark, depth):
    schema, data = _series_instance(200)
    mapping = generate_mapping(Program.compile(_chain_program(depth), schema))
    source = instance_from_cubes(data)

    result = benchmark(StratifiedChase(mapping).run, source)
    assert result.stats.rule_applications >= depth


def test_chase_work_roughly_linear():
    """Doubling the input should not quadruple the chase time."""
    import time

    times = {}
    for n in (2000, 4000):
        schema, data = _series_instance(n)
        mapping = generate_mapping(
            Program.compile("C := S * 2\nD := C + S", schema)
        )
        source = instance_from_cubes(data)
        start = time.perf_counter()
        StratifiedChase(mapping).run(source)
        times[n] = time.perf_counter() - start
    assert times[4000] < times[2000] * 3.5, times


def test_instance_from_cubes_reuses_cube_stores():
    """Source setup is adoption, not re-encoding, the second time.

    The first ``instance_from_cubes`` build caches the columnar store on
    each cube; a later build over the same (unchanged) cubes adopts that
    store by reference — the chase-facing face of the warm-run
    zero-encode guarantee (``tests/test_columnar_native.py``'s
    ``TestEncodeTax``)."""
    import time

    _, data = _series_instance(8000)
    start = time.perf_counter()
    first = instance_from_cubes(data)
    cold_s = time.perf_counter() - start
    assert data["S"]._colstore is not None  # cached by the first build
    start = time.perf_counter()
    second = instance_from_cubes(data)
    warm_s = time.perf_counter() - start
    assert list(first.facts("S")) == list(second.facts("S"))
    assert warm_s < cold_s, (warm_s, cold_s)


def test_simplified_mapping_needs_fewer_rules(gdp_medium):
    workload, program, mapping = gdp_medium
    simplified = simplify_mapping(mapping)
    source = instance_from_cubes(workload.data)
    plain_result = StratifiedChase(mapping).run(source)
    simplified_result = StratifiedChase(simplified).run(source)
    assert (
        simplified_result.stats.rule_applications
        < plain_result.stats.rule_applications
    )
    for name in ("GDP", "GDPT", "PCHNG"):
        plain_cube = {f for f in plain_result.instance.facts(name)}
        simplified_cube = {f for f in simplified_result.instance.facts(name)}
        assert plain_cube == simplified_cube


@pytest.mark.parametrize("seed", (0, 1))
def test_chase_terminates_on_random_programs(benchmark, seed):
    workload = random_workload(seed, n_statements=10, n_periods=14)
    mapping = generate_mapping(Program.compile(workload.source, workload.schema))
    source = instance_from_cubes(workload.data)
    result = benchmark(StratifiedChase(mapping).run, source)
    assert result.stats.tuples_generated > 0

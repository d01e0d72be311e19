"""EXP-EQUIV — the correctness theorem as an executable experiment.

Section 4.2 proves the data exchange solution equals the EXL program
output; Section 5 argues every translation realizes that solution.
This bench runs the paper's GDP program on all five executors, asserts
bit-level agreement of the cube extensions (up to float tolerance), and
records each executor's wall-clock so the relative cost profile is part
of the reproduction record.
"""

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from tests.oracle.verify import is_solution

EXECUTORS = ("chase", "sql", "r", "matlab", "etl")


@pytest.fixture(scope="module")
def reference(gdp_medium, backends):
    workload, _program, mapping = gdp_medium
    return backends["chase"].run_mapping(mapping, workload.data)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_executor_matches_chase(benchmark, gdp_medium, backends, executor, reference):
    workload, _program, mapping = gdp_medium
    backend = backends[executor]
    result = benchmark(backend.run_mapping, mapping, workload.data)
    for name, expected in reference.items():
        assert expected.approx_equals(result[name], rel_tol=1e-8), (
            f"{executor}/{name} diverges: "
            + "; ".join(expected.diff(result[name])[:3])
        )


def test_chase_output_is_a_data_exchange_solution(gdp_medium):
    """The model-checking half of the theorem: ⟨I, J⟩ ⊨ Σ."""
    workload, _program, mapping = gdp_medium
    source = instance_from_cubes(workload.data)
    result = StratifiedChase(mapping).run(source)
    assert is_solution(mapping, source, result.instance)


def test_equivalence_scales_with_data(gdp_large, backends):
    """The agreement is not an artifact of small inputs."""
    workload, _program, mapping = gdp_large
    reference = backends["chase"].run_mapping(mapping, workload.data)
    for executor in ("sql", "r", "matlab", "etl"):
        result = backends[executor].run_mapping(mapping, workload.data)
        for name, expected in reference.items():
            assert expected.approx_equals(result[name], rel_tol=1e-8)

"""EXP-ABL — ablations of design choices called out in DESIGN.md §5.

* tgd simplification on vs off, end to end (chase executor).
"""

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
from repro.mappings import simplify_mapping


@pytest.mark.parametrize("simplify", (False, True), ids=("plain", "simplified"))
def test_simplification_end_to_end(benchmark, gdp_medium, simplify):
    """Ablation 2: does composing complex tgds pay off at chase time?"""
    workload, _program, mapping = gdp_medium
    if simplify:
        mapping = simplify_mapping(mapping)
    source = instance_from_cubes(workload.data)
    result = benchmark(StratifiedChase(mapping).run, source)
    assert result.stats.tuples_generated > 0


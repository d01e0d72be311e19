"""EXP-ABL — ablations of design choices called out in DESIGN.md §5.

* tgd simplification on vs off, end to end (chase executor);
* IR execution vs text interpretation of generated R scripts (the
  rscript backend parses + interprets the rendered code each run).
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


@pytest.mark.parametrize(
    "backend_name",
    ("r", "rscript", "matlab", "mscript"),
    ids=("r_ir", "r_text", "matlab_ir", "matlab_text"),
)
def test_r_execution_path(benchmark, gdp_medium, backends, backend_name):
    """Ablation 3: IR execution vs parsing + interpreting the rendered
    R text.  Both must produce the same cubes; the text path pays the
    parse/interpret overhead."""
    workload, _program, mapping = gdp_medium
    backend = backends[backend_name]
    result = benchmark(backend.run_mapping, mapping, workload.data)
    assert len(result["PCHNG"]) > 0


def test_r_paths_agree(gdp_medium, backends):
    workload, _program, mapping = gdp_medium
    via_ir = backends["r"].run_mapping(mapping, workload.data)
    via_text = backends["rscript"].run_mapping(mapping, workload.data)
    for name, cube in via_ir.items():
        assert cube.approx_equals(via_text[name], rel_tol=1e-9)


def test_matlab_paths_agree(gdp_medium, backends):
    workload, _program, mapping = gdp_medium
    via_ir = backends["matlab"].run_mapping(mapping, workload.data)
    via_text = backends["mscript"].run_mapping(mapping, workload.data)
    for name, cube in via_ir.items():
        assert cube.approx_equals(via_text[name], rel_tol=1e-9)

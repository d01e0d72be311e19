"""Integration tests for the paper's central theorem: the chase solution
equals the EXL program output equals every backend's output (Section 4.2
+ Section 5)."""

import sys
from pathlib import Path

import pytest

from repro.backends import all_backends
from repro.exl import Program
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
from repro.model.io import canonical_text
from repro.stats.aggregates import AGGREGATES
from repro.workloads import (
    Workload,
    employment_example,
    gdp_example,
    price_index_example,
    random_workload,
    scenario_corpus,
)

BACKEND_NAMES = ("sql", "r", "matlab", "etl")


def _benchmark_workloads(directory):
    """The pipeline benchmark's two programs on their quick inputs, read
    back through the project loader as ``exl run`` reads them."""
    from repro.cli import load_project

    pipeline = str(Path(__file__).resolve().parents[1] / "benchmarks" / "pipeline")
    sys.path.insert(0, pipeline)
    try:
        import workloads
    finally:
        sys.path.remove(pipeline)
    for name in sorted(workloads.WORKLOADS):
        workloads.write_inputs(workloads.generate(name, 0, quick=True), directory / name)
        project = load_project(str(directory / name / "project.json"))
        yield Workload(name, project.schema, project.program_source, project.load_data())


#: family -> the workloads of the composition corpus, given a scratch
#: directory
CORPUS = {
    "benchmarks": _benchmark_workloads,
    "paper": lambda _: [
        gdp_example(), price_index_example(), employment_example()
    ],
    "randprog": lambda _: (random_workload(seed) for seed in range(50)),
    "scenarios": lambda _: scenario_corpus(0),
    "shapes": lambda _: _composed_shapes(),
}

#: statements whose composed tgds join three atoms, lag an atom that no
#: other atom binds, fold nested shifts into one lag, aggregate a
#: computed term, or keep a temporary
COMPOSED_SHAPES = (
    "X := A + B + C",
    "X := (A + B) * (B + C) - A",
    "X := shift(A, 1) * 2",
    "X := shift(A, 1) - shift(B, 2)",
    "X := A + B - shift(C, 1) * A",
    "X := A - shift(shift(A, 1), 1)",
    "X := shift(shift(shift(A, 1), 1), 1)",
    "X := shift(shift(A, 1), -1) + A",
    "X := sum(shift(shift(A, 1), 1), group by r)",
    "X := sum(A * 2, group by r)",
    "X := max(A / 2 + 1, group by r, year(q) as y)",
    "X := avg(shift(A, 2) * 3, group by year(q) as y, r)",
    "X := sum(A + B, group by r)",
    "X := osum(A * 2, B)",
    "Y := A\nX := Y * 2 + shift(Y, 1)",
)


def _composed_shapes():
    cubes = [_panel(name, ["r"], scale) for name, scale in zip("ABC", (1.0, 3.0, -2.0))]
    schema = Schema([cube.schema for cube in cubes])
    data = {cube.schema.name: cube for cube in cubes}
    return [
        Workload(f"shape{i}", schema, source, data)
        for i, source in enumerate(COMPOSED_SHAPES)
    ]


def _run_all(workload, backends):
    program = Program.compile(workload.source, workload.schema)
    mapping = generate_mapping(program)
    reference = backends["chase"].run_mapping(mapping, workload.data)
    outputs = {
        name: backends[name].run_mapping(mapping, workload.data)
        for name in BACKEND_NAMES
    }
    return reference, outputs


def _assert_equal(reference, outputs):
    for backend_name, cubes in outputs.items():
        for cube_name, expected in reference.items():
            actual = cubes[cube_name]
            assert expected.approx_equals(actual, rel_tol=1e-8), (
                f"{backend_name}/{cube_name}: "
                + "; ".join(expected.diff(actual)[:3])
            )


class TestPaperWorkload:
    def test_gdp_program_all_backends(self, gdp_workload, backends):
        reference, outputs = _run_all(gdp_workload, backends)
        _assert_equal(reference, outputs)

    def test_gdp_pchng_values_are_percent_changes(self, gdp_workload, backends):
        reference, _ = _run_all(gdp_workload, backends)
        trend = reference["GDPT"]
        change = reference["PCHNG"]
        points, values = trend.to_series()
        for previous, current in zip(points, points[1:]):
            expected = (trend[(current,)] - trend[(previous,)]) * 100 / trend[(current,)]
            assert change[(current,)] == pytest.approx(expected)

    def test_gdp_aggregation_consistency(self, gdp_workload, backends):
        # GDP(q) must equal the sum over regions of RGDP(q, r)
        reference, _ = _run_all(gdp_workload, backends)
        rgdp, gdp = reference["RGDP"], reference["GDP"]
        totals = {}
        for (q, _r), value in rgdp.items():
            totals[q] = totals.get(q, 0.0) + value
        for (q,), value in gdp.items():
            assert value == pytest.approx(totals[q])


class TestOtherWorkloads:
    def test_price_index_program(self, backends):
        workload = price_index_example(n_months=30, seed=5)
        reference, outputs = _run_all(workload, backends)
        _assert_equal(reference, outputs)

    def test_employment_program(self, backends):
        workload = employment_example(n_months=36, seed=9)
        reference, outputs = _run_all(workload, backends)
        _assert_equal(reference, outputs)


#: ``(r, v)`` rows, one quarter apart: a ±0.0 pair with ``0.0`` first, a
#: group of one, and repeated values whose sum depends on fold order
AGG_PANEL = (
    ("a", 0.0), ("a", -0.0),
    ("b", 2.5),
    ("c", 0.7), ("c", 0.1), ("c", 0.2), ("c", 0.1), ("c", 0.3),
)
#: the same shape, strictly positive (geomean takes logarithms)
POSITIVE_PANEL = (
    ("a", 0.5), ("a", 2.0),
    ("b", 2.5),
    ("c", 0.7), ("c", 0.1), ("c", 0.2), ("c", 0.1), ("c", 0.3),
)


class TestEveryAggregate:
    """Each registered aggregate writes the chase's CSV text, byte for
    byte, on every target."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("agg", sorted(AGGREGATES))
    def test_aggregate_text_matches_chase(self, agg, backend_name, backends):
        schema = CubeSchema(
            "S", [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)], "v"
        )
        panel = POSITIVE_PANEL if agg == "geomean" else AGG_PANEL
        rows = [(quarter(2020, 1) + i, r, v) for i, (r, v) in enumerate(panel)]
        data = {"S": Cube.from_rows(schema, rows)}
        program = Program.compile(f"A := {agg}(S, group by r)", Schema([schema]))
        mapping = generate_mapping(program)
        expected = backends["chase"].run_mapping(mapping, data)["A"]
        actual = backends[backend_name].run_mapping(mapping, data)["A"]
        assert canonical_text(actual) == canonical_text(expected)


def _panel(name, dims, scale=1.0):
    """A quarterly cube over ``q`` and the string dimensions ``dims``."""
    schema = CubeSchema(
        name,
        [Dimension("q", TIME(Frequency.QUARTER))] + [Dimension(d, STRING) for d in dims],
        "v",
    )
    keys = [()]
    for _dim in dims:
        keys = [key + (member,) for key in keys for member in ("a", "b")]
    rows = [
        (quarter(2020, 1) + i,) + key + (scale * (0.5 * i - 0.25 * k),)
        for i in range(6)
        for k, key in enumerate(keys)
    ]
    return Cube.from_rows(schema, rows)


def _assert_scripts_match_chase(source, cubes, backends, backend_name):
    data = {cube.schema.name: cube for cube in cubes}
    program = Program.compile(source, Schema([cube.schema for cube in cubes]))
    mapping = generate_mapping(program)
    expected = backends["chase"].run_mapping(mapping, data)
    actual = backends[backend_name].run_mapping(mapping, data)
    for name, cube in expected.items():
        assert canonical_text(actual[name]) == canonical_text(cube), name


class TestScriptNamespace:
    """The ``r`` / ``matlab`` scripts bind cubes, scratch frames and
    called functions by name in one namespace; no legal cube or column
    name may change what they compute."""

    @pytest.mark.parametrize("backend_name", ["r", "matlab"])
    @pytest.mark.parametrize(
        "name", ["t1", "t2", "t3", "t1r", "tmpg", "join", "exl_aggregate"]
    )
    def test_cube_named_like_a_script_variable(self, name, backend_name, backends):
        # C reads the cube after the script has bound t1; E runs with the
        # cube in its store without reading it
        source = (
            f"C := A + {name}\nD := sum({name}, group by r)\nE := A - A\n"
            f"F := osum(A, {name})"
        )
        cubes = [_panel("A", ["r"]), _panel(name, ["r"], scale=3.0)]
        _assert_scripts_match_chase(source, cubes, backends, backend_name)

    @pytest.mark.parametrize("backend_name", ["r", "matlab"])
    @pytest.mark.parametrize(
        "group", ["x", "q, p", "p, q", "p, year(q) as y", "year(q) as x"]
    )
    def test_grouping_keys(self, group, backend_name, backends):
        # a key named x, like R's aggregate() value column, and keys that
        # are not adjacent or not in the cube's order
        source = f"C := sum(S, group by {group})"
        _assert_scripts_match_chase(
            source, [_panel("S", ["x", "p"])], backends, backend_name
        )


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_workloads_equivalent(self, seed, backends):
        workload = random_workload(
            seed, n_statements=6, n_periods=12, n_regions=2
        )
        reference, outputs = _run_all(workload, backends)
        _assert_equal(reference, outputs)

    @pytest.mark.parametrize("family", sorted(CORPUS))
    def test_simplified_mapping_equivalent_to_plain(self, family, tmp_path):
        # every target runs the composed mapping: it must write the
        # normalized mapping's CSV text, byte for byte, on each of them
        backends = all_backends()
        for workload in CORPUS[family](tmp_path):
            plain = generate_mapping(Program.compile(workload.source, workload.schema))
            composed = simplify_mapping(plain)
            assert len(composed) <= len(plain)
            for target, backend in backends.items():
                expected = backend.run_mapping(plain, workload.data)
                actual = backend.run_mapping(composed, workload.data)
                assert set(actual) == set(expected)
                for name, cube in expected.items():
                    assert canonical_text(actual[name]) == canonical_text(cube), (
                        f"{workload.name}/{target}/{name}"
                    )

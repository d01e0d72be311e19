"""Columnar time-shift key-code remapping vs the tuple-at-a-time chase.

The columnar kernels dictionary-encode time points into key codes and
implement ``shift(S, k)`` as an arithmetic remap of those codes.  The
remap must agree with the scalar chase's per-tuple TimePoint solve in
exactly the places where they could plausibly diverge: shifts across a
year boundary, series with unobserved (absent) time points, shifted
lookups landing before the first observed period, and shifts threaded
through the simplified (composed) tgd shapes.

A differential probe over these cases found no divergence; this module
pins that as a regression surface.
"""

import pytest

from repro.chase import StratifiedChase, instance_from_cubes
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
    month,
    quarter,
)
from tests.oracle.chase import ScalarChase

QSCHEMA = Schema([CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")])
MSCHEMA = Schema([CubeSchema("M", [Dimension("m", TIME(Frequency.MONTH))], "v")])
PSCHEMA = Schema(
    [
        CubeSchema(
            "P",
            [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
            "v",
        )
    ]
)


def _boundary_cube() -> Cube:
    """Four quarters straddling the 2019→2020 year boundary."""
    cube = Cube(QSCHEMA["S"])
    points = [quarter(2019, 3), quarter(2019, 4), quarter(2020, 1), quarter(2020, 2)]
    for i, q in enumerate(points):
        cube.set((q,), float(i + 1) * 10.0)
    return cube


def _gapped_cube() -> Cube:
    """A series with an unobserved quarter in the middle."""
    cube = Cube(QSCHEMA["S"])
    for q, v in [
        (quarter(2019, 4), 1.0),
        (quarter(2020, 1), 2.0),
        (quarter(2020, 3), 3.0),
    ]:
        cube.set((q,), v)
    return cube


def _run_both(source_text, schema, data, simplify=False):
    program = Program.compile(source_text, schema)
    mapping = generate_mapping(program)
    if simplify:
        mapping = simplify_mapping(mapping)
    scalar = ScalarChase(mapping).run(instance_from_cubes(data))
    vector = StratifiedChase(mapping).run(instance_from_cubes(data))
    return scalar, vector


def _assert_identical(scalar, vector):
    for relation in sorted(scalar.instance.relations()):
        expected = scalar.instance.facts(relation)
        actual = vector.instance.facts(relation)
        assert expected == actual, (
            f"relation {relation}: scalar {sorted(expected)[:6]} "
            f"vs columnar {sorted(actual)[:6]}"
        )


CASES = [
    # (name, program, schema factory, data factory, simplify)
    ("year_boundary_plus1", "C := shift(S, 1)", QSCHEMA, _boundary_cube, False),
    ("year_boundary_minus1", "C := shift(S, -1)", QSCHEMA, _boundary_cube, False),
    ("year_boundary_plus5", "C := shift(S, 5)", QSCHEMA, _boundary_cube, False),
    ("gapped_series", "C := shift(S, 1)", QSCHEMA, _gapped_cube, False),
    ("gapped_series_minus2", "C := shift(S, -2)", QSCHEMA, _gapped_cube, False),
    ("shift_then_join", "C := shift(S, 2)\nD := C + S", QSCHEMA, _gapped_cube, False),
    ("tgd5_generated", "C := (S - shift(S, 1)) * 100 / S", QSCHEMA, _boundary_cube, False),
    ("tgd5_simplified", "C := (S - shift(S, 1)) * 100 / S", QSCHEMA, _boundary_cube, True),
    ("tgd5_simplified_gapped", "C := (S - shift(S, 1)) * 100 / S", QSCHEMA, _gapped_cube, True),
]


@pytest.mark.parametrize(
    "program,schema,make_cube,simplify",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_quarterly_shift_remap_matches_scalar(program, schema, make_cube, simplify):
    _assert_identical(
        *_run_both(program, schema, {"S": make_cube()}, simplify=simplify)
    )


@pytest.mark.parametrize("periods", [1, -3], ids=["dec_to_jan", "jan_to_oct"])
def test_monthly_shift_across_december(periods):
    cube = Cube(MSCHEMA["M"])
    for i in range(6):  # Oct 2019 .. Mar 2020
        cube.set((month(2019, 10).shift(i),), float(i))
    _assert_identical(
        *_run_both(f"C := shift(M, {periods})", MSCHEMA, {"M": cube})
    )


def test_panel_shift_across_year_boundary():
    cube = Cube(PSCHEMA["P"])
    for i, q in enumerate([quarter(2019, 4), quarter(2020, 1)]):
        for region in ("north", "south"):
            cube.set((q, region), float(i * 10 + len(region)))
    _assert_identical(*_run_both("C := shift(P, 1)", PSCHEMA, {"P": cube}))


def test_shifted_lookup_before_first_observation_yields_no_tuple():
    """shift(S, k) at the series edge has no partner: neither path may
    invent one (absent key codes must stay absent after the remap)."""
    cube = _boundary_cube()
    scalar, vector = _run_both("C := shift(S, 1)", QSCHEMA, {"S": cube})
    _assert_identical(scalar, vector)
    facts = vector.instance.facts("C")
    observed = {row[0] for row in facts}
    assert quarter(2019, 3) not in observed, (
        "the first observed quarter has no predecessor to shift from"
    )
    assert len(facts) == 4

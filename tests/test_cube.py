"""Tests for cubes, schemas and dimension types."""

import pytest

from repro.errors import CubeError, SchemaError
from repro.model import (
    INTEGER,
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    quarter,
    validate_value,
)
from tests.oracle.delta import cube_delta


@pytest.fixture
def panel_schema():
    return CubeSchema(
        "PANEL",
        [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
        "v",
    )


class TestDimTypes:
    def test_time_needs_frequency(self):
        from repro.model.types import DimKind, DimType

        with pytest.raises(SchemaError):
            DimType(DimKind.TIME)

    def test_non_time_rejects_frequency(self):
        from repro.model.types import DimKind, DimType

        with pytest.raises(SchemaError):
            DimType(DimKind.STRING, Frequency.DAY)

    def test_time_accepts_matching_frequency_only(self):
        t = TIME(Frequency.QUARTER)
        assert t.accepts(quarter(2020, 1))
        from repro.model import month

        assert not t.accepts(month(2020, 1))

    def test_string_accepts(self):
        assert STRING.accepts("north")
        assert not STRING.accepts(3)

    def test_integer_rejects_bool(self):
        assert INTEGER.accepts(7)
        assert not INTEGER.accepts(True)

    def test_validate_value_raises_with_context(self):
        with pytest.raises(SchemaError, match="my context"):
            validate_value(STRING, 42, "my context")


class TestCubeSchema:
    def test_columns_are_dims_plus_measure(self, panel_schema):
        assert panel_schema.columns == ("q", "r", "v")

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema("C", [Dimension("x", STRING), Dimension("x", STRING)])

    def test_measure_colliding_with_dim_rejected(self):
        with pytest.raises(SchemaError):
            CubeSchema("C", [Dimension("v", STRING)], "v")

    def test_invalid_cube_name(self):
        with pytest.raises(SchemaError):
            CubeSchema("bad name", [Dimension("x", STRING)])

    def test_dim_index_and_lookup(self, panel_schema):
        assert panel_schema.dim_index("r") == 1
        assert panel_schema.dimension("q").dtype.is_time
        with pytest.raises(SchemaError):
            panel_schema.dimension("zzz")

    def test_time_series_detection(self):
        series = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))])
        assert series.is_time_series
        assert series.sole_time_dimension().name == "q"

    def test_panel_is_not_time_series(self, panel_schema):
        assert not panel_schema.is_time_series

    def test_sole_time_dimension_requires_exactly_one(self):
        no_time = CubeSchema("C", [Dimension("r", STRING)])
        with pytest.raises(SchemaError):
            no_time.sole_time_dimension()

    def test_same_dimensions(self, panel_schema):
        other = CubeSchema("OTHER", panel_schema.dimensions, "w")
        assert panel_schema.same_dimensions(other)

    def test_renamed_keeps_structure(self, panel_schema):
        renamed = panel_schema.renamed("NEW")
        assert renamed.name == "NEW"
        assert renamed.dimensions == panel_schema.dimensions


class TestCubeInstance:
    def test_set_and_get(self, panel_schema):
        cube = Cube(panel_schema)
        cube.set((quarter(2020, 1), "north"), 10.0)
        assert cube[(quarter(2020, 1), "north")] == 10.0
        assert len(cube) == 1

    def test_functional_violation_raises(self, panel_schema):
        cube = Cube(panel_schema)
        key = (quarter(2020, 1), "north")
        cube.set(key, 10.0)
        with pytest.raises(CubeError, match="functional violation"):
            cube.set(key, 11.0)

    def test_overwrite_allowed_when_requested(self, panel_schema):
        cube = Cube(panel_schema)
        key = (quarter(2020, 1), "north")
        cube.set(key, 10.0)
        cube.set(key, 11.0, overwrite=True)
        assert cube[key] == 11.0

    def test_same_value_reinsert_is_fine(self, panel_schema):
        cube = Cube(panel_schema)
        key = (quarter(2020, 1), "north")
        cube.set(key, 10.0)
        cube.set(key, 10.0)
        assert len(cube) == 1

    def test_arity_mismatch_raises(self, panel_schema):
        cube = Cube(panel_schema)
        with pytest.raises(CubeError):
            cube.set((quarter(2020, 1),), 1.0)

    def test_type_mismatch_raises(self, panel_schema):
        cube = Cube(panel_schema)
        with pytest.raises(SchemaError):
            cube.set(("north", quarter(2020, 1)), 1.0)

    def test_non_numeric_measure_raises(self, panel_schema):
        cube = Cube(panel_schema)
        with pytest.raises(CubeError):
            cube.set((quarter(2020, 1), "north"), "big")

    def test_missing_key_raises(self, panel_schema):
        cube = Cube(panel_schema)
        with pytest.raises(CubeError, match="undefined"):
            _ = cube[(quarter(2020, 1), "north")]

    def test_get_default(self, panel_schema):
        cube = Cube(panel_schema)
        assert cube.get((quarter(2020, 1), "north"), -1) == -1

    def test_from_rows_roundtrip(self, panel_schema):
        rows = [
            (quarter(2020, 1), "north", 1.0),
            (quarter(2020, 1), "south", 2.0),
            (quarter(2020, 2), "north", 3.0),
        ]
        cube = Cube.from_rows(panel_schema, rows)
        assert cube.to_rows() == sorted(rows, key=lambda r: (r[0].ordinal, r[1]))

    def test_from_rows_wrong_width(self, panel_schema):
        with pytest.raises(CubeError):
            Cube.from_rows(panel_schema, [(quarter(2020, 1), 1.0)])

    def test_from_series_and_to_series(self, ts_schema):
        cube = Cube.from_series(ts_schema, quarter(2020, 1), [1.0, 2.0, 3.0])
        points, values = cube.to_series()
        assert values == [1.0, 2.0, 3.0]
        assert points[0] == quarter(2020, 1)
        assert points[-1] == quarter(2020, 3)

    def test_from_series_requires_time_series(self, panel_schema):
        with pytest.raises(CubeError):
            Cube.from_series(panel_schema, quarter(2020, 1), [1.0])

    def test_to_series_requires_time_series(self, panel_schema):
        cube = Cube(panel_schema)
        with pytest.raises(CubeError):
            cube.to_series()

    def test_approx_equals_tolerates_noise(self, ts_schema):
        a = Cube.from_series(ts_schema, quarter(2020, 1), [1.0, 2.0])
        b = Cube.from_series(ts_schema, quarter(2020, 1), [1.0 + 1e-12, 2.0])
        assert a.approx_equals(b)

    def test_approx_equals_detects_missing_keys(self, ts_schema):
        a = Cube.from_series(ts_schema, quarter(2020, 1), [1.0, 2.0])
        b = Cube.from_series(ts_schema, quarter(2020, 1), [1.0])
        assert not a.approx_equals(b)
        assert any("only in left" in d for d in a.diff(b))

    def test_diff_reports_value_differences(self, ts_schema):
        a = Cube.from_series(ts_schema, quarter(2020, 1), [1.0])
        b = Cube.from_series(ts_schema, quarter(2020, 1), [2.0])
        assert any("measure differs" in d for d in a.diff(b))

    def test_copy_is_independent(self, ts_schema):
        a = Cube.from_series(ts_schema, quarter(2020, 1), [1.0])
        b = a.copy()
        b.set((quarter(2020, 2),), 9.0)
        assert len(a) == 1 and len(b) == 2

    def test_contains_with_scalar_key(self, ts_schema):
        cube = Cube.from_series(ts_schema, quarter(2020, 1), [1.0])
        assert quarter(2020, 1) in cube


class TestApproxToleranceEdges:
    def _pair(self, panel_schema, left_value, right_value):
        key = (quarter(2020, 1), "north")
        a = Cube(panel_schema)
        a.set(key, left_value)
        b = Cube(panel_schema)
        b.set(key, right_value)
        return a, b

    def test_exact_zero_needs_abs_tol(self, panel_schema):
        # rel_tol is useless at zero: rel_tol * max(|0|, |eps|) ~ 0,
        # so only abs_tol can accept a tiny residue against 0.0
        a, b = self._pair(panel_schema, 0.0, 1e-12)
        assert a.approx_equals(b)  # default abs_tol=1e-9 absorbs it
        assert not a.approx_equals(b, abs_tol=0.0)
        assert a.approx_equals(b, rel_tol=0.0, abs_tol=1e-9)

    def test_both_exact_zero(self, panel_schema):
        a, b = self._pair(panel_schema, 0.0, 0.0)
        assert a.approx_equals(b, rel_tol=0.0, abs_tol=0.0)
        assert a.diff(b, rel_tol=0.0, abs_tol=0.0) == []

    def test_rel_tol_dominates_large_magnitudes(self, panel_schema):
        # |diff| = 1e-4 >> abs_tol, but rel_tol * 1e6 = 1e-3 covers it
        a, b = self._pair(panel_schema, 1.0e6, 1.0e6 + 1.0e-4)
        assert a.approx_equals(b)
        assert not a.approx_equals(b, rel_tol=0.0)

    def test_abs_tol_dominates_small_magnitudes(self, panel_schema):
        # |diff| = 5e-10: rel_tol * 1e-9 ~ 1e-18 is useless, abs_tol wins
        a, b = self._pair(panel_schema, 1.0e-9, 1.5e-9)
        assert a.approx_equals(b)
        assert not a.approx_equals(b, abs_tol=0.0)

    def test_diff_reports_measure_and_membership(self, panel_schema):
        key = (quarter(2020, 1), "north")
        extra = (quarter(2020, 2), "north")
        a = Cube(panel_schema)
        a.set(key, 1.0)
        a.set(extra, 5.0)
        b = Cube(panel_schema)
        b.set(key, 2.0)
        problems = a.diff(b)
        assert any("only in left" in p for p in problems)
        assert any("measure differs" in p and "1.0 vs 2.0" in p for p in problems)
        assert not a.approx_equals(b)

    def test_diff_tolerance_crossover(self, panel_schema):
        a, b = self._pair(panel_schema, 10.0, 10.0 + 5e-9)
        assert a.diff(b) == []  # inside default tolerances
        tight = a.diff(b, rel_tol=1e-12, abs_tol=1e-12)
        assert len(tight) == 1 and "measure differs" in tight[0]


class TestNanConsistency:
    """NaN measures under comparison and diffing.

    ``float('nan') != float('nan')`` would make every NaN-bearing cube
    unequal to itself, so each update cycle would see phantom deltas on
    statistically-missing points.  The convention everywhere (equality,
    diff, delta) is: NaN↔NaN is unchanged, NaN↔value is a change.
    """

    def _with(self, panel_schema, value):
        cube = Cube(panel_schema)
        cube.set((quarter(2020, 1), "north"), value)
        return cube

    def test_nan_cube_approx_equals_itself(self, panel_schema):
        nan = self._with(panel_schema, float("nan"))
        assert nan.approx_equals(nan)
        assert nan.approx_equals(nan.copy())
        assert nan.diff(nan.copy()) == []

    def test_nan_vs_value_is_a_difference(self, panel_schema):
        nan = self._with(panel_schema, float("nan"))
        one = self._with(panel_schema, 1.0)
        assert not nan.approx_equals(one)
        assert not one.approx_equals(nan)
        assert any("measure differs" in p for p in nan.diff(one))

    def test_nan_delta_is_empty_between_identical_cubes(self, panel_schema):
        nan = self._with(panel_schema, float("nan"))
        assert cube_delta(nan, nan.copy()).is_empty

    def test_nan_to_value_delta_is_an_update(self, panel_schema):
        nan = self._with(panel_schema, float("nan"))
        one = self._with(panel_schema, 1.0)
        delta = cube_delta(nan, one)
        assert len(delta.updated) == 1 and not delta.inserted
        delta = cube_delta(one, nan)
        assert len(delta.updated) == 1
        new = delta.updated[0][1]
        assert new[-1] != new[-1]  # the new side carries the NaN


class TestCubeDelta:
    def _pair(self, panel_schema):
        a = Cube(panel_schema)
        a.set((quarter(2020, 1), "north"), 1.0)
        a.set((quarter(2020, 1), "south"), 2.0)
        a.set((quarter(2020, 2), "north"), 3.0)
        b = Cube(panel_schema)
        b.set((quarter(2020, 1), "north"), 1.0)   # unchanged
        b.set((quarter(2020, 1), "south"), 9.0)   # updated
        b.set((quarter(2020, 3), "south"), 4.0)   # inserted (2020Q2 deleted)
        return a, b

    def test_delta_classifies_rows(self, panel_schema):
        a, b = self._pair(panel_schema)
        delta = cube_delta(a, b)
        assert delta.inserted == [(quarter(2020, 3), "south", 4.0)]
        assert delta.deleted == [(quarter(2020, 2), "north", 3.0)]
        assert delta.updated == [
            ((quarter(2020, 1), "south", 2.0), (quarter(2020, 1), "south", 9.0))
        ]
        assert delta.count() == 3 and not delta.is_empty

    def test_delta_of_identical_cubes_is_empty(self, panel_schema):
        a, _ = self._pair(panel_schema)
        assert cube_delta(a, a.copy()).is_empty
        assert cube_delta(a, a.copy()).count() == 0

    def test_delta_is_exact_not_tolerant(self, panel_schema):
        # delta feeds recomputation: any representable change counts,
        # there is no tolerance window like approx_equals has
        a = Cube(panel_schema)
        a.set((quarter(2020, 1), "north"), 1.0)
        b = Cube(panel_schema)
        b.set((quarter(2020, 1), "north"), 1.0 + 1e-15)
        assert not cube_delta(a, b).is_empty

    def test_old_and_new_fact_views(self, panel_schema):
        a, b = self._pair(panel_schema)
        delta = cube_delta(a, b)
        assert (quarter(2020, 2), "north", 3.0) in delta.old_facts()
        assert (quarter(2020, 1), "south", 2.0) in delta.old_facts()
        assert (quarter(2020, 3), "south", 4.0) in delta.new_facts()
        assert (quarter(2020, 1), "south", 9.0) in delta.new_facts()

    def _encoded(self, cube):
        columns = cube.to_columns()
        dictionaries = [list(dict.fromkeys(col)) for col in columns[:-1]]
        codes = [
            [d.index(value) for value in col]
            for d, col in zip(dictionaries, columns[:-1])
        ]
        encoded = Cube.from_columns(cube.schema, dictionaries, codes, columns[-1])
        assert encoded.encoded() is not None
        return encoded

    def test_same_rows_agrees_with_delta(self, panel_schema):
        # on dict-held cubes and on encoded ones, whose dictionaries
        # list the values in different orders
        a, b = self._pair(panel_schema)
        for left, right in [(a, b), (self._encoded(a), self._encoded(b))]:
            assert left.same_rows(right) is cube_delta(left, right).is_empty is False
            assert left.same_rows(left.copy())
        reordered = Cube.from_rows(panel_schema, list(reversed(a.to_rows())))
        assert self._encoded(a).same_rows(self._encoded(reordered))

    def test_same_rows_with_nan_and_signed_zero(self, panel_schema):
        a = Cube(panel_schema)
        a.set((quarter(2020, 1), "north"), float("nan"))
        a.set((quarter(2020, 2), "north"), 0.0)
        b = Cube(panel_schema)
        b.set((quarter(2020, 1), "north"), float("nan"))
        b.set((quarter(2020, 2), "north"), -0.0)
        c = Cube(panel_schema)
        c.set((quarter(2020, 1), "north"), 2.0)
        c.set((quarter(2020, 2), "north"), 0.0)
        for wrap in (lambda cube: cube, self._encoded):
            assert wrap(a).same_rows(wrap(b)) and wrap(b).same_rows(wrap(a))
            assert not wrap(a).same_rows(wrap(c))
            assert not wrap(c).same_rows(wrap(a))

    def test_arity_mismatch_rejected(self, panel_schema, ts_schema):
        a = Cube(panel_schema)
        b = Cube(ts_schema)
        with pytest.raises(CubeError):
            cube_delta(a, b)
        with pytest.raises(CubeError):
            a.same_rows(b)


class TestFromColumns:
    """``Cube.from_columns`` builds the cube ``from_rows`` would from
    dictionary-encoded columns, validating per distinct value; whatever
    it cannot vouch for it declines (None), leaving the error to
    ``from_rows``."""

    Q = [quarter(2020, 1), quarter(2020, 2)]
    R = ["north", "south"]

    def _rows(self, dictionaries, codes, measures):
        columns = [[d[c] for c in col] for d, col in zip(dictionaries, codes)]
        return list(zip(*columns, measures))

    def test_equals_from_rows(self, panel_schema):
        dictionaries = [self.Q, self.R]
        codes = [[0, 0, 1], [0, 1, 0]]
        measures = [1.5, float("nan"), -2.0]
        cube = Cube.from_columns(panel_schema, dictionaries, codes, measures)
        expected = Cube.from_rows(
            panel_schema, self._rows(dictionaries, codes, measures)
        )
        assert cube_delta(cube, expected).is_empty and len(cube) == 3
        assert list(cube) == list(expected)  # same insertion order
        # measures are the very objects handed in (NaN identity)
        assert cube[(self.Q[0], "south")] is measures[1]

    def test_empty_and_zero_arity(self, panel_schema):
        assert len(Cube.from_columns(panel_schema, [[], []], [[], []], [])) == 0
        scalar = CubeSchema("K", [], "v")
        assert Cube.from_columns(scalar, [], [], [3.0])[()] == 3.0
        assert Cube.from_columns(scalar, [], [], [3.0, 4.0]) is None

    @pytest.mark.parametrize(
        "dictionaries, codes, measures",
        [
            ([Q, ["north", 7]], [[0], [1]], [1.0]),         # wrong value type
            ([Q, R], [[0, 0], [1, 1]], [1.0, 2.0]),         # functional violation
            ([Q, R], [[0], [0]], [1]),                      # int measure
            ([Q, R], [[0], [0]], [True]),                   # bool measure
            ([Q, R], [[0], [5]], [1.0]),                    # code out of range
            ([Q], [[0]], [1.0]),                            # wrong arity
        ],
    )
    def test_declines_what_from_rows_must_judge(
        self, panel_schema, dictionaries, codes, measures
    ):
        assert (
            Cube.from_columns(panel_schema, dictionaries, codes, measures)
            is None
        )

    def test_duplicate_rows_are_left_to_from_rows(self, panel_schema):
        # the same row twice is no violation, but not "plainly a cube"
        dictionaries, codes = [self.Q, self.R], [[0, 0], [1, 1]]
        assert Cube.from_columns(panel_schema, dictionaries, codes, [1.0, 1.0]) is None
        rows = self._rows(dictionaries, codes, [1.0, 1.0])
        assert len(Cube.from_rows(panel_schema, rows)) == 1


class TestCanonicalText:
    def test_bytes_and_digest_are_memoised_shared_by_copy_dropped_by_mutation(
        self, panel_schema, monkeypatch
    ):
        import hashlib

        from repro.model import io as model_io

        calls = []
        real = model_io.cube_to_csv_text
        monkeypatch.setattr(
            model_io, "cube_to_csv_text",
            lambda cube: calls.append(1) or real(cube),
        )
        cube = Cube(panel_schema)
        cube.set((quarter(2020, 1), "north"), 1.5)
        canonical = model_io.canonical_bytes(cube)
        data, digest = canonical
        assert data == b"q,r,v\r\n2020Q1,north,1.5\r\n"
        assert digest == hashlib.sha256(data).hexdigest()
        assert model_io.canonical_bytes(cube) is canonical
        assert model_io.canonical_text(cube) == data.decode("utf-8")
        clone = cube.copy()
        assert model_io.canonical_bytes(clone) is canonical
        assert len(calls) == 1
        clone.set((quarter(2020, 2), "north"), 2.5)
        assert model_io.canonical_bytes(clone)[1] != digest
        assert model_io.canonical_bytes(cube) is canonical  # the original keeps its own
        assert len(calls) == 2

    def test_parsed_canonical_bytes_are_kept_with_their_digest(self, panel_schema):
        from repro.model.io import canonical_bytes, cube_from_canonical_bytes

        cube = Cube.from_rows(panel_schema, [(quarter(2020, 1), "n", 1.0)])
        data, digest = canonical_bytes(cube)
        back = cube_from_canonical_bytes(panel_schema, data, digest)
        assert back == cube
        assert canonical_bytes(back)[0] is data

    def test_equal_text_iff_equal_cubes_modulo_signed_zero(self, panel_schema):
        from repro.model.io import canonical_text, text_sha256

        def build(rows):
            return Cube.from_rows(panel_schema, rows)

        a = build([(quarter(2020, 2), "s", 2.0), (quarter(2020, 1), "n", float("nan"))])
        b = build([(quarter(2020, 1), "n", float("nan")), (quarter(2020, 2), "s", 2.0)])
        assert text_sha256(canonical_text(a)) == text_sha256(canonical_text(b))
        c = build([(quarter(2020, 1), "n", 0.0)])
        d = build([(quarter(2020, 1), "n", -0.0)])
        assert c.same_rows(d)  # equal cubes ...
        assert canonical_text(c) != canonical_text(d)  # ... errs toward "changed"

    def test_surrounding_whitespace_round_trips(self):
        # " a" and "a" are two labels; the trimming reader merged them,
        # so the baseline a run wrote could not be read back
        from repro.model.io import canonical_bytes, canonical_text, cube_from_csv_text

        schema = CubeSchema("X", [Dimension("s", STRING)], "v")
        rows = [(" a", 1.0), ("a", 2.0), ("a ", 3.0), ("\t", 4.0)]
        cube = Cube.from_rows(schema, rows)
        for serialized in (canonical_text(cube), canonical_bytes(cube)[0]):
            back = cube_from_csv_text(schema, serialized)
            assert back == cube
            assert canonical_text(back) == canonical_text(cube)

    def test_reader_columns_are_shared_by_copy_dropped_by_mutation(self, panel_schema):
        from repro.model.io import cube_from_csv_text

        text = "q,r,v\r\n2020Q1,n,1.0\r\n2020Q2,n,2.0\r\n"
        cube = cube_from_csv_text(panel_schema, text)
        assert cube._columns is not None
        clone = cube.copy()
        assert clone._columns is cube._columns
        clone.set((quarter(2020, 3), "n"), 3.0)
        assert clone._columns is None and cube._columns is not None


#: a cube with every value the CSV dialect treats specially; its
#: canonical text and that of ``A := G * 2`` are pinned below
GOLDEN_ROWS = [
    ((2020, 1), "a,b", 10, 1.0),
    ((2020, 1), 'say "hi"', 2, -0.0),
    ((2020, 2), "line\r\nbreak", -3, float("nan")),
    ((2020, 2), "", 7, float("inf")),
    ((2019, 12), " padded ", 10, float("-inf")),
    ((2020, 3), "é", 0, 0.1 + 0.2),
    ((2020, 3), "1.0", 1, 5e-324),
    ((2020, 3), "1", 1, 12345678.9),
]


class TestGoldenDigest:
    """The canonical text is an on-disk format: every ``baseline.json``
    records its sha256 per cube, so a drift in ordering, quoting or
    float spelling orphans users' run directories.  These digests were
    taken before the column-wise writer existed."""

    G = "cca2aee9d9d848e1acb14a30929c9d80423ac361afed31351c64893690b0b1b9"
    A = "2ce3ed418da8ea03b618d919602ebd28a67842f20b3d41710be5660fa5b993d8"

    @pytest.fixture
    def golden(self):
        from repro.model import month

        schema = CubeSchema(
            "G",
            [
                Dimension("t", TIME(Frequency.MONTH)),
                Dimension("s", STRING),
                Dimension("n", INTEGER),
            ],
            "v",
        )
        rows = [(month(*ym), s, n, v) for ym, s, n, v in GOLDEN_ROWS]
        return Cube.from_rows(schema, rows)

    def test_row_path_column_path_and_reader_agree_on_the_digest(self, golden):
        from repro.chase.colstore import ColumnStore
        from repro.model.io import cube_from_csv_text, cube_to_csv_text, text_sha256

        assert golden._colstore is None and golden._columns is None
        text = cube_to_csv_text(golden)  # row by row
        assert text_sha256(text) == self.G
        held = golden.copy()
        held._colstore = ColumnStore.from_distinct_rows(4, golden.to_rows()[::-1])
        assert cube_to_csv_text(held) == text  # from a store, in another order
        back = cube_from_csv_text(golden.schema, text.encode("utf-8"))
        assert back._columns is not None
        assert cube_to_csv_text(back) == text  # from the reader's columns

    @pytest.mark.parametrize("target", ["chase", "sql"])
    def test_output_has_the_digest_with_or_without_a_store(
        self, golden, target
    ):
        # a chase output is written from its column store, an sql
        # output from the columns the target handed back
        from repro.engine.exlengine import EXLEngine
        from repro.model.io import canonical_text, text_sha256

        engine = EXLEngine(target_priority=(target,))
        engine.declare_elementary(golden.schema)
        engine.add_program("A := G * 2")
        engine.load(golden)
        engine.run()
        output = engine.catalog.data("A")
        assert (output._colstore is None) == (target != "chase")
        assert text_sha256(canonical_text(output)) == self.A

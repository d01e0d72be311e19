"""Property-based tests (hypothesis) on core invariants."""

import functools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import all_backends
from repro.chase import StratifiedChase, columnar, instance_from_cubes
from repro.chase.colstore import ColumnStore
from repro.chase.groupreduce import (
    collect,
    contribution_index,
    distinct,
    reduce_bags,
    rereduce_groups,
    sorted_slices,
)
from repro.chase.instance import store_for_cube
from repro.exl import Program
from repro.mappings import (
    AggTerm,
    Atom,
    Const,
    FuncApp,
    SchemaMapping,
    Tgd,
    TgdKind,
    Var,
    evaluate,
    generate_mapping,
    substitute,
    term_vars,
)
from repro.model import (
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    INTEGER,
    STRING,
    TIME,
    Schema,
    TimePoint,
    convert,
    month,
    parse_timepoint,
    quarter,
)
from repro.olap import CubeLattice
from repro.olap.hierarchy import derive_hierarchy
from repro.stats import (
    aggregate_names,
    cumsum,
    first_difference,
    get_aggregate,
    loess,
    moving_average,
    stl_decompose,
)
from repro.workloads import random_workload
from tests.oracle.chase import ScalarChase

# -- strategies -----------------------------------------------------------

timepoints = st.one_of(
    st.integers(min_value=700_000, max_value=760_000).map(
        lambda o: TimePoint(Frequency.DAY, o)
    ),
    st.integers(min_value=1990 * 12, max_value=2030 * 12).map(
        lambda o: TimePoint(Frequency.MONTH, o)
    ),
    st.integers(min_value=1990 * 4, max_value=2030 * 4).map(
        lambda o: TimePoint(Frequency.QUARTER, o)
    ),
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

value_lists = st.lists(finite_floats, min_size=1, max_size=40)


class TestTimeProperties:
    @given(timepoints, st.integers(min_value=-1000, max_value=1000))
    def test_shift_roundtrip(self, point, periods):
        assert point.shift(periods).shift(-periods) == point

    @given(timepoints, st.integers(-500, 500), st.integers(-500, 500))
    def test_shift_composes(self, point, a, b):
        assert point.shift(a).shift(b) == point.shift(a + b)

    @given(timepoints)
    def test_str_parse_roundtrip(self, point):
        assert parse_timepoint(str(point)) == point

    @given(timepoints)
    def test_conversion_chain_consistent(self, point):
        # converting via an intermediate frequency equals converting directly
        if point.freq is Frequency.DAY or point.freq is Frequency.MONTH:
            via_quarter = convert(convert(point, Frequency.QUARTER), Frequency.YEAR)
            direct = convert(point, Frequency.YEAR)
            assert via_quarter == direct

    @given(timepoints, st.integers(1, 50))
    def test_shift_preserves_order(self, point, periods):
        assert point < point.shift(periods)

    @given(timepoints)
    def test_conversion_monotone(self, point):
        later = point.shift(200)
        assert convert(point, Frequency.YEAR) <= convert(later, Frequency.YEAR)


class TestAggregateProperties:
    @given(value_lists)
    def test_sum_equals_avg_times_count(self, values):
        total = get_aggregate("sum")(values)
        mean = get_aggregate("avg")(values)
        assert total == pytest.approx(mean * len(values), rel=1e-9, abs=1e-6)

    @given(value_lists)
    def test_min_le_median_le_max(self, values):
        low = get_aggregate("min")(values)
        mid = get_aggregate("median")(values)
        high = get_aggregate("max")(values)
        assert low <= mid <= high

    @given(value_lists)
    def test_var_nonnegative(self, values):
        assert get_aggregate("var")(values) >= 0

    @given(value_lists, finite_floats)
    def test_sum_translation_invariance(self, values, shift):
        shifted = [v + shift for v in values]
        expected = get_aggregate("sum")(values) + shift * len(values)
        assert get_aggregate("sum")(shifted) == pytest.approx(
            expected, rel=1e-9, abs=1e-3
        )

    @given(value_lists)
    def test_permutation_invariance(self, values):
        assert get_aggregate("median")(values) == get_aggregate("median")(
            list(reversed(values))
        )


# -- one group-reduce -----------------------------------------------------

#: measures with the values that break naive folds mixed in
awkward_floats = st.one_of(
    finite_floats, st.sampled_from([float("nan"), -0.0, 0.0, 1e-300])
)
#: a functional relation ``(g, i) -> v``: few groups, few rows each
group_rows = st.dictionaries(
    st.tuples(st.sampled_from("abc"), st.integers(0, 5)),
    awkward_floats,
    min_size=1,
    max_size=12,
)


def _bits(groups):
    """Group values compared bit for bit (``nan == nan``, ``-0.0 != 0.0``)."""
    return {key: repr(float(value)) for key, value in groups.items()}


#: a functional relation ``(g, i, m) -> v`` with ±inf among the measures
panel_rows = st.dictionaries(
    st.tuples(
        st.sampled_from("abc"),
        st.integers(0, 3),
        st.integers(0, 7).map(lambda k: month(2020, 1) + k),
    ),
    st.one_of(awkward_floats, st.sampled_from([float("inf"), float("-inf")])),
    min_size=1,
    max_size=12,
)
PANEL = CubeSchema(
    "C",
    [
        Dimension("g", STRING),
        Dimension("i", INTEGER),
        Dimension("m", TIME(Frequency.MONTH)),
    ],
    "v",
)
#: the group-by clause of ``Y := agg(C, ...)`` per key shape
GROUP_KEYS = {
    "string": ", group by g",
    "integer": ", group by i",
    "time": ", group by m",
    "transform": ", group by quarter(m) as q, g",
    "one group": "",
    "groups of one": ", group by g, i, m",
}


@functools.lru_cache(maxsize=None)
def _aggregation_mappings(name):
    """``{key shape: mapping}`` for ``Y := name(C, <group-by>)``, plus a
    hand-written tgd whose first key is a constant."""
    schema = Schema([PANEL])
    mappings = {
        shape: generate_mapping(Program.compile(f"Y := {name}(C{clause})", schema))
        for shape, clause in GROUP_KEYS.items()
    }
    by_g = mappings["string"]
    (tgd,) = by_g.target_tgds
    constant = Tgd(
        tgd.lhs,
        Atom("Y", (Const("all"), Var("g"), AggTerm(name, Var("v")))),
        TgdKind.AGGREGATION,
        group_arity=2,
        label="Y",
    )
    target = Schema([
        PANEL,
        CubeSchema("Y", [Dimension("k", STRING), Dimension("g", STRING)], "v"),
    ])
    mappings["constant"] = SchemaMapping(
        by_g.source, target, by_g.st_tgds, [constant], by_g.egds, by_g.registry
    )
    return mappings


class TestGroupReduceProperty:
    """``chase/groupreduce.py`` is the only group-reduce: the dict
    collect, the sorted-slices kernel, the incremental rereduce and a
    lattice node must agree on every registered aggregate."""

    @settings(max_examples=25, deadline=None)
    @given(group_rows, group_rows, st.randoms(use_true_random=False))
    @pytest.mark.parametrize("name", aggregate_names())
    def test_every_path_reduces_to_the_same_bits(self, name, before, after, rng):
        import numpy as np

        aggregate = get_aggregate(name)
        if name == "geomean":  # defined on strictly positive bags only
            before = {k: abs(v) + 1.0 for k, v in before.items()}
            after = {k: abs(v) + 1.0 for k, v in after.items()}
        facts = [dims + (v,) for dims, v in after.items()]

        def classify(fact):
            return fact[:1], fact[-1]

        expected = _bits(reduce_bags(collect(map(classify, facts)), aggregate))

        codes = np.array([ord(fact[0]) for fact in facts])
        values = np.array([fact[-1] for fact in facts], dtype=float)
        sliced = {
            facts[row][:1]: aggregate(bag)
            for row, bag in sorted_slices(codes, values)
        }
        assert _bits(sliced) == expected
        assert list(sliced) == list(collect(map(classify, facts)))  # same order

        # maintained from ``before`` — plus a group that must empty — by
        # retracting and asserting the difference in random batches
        before = {**before, ("gone", 0): 1.0}
        index = contribution_index(
            [dims + (v,) for dims, v in before.items()], classify
        )
        groups = reduce_bags(
            {k: list(b.values()) for k, b in index.items()}, aggregate
        )
        changed = [
            dims for dims in {**before, **after}
            if repr(before.get(dims)) != repr(after.get(dims))
        ]
        rng.shuffle(changed)
        while changed:
            batch = [changed.pop() for _ in range(rng.randint(1, len(changed)))]
            touched = rereduce_groups(
                index,
                [d + (before[d],) for d in batch if d in before],
                [d + (after[d],) for d in batch if d in after],
                classify,
                aggregate,
                groups,
            )
            assert set(touched) == {d[:1] for d in batch}
        assert _bits(groups) == expected

        schema = CubeSchema(
            "C", [Dimension("g", STRING), Dimension("i", INTEGER)], "v"
        )
        for held_as_image in (False, True):
            cube = Cube.from_rows(schema, facts)
            if held_as_image:
                store_for_cube(cube)
            lattice = CubeLattice(
                "C", tuple(map(derive_hierarchy, schema.dimensions)), name
            )
            lattice.build(cube)
            assert _bits(lattice.node({"i": "all"}).groups) == expected


    @settings(max_examples=15, deadline=None)
    @given(panel_rows)
    @pytest.mark.parametrize("held_as", ["rows", "columns"])
    @pytest.mark.parametrize("name", aggregate_names())
    def test_the_aggregation_kernel_hands_over_the_scalar_paths_relation(
        self, name, held_as, rows
    ):
        # the operand's store is built from the cube's rows, or adopted
        # from the NumPy columns of a cube that arrived by column
        if name == "geomean":
            rows = {k: abs(v) + 1.0 for k, v in rows.items()}
        facts = [dims + (v,) for dims, v in rows.items()]
        if held_as == "rows":
            cube = Cube.from_rows(PANEL, facts)
        else:
            columns = list(map(list, zip(*facts)))
            cube = Cube.from_value_columns(PANEL, columns, lambda: facts)
            assert cube._columns is not None
        source = instance_from_cubes({"C": cube})
        for shape, mapping in _aggregation_mappings(name).items():
            self._check_handover(mapping, source, shape)

    def _check_handover(self, mapping, source, shape):
        scalar = ScalarChase(mapping).run(source)
        expected = [
            fact[:-1] + (repr(fact[-1]),) for fact in scalar.instance.facts("Y")
        ]
        real_add, real_decode = ColumnStore.add, columnar.decode_facts
        adds, decodes = [], []

        def counted_add(store, fact):
            adds.append(fact)
            return real_add(store, fact)

        def counted_decode(out_cols, n):
            decodes.append(n)
            return real_decode(out_cols, n)

        with mock.patch.object(ColumnStore, "add", counted_add), mock.patch.object(
            columnar, "decode_facts", counted_decode
        ):
            vector = StratifiedChase(mapping).run(source)
        # fact for fact, in insertion order, bit for bit
        assert [
            fact[:-1] + (repr(fact[-1]),) for fact in vector.instance.facts("Y")
        ] == expected, shape
        # the kernel's columns are adopted whole: no fact is built
        store = vector.instance.export_store("Y")
        assert adds == [] and decodes == [], shape
        assert store.dims_distinct and store.n_rows == len(expected), shape


class TestDistinctProperty:
    @given(
        st.one_of(
            st.lists(st.integers(-5, 5), max_size=30),
            st.lists(
                st.one_of(
                    st.sampled_from([float("nan"), -0.0, 0.0, 1.5]), finite_floats
                ),
                max_size=30,
            ),
        )
    )
    def test_distinct_is_numpy_unique(self, values):
        import numpy as np

        is_float = any(type(v) is float for v in values)
        array = np.array(values, dtype=float if is_float else np.int64)
        uniques, inverse = distinct(array, return_inverse=True)
        expected, expected_inverse = np.unique(array, return_inverse=True)
        # equal as values: which of -0.0 / 0.0 stands for both is the sort's
        assert np.array_equal(uniques, expected, equal_nan=True)
        assert inverse.tolist() == expected_inverse.tolist()
        assert np.array_equal(distinct(array), expected, equal_nan=True)


class TestSeriesProperties:
    @given(value_lists)
    def test_cumsum_last_is_total(self, values):
        assert cumsum(values)[-1] == pytest.approx(sum(values), abs=1e-6)

    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_diff_of_cumsum_recovers(self, values):
        recovered = first_difference(cumsum(values))
        assert recovered == pytest.approx(values[1:], abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=40), st.integers(1, 10))
    def test_moving_average_bounded_by_extremes(self, values, window):
        out = moving_average(values, window)
        assert all(min(values) - 1e-9 <= v <= max(values) + 1e-9 for v in out)

    @given(st.lists(st.floats(-100, 100), min_size=8, max_size=40))
    def test_loess_output_length(self, values):
        assert len(loess(values, frac=0.6)) == len(values)

    @given(
        st.lists(st.floats(-1000, 1000), min_size=8, max_size=48),
        st.integers(2, 4),
    )
    def test_stl_reconstruction(self, values, period):
        if len(values) < 2 * period:
            return
        decomposition = stl_decompose(values, period)
        assert decomposition.reconstruct() == pytest.approx(values, abs=1e-6)


class TestTermProperties:
    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False))
    def test_evaluate_commutative_ops(self, a, b):
        from repro.exl import default_registry

        registry = default_registry()
        add1 = evaluate(FuncApp("+", (Var("a"), Var("b"))), {"a": a, "b": b}, registry)
        add2 = evaluate(FuncApp("+", (Var("b"), Var("a"))), {"a": a, "b": b}, registry)
        assert add1 == add2

    @given(st.floats(-100, 100, allow_nan=False))
    def test_substitute_then_evaluate(self, value):
        from repro.exl import default_registry

        registry = default_registry()
        term = FuncApp("*", (Var("x"), Const(2.0)))
        substituted = substitute(term, {"x": Const(value)})
        assert term_vars(substituted) == frozenset()
        assert evaluate(substituted, {}, registry) == pytest.approx(2 * value)


class TestCubeProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from("abc"), finite_floats),
            min_size=0,
            max_size=40,
        )
    )
    def test_from_rows_to_rows_roundtrip(self, raw):
        from repro.model import STRING

        schema = CubeSchema(
            "C",
            [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
            "v",
        )
        seen = {}
        rows = []
        for ordinal, region, value in raw:
            key = (quarter(2020, 1) + ordinal, region)
            if key in seen:
                continue
            seen[key] = value
            rows.append(key + (value,))
        cube = Cube.from_rows(schema, rows)
        assert len(cube) == len(rows)
        assert set(cube.to_rows()) == set(rows)


# -- the cube boundary: CSV text in, CSV text out ---------------------------

_LABELS = st.one_of(
    st.sampled_from(["", "1", "1.0", "a", " a", "a ", "\t", "A", "é"]),
    st.text(alphabet=list('ab,"\r\n 1.'), max_size=4),
)
_DIM_VALUES = {
    STRING: _LABELS,
    INTEGER: st.integers(min_value=-12, max_value=12),
    TIME(Frequency.MONTH): st.integers(2019 * 12, 2021 * 12).map(
        lambda o: TimePoint(Frequency.MONTH, o)
    ),
    TIME(Frequency.DAY): st.integers(737_000, 737_040).map(
        lambda o: TimePoint(Frequency.DAY, o)
    ),
}
_MEASURES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1, 1.0, 5e-324, 0.1 + 0.2]),
)


@st.composite
def boundary_cubes(draw):
    """A cube of arity 0–3 over string / integer / time dimensions, its
    rows in a drawn order (possibly none)."""
    dtypes = draw(st.lists(st.sampled_from(list(_DIM_VALUES)), max_size=3))
    schema = CubeSchema(
        "B", [Dimension(f"d{i}", dtype) for i, dtype in enumerate(dtypes)], "v"
    )
    keys = draw(
        st.lists(
            st.tuples(*(_DIM_VALUES[dtype] for dtype in dtypes)),
            unique=True,
            max_size=1 if not dtypes else 12,
        )
    )
    return Cube.from_rows(schema, [key + (draw(_MEASURES),) for key in keys])


def _relation(store):
    """A store's content with measures compared bit for bit, whether it
    holds its columns as lists or as NumPy arrays."""
    from repro.model.cube import as_list

    codes = [as_list(column) for column in store.codes]
    return store.dicts, codes, list(map(repr, as_list(store.measures))), store.vmaps


class TestCubeBoundaryProperty:
    """A cube is read, ordered and written by column when it has
    columns and row by row when it has none; the two must be
    indistinguishable from outside."""

    @settings(max_examples=150, deadline=None)
    @given(boundary_cubes(), st.randoms(use_true_random=False))
    def test_column_path_and_row_path_are_one_format(self, cube, rng):
        import csv
        import io as stdio

        from repro.chase.colstore import ColumnStore
        from repro.model.io import (
            canonical_bytes,
            cube_from_canonical_bytes,
            cube_from_csv_text,
            cube_to_csv_text,
            text_sha256,
        )

        schema, width = cube.schema, cube.schema.arity + 1
        assert cube._colstore is None and cube._columns is None
        text = cube_to_csv_text(cube)  # row by row

        # (a) written from a store holding the rows in any order
        shuffled = cube.to_rows()
        rng.shuffle(shuffled)
        held = cube.copy()
        held._colstore = ColumnStore.from_distinct_rows(width, shuffled)
        assert cube_to_csv_text(held) == text

        # (b) read back: the same cube, the same bytes, the same digest
        back = cube_from_canonical_bytes(schema, *canonical_bytes(cube))
        assert _bits(back) == _bits(cube)
        assert list(back) == [row[:-1] for row in cube.to_rows()]
        assert canonical_bytes(back) == canonical_bytes(cube)
        assert text_sha256(cube_to_csv_text(back)) == text_sha256(text)

        # ... and from the same rows in any file order, through the
        # reader's columns
        buffer = stdio.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(schema.columns)
        writer.writerows([*map(str, row[:-1]), repr(row[-1])] for row in shuffled)
        unordered = cube_from_csv_text(schema, buffer.getvalue())
        assert (unordered._columns is not None) == bool(shuffled)
        assert cube_to_csv_text(unordered) == text

        # (c) the store adopted from the reader's columns is the one
        # built from the sorted rows, code for code
        if shuffled:
            adopted = ColumnStore.from_cube_columns(*unordered._columns)
            encoded = ColumnStore.from_distinct_rows(width, cube.to_rows())
            assert _relation(adopted) == _relation(encoded)
            assert adopted.dims_distinct

    @settings(max_examples=150, deadline=None)
    @given(
        boundary_cubes(),
        st.sampled_from(["sql", "r", "matlab", "etl"]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_every_target_store_hands_the_cube_back_as_columns(
        self, cube, target, held_as_columns, rng
    ):
        """(e) the other four targets' side of the boundary: a cube
        loaded into a target's store by column and extracted again is
        the same cube, fact for fact and bit for bit, in the same row
        order and with the same text — and it comes back as columns."""
        from types import SimpleNamespace

        from repro.model.io import canonical_text

        schema = cube.schema
        sorted_rows = cube.to_rows()
        if held_as_columns:
            # the columns in any order, as a CSV file or a kernel
            # might hold them
            shuffled = list(sorted_rows)
            rng.shuffle(shuffled)
            cube = Cube.from_columns(schema, *_encode(shuffled, schema.arity))
            assert cube is not None
        backend = all_backends()[target]
        store = backend.new_store(SimpleNamespace(target=[schema], target_tgds=[]))
        backend.load_cube(store, cube)
        if target == "matlab" and not sorted_rows:
            assert (store[schema.name].nrow, store[schema.name].ncol) == (0, 0)
        back = backend.extract_cube(store, schema)
        assert back.schema == schema
        assert back._columns is not None and back._dict is None
        assert _row_cells(back.to_rows()) == _row_cells(sorted_rows)
        # rows went in sorted, so they come out sorted: the engine's
        # order is the cube's row order
        assert [row[:-1] for row in back.to_rows()] == list(back)
        assert canonical_text(back) == canonical_text(cube)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from("abc")),
            unique=True,
            max_size=10,
        ),
        st.data(),
    )
    def test_malformed_rows_are_reported_as_the_row_loop_reports_them(self, keys, data):
        """(d) the cases of ``tests/test_io_cli.py``, at any line of an
        otherwise well-formed file: the column reader steps aside and the
        message is the row loop's, line number included."""
        import io as stdio

        from repro.errors import ModelError
        from repro.model.io import read_cube_csv

        schema = CubeSchema(
            "P", [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)], "v"
        )
        good = [f"{quarter(2020, 1) + o},{r},{float(o)}" for o, r in keys]
        at = data.draw(st.integers(0, len(good)))
        line = at + 2

        def read(bad_rows):
            lines = ["q,r,v", *good[:at], *bad_rows, *good[at:]]
            return read_cube_csv(schema, stdio.StringIO("\n".join(lines) + "\n"))

        def message(bad_row):
            with pytest.raises(ModelError) as caught:
                read([bad_row])
            return str(caught.value)

        assert message("2020Q1,north") == f"line {line}: 2 fields for 3 columns"
        assert message("2099Q1,south,oops") == (
            f"line {line}: could not convert string to float: 'oops'"
        )
        assert message("20-20,south,1.0") == (
            f"line {line}: unrecognized time point literal: '20-20'"
        )
        if at:
            o, r = keys[at - 1]
            assert message(f"{quarter(2020, 1) + o}, {r} ,-1.0") == (
                f"line {line}: functional violation on "
                f"P({quarter(2020, 1) + o!r}, {r!r}): {float(o)!r} vs -1.0"
            )
        assert len(read(["", " , ,"])) == len(good)  # blank rows are skipped
        with pytest.raises(ModelError, match="^CSV header .* does not match"):
            read_cube_csv(schema, stdio.StringIO("a,b,c\n"))
        with pytest.raises(ModelError, match="^empty CSV for cube P$"):
            read_cube_csv(schema, stdio.StringIO(""))


def _encode(rows, arity):
    """``rows`` as the ``(dictionaries, codes, measures)`` of
    :meth:`Cube.from_columns`, codes numbered by first occurrence."""
    vmaps = [{} for _ in range(arity)]
    codes = [
        [vmap.setdefault(row[j], len(vmap)) for row in rows]
        for j, vmap in enumerate(vmaps)
    ]
    return [list(vmap) for vmap in vmaps], codes, [row[-1] for row in rows]


def _cells(pairs):
    """``(key, measure)`` pairs in order, measures compared bit for bit."""
    return [(key, repr(value)) for key, value in pairs]


def _row_cells(rows):
    """The same for relational rows ``(x1, …, xn, y)``."""
    return _cells((row[:-1], row[-1]) for row in rows)


_EDITS = [
    "same", "nan", "signed-zero", "measure", "missing", "extra", "rekeyed",
    "recombined",
]


def _held_as(form, schema, rows):
    """A cube of ``rows`` held as its keyed view, as the columns
    :meth:`Cube.from_columns` keeps, or as an attached column store."""
    if form == "columns":
        return Cube.from_columns(schema, *_encode(rows, schema.arity))
    cube = Cube.from_rows(schema, rows)
    if form == "store":
        store_for_cube(cube)
    return cube


class TestSameRowsProperty:
    """``a.same_rows(b)`` is exactly ``a.delta(b).is_empty``, whether the
    cubes are compared by column or through their keyed views."""

    @settings(max_examples=200, deadline=None)
    @given(
        boundary_cubes(),
        st.sampled_from(_EDITS),
        st.sampled_from(["rows", "columns", "store"]),
        st.sampled_from(["rows", "columns", "store"]),
        st.randoms(use_true_random=False),
        st.data(),
    )
    def test_same_rows_is_an_empty_delta(self, cube, edit, form, other_form, rng, data):
        schema = cube.schema
        rows = cube.to_rows()
        revised = list(rows)
        absent = tuple(data.draw(_DIM_VALUES[dim.dtype]) for dim in schema.dimensions)
        if rows and absent not in cube:
            i = rng.randrange(len(rows))
            if edit == "missing":
                del revised[i]
            elif edit == "extra":
                revised.append(absent + (1.0,))
            elif edit == "rekeyed":
                revised[i] = absent + (rows[i][-1],)
        if edit == "recombined" and len(rows) > 1 and schema.arity > 1:
            # two rows trade their first component: every value is still
            # in the other cube's dictionaries, the keys are not
            i, j = rng.sample(range(len(rows)), 2)
            swapped = [
                (rows[j][0],) + rows[i][1:],
                (rows[i][0],) + rows[j][1:],
            ]
            keys = {row[:-1] for k, row in enumerate(rows) if k not in (i, j)}
            if not keys & {row[:-1] for row in swapped} and (
                swapped[0][:-1] != swapped[1][:-1]
            ):
                revised[i], revised[j] = swapped
        if rows:
            i = rng.randrange(len(rows))
            key = rows[i][:-1]
            if edit == "nan":
                # two NaN objects: equal as measures, never identical
                rows[i] = key + (float("nan"),)
                revised[i] = key + (float("nan"),)
            elif edit == "signed-zero":
                rows[i] = key + (0.0,)
                revised[i] = key + (-0.0,)
            elif edit == "measure":
                revised[i] = key + (float(data.draw(_MEASURES)),)
        # the same rows in another order: other dictionaries, other codes
        rng.shuffle(revised)
        a = _held_as(form, schema, rows)
        b = _held_as(other_form, schema, revised)
        expected = a.delta(b).is_empty
        assert a.same_rows(b) is expected
        assert b.same_rows(a) is expected


class TestLazyCubeProperty:
    """A cube built from columns keeps the columns and decodes its keyed
    view on first use; from outside it is the cube ``from_rows`` builds
    from the same rows in the same order, whichever method touches it
    first."""

    @settings(max_examples=120, deadline=None)
    @given(boundary_cubes(), st.randoms(use_true_random=False), st.data())
    def test_every_method_matches_the_cube_of_its_rows(self, cube, rng, data):
        schema, arity = cube.schema, cube.schema.arity
        rows = cube.to_rows()
        rng.shuffle(rows)
        eager = Cube.from_rows(schema, rows)

        def lazy():
            built = Cube.from_columns(schema, *_encode(rows, arity))
            assert built is not None and built._dict is None
            return built

        absent = tuple(
            data.draw(_DIM_VALUES[dim.dtype]) for dim in schema.dimensions
        )
        for key in [row[:-1] for row in rows] + [absent]:
            assert repr(lazy().get(key, "none")) == repr(eager.get(key, "none"))
            assert (key in lazy()) == (key in eager)
            if key in eager:
                assert repr(lazy()[key]) == repr(eager[key])
            else:
                with pytest.raises(Exception, match="undefined on"):
                    lazy()[key]
        untouched = lazy()
        assert len(untouched) == len(eager) and untouched._dict is None
        assert repr(untouched) == repr(eager) and untouched._dict is None
        assert list(lazy()) == list(eager)
        assert list(lazy().keys()) == list(eager.keys())
        assert _cells(lazy().items()) == _cells(eager.items())
        assert list(map(repr, lazy().values())) == list(map(repr, eager.values()))
        assert _row_cells(lazy().to_rows()) == _row_cells(eager.to_rows())
        if schema.is_time_series:
            points, values = lazy().to_series()
            assert (points, list(map(repr, values))) == (
                eager.to_series()[0], list(map(repr, eager.to_series()[1]))
            )
        assert lazy() == eager and eager == lazy() and lazy() == lazy()
        assert lazy().approx_equals(eager) and not lazy().diff(eager)
        assert lazy().delta(eager).is_empty and eager.delta(lazy()).is_empty

        # a copy shares the columns and stays undecoded; it is the same cube
        clone = lazy().copy()
        assert clone._dict is None and len(clone) == len(eager)
        assert _cells(clone.items()) == _cells(eager.items())

        # set after construction, on the cube and on a copy of it
        value = data.draw(st.floats(allow_nan=False, allow_infinity=False))
        for target in (lazy(), lazy().copy()):
            expected = eager.copy()
            target.set(absent, value, overwrite=True)
            expected.set(absent, value, overwrite=True)
            assert _cells(target.items()) == _cells(expected.items())
            assert target._columns is None and target._colstore is None
            assert len(target) == len(expected)

        # delta against a revision of the same rows
        revised = eager.copy()
        revised.set(absent, value, overwrite=True)
        if rows:
            revised._data.pop(rows[0][:-1], None)
        delta, expected = lazy().delta(revised), eager.delta(revised)
        assert _row_cells(delta.new_facts()) == _row_cells(expected.new_facts())
        assert _row_cells(delta.old_facts()) == _row_cells(expected.old_facts())
        assert _cells(lazy().items()) == _cells(eager.items())  # source untouched

        # the column store and the writer work on the columns alone
        from repro.model.io import cube_to_csv_text

        written = lazy()
        assert cube_to_csv_text(written) == cube_to_csv_text(eager)
        if rows:
            assert written._dict is None
            adopted = lazy()
            assert _relation(store_for_cube(adopted)) == _relation(
                store_for_cube(eager)
            )
            assert adopted._dict is None

    @settings(max_examples=60, deadline=None)
    @given(boundary_cubes(), st.data())
    def test_columns_that_are_not_plainly_a_cube_are_declined(self, cube, data):
        schema, arity = cube.schema, cube.schema.arity
        rows = cube.to_rows()
        if not rows:
            return
        dictionaries, codes, measures = _encode(rows, arity)
        again = data.draw(st.integers(0, len(rows) - 1))

        def built(dictionaries=dictionaries, codes=codes, measures=measures, **kw):
            return Cube.from_columns(schema, dictionaries, codes, measures, **kw)

        assert built() is not None
        # a repeated key, with the same measure or another
        repeated = [column + [column[again]] for column in codes]
        assert built(codes=repeated, measures=measures + [measures[again]]) is None
        assert built(codes=repeated, measures=measures + [1.25]) is None
        # ... unless the caller vouches for the keys (a column store does)
        assert built(keys_distinct=True) is not None
        assert built(measures=[int(m == m) for m in measures]) is None
        if arity:
            assert built(measures=measures[:-1]) is None  # ragged columns
            j = data.draw(st.integers(0, arity - 1))
            for bad in (len(dictionaries[j]), -1):
                broken = [list(column) for column in codes]
                broken[j][again] = bad
                assert built(codes=broken) is None
                assert built(codes=broken, keys_distinct=True) is None
            wrong = [list(values) for values in dictionaries]
            wrong[j][codes[j][again]] = 1.5  # no dimension type accepts a float
            assert built(dictionaries=wrong) is None
            # one value under two codes: distinct codes, repeated key
            twice = [list(values) for values in dictionaries]
            twice[j].append(twice[j][codes[j][again]])
            split = [column + [column[again]] for column in codes]
            split[j][-1] = len(twice[j]) - 1
            assert (
                built(dictionaries=twice, codes=split,
                      measures=measures + [measures[again]])
                is None
            )


class TestProgramEquivalenceProperty:
    """The headline property: arbitrary valid programs run identically on
    every executor.  Kept small so the suite stays fast."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_program_equivalence(self, seed):
        workload = random_workload(
            seed,
            n_statements=4,
            n_periods=10,
            n_regions=2,
            allow_table_functions=False,
        )
        program = Program.compile(workload.source, workload.schema)
        mapping = generate_mapping(program)
        backends = all_backends()
        reference = backends["chase"].run_mapping(mapping, workload.data)
        for name in ("sql", "r", "matlab", "etl"):
            output = backends[name].run_mapping(mapping, workload.data)
            for cube_name, expected in reference.items():
                assert expected.approx_equals(output[cube_name], rel_tol=1e-8)

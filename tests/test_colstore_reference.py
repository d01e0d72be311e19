"""``ColumnStore`` against a plain fact dict.

A relation is a set of facts kept in insertion order, which a Python
``dict`` (fact -> None) is.  Every test here drives a
:class:`~repro.chase.colstore.ColumnStore` and such a dict through the
same operations and requires, after each one, the same ``rows()`` in the
same order, the same ``n_rows`` and a decoded ``image()`` equal to the
dict's facts.  The values are the awkward ones: duplicate facts, two
distinct NaN objects (a NaN fact is only a duplicate of the *same*
object, by the identity short-circuit of tuple equality), ``1`` and
``1.0`` in one dimension (one key) and ``0.0`` / ``-0.0`` (one key,
the first kept).

Two facts are the same when their dimensions compare equal and their
measures have the same ``repr`` (so ``-0.0`` is not ``0.0`` and NaN is
NaN): the store canonicalizes an equal dimension value to the first one
it saw, as a dict keeps its first key, and a measure that went through a
``float64`` column is a new float object with the same bits.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.colstore import ColumnStore
from repro.chase.columnar import EncodedColumn
from repro.model.cube import Cube, CubeSchema, Dimension
from repro.model.types import INTEGER, STRING

NAN_A = float("nan")
NAN_B = float("nan")

measures = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, NAN_A, NAN_B, float("inf"), -float("inf")]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
#: facts of one arity-3 relation; the second dimension mixes 1 with 1.0
#: and 0.0 with -0.0
facts = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([0, 1, 1.0, 2, 0.0, -0.0]),
    measures,
)
#: facts a cube of SCHEMA holds
cube_facts = st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3), measures)

SCHEMA = CubeSchema("R", [Dimension("r", STRING), Dimension("i", INTEGER)], "v")


def _same(fact, expected):
    return (
        len(fact) == len(expected)
        and fact[:-1] == expected[:-1]
        and repr(fact[-1]) == repr(expected[-1])
    )


def _check(store, reference):
    """The store holds exactly the dict's facts, in its order."""
    expected = list(reference)
    assert store.n_rows == len(expected)
    rows = list(store.rows())
    assert len(rows) == len(expected)
    assert all(map(_same, rows, expected)), (rows, expected)
    image = store.image()
    assert image.n_rows == len(expected)
    columns = [dim.decode_list() for dim in image.dims]
    columns.append(image.measures.tolist())
    decoded = list(zip(*columns))
    assert all(map(_same, decoded, expected)), (decoded, expected)


def _add(store, reference, fact):
    new = fact not in reference
    reference.setdefault(fact)
    assert store.add(fact) is new


def _distinct_keys(rows):
    """``rows`` with one fact per dimension tuple (the first)."""
    first = {}
    for row in rows:
        first.setdefault(row[:-1], row)
    return list(first.values())


def _encoded(values):
    vmap = {}
    codes = [vmap.setdefault(value, len(vmap)) for value in values]
    return list(vmap), codes


class TestAgainstAFactDict:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(facts, max_size=40))
    def test_add(self, sequence):
        store, reference = ColumnStore(3), {}
        for fact in sequence:
            _add(store, reference, fact)
        _check(store, reference)
        # a duplicate of every fact, the NaN ones by their own objects
        for fact in sequence:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(facts, max_size=30), st.lists(facts, max_size=20))
    def test_from_distinct_rows(self, rows, more):
        rows = _distinct_keys(rows)
        store = ColumnStore.from_distinct_rows(3, rows)
        reference = dict.fromkeys(rows)
        assert store.dims_distinct
        _check(store, reference)
        for fact in more:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cube_facts, max_size=30), st.lists(facts, max_size=20))
    def test_from_cube_columns(self, rows, more):
        # the columns a CSV reader leaves on a cube, rows in file order;
        # the store holds them in the cube's row order
        rows = _distinct_keys(rows)
        dims = [_encoded(column) for column in list(zip(*rows))[:-1]] or [
            ([], []),
            ([], []),
        ]
        store = ColumnStore.from_cube_columns(
            [values for values, _ in dims],
            [codes for _, codes in dims],
            [row[-1] for row in rows],
        )
        reference = dict.fromkeys(Cube.from_rows(SCHEMA, rows).to_rows())
        _check(store, reference)
        for fact in more:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(facts, min_size=1, max_size=30),
        st.sampled_from([None, 0, 1]),
        st.booleans(),
        st.lists(facts, max_size=10),
    )
    def test_append_columns(self, rows, constant, scalar_measure, more):
        # kernel output columns: encoded, or one value broadcast
        if constant is not None:
            rows = [
                row[:constant] + (rows[0][constant],) + row[constant + 1 :]
                for row in rows
            ]
        if scalar_measure:
            rows = [row[:-1] + (rows[0][-1],) for row in rows]
        rows = _distinct_keys(rows)
        n = len(rows)
        columns = []
        for j, column in enumerate(list(zip(*rows))[:-1]):
            if j == constant:
                columns.append(("scalar", column[0]))
            else:
                dictionary, codes = _encoded(column)
                vmap = {value: code for code, value in enumerate(dictionary)}
                columns.append(
                    EncodedColumn(np.array(codes, dtype=np.int64), dictionary, vmap)
                )
        if scalar_measure:
            columns.append(("scalar", rows[0][-1]))
        else:
            # a kernel's NaN is a float of its own: no fact added later
            # is that object
            column = np.array([row[-1] for row in rows], dtype=np.float64)
            columns.append(column)
            rows = [row[:-1] + (m,) for row, m in zip(rows, column.tolist())]
        store = ColumnStore(3)
        assert store.append_columns(columns, n) == n
        reference = dict.fromkeys(rows)
        _check(store, reference)
        for fact in more:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(facts, max_size=25), st.lists(facts, max_size=25))
    def test_extend_from(self, rows, other_rows):
        # a merge appends disjoint shard outputs
        store, reference = ColumnStore(3), {}
        for fact in rows:
            _add(store, reference, fact)
        other, other_reference = ColumnStore(3), {}
        for fact in other_rows:
            if fact not in reference:
                _add(other, other_reference, fact)
        assert store.extend_from(other) == len(other_reference)
        reference.update(other_reference)
        _check(store, reference)
        _check(other, other_reference)
        for fact in rows + other_rows:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(facts, max_size=25),
        st.booleans(),
        st.lists(facts, max_size=15),
        st.lists(facts, max_size=15),
    )
    def test_fork_then_grow_either_side(self, rows, adopted, left, right):
        if adopted:
            rows = _distinct_keys(rows)
            store = ColumnStore.from_distinct_rows(3, rows)
            reference = dict.fromkeys(rows)
        else:
            store, reference = ColumnStore(3), {}
            for fact in rows:
                _add(store, reference, fact)
        store.rows(), store.image()  # caches the fork inherits
        clone, clone_reference = store.fork(), dict(reference)
        for fact in left:
            _add(store, reference, fact)
            _check(clone, clone_reference)
        for fact in right:
            _add(clone, clone_reference, fact)
            _check(store, reference)
        _check(store, reference)
        _check(clone, clone_reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(facts, max_size=30), st.lists(facts, max_size=15))
    def test_pickle_round_trip(self, rows, more):
        store, reference = ColumnStore(3), {}
        for fact in rows:
            _add(store, reference, fact)
        # one pickle: a NaN object shared by the store and the dict
        # stays one object on the far side
        store, reference = pickle.loads(pickle.dumps((store, reference)))
        _check(store, reference)
        for fact in rows + more:
            _add(store, reference, fact)
        _check(store, reference)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_operation_sequences(self, data):
        """Any mix of the operations above on a pool of stores, every
        store checked after every operation."""
        pool = [(ColumnStore(3), {})]
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            index = data.draw(st.integers(0, len(pool) - 1), label="store")
            store, reference = pool[index]
            op = data.draw(st.sampled_from(["add", "fork", "extend", "pickle"]))
            if op == "add":
                for fact in data.draw(st.lists(facts, max_size=5), label="facts"):
                    _add(store, reference, fact)
            elif op == "fork":
                pool.append((store.fork(), dict(reference)))
            elif op == "extend":
                other = ColumnStore(3)
                added = {}
                for fact in data.draw(st.lists(facts, max_size=5), label="facts"):
                    if fact not in reference:
                        _add(other, added, fact)
                store.extend_from(other)
                reference.update(added)
            else:
                pool[index] = pickle.loads(pickle.dumps((store, reference)))
            for pair in pool:
                _check(*pair)

"""Pickle/IPC transport contract of the relation store.

The sharded chase ships whole ``ColumnStore`` objects across process
boundaries (fork out, pickle back).  That only works if a round trip
is *behaviour-preserving*, not merely value-preserving:

* dictionary order and code assignment survive, so merged stores
  reproduce the exact insertion order an unsharded run would produce;
* the measure column keeps its original float objects — NaN-carrying
  facts compare equal through the tuple identity short-circuit, so
  membership and dedup still work after the hop;
* derived caches (members index, tuple view, columnar image) are
  dropped at the boundary and rebuilt on demand.

The suite pins each property in-process first, then through an actual
fork()ed worker, which is the transport the sharded chase uses.
"""

import math
import multiprocessing
import pickle
import sys

import numpy as np
import pytest

from repro.chase.colstore import ColumnStore
from repro.chase.columnar import EncodedColumn
from repro.model import month
from repro.model.cube import as_list

NAN = float("nan")


def _panel_store():
    """A 3-ary store: (month, region, measure) with shared dim values."""
    store = ColumnStore(3)
    for i in range(24):
        store.add((month(2020, 1) + (i % 12), f"r{i % 3}", float(i) * 1.5))
    return store


def _assert_equivalent(left: ColumnStore, right: ColumnStore):
    # either side may hold its columns as lists or as NumPy arrays
    assert left.arity == right.arity
    assert list(map(as_list, left.codes)) == list(map(as_list, right.codes))
    assert left.dicts == right.dicts
    assert left.vmaps == right.vmaps
    assert left.dims_distinct == right.dims_distinct
    assert len(left.measures) == len(right.measures)
    for a, b in zip(as_list(left.measures), as_list(right.measures)):
        assert (a == b) or (math.isnan(a) and math.isnan(b))


class TestColumnStoreRoundTrip:
    def test_plain_round_trip_preserves_order_and_codes(self):
        store = _panel_store()
        clone = pickle.loads(pickle.dumps(store))
        _assert_equivalent(store, clone)
        # the decoded tuple views agree row for row (insertion order)
        assert list(clone.rows()) == list(store.rows())

    def test_round_trip_after_fork(self):
        store = _panel_store()
        forked = store.fork()
        forked.add((month(2022, 1), "r9", 99.0))
        clone = pickle.loads(pickle.dumps(forked))
        _assert_equivalent(forked, clone)
        # the original is untouched and the fork's new row survived
        assert store.n_rows == 24 and clone.n_rows == 25

    def test_round_trip_after_append_columns(self):
        codes = np.arange(6, dtype=np.int64) % 3
        dictionary = [month(2021, m) for m in (1, 2, 3)]
        vmap = {value: code for code, value in enumerate(dictionary)}
        store = ColumnStore(3)
        appended = store.append_columns(
            [
                EncodedColumn(codes, dictionary, vmap),
                ("scalar", "north"),
                np.arange(6, dtype=np.float64),
            ],
            6,
        )
        assert appended == 6
        clone = pickle.loads(pickle.dumps(store))
        _assert_equivalent(store, clone)
        assert clone.dims_distinct  # the single-writer proof survives
        assert list(clone.rows()) == list(store.rows())

    def test_non_finite_measures_survive(self):
        store = ColumnStore(2)
        for value in (1.0, NAN, float("inf"), float("-inf"), -0.0, NAN):
            store.add(("k", value))
        clone = pickle.loads(pickle.dumps(store))
        _assert_equivalent(store, clone)
        # dedup semantics are preserved: the same NaN object is a
        # duplicate (identity short-circuit), a fresh NaN is a new fact
        nan_fact = list(clone.rows())[1]
        assert clone.add(nan_fact) is False
        assert clone.add(("k", float("nan"))) is True

    def test_derived_caches_dropped_not_leaked(self):
        store = _panel_store()
        store.rows()  # materialize the view
        image = store.image()  # and the columnar image
        clone = pickle.loads(pickle.dumps(store))
        assert clone._view is None and clone._members is None
        assert clone._image is None
        # rebuilt caches agree with the source's
        assert list(clone.rows()) == list(store.rows())
        rebuilt = clone.image()
        assert rebuilt.n_rows == image.n_rows
        assert np.array_equal(rebuilt.measures, image.measures)

    def test_extend_from_remaps_codes(self):
        left, right = ColumnStore(2), ColumnStore(2)
        left.add(("a", 1.0))
        left.add(("b", 2.0))
        right.add(("b", 3.0))  # same value, different code on the right
        right.add(("c", 4.0))
        appended = left.extend_from(right)
        assert appended == 2
        assert list(left.rows()) == [
            ("a", 1.0),
            ("b", 2.0),
            ("b", 3.0),
            ("c", 4.0),
        ]
        assert left.dicts[0] == ["a", "b", "c"]  # dictionary order kept

    def test_extend_from_identity_fast_path(self):
        base = _panel_store()
        other = base.fork()  # identical dictionaries: identity lut
        merged = ColumnStore(3)
        merged.extend_from(base)
        merged.extend_from(other)
        assert merged.n_rows == 48
        assert merged.dicts == base.dicts
        assert not merged.dims_distinct  # cross-shard rows may collide


def _worker_hop(store):
    """Runs in a fork()ed child: mutate the shipped store, pickle back."""
    store.add((month(2023, 1), "r-child", 7.25))
    store.add((month(2023, 2), "r-child", NAN))
    return store


@pytest.mark.skipif(
    sys.platform.startswith("win"), reason="fork transport is POSIX-only"
)
class TestWorkerProcessHop:
    """The real transport: fork out, compute in the child, pickle back."""

    def test_column_store_survives_worker_hop(self):
        store = _panel_store()
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            returned = pool.apply(_worker_hop, (store,))
        # the parent's copy is untouched; the returned store carries
        # the child's appends with dictionary order intact
        assert store.n_rows == 24
        assert returned.n_rows == 26
        assert list(returned.rows())[:24] == list(store.rows())
        tail = list(returned.rows())[24:]
        assert tail[0] == (month(2023, 1), "r-child", 7.25)
        assert math.isnan(tail[1][-1])
        # and the child's NaN row is retrievable/deduplicable by the
        # fact object the parent decoded from the returned store
        assert returned.add(tail[1]) is False

    def test_merge_of_returned_shards_matches_unsharded(self):
        base = _panel_store()
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            shards = pool.map(_worker_hop, [base.fork(), base.fork()])
        merged = ColumnStore(3)
        for shard in shards:
            merged.extend_from(shard)
        assert merged.n_rows == 2 * 26
        # both shards decoded to the same dictionaries, so the merge
        # took the identity fast path and kept base's dictionary order
        assert merged.dicts[0][: len(base.dicts[0])] == base.dicts[0]

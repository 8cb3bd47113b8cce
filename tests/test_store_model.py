"""Model-based test of :class:`DistanceStore` against an ``OrderedDict`` LRU.

A hypothesis state machine drives a store and a small reference model side
by side.  The model is the plain semantics the columnar store must keep:
sparse pairs in an ``OrderedDict`` (most recently used last), dense blocks
looked up in insertion order, a ``max_sparse_entries`` bound that evicts
from the front, ``merge`` as ``dict.update`` and ``save``/``load`` as a
sorted dump.  The store under test merges its write tier after two entries,
so merges, re-puts of merged keys and evictions from both tiers all happen
within a few steps.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.distances.context import DistanceStore

indices = st.integers(0, 9)
index_lists = st.lists(indices, min_size=0, max_size=6)
values = st.floats(allow_nan=False, allow_infinity=False, width=64)
bounds = st.one_of(st.none(), st.integers(1, 8))


class SmallTierStore(DistanceStore):
    """The store with a write tier small enough to merge every few puts."""

    WRITE_TIER_MIN = 2
    WRITE_TIER_FRACTION = 0.5


class ModelStore:
    """Reference semantics: an ``OrderedDict`` LRU plus dense blocks."""

    def __init__(self, symmetric: bool, bound=None) -> None:
        self.symmetric = symmetric
        self.sparse: "OrderedDict[tuple, float]" = OrderedDict()
        self.blocks: list = []
        self.bound = bound
        self.evictions = 0

    def key(self, i: int, j: int) -> tuple:
        return (j, i) if self.symmetric and j < i else (i, j)

    def evict(self) -> None:
        while self.bound is not None and len(self.sparse) > self.bound:
            self.sparse.popitem(last=False)
            self.evictions += 1

    def block_get(self, block, i: int, j: int):
        rows, cols, table, diagonal_valid = block
        if i not in rows or j not in cols or (i == j and not diagonal_valid):
            return None
        # The last occurrence of a repeated index answers.
        r = len(rows) - 1 - rows[::-1].index(i)
        c = len(cols) - 1 - cols[::-1].index(j)
        return table[r][c]

    def get(self, i: int, j: int):
        for block in self.blocks:
            value = self.block_get(block, i, j)
            if value is None and self.symmetric and i != j:
                value = self.block_get(block, j, i)
            if value is not None:
                return value
        key = self.key(i, j)
        value = self.sparse.get(key)
        if value is not None and self.bound is not None:
            self.sparse.move_to_end(key)
        return value

    def put(self, i: int, j: int, value: float) -> None:
        key = self.key(i, j)
        self.sparse[key] = value
        if self.bound is not None:
            self.sparse.move_to_end(key)
            self.evict()


def _store_entries(store: DistanceStore) -> list:
    """The store's sparse ``((i, j), value)`` entries, least recently used first."""
    keys, vals = store._entries()
    high, low = (keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist()
    pairs = zip(low, high) if store.symmetric else zip(high, low)
    return list(zip(pairs, vals.tolist()))


class StoreMachine(RuleBasedStateMachine):
    SYMMETRIC = True

    def __init__(self) -> None:
        super().__init__()
        self.store = SmallTierStore(symmetric=self.SYMMETRIC)
        self.model = ModelStore(self.SYMMETRIC)
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self) -> None:
        self.tmp.cleanup()

    @rule(i=indices, j=indices, value=values)
    def put(self, i, j, value):
        self.store.put(i, j, value)
        self.model.put(i, j, value)

    @rule(i=indices, js=index_lists, data=st.data())
    def put_many(self, i, js, data):
        vals = data.draw(st.lists(values, min_size=len(js), max_size=len(js)))
        self.store.put_many(i, js, vals)
        for j, value in zip(js, vals):
            self.model.put(i, j, value)

    @rule(i=indices, j=indices)
    def get(self, i, j):
        assert self.store.get(i, j) == self.model.get(i, j)

    @rule(i=indices, js=index_lists)
    def get_many(self, i, js):
        got, hit = self.store.get_many(i, js)
        want = [self.model.get(i, j) for j in js]
        assert hit.tolist() == [value is not None for value in want]
        assert [v for v, h in zip(got.tolist(), hit.tolist()) if h] == [
            value for value in want if value is not None
        ]

    @rule(pairs=st.lists(st.tuples(indices, indices), max_size=6))
    def get_many_pairs(self, pairs):
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        got, hit = self.store.get_many(np.asarray(rows, dtype=int), cols)
        want = [self.model.get(i, j) for i, j in pairs]
        assert [v if h else None for v, h in zip(got.tolist(), hit.tolist())] == want

    @rule(
        rows=st.lists(st.integers(3, 7), min_size=1, max_size=3),
        cols=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        diagonal_valid=st.booleans(),
        data=st.data(),
    )
    def put_block(self, rows, cols, diagonal_valid, data):
        table = [
            data.draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
            for _ in rows
        ]
        self.store.put_block(rows, cols, np.array(table, dtype=float), diagonal_valid)
        self.model.blocks.append((rows, cols, table, diagonal_valid))

    @rule(entries=st.lists(st.tuples(indices, indices, values), max_size=8))
    def merge(self, entries):
        other = DistanceStore(symmetric=self.SYMMETRIC)
        other_model = ModelStore(self.SYMMETRIC)
        for i, j, value in entries:
            other.put(i, j, value)
            other_model.put(i, j, value)
        self.store.merge(other)
        self.model.sparse.update(other_model.sparse)
        self.model.evict()

    @rule(bound=bounds)
    def set_bound(self, bound):
        self.store.max_sparse_entries = bound
        self.model.bound = bound
        self.model.evict()

    @rule()
    def save_and_load(self):
        path = Path(self.tmp.name) / "store.npz"
        self.store.save(path, compress=False)
        expected = sorted(self.model.sparse.items())
        with np.load(path) as payload:
            if expected:
                assert payload["sparse_i"].tolist() == [key[0] for key, _ in expected]
                assert payload["sparse_j"].tolist() == [key[1] for key, _ in expected]
                assert payload["sparse_values"].tolist() == [value for _, value in expected]
            else:
                assert "sparse_i" not in payload
        self.store = SmallTierStore.load(path)
        # A loaded store is unbounded and holds its pairs in file order.
        self.model.sparse = OrderedDict(expected)
        self.model.bound = None
        self.model.evictions = 0

    @invariant()
    def same_entries_in_the_same_order(self):
        assert _store_entries(self.store) == list(self.model.sparse.items())
        assert self.store.n_sparse_entries == len(self.model.sparse)
        assert self.store.sparse_evictions == self.model.evictions


class AsymmetricStoreMachine(StoreMachine):
    SYMMETRIC = False


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestSymmetricStoreModel = StoreMachine.TestCase
TestSymmetricStoreModel.settings = _SETTINGS
TestAsymmetricStoreModel = AsymmetricStoreMachine.TestCase
TestAsymmetricStoreModel.settings = _SETTINGS


@pytest.mark.parametrize(
    "bound, request_targets",
    [
        # The request's first pair evicts the pair it re-puts next.
        (3, [4, 1]),
        # Evicting the second pair merges the tiers, moving the first pair
        # (re-put third) into the sorted tier mid-request.
        (2, [4, 5, 4]),
    ],
)
def test_bounded_put_many_matches_one_put_per_pair(bound, request_targets):
    store = SmallTierStore(max_sparse_entries=bound)
    model = ModelStore(symmetric=True, bound=bound)
    for j in (1, 2, 3):
        store.put(0, j, float(j))
        model.put(0, j, float(j))
    store.put_many(0, request_targets, [10.0 + j for j in request_targets])
    for j in request_targets:
        model.put(0, j, 10.0 + j)
    assert _store_entries(store) == list(model.sparse.items())
    assert store.n_sparse_entries == len(model.sparse)
    assert store.sparse_evictions == model.evictions

"""Correctness tests for every baseline index, plus the paper's
domination claims (section 6.1) about their relative memory footprints."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.art import ARTIndex
from repro.baselines.bwtree import BwTreeIndex
from repro.baselines.hot import HOTIndex
from repro.baselines.hybrid import HybridIndex
from repro.baselines.interface import OrderedIndex
from repro.baselines.masstree import MasstreeIndex
from repro.baselines.skiplist import SkipListIndex
from repro.btree.tree import BPlusTree
from repro.errors import KeyEncodingError
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.registry import available_indexes

from tests.conftest import SortedModel, U64Source


def make_index(name, source):
    cost = source.cost
    if name == "hot":
        return HOTIndex(source.table, 8, cost)
    if name == "art":
        return ARTIndex(8, cost)
    if name == "skiplist":
        return SkipListIndex(8, cost)
    if name == "bwtree":
        return BwTreeIndex(8, allocator=TrackingAllocator(cost_model=cost),
                           cost_model=cost)
    if name == "masstree":
        return MasstreeIndex(8, cost)
    if name == "hybrid":
        return HybridIndex(8, cost, merge_threshold=64)
    if name == "btree":
        return BPlusTree(8, 16, 16, TrackingAllocator(cost_model=cost), cost)
    raise ValueError(name)


ALL = ["hot", "art", "skiplist", "bwtree", "masstree", "hybrid", "btree"]


@pytest.mark.parametrize("name", ALL)
class TestBaselineBasics:
    def test_conforms_to_protocol(self, name):
        source = U64Source()
        index = make_index(name, source)
        assert isinstance(index, OrderedIndex)

    def test_insert_lookup_remove(self, name):
        source = U64Source()
        index = make_index(name, source)
        key, tid = source.add(42)
        assert index.insert(key, tid) is None
        assert index.lookup(key) == tid
        assert len(index) == 1
        assert index.remove(key) == tid
        assert index.lookup(key) is None
        assert len(index) == 0
        assert index.remove(key) is None

    def test_replace_returns_old(self, name):
        source = U64Source()
        index = make_index(name, source)
        key, tid1 = source.add(7)
        index.insert(key, tid1)
        _, tid2 = source.add(7)
        assert index.insert(key, tid2) == tid1
        assert index.lookup(key) == tid2
        assert len(index) == 1

    def test_bulk_and_scan(self, name):
        source = U64Source()
        index = make_index(name, source)
        values = list(range(0, 600, 3))
        random.Random(1).shuffle(values)
        for v in values:
            index.insert(*source.add(v))
        assert len(index) == 200
        for v in (0, 3, 597):
            assert index.lookup(encode_u64(v)) is not None
        assert index.lookup(encode_u64(1)) is None
        result = index.scan(encode_u64(10), 5)
        assert [k for k, _ in result] == [
            encode_u64(v) for v in (12, 15, 18, 21, 24)
        ]

    def test_scan_from_before_and_past_end(self, name):
        source = U64Source()
        index = make_index(name, source)
        for v in (10, 20, 30):
            index.insert(*source.add(v))
        assert [k for k, _ in index.scan(encode_u64(0), 10)] == [
            encode_u64(v) for v in (10, 20, 30)
        ]
        assert index.scan(encode_u64(31), 10) == []

    def test_index_bytes_positive_and_shrinks(self, name):
        source = U64Source()
        index = make_index(name, source)
        for v in range(500):
            index.insert(*source.add(v))
        peak = index.index_bytes
        assert peak > 0
        for v in range(500):
            index.remove(encode_u64(v))
        assert index.index_bytes < peak


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_baseline_matches_model(name, data):
    source = U64Source()
    index = make_index(name, source)
    model = SortedModel()
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "lookup", "scan"]),
                st.integers(min_value=0, max_value=80),
            ),
            max_size=120,
        )
    )
    for op, value in ops:
        key = encode_u64(value)
        if op == "insert":
            _, tid = source.add(value)
            assert index.insert(key, tid) == model.insert(key, tid)
        elif op == "remove":
            assert index.remove(key) == model.remove(key)
        elif op == "lookup":
            assert index.lookup(key) == model.lookup(key)
        else:
            assert index.scan(key, 7) == model.scan(key, 7)
    assert len(index) == len(model)


class TestPatriciaSpecifics:
    def test_hot_invariants_after_churn(self):
        source = U64Source()
        hot = HOTIndex(source.table, 8, source.cost)
        rng = random.Random(9)
        live = set()
        for _ in range(500):
            v = rng.randrange(300)
            if rng.random() < 0.6:
                if v not in live:
                    hot.insert(*source.add(v))
                    live.add(v)
            elif v in live:
                hot.remove(encode_u64(v))
                live.discard(v)
        hot.check_invariants()

    def test_hot_scan_loads_each_key(self):
        source = U64Source()
        hot = HOTIndex(source.table, 8, source.cost)
        for v in range(100):
            hot.insert(*source.add(v))
        source.cost.reset()
        hot.scan(encode_u64(10), 15)
        assert source.cost.counts.get("key_load_batched", 0) == 15

    def test_art_invariants_after_churn(self):
        source = U64Source()
        art = ARTIndex(8, source.cost)
        rng = random.Random(10)
        live = set()
        for _ in range(500):
            v = rng.randrange(300)
            if rng.random() < 0.6:
                art.insert(*source.add(v))
                live.add(v)
            elif v in live:
                art.remove(encode_u64(v))
                live.discard(v)
        art.check_invariants()

    def test_art_scan_needs_no_table_loads(self):
        source = U64Source()
        art = ARTIndex(8, source.cost)
        for v in range(100):
            art.insert(*source.add(v))
        source.cost.reset()
        art.scan(encode_u64(10), 15)
        assert "key_load" not in source.cost.counts
        assert "key_load_batched" not in source.cost.counts


class TestDominationClaims:
    """Section 6.1: Masstree and skip lists consume more memory than STX;
    Bw-tree is only slightly smaller than STX; HOT is far smaller."""

    @pytest.fixture(scope="class")
    def footprints(self):
        sizes = {}
        for name in ALL:
            source = U64Source()
            index = make_index(name, source)
            rng = random.Random(4)
            for _ in range(4000):
                index.insert(*source.add(rng.randrange(1 << 48)))
            sizes[name] = index.index_bytes / len(index)
        return sizes

    def test_masstree_and_skiplist_exceed_btree(self, footprints):
        assert footprints["masstree"] > footprints["btree"]
        assert footprints["skiplist"] > footprints["btree"]

    def test_bwtree_slightly_smaller_than_btree(self, footprints):
        assert footprints["bwtree"] < footprints["btree"]
        assert footprints["bwtree"] > 0.6 * footprints["btree"]

    def test_hot_much_smaller_than_btree(self, footprints):
        """HOT uses ~2.5x less memory than STX (Figure 5b)."""
        ratio = footprints["btree"] / footprints["hot"]
        assert 1.8 < ratio < 4.0, f"STX/HOT space ratio {ratio:.2f}"

    def test_hot_smaller_than_art(self, footprints):
        assert footprints["hot"] < footprints["art"]

    def test_hybrid_smaller_than_btree(self, footprints):
        assert footprints["hybrid"] < footprints["btree"]


class TestHybridSpecifics:
    def test_merges_happen_and_cost_recorded(self):
        source = U64Source()
        hybrid = HybridIndex(8, source.cost, merge_threshold=100)
        for v in range(1000):
            hybrid.insert(*source.add(v))
        assert hybrid.merge_count >= 9
        assert hybrid.merge_cost_units > 0

    def test_tombstone_resurrection_guard(self):
        source = U64Source()
        hybrid = HybridIndex(8, source.cost, merge_threshold=4)
        key, tid = source.add(1)
        hybrid.insert(key, tid)
        for v in range(2, 8):
            hybrid.insert(*source.add(v))  # force a merge: key 1 in static
        _, tid2 = source.add(1)
        hybrid.insert(key, tid2)  # shadows the static copy
        assert hybrid.remove(key) == tid2
        assert hybrid.lookup(key) is None  # static copy must stay dead
        assert hybrid.scan(encode_u64(0), 1)[0][0] != key


def _width_env(name):
    from repro.bench.harness import (
        estimate_stx_bytes_per_key,
        make_u64_environment,
    )

    kwargs = {}
    if name == "elastic":
        # A bound below the data's standard size: leaves go compact.
        kwargs["size_bound_bytes"] = int(estimate_stx_bytes_per_key() * 150)
    env = make_u64_environment(name, **kwargs)
    for value in range(0, 1200, 4):
        tid = env.table.insert_row(value)
        env.index.insert(env.table.peek_key(tid), tid)
    return env


def _index_state(env):
    with env.cost.paused():
        items = env.index.scan(bytes(8), 10_000)
    return items, len(env.index), env.index.index_bytes


@pytest.mark.parametrize("name", available_indexes())
@pytest.mark.parametrize("width", [0, 7, 9])
def test_wrong_width_key_raises_before_any_charge(name, width):
    env = _width_env(name)
    index = env.index
    good = encode_u64(400)
    bad = (encode_u64(400) + b"\x01")[:width] if width <= 8 else (
        encode_u64(400) + bytes(width - 8))
    ops = {
        "lookup": lambda: index.lookup(bad),
        "remove": lambda: index.remove(bad),
        "scan": lambda: index.scan(bad, 4),
        "insert": lambda: index.insert(bad, 0),
        "lookup_batch": lambda: index.lookup_batch([good, bad]),
        "scan_batch": lambda: index.scan_batch([good, bad], 4),
        "insert_sorted_batch": lambda: index.insert_sorted_batch(
            [(encode_u64(401), 0), (bad, 1)]),
    }
    before = _index_state(env)
    for op, call in ops.items():
        counts = list(env.cost.counts.items())
        with pytest.raises(KeyEncodingError, match="key width"):
            call()
        assert list(env.cost.counts.items()) == counts, op
    assert _index_state(env) == before
    assert index.lookup(good) is not None

"""Tests for the host-agnostic framework: FatSkipList, ElasticFatSkipList
and ElasticBwTree (paper section 3: the framework applies to any index
with internal key storage)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.stats import collect_stats
from repro.cache import CacheConfig, IndexCache
from repro.core.config import ElasticConfig
from repro.core.elastic_btree import ElasticBPlusTree
from repro.core.elastic_variants import ElasticBwTree
from repro.core.framework import ElasticHost
from repro.core.policies import EagerCompactionPolicy
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.skiplist.elastic import ElasticFatSkipList
from repro.skiplist.fat import FatSkipList

from tests.conftest import SortedModel, U64Source


def make_fat(source, leaf_capacity=8):
    alloc = TrackingAllocator(use_size_classes=False, cost_model=source.cost)
    return FatSkipList(8, leaf_capacity, alloc, source.cost)


def make_elastic_skiplist(source, bound=30_000, policy=None, **cfg):
    alloc = TrackingAllocator(use_size_classes=False, cost_model=source.cost)
    config = ElasticConfig(size_bound_bytes=bound, **cfg)
    return ElasticFatSkipList(
        source.table, config, key_width=8, leaf_capacity=16,
        allocator=alloc, cost_model=source.cost, policy=policy,
    )


def make_elastic_bwtree(source, bound=30_000, policy=None, **cfg):
    alloc = TrackingAllocator(use_size_classes=False, cost_model=source.cost)
    config = ElasticConfig(size_bound_bytes=bound, **cfg)
    return ElasticBwTree(
        source.table, config, key_width=8,
        allocator=alloc, cost_model=source.cost, policy=policy,
    )


def make_elastic_btree(source, bound=30_000, policy=None, **cfg):
    alloc = TrackingAllocator(use_size_classes=False, cost_model=source.cost)
    config = ElasticConfig(size_bound_bytes=bound, **cfg)
    return ElasticBPlusTree(
        source.table, config, key_width=8,
        allocator=alloc, cost_model=source.cost, policy=policy,
    )


class TestFatSkipList:
    def test_host_protocol(self):
        source = U64Source()
        assert isinstance(make_fat(source), ElasticHost)

    def test_basic_ops(self):
        source = U64Source()
        sl = make_fat(source)
        key, tid = source.add(10)
        assert sl.insert(key, tid) is None
        assert sl.lookup(key) == tid
        assert sl.remove(key) == tid
        assert sl.lookup(key) is None

    def test_bulk_sorted_iteration(self):
        source = U64Source()
        sl = make_fat(source)
        values = list(range(500))
        random.Random(1).shuffle(values)
        for v in values:
            sl.insert(*source.add(v))
        assert [k for k, _ in sl.items()] == [encode_u64(v) for v in range(500)]
        sl.check_invariants()

    def test_scan(self):
        source = U64Source()
        sl = make_fat(source)
        for v in range(0, 300, 3):
            sl.insert(*source.add(v))
        out = sl.scan(encode_u64(10), 5)
        assert [k for k, _ in out] == [encode_u64(v) for v in (12, 15, 18, 21, 24)]

    def test_removals_merge_blocks(self):
        source = U64Source()
        sl = make_fat(source)
        for v in range(400):
            sl.insert(*source.add(v))
        peak = sl.index_bytes
        for v in range(400):
            assert sl.remove(encode_u64(v)) == sl.remove(encode_u64(v)) or True
        # All gone; towers and blocks mostly reclaimed.
        assert len(sl) == 0
        assert sl.index_bytes < peak / 3
        sl.check_invariants()

    def test_replace_leaf_keeps_structure(self):
        source = U64Source()
        sl = make_fat(source)
        for v in range(100):
            sl.insert(*source.add(v))
        paths = list(sl.iter_leaves_with_paths())
        path, block = paths[2]
        items = list(block.items())
        new_block = sl.make_standard_leaf(items)
        sl.replace_leaf(path, block, new_block)
        sl.check_invariants()
        for key, tid in items:
            assert sl.lookup(key) == tid

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_matches_model(self, seed):
        rng = random.Random(seed)
        source = U64Source()
        sl = make_fat(source)
        model = SortedModel()
        for _ in range(300):
            value = rng.randrange(150)
            key = encode_u64(value)
            roll = rng.random()
            if roll < 0.55:
                _, tid = source.add(value)
                assert sl.insert(key, tid) == model.insert(key, tid)
            elif roll < 0.85:
                assert sl.remove(key) == model.remove(key)
            else:
                assert sl.lookup(key) == model.lookup(key)
        assert [k for k, _ in sl.items()] == model.keys
        sl.check_invariants()


ELASTIC_VARIANTS = [
    pytest.param(make_elastic_skiplist, id="skiplist"),
    pytest.param(make_elastic_bwtree, id="bwtree"),
]


@pytest.mark.parametrize("factory", ELASTIC_VARIANTS)
class TestElasticVariants:
    def test_shrinks_under_pressure(self, factory):
        source = U64Source()
        index = factory(source, bound=25_000)
        values = list(range(6000))
        random.Random(2).shuffle(values)
        for v in values:
            index.insert(*source.add(v))
        assert index.pressure_state is PressureState.SHRINKING
        assert index.controller.stats.conversions_to_compact > 0
        assert index.allocator.bytes_in("leaf.compact") > 0
        for v in random.Random(3).sample(range(6000), 200):
            assert index.lookup(encode_u64(v)) is not None

    def test_space_advantage_over_rigid(self, factory):
        source = U64Source()
        index = factory(source, bound=25_000)
        rigid_source = U64Source()
        rigid = factory(rigid_source, bound=100_000_000)
        values = list(range(6000))
        random.Random(2).shuffle(values)
        for v in values:
            index.insert(*source.add(v))
            rigid.insert(*rigid_source.add(v))
        assert index.index_bytes < 0.6 * rigid.index_bytes

    def test_expands_back(self, factory):
        source = U64Source()
        index = factory(source, bound=25_000)
        for v in range(6000):
            index.insert(*source.add(v))
        for v in range(6000):
            assert index.remove(encode_u64(v)) is not None
        assert len(index) == 0
        assert index.allocator.bytes_in("leaf.compact") == 0
        assert index.pressure_state is PressureState.NORMAL

    def test_scans_correct_while_shrunk(self, factory):
        source = U64Source()
        index = factory(source, bound=25_000)
        model = SortedModel()
        for v in range(5000):
            key, tid = source.add(v)
            index.insert(key, tid)
            model.insert(key, tid)
        for start in (0, 123, 2500, 4990):
            assert index.scan(encode_u64(start), 12) == model.scan(
                encode_u64(start), 12
            )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_elastic_skiplist_matches_model_under_pressure(seed):
    rng = random.Random(seed)
    source = U64Source()
    index = make_elastic_skiplist(source, bound=8_000,
                                  expand_split_probability=0.2)
    model = SortedModel()
    next_value = 0
    live = []
    for step in range(800):
        grow = (step // 200) % 2 == 0
        roll = rng.random()
        if roll < (0.75 if grow else 0.25):
            key, tid = source.add(next_value)
            index.insert(key, tid)
            model.insert(key, tid)
            live.append(next_value)
            next_value += 1
        elif roll < 0.9 and live:
            value = live.pop(rng.randrange(len(live)))
            key = encode_u64(value)
            assert index.remove(key) == model.remove(key)
        else:
            probe = rng.randrange(max(1, next_value))
            key = encode_u64(probe)
            assert index.lookup(key) == model.lookup(key)
    assert [k for k, _ in index.items()] == model.keys


def test_bulk_compact_works_on_skiplist():
    source = U64Source()
    index = make_elastic_skiplist(source, bound=100_000_000)
    for v in range(1000):
        index.insert(*source.add(v))
    converted = index.controller.bulk_convert("compact")
    assert converted > 0
    assert index.allocator.bytes_in("leaf.standard") == 0
    for v in range(0, 1000, 37):
        assert index.lookup(encode_u64(v)) is not None
    index.check_invariants()


# ----------------------------------------------------------------------
# One read/write path per host: every elastic host calls its controller
# from the same scalar, batched and cached paths.
# ----------------------------------------------------------------------
ALL_ELASTIC_HOSTS = [
    pytest.param(make_elastic_btree, id="btree"),
    *ELASTIC_VARIANTS,
]


@pytest.mark.parametrize("factory", [
    pytest.param(make_elastic_btree, id="btree"),
    pytest.param(make_elastic_bwtree, id="bwtree"),
])
def test_batched_inserts_drain_deferred_actions(factory):
    """The eager policy's bulk compaction, queued when shrinking starts,
    runs at a batch boundary instead of waiting in the queue."""
    source = U64Source()
    index = factory(source, bound=20_000, policy=EagerCompactionPolicy())
    for start in range(0, 3000, 200):
        index.insert_sorted_batch(
            [source.add(v) for v in range(start, start + 200)]
        )
    assert index.pressure_state is PressureState.SHRINKING
    assert index.controller.pending_actions == []
    assert index.allocator.bytes_in("leaf.compact") > 0


@pytest.mark.parametrize("factory", ALL_ELASTIC_HOSTS)
def test_lookups_count_leaf_accesses(factory):
    """Access-aware policies read ``access_count``; every host's lookup
    path maintains it."""
    source = U64Source()
    index = factory(source, bound=100_000_000)
    for v in range(1000):
        index.insert(*source.add(v))
    rng = random.Random(5)
    for _ in range(500):
        assert index.lookup(encode_u64(rng.randrange(1000))) is not None
    total = 0
    leaf = index.first_leaf
    while leaf is not None:
        total += leaf.access_count
        leaf = leaf.next_leaf
    assert total == 500


def test_bwtree_lookup_uses_attached_cache():
    source = U64Source()
    index = make_elastic_bwtree(source, bound=100_000_000)
    model = SortedModel()
    for v in range(600):
        key, tid = source.add(v)
        index.insert(key, tid)
        model.insert(key, tid)
    cache = IndexCache(CacheConfig(budget_bytes=32 * 1024, sketch_width=256))
    index.attach_cache(cache)
    for _ in range(3):
        for v in range(0, 600, 7):
            key = encode_u64(v)
            assert index.lookup(key) == model.lookup(key)
    assert cache.stats.hits > 0

"""Learned leaves (FITing-Tree) and the leaf-kind registry (DESIGN §11).

Four angles: differential learned-vs-full agreement across churn, the
hypothesis-tested ε-probe invariant (every probe of a stored key lands
within ``epsilon`` of the model's prediction), mid-batch conversion
to/from the learned kind under tight soft bounds, and registry
round-trips including the typed :class:`LeafKindError` cases.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.kinds import (
    available_leaf_kinds,
    leaf_kind,
    register_leaf_kind,
    unregister_leaf_kind,
)
from repro.btree.leaves import StandardLeaf
from repro.btree.stats import collect_stats
from repro.core.config import ElasticConfig
from repro.core.elastic_btree import ElasticBPlusTree
from repro.core.elastic_variants import ElasticBwTree
from repro.errors import LeafKindError
from repro.keys.encoding import encode_u64
from repro.learned.leaf import LearnedLeaf
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState

from tests.conftest import SortedModel, U64Source

THREE_KINDS = ("standard", "compact", "learned")


def make_elastic(source, size_bound=60_000, **config_kwargs):
    cost = source.cost
    alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
    config = ElasticConfig(size_bound_bytes=size_bound, **config_kwargs)
    return ElasticBPlusTree(
        source.table,
        config,
        key_width=8,
        leaf_capacity=16,
        inner_capacity=16,
        allocator=alloc,
        cost_model=cost,
    )


def make_learned_leaf(source, values, capacity=64, epsilon=8, **kwargs):
    items = [source.add(v) for v in sorted(values)]
    return LearnedLeaf(
        capacity,
        source.table,
        TrackingAllocator(use_size_classes=False, cost_model=source.cost),
        source.cost,
        epsilon=epsilon,
        items=items,
    ), items


# ----------------------------------------------------------------------
# Leaf unit behaviour
# ----------------------------------------------------------------------
class TestLearnedLeafUnit:
    def test_lookup_present_and_absent(self):
        source = U64Source()
        leaf, items = make_learned_leaf(source, range(0, 100, 2))
        for key, tid in items:
            assert leaf.lookup(key) == tid
        for v in range(1, 100, 2):
            assert leaf.lookup(encode_u64(v)) is None

    def test_upsert_remove_roundtrip(self):
        source = U64Source()
        leaf, items = make_learned_leaf(source, range(20))
        key, new_tid = source.add(7)
        old = leaf.upsert(key, new_tid)
        assert old == items[7][1]
        assert leaf.lookup(key) == new_tid
        assert leaf.remove(key) == new_tid
        assert leaf.lookup(key) is None
        assert leaf.count == 19

    def test_split_preserves_contents(self):
        source = U64Source()
        leaf, items = make_learned_leaf(source, range(40))
        right, sep = leaf.split()
        assert leaf.count + right.count == 40
        for key, tid in items:
            host = leaf if key < sep else right
            assert host.lookup(key) == tid

    def test_breathing_shrinks_the_tid_array(self):
        source = U64Source()
        # Without breathing the tuple-id array is charged at capacity.
        fat = LearnedLeaf(
            64,
            source.table,
            TrackingAllocator(use_size_classes=False,
                              cost_model=source.cost),
            source.cost,
            items=[(encode_u64(v), 0) for v in range(8)],
        )
        breathing = LearnedLeaf(
            64,
            source.table,
            TrackingAllocator(use_size_classes=False,
                              cost_model=source.cost),
            source.cost,
            breathing_slack=4,
            items=[(encode_u64(v), 0) for v in range(8)],
        )
        assert breathing.size_bytes < fat.size_bytes


# ----------------------------------------------------------------------
# Differential: learned tree vs full tree across churn
# ----------------------------------------------------------------------
class TestLearnedDifferential:
    def _pair(self):
        full_src, learned_src = U64Source(), U64Source()
        full = make_elastic(full_src, size_bound=1 << 40)
        learned = make_elastic(learned_src, size_bound=1 << 40,
                               leaf_kinds=THREE_KINDS)
        for v in range(1500):
            full.insert(*full_src.add(v))
            learned.insert(*learned_src.add(v))
        assert learned.controller.bulk_convert("learned") > 0
        return full_src, full, learned_src, learned

    def test_lookups_and_scans_agree_across_churn(self):
        full_src, full, learned_src, learned = self._pair()
        rng = random.Random(41)
        for step in range(800):
            op = rng.randrange(3)
            value = rng.randrange(2200)
            key = encode_u64(value)
            if op == 0:
                assert (full.insert(*full_src.add(value))
                        == learned.insert(*learned_src.add(value)))
            elif op == 1:
                assert full.remove(key) == learned.remove(key)
            else:
                assert full.lookup(key) == learned.lookup(key)
            if step % 97 == 0:
                start = encode_u64(rng.randrange(2200))
                assert (full.scan(start, 25) == learned.scan(start, 25))
        assert len(full) == len(learned)
        full.check_elastic_invariants()
        learned.check_elastic_invariants()

    def test_batched_lookups_agree(self):
        _, full, _, learned = self._pair()
        keys = [encode_u64(v) for v in range(0, 2000, 3)]
        assert full.lookup_batch(keys) == learned.lookup_batch(keys)


# ----------------------------------------------------------------------
# The ε-probe invariant (hypothesis property)
# ----------------------------------------------------------------------
class TestEpsilonInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.sets(
            st.integers(min_value=0, max_value=1 << 48),
            min_size=1, max_size=120,
        ),
        epsilon=st.integers(min_value=2, max_value=16),
        churn=st.lists(
            st.tuples(st.booleans(),
                      st.integers(min_value=0, max_value=1 << 48)),
            max_size=60,
        ),
    )
    def test_probe_within_epsilon(self, values, epsilon, churn):
        source = U64Source()
        leaf, _ = make_learned_leaf(
            source, values, capacity=256, epsilon=epsilon
        )
        model = SortedModel()
        for key, tid in zip(sorted(encode_u64(v) for v in values),
                            leaf.tids):
            model.insert(key, tid)
        for is_insert, value in churn:
            key = encode_u64(value)
            if is_insert and leaf.count < leaf.capacity:
                _, tid = source.add(value)
                assert leaf.upsert(key, tid) == model.insert(key, tid)
            elif not is_insert:
                assert leaf.remove(key) == model.remove(key)
        # Every stored key must be found within epsilon of the model's
        # predicted position, regardless of the churn history.
        for key, tid in zip(model.keys, model.tids):
            assert leaf.lookup(key) == tid
            predicted, final, loads = leaf.last_probe
            assert abs(final - predicted) <= leaf.epsilon
            assert loads <= 2 * leaf.epsilon + 2


# ----------------------------------------------------------------------
# Mid-batch conversion under a tight bound
# ----------------------------------------------------------------------
class TestElasticConversion:
    def test_hot_leaves_go_learned_under_pressure(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=26_000,
                            leaf_kinds=THREE_KINDS)
        model = SortedModel()
        rng = random.Random(9)
        values = list(range(2400))
        rng.shuffle(values)
        for i, v in enumerate(values):
            key, tid = source.add(v)
            tree.insert(key, tid)
            model.insert(key, tid)
            if i >= 1200 and i % 200 == 0:
                # Batched sweeps keep leaves hot while pressure mounts,
                # and must agree with the model mid-conversion.
                assert tree.lookup_batch(model.keys) == model.tids
        stats = collect_stats(tree)
        assert stats.learned_leaf_count > 0
        assert stats.leaves_by_kind["learned"] == stats.learned_leaf_count
        assert 0 < stats.learned_fraction <= 1
        assert tree.pressure_state is not PressureState.EXPANDING
        assert tree.lookup_batch(model.keys) == model.tids
        tree.check_elastic_invariants()

    def test_churned_learned_leaves_convert_away(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=1 << 40,
                            leaf_kinds=THREE_KINDS,
                            learned_churn_retrains=1)
        model = SortedModel()
        for v in range(1200):
            key, tid = source.add(v)
            tree.insert(key, tid)
            model.insert(key, tid)
        assert tree.controller.bulk_convert("learned") > 0
        # Heavy interleaved churn forces retrains; churn-heavy learned
        # leaves must fall back toward cheaper-to-mutate kinds.
        rng = random.Random(5)
        for v in rng.sample(range(1200, 4200), 2400):
            key, tid = source.add(v)
            tree.insert(key, tid)
            model.insert(key, tid)
            if v % 5 == 0:
                probe = encode_u64(rng.randrange(4200))
                assert tree.lookup(probe) == model.lookup(probe)
        stats = collect_stats(tree)
        assert stats.learned_leaf_count < stats.leaf_count
        assert tree.lookup_batch(model.keys) == model.tids
        conversions = tree.controller.stats
        assert conversions.churn_splits + conversions.conversions_to_compact \
            + conversions.reversions_to_standard > 0
        tree.check_elastic_invariants()


# ----------------------------------------------------------------------
# Registry round-trips and typed errors
# ----------------------------------------------------------------------
class ToyLeaf(StandardLeaf):
    kind = "toy"


class TestRegistry:
    def test_builtin_kinds_present(self):
        assert {"standard", "compact", "learned"} <= set(
            available_leaf_kinds()
        )
        assert leaf_kind("learned").cache_rows

    def test_register_convert_unregister_roundtrip(self):
        def _toy_from_sorted(ctx, items, capacity=None):
            return ToyLeaf(
                ctx.tree.key_width,
                capacity or 2 * ctx.tree.leaf_capacity,
                ctx.tree.allocator,
                ctx.tree.cost,
                items=items or None,
            )

        register_leaf_kind("toy", from_sorted=_toy_from_sorted)
        try:
            assert "toy" in available_leaf_kinds()
            with pytest.raises(LeafKindError, match="already registered"):
                register_leaf_kind("toy", from_sorted=_toy_from_sorted)
            source = U64Source()
            tree = make_elastic(source, size_bound=1 << 40,
                                leaf_kinds=("standard", "toy"))
            pairs = [source.add(v) for v in range(600)]
            for key, tid in pairs:
                tree.insert(key, tid)
            converted = tree.controller.bulk_convert("toy")
            assert converted > 0
            stats = collect_stats(tree)
            assert stats.leaves_by_kind.get("toy") == converted
            for key, tid in pairs:
                assert tree.lookup(key) == tid
            # And back: the toy leaves fit standard capacity limits.
            assert tree.controller.bulk_convert("standard") == converted
            assert "toy" not in collect_stats(tree).leaves_by_kind
        finally:
            unregister_leaf_kind("toy")
        with pytest.raises(LeafKindError, match="unknown leaf kind"):
            leaf_kind("toy")
        with pytest.raises(LeafKindError):
            ElasticConfig(size_bound_bytes=1 << 20,
                          leaf_kinds=("standard", "toy"))

    def test_config_requires_standard_kind(self):
        with pytest.raises(LeafKindError, match="standard"):
            ElasticConfig(size_bound_bytes=1 << 20,
                          leaf_kinds=("compact", "learned"))

    def test_bulk_convert_rejects_unknown_kind(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=1 << 40)
        with pytest.raises(LeafKindError, match="unknown leaf kind"):
            tree.controller.bulk_convert("gapped")

    def test_attach_cache_rejects_uncacheable_kind(self):
        def _nocache_from_sorted(ctx, items, capacity=None):
            return ctx.tree.make_standard_leaf(items)

        register_leaf_kind(
            "nocache",
            from_sorted=_nocache_from_sorted,
            cache_supported=False,
        )
        try:
            source = U64Source()
            tree = make_elastic(source, size_bound=1 << 40,
                                leaf_kinds=("standard", "nocache"))
            with pytest.raises(LeafKindError, match="nocache"):
                tree.attach_cache(object())
            bwtree = ElasticBwTree(
                source.table,
                ElasticConfig(size_bound_bytes=1 << 40,
                              leaf_kinds=("standard", "nocache")),
            )
            with pytest.raises(LeafKindError, match="nocache"):
                bwtree.attach_cache(object())
        finally:
            unregister_leaf_kind("nocache")

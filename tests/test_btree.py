"""Unit and property tests for the B+-tree substrate with standard leaves."""

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.blindi.leaf import compact_leaf_factory
from repro.blindi.seqtree import SeqTreeRep
from repro.btree.leaves import LeafFullError, StandardLeaf
from repro.btree.tree import BPlusTree, InnerNode
from repro.keys.encoding import encode_u64
from repro.learned.leaf import learned_leaf_factory
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel

from tests.conftest import SortedModel, U64Source


def make_tree(leaf_capacity=4, inner_capacity=4):
    cost = CostModel()
    alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
    tree = BPlusTree(
        key_width=8,
        leaf_capacity=leaf_capacity,
        inner_capacity=inner_capacity,
        allocator=alloc,
        cost_model=cost,
    )
    return tree


class TestStandardLeaf:
    def setup_method(self):
        self.alloc = TrackingAllocator(use_size_classes=False)
        self.leaf = StandardLeaf(8, 4, self.alloc)

    def test_upsert_and_lookup(self):
        assert self.leaf.upsert(encode_u64(5), 50) is None
        assert self.leaf.lookup(encode_u64(5)) == 50
        assert self.leaf.lookup(encode_u64(6)) is None

    def test_upsert_replaces(self):
        self.leaf.upsert(encode_u64(5), 50)
        assert self.leaf.upsert(encode_u64(5), 51) == 50
        assert self.leaf.count == 1

    def test_full_raises(self):
        for i in range(4):
            self.leaf.upsert(encode_u64(i), i)
        with pytest.raises(LeafFullError):
            self.leaf.upsert(encode_u64(99), 99)
        # Replacing an existing key still works when full.
        assert self.leaf.upsert(encode_u64(2), 22) == 2

    def test_remove(self):
        self.leaf.upsert(encode_u64(5), 50)
        assert self.leaf.remove(encode_u64(5)) == 50
        assert self.leaf.remove(encode_u64(5)) is None

    def test_items_sorted(self):
        for v in (3, 1, 2):
            self.leaf.upsert(encode_u64(v), v)
        assert [k for k, _ in self.leaf.items()] == sorted(
            encode_u64(v) for v in (1, 2, 3)
        )

    def test_split_halves(self):
        for i in range(4):
            self.leaf.upsert(encode_u64(i), i)
        right, sep = self.leaf.split()
        assert sep == encode_u64(2)
        assert self.leaf.count == 2
        assert right.count == 2

    def test_size_accounting(self):
        # header 32 + 4 * (8 key + 8 tid) = 96
        assert self.leaf.size_bytes == 96
        assert self.alloc.total_bytes == 96
        self.leaf.destroy()
        assert self.alloc.total_bytes == 0

    def test_take_first_last(self):
        for i in range(3):
            self.leaf.upsert(encode_u64(i), i)
        assert self.leaf.take_first() == (encode_u64(0), 0)
        assert self.leaf.take_last() == (encode_u64(2), 2)
        assert self.leaf.count == 1


class TestBPlusTreeBasics:
    def test_insert_lookup(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(100):
            assert tree.lookup(encode_u64(i)) == i
        assert tree.lookup(encode_u64(1000)) is None
        assert len(tree) == 100
        tree.check_invariants()

    def test_insert_replaces(self):
        tree = make_tree()
        tree.insert(encode_u64(1), 10)
        assert tree.insert(encode_u64(1), 11) == 10
        assert len(tree) == 1

    def test_reverse_insert(self):
        tree = make_tree()
        for i in reversed(range(200)):
            tree.insert(encode_u64(i), i)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == [encode_u64(i) for i in range(200)]

    def test_remove_all(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(100):
            assert tree.remove(encode_u64(i)) == i
        assert len(tree) == 0
        assert tree.remove(encode_u64(0)) is None
        tree.check_invariants()

    def test_remove_interleaved(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(0, 100, 2):
            tree.remove(encode_u64(i))
        tree.check_invariants()
        assert len(tree) == 50
        for i in range(1, 100, 2):
            assert tree.lookup(encode_u64(i)) == i

    def test_scan(self):
        tree = make_tree()
        for i in range(0, 100, 2):
            tree.insert(encode_u64(i), i)
        result = tree.scan(encode_u64(11), 5)
        assert [k for k, _ in result] == [encode_u64(v) for v in (12, 14, 16, 18, 20)]

    def test_scan_past_end(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(encode_u64(i), i)
        assert len(tree.scan(encode_u64(8), 10)) == 2
        assert tree.scan(encode_u64(100), 5) == []

    def test_height_grows_and_shrinks(self):
        tree = make_tree()
        assert tree.height == 1
        for i in range(100):
            tree.insert(encode_u64(i), i)
        assert tree.height > 2
        for i in range(100):
            tree.remove(encode_u64(i))
        tree.check_invariants()

    def test_memory_returns_after_deletes(self):
        tree = make_tree()
        for i in range(500):
            tree.insert(encode_u64(i), i)
        peak = tree.index_bytes
        for i in range(500):
            tree.remove(encode_u64(i))
        assert tree.index_bytes < peak / 4

    def test_wrong_key_width_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert(b"\x00" * 4, 1)

    def test_duplicate_heavy_workload(self):
        tree = make_tree()
        for _ in range(5):
            for i in range(50):
                tree.insert(encode_u64(i), i)
        assert len(tree) == 50
        tree.check_invariants()

    def test_iter_from_is_lazy_and_ordered(self):
        tree = make_tree()
        for i in range(0, 400, 4):
            tree.insert(encode_u64(i), i)
        iterator = tree.iter_from(encode_u64(100))
        first_five = [next(iterator) for _ in range(5)]
        assert [k for k, _ in first_five] == [
            encode_u64(v) for v in (100, 104, 108, 112, 116)
        ]
        rest = list(iterator)
        assert rest[-1][0] == encode_u64(396)
        assert len(first_five) + len(rest) == 75

    def test_iter_from_past_end(self):
        tree = make_tree()
        tree.insert(encode_u64(1), 1)
        assert list(tree.iter_from(encode_u64(2))) == []

    def test_trace_records_descent(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        tree.trace = []
        tree.lookup(encode_u64(50))
        assert len(tree.trace) == tree.height


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "lookup"]),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=250,
    )
)
def test_btree_matches_model(ops):
    tree = make_tree(leaf_capacity=4, inner_capacity=4)
    model = SortedModel()
    for op, value in ops:
        key = encode_u64(value)
        if op == "insert":
            assert tree.insert(key, value) == model.insert(key, value)
        elif op == "remove":
            assert tree.remove(key) == model.remove(key)
        else:
            assert tree.lookup(key) == model.lookup(key)
    assert len(tree) == len(model)
    assert [k for k, _ in tree.items()] == model.keys
    tree.check_invariants()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_btree_random_churn(seed):
    rng = random.Random(seed)
    tree = make_tree(leaf_capacity=8, inner_capacity=8)
    model = SortedModel()
    for _ in range(400):
        value = rng.randrange(200)
        key = encode_u64(value)
        if rng.random() < 0.6:
            assert tree.insert(key, value) == model.insert(key, value)
        else:
            assert tree.remove(key) == model.remove(key)
    tree.check_invariants()
    start = encode_u64(rng.randrange(200))
    assert tree.scan(start, 10) == model.scan(start, 10)


def test_scan_matches_model_across_leaves():
    tree = make_tree(leaf_capacity=4)
    model = SortedModel()
    for i in range(0, 300, 3):
        tree.insert(encode_u64(i), i)
        model.insert(encode_u64(i), i)
    for start in (0, 1, 149, 150, 298, 299):
        assert tree.scan(encode_u64(start), 7) == model.scan(encode_u64(start), 7)


def _per_item_scan(tree, start_key, count):
    """Oracle: the per-item collection loop that leaf-at-a-time
    ``BPlusTree.scan`` replaced."""
    _, leaf = tree.descend(start_key)
    out = []
    iterator = leaf.iter_from(start_key)
    current = leaf
    while current is not None and len(out) < count:
        for item in iterator:
            out.append(item)
            if len(out) >= count:
                break
        else:
            current = current.next_leaf
            if current is not None:
                tree.cost.rand_lines(1)
                iterator = current.items()
            continue
        break
    return out


_LEAF_FACTORIES = {
    "standard": lambda table: None,
    "compact": lambda table: compact_leaf_factory(
        SeqTreeRep, 16, table, 8, rep_kwargs={"levels": 2}
    ),
    "learned": lambda table: learned_leaf_factory(16, table, 8),
}


@pytest.mark.parametrize("kind", sorted(_LEAF_FACTORIES))
@pytest.mark.parametrize(
    "shape", ["zero", "one", "leaf_remainder", "three_leaves", "past_end"]
)
def test_scan_matches_per_item_loop(kind, shape):
    source = U64Source()
    cost = source.cost
    tree = BPlusTree(
        key_width=8,
        leaf_capacity=16,
        inner_capacity=4,
        allocator=TrackingAllocator(use_size_classes=False, cost_model=cost),
        cost_model=cost,
        leaf_factory=_LEAF_FACTORIES[kind](source.table),
    )
    for value in range(0, 600, 3):
        tree.insert(*source.add(value))
    start = encode_u64(301)  # absent: iteration starts mid-leaf
    with cost.paused():
        _, leaf = tree.descend(start)
        assert leaf.kind == kind
        remainder = len(list(leaf.iter_from(start)))
        following = leaf.next_leaf.count
    assert 1 < remainder < leaf.count
    count = {
        "zero": 0,
        "one": 1,
        "leaf_remainder": remainder,
        "three_leaves": remainder + following + 1,
        "past_end": 1000,
    }[shape]
    with cost.measure() as old:
        expected = _per_item_scan(tree, start, count)
    with cost.measure() as new:
        got = tree.scan(start, count)
    assert got == expected
    assert len(got) == min(count, (600 - 303) // 3)
    assert list(new.counts.items()) == list(old.counts.items())


def _per_level_descend(tree, key):
    """Oracle: the descent that the fused one replaced — one
    ``charge_many`` per inner node, fences tracked per level."""
    path, lo, hi = [], None, None
    node = tree.root
    while isinstance(node, InnerNode):
        keys = node.keys
        probes = len(keys).bit_length() or 1
        tree.cost.charge_many(
            ("rand_line", 1), ("compare", probes), ("branch", probes)
        )
        idx = bisect.bisect_right(keys, key)
        if idx > 0:
            lo = keys[idx - 1]
        if idx < len(keys):
            hi = keys[idx]
        path.append((node, idx))
        node = node.children[idx]
    return path, node, lo, hi


def _descent_ledger(tree, fn, key, tag):
    """Run ``fn(key)`` on a fresh ledger; return its result and the
    ledger's counts and tag buckets in insertion order."""
    cost = CostModel()
    tree.cost = cost
    if tag:
        with cost.attributed_to(tag):
            result = fn(key)
    else:
        result = fn(key)
    tagged = [(t, list(bucket.items())) for t, bucket in cost.tagged.items()]
    return result, list(cost.counts.items()), tagged


@pytest.mark.parametrize("n,height", [(3, 1), (12, 2), (30, 3), (100, 4)])
@pytest.mark.parametrize("tag", ["", "descent"])
def test_fused_descent_matches_per_level(n, height, tag):
    tree = make_tree()
    for value in range(0, 4 * n, 4):
        tree.insert(encode_u64(value), value)
    assert tree.height == height
    tree.trace = []
    for value in range(-1, 4 * n + 2):
        key = encode_u64(max(0, value))
        expected = _descent_ledger(
            tree, lambda k: _per_level_descend(tree, k), key, tag
        )
        path, leaf, lo, hi = expected[0]
        fenced = _descent_ledger(tree, tree._descend_fenced, key, tag)
        assert fenced == expected
        plain = _descent_ledger(tree, tree.descend, key, tag)
        assert plain == ((path, leaf),) + expected[1:]
        if height == 1:
            assert plain[1] == [] and plain[2] == []
    # Both descents record every visited node, root to leaf.
    assert len(tree.trace) == 2 * height * (4 * n + 3)

"""Correctness tests for the blind-trie representations.

Every representation is exercised against the sorted reference model:
predecessor search semantics, incremental insert/remove, splits and
merges, and the structural invariant checkers (which recompute the
expected discriminating bits from the actual keys).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.blindi.seqtrie import SearchResult, SeqTrieRep, _Descent
from repro.blindi.seqtree import ET, SeqTreeRep
from repro.blindi.subtrie import SubTrieRep
from repro.keys.bitops import first_diff_bit, get_bit
from repro.keys.encoding import encode_u64
from repro.memory.cost_model import CostModel
from repro.table.table import Table

from tests.conftest import SortedModel, U64Source

REPS = [
    pytest.param(SeqTrieRep, {}, id="seqtrie"),
    pytest.param(SeqTreeRep, {"levels": 0}, id="seqtree-l0"),
    pytest.param(SeqTreeRep, {"levels": 2}, id="seqtree-l2"),
    pytest.param(SeqTreeRep, {"levels": 5}, id="seqtree-l5"),
    pytest.param(SubTrieRep, {}, id="subtrie"),
]


def build_rep(rep_cls, kwargs, source, values):
    """Build a representation over sorted distinct values."""
    values = sorted(set(values))
    pairs = [source.add(v) for v in values]
    keys = [k for k, _ in pairs]
    tids = [t for _, t in pairs]
    return rep_cls.from_sorted(
        keys, tids, source.table, 8, source.cost, **kwargs
    )


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestSearch:
    def test_empty(self, rep_cls, kwargs):
        source = U64Source()
        rep = rep_cls(source.table, 8, source.cost, **kwargs)
        result = rep.search(encode_u64(5))
        assert not result.found
        assert result.pred == -1

    def test_single_key(self, rep_cls, kwargs):
        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [100])
        assert rep.search(encode_u64(100)).found
        r = rep.search(encode_u64(50))
        assert not r.found and r.pred == -1
        r = rep.search(encode_u64(150))
        assert not r.found and r.pred == 0

    def test_found_positions(self, rep_cls, kwargs):
        source = U64Source()
        values = [3, 17, 19, 130, 131, 186, 255]
        rep = build_rep(rep_cls, kwargs, source, values)
        for pos, v in enumerate(values):
            result = rep.search(encode_u64(v))
            assert result.found, f"value {v} not found"
            assert result.pos == pos

    def test_predecessor_semantics(self, rep_cls, kwargs):
        source = U64Source()
        values = [10, 20, 30, 40, 50]
        rep = build_rep(rep_cls, kwargs, source, values)
        cases = {5: -1, 10: 0, 15: 0, 25: 1, 45: 3, 50: 4, 99: 4}
        for probe, expected_pred in cases.items():
            result = rep.search(encode_u64(probe))
            assert result.pred == expected_pred, f"probe {probe}"

    def test_dense_then_probe_everything(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 64, 2))
        rep = build_rep(rep_cls, kwargs, source, values)
        for probe in range(-0, 66):
            result = rep.search(encode_u64(probe))
            expected_found = probe in values and probe < 64
            assert result.found == expected_found, f"probe {probe}"

    def test_adversarial_prefixes(self, rep_cls, kwargs):
        # Keys chosen so discriminating bits are highly non-uniform.
        source = U64Source()
        values = [0, 1, 2, 3, 2**63, 2**63 + 1, 2**63 + 2**32, 2**64 - 1]
        rep = build_rep(rep_cls, kwargs, source, values)
        svalues = sorted(values)
        probes = values + [4, 2**62, 2**63 + 5, 2**63 - 1]
        for probe in probes:
            result = rep.search(encode_u64(probe))
            assert result.found == (probe in values)
            if not result.found:
                expected = max(
                    (i for i, v in enumerate(svalues) if v <= probe), default=-1
                )
                assert result.pred == expected, f"probe {probe}"


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestIncremental:
    def test_insert_one_by_one(self, rep_cls, kwargs):
        source = U64Source()
        rep = rep_cls(source.table, 8, source.cost, **kwargs)
        values = [50, 10, 90, 30, 70, 20, 80, 40, 60, 0, 100]
        inserted = []
        for v in values:
            key, tid = source.add(v)
            result = rep.search(key)
            assert not result.found
            rep.insert_new(result, key, tid)
            inserted.append(v)
            rep.check_invariants()
            for w in inserted:
                assert rep.search(encode_u64(w)).found, f"{w} after insert {v}"

    def test_remove_one_by_one(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 160, 10))
        rep = build_rep(rep_cls, kwargs, source, values)
        random.Random(7).shuffle(values)
        remaining = set(values)
        for v in values:
            result = rep.search(encode_u64(v))
            assert result.found
            rep.remove_at(result.pos)
            remaining.discard(v)
            rep.check_invariants()
            for w in remaining:
                assert rep.search(encode_u64(w)).found

    def test_replace_tid(self, rep_cls, kwargs):
        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        result = rep.search(encode_u64(2))
        _, new_tid = source.add(2)
        old = rep.replace_tid(result.pos, new_tid)
        assert rep.tid_at(result.pos) == new_tid
        assert old != new_tid


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestStructural:
    def test_split(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 200, 7))
        rep = build_rep(rep_cls, kwargs, source, values)
        n = rep.n
        right = rep.split()
        assert rep.n == n // 2
        assert right.n == n - n // 2
        rep.check_invariants()
        right.check_invariants()
        svalues = sorted(values)
        for v in svalues[: n // 2]:
            assert rep.search(encode_u64(v)).found
        for v in svalues[n // 2 :]:
            assert right.search(encode_u64(v)).found

    def test_merge(self, rep_cls, kwargs):
        source = U64Source()
        left = build_rep(rep_cls, kwargs, source, list(range(0, 50, 5)))
        right = build_rep(rep_cls, kwargs, source, list(range(100, 150, 5)))
        left.merge_from(right)
        left.check_invariants()
        assert left.n == 20
        for v in list(range(0, 50, 5)) + list(range(100, 150, 5)):
            assert left.search(encode_u64(v)).found

    def test_split_then_merge_roundtrip(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 64, 3))
        rep = build_rep(rep_cls, kwargs, source, values)
        right = rep.split()
        rep.merge_from(right)
        rep.check_invariants()
        assert rep.n == len(values)

    def test_merge_into_empty(self, rep_cls, kwargs):
        source = U64Source()
        empty = rep_cls(source.table, 8, source.cost, **kwargs)
        right = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        empty.merge_from(right)
        empty.check_invariants()
        assert empty.n == 3

    def test_append_run(self, rep_cls, kwargs):
        from repro.keys.bitops import first_diff_bit

        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        run_pairs = [source.add(v) for v in (10, 11, 12)]
        boundary = first_diff_bit(encode_u64(3), encode_u64(10))
        rep.append_run(
            [k for k, _ in run_pairs], [t for _, t in run_pairs], boundary
        )
        rep.check_invariants()
        assert rep.n == 6


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rep_matches_model(rep_cls, kwargs, data):
    source = U64Source()
    rep = rep_cls(source.table, 8, source.cost, **kwargs)
    model = SortedModel()
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "search"]),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=80,
        )
    )
    for op, value in ops:
        key = encode_u64(value)
        result = rep.search(key)
        model_pred = model.predecessor_pos(key)
        assert result.found == (model.lookup(key) is not None)
        assert result.pred == model_pred
        if op == "insert" and not result.found:
            _, tid = source.add(value)
            rep.insert_new(result, key, tid)
            model.insert(key, tid)
        elif op == "remove" and result.found:
            rep.remove_at(result.pos)
            model.remove(key)
    rep.check_invariants()


class Bytes16Source:
    """A table of raw 16-byte keys (rows are the keys themselves)."""

    def __init__(self):
        from repro.memory.cost_model import CostModel
        from repro.table.table import Table

        self.cost = CostModel()
        self.table = Table(
            key_of_row=lambda row: row, row_bytes=48, cost_model=self.cost
        )

    def add(self, key: bytes):
        return key, self.table.insert_row(key)


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rep_matches_model_wide_keys(rep_cls, kwargs, data):
    """Same model-equivalence property with random 16-byte keys, whose
    discriminating bits span the full 128-bit range."""
    source = Bytes16Source()
    rep = rep_cls(source.table, 16, source.cost, **kwargs)
    from tests.conftest import SortedModel as _Model

    model = _Model()
    keys_pool = data.draw(
        st.lists(st.binary(min_size=16, max_size=16), min_size=1,
                 max_size=40, unique=True)
    )
    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove", "search"]),
                      st.integers(min_value=0, max_value=len(keys_pool) - 1)),
            max_size=60,
        )
    )
    for op, key_index in ops:
        key = keys_pool[key_index]
        result = rep.search(key)
        assert result.found == (model.lookup(key) is not None)
        assert result.pred == model.predecessor_pos(key)
        if op == "insert" and not result.found:
            _, tid = source.add(key)
            rep.insert_new(result, key, tid)
            model.insert(key, tid)
        elif op == "remove" and result.found:
            rep.remove_at(result.pos)
            model.remove(key)
    rep.check_invariants()


class TestSeqTreeSpecifics:
    def test_tree_array_size(self):
        source = U64Source()
        rep = SeqTreeRep(source.table, 8, source.cost, levels=3)
        assert len(rep.tree) == 7
        assert all(slot == ET for slot in rep.tree)

    def test_levels_zero_is_seqtrie(self):
        source = U64Source()
        rep = SeqTreeRep(source.table, 8, source.cost, levels=0)
        assert rep.tree == []

    def test_tree_points_at_minima(self):
        source = U64Source()
        values = list(range(0, 256, 4))
        pairs = [source.add(v) for v in values]
        rep = SeqTreeRep.from_sorted(
            [k for k, _ in pairs], [t for _, t in pairs],
            source.table, 8, source.cost, levels=3,
        )
        # Root must point at the global minimum discriminating bit.
        assert rep.bits[rep.tree[0]] == min(rep.bits)
        rep.check_invariants()

    def test_search_scans_less_with_tree(self):
        values = list(range(1024))
        source_flat = U64Source()
        flat = build_rep(SeqTreeRep, {"levels": 0}, source_flat, values)
        source_tree = U64Source()
        deep = build_rep(SeqTreeRep, {"levels": 5}, source_tree, values)
        probe = encode_u64(777)
        source_flat.cost.reset()
        flat.search(probe)
        flat_compares = source_flat.cost.counts.get("compare", 0)
        source_tree.cost.reset()
        deep.search(probe)
        deep_compares = source_tree.cost.counts.get("compare", 0)
        assert deep_compares < flat_compares / 4

    def test_payload_grows_with_levels(self):
        source = U64Source()
        small = SeqTreeRep(source.table, 8, levels=2)
        large = SeqTreeRep(source.table, 8, levels=6)
        assert large.payload_bytes(128) > small.payload_bytes(128)
        # Levels 1-3 ride in alignment slack: same payload as level 0.
        level0 = SeqTreeRep(source.table, 8, levels=0)
        level3 = SeqTreeRep(source.table, 8, levels=3)
        assert level3.payload_bytes(128) <= level0.payload_bytes(128) + 0


class TestSubTrieSpecifics:
    def test_space_overhead_vs_seqtrie(self):
        source = U64Source()
        sub = SubTrieRep(source.table, 8)
        seq = SeqTrieRep(source.table, 8)
        # SubTrie needs ~2 B/key, SeqTrie ~1 B/key (section 5.1).
        assert sub.payload_bytes(128) == 2 * seq.payload_bytes(128)

    def test_lsize_two_bytes_above_256(self):
        source = U64Source()
        sub = SubTrieRep(source.table, 8)
        assert sub.entry_bytes(256) == 2
        assert sub.entry_bytes(512) == 3

    def test_search_cost_logarithmic(self):
        source = U64Source()
        values = list(range(512))
        rep = build_rep(SubTrieRep, {}, source, values)
        source.cost.reset()
        rep.search(encode_u64(300))
        # A balanced 512-key trie descends ~9-18 nodes, far below n.
        assert source.cost.counts.get("compare", 0) < 40


# ----------------------------------------------------------------------
# Integer search vs. the byte-string search it replaced (oracle)
# ----------------------------------------------------------------------
# The SeqTrie/SeqTree search runs on the key as one integer: bit tests
# are shifts and the discriminating bit is one ``bit_length``.  The
# functions below are the byte-string search it replaced, kept verbatim
# as the oracle: per-bit ``get_bit``, ``first_diff_bit`` and per-level
# descent charges.  Both must agree on every ``SearchResult`` field and
# on the ledger, down to the first-appearance order of every category.


def _oracle_descend(rep, key):
    d = _Descent(lo=0, hi=len(rep.bits) - 1, j=0)
    if not isinstance(rep, SeqTreeRep):
        return d
    tree = rep.tree
    size = len(tree)
    if size:
        rep.cost.seq_lines(1)
    slot = 0
    while slot < size:
        m = tree[slot]
        if m == ET:
            break
        rep.cost.compares(1)
        rep.cost.branches(1)
        if get_bit(key, rep.bits[m]):
            d.j = m + 1
            d.lo = m + 1
            d.right_turn_inds.append(m)
            slot = 2 * slot + 2
        else:
            d.hi = m - 1
            d.left_turn_inds.append(m)
            slot = 2 * slot + 1
    return d


def _oracle_scan(rep, key, lo, hi, j):
    count = hi - lo + 1
    if count <= 0:
        return j
    lines = (count * rep.bit_entry_bytes + 63) // 64
    rep.cost.charge_many(
        ("rand_line", 1), ("seq_line", lines - 1),
        ("compare", count), ("branch", count),
    )
    threshold = 1 << 30
    for i in range(lo, hi + 1):
        b = rep.bits[i]
        if b > threshold:
            continue
        if get_bit(key, b):
            j = i + 1
            threshold = 1 << 30
        else:
            threshold = b
    return j


def _oracle_fixup(rep, scanned):
    if scanned:
        rep.cost.touch_bytes_seq(scanned * rep.bit_entry_bytes)
        rep.cost.compares(scanned)
        rep.cost.branches(scanned)


def _oracle_boundary(rep, candidates, b_d, default):
    scanned = 0
    for i in candidates:
        scanned += 1
        if rep.bits[i] < b_d:
            _oracle_fixup(rep, scanned)
            return i
    _oracle_fixup(rep, scanned)
    return default


def oracle_search(rep, key):
    if rep.n == 0:
        return SearchResult(found=False, pos=0, pred=-1)
    d = _oracle_descend(rep, key)
    j = _oracle_scan(rep, key, d.lo, d.hi, d.j)
    candidate = rep.table.load_key(rep.tids[j])
    rep.cost.compares(1)
    b_d = first_diff_bit(candidate, key)
    if b_d is None:
        return SearchResult(found=True, pos=j, pred=j)
    if get_bit(key, b_d):
        right = list(range(j, d.hi + 1)) + list(reversed(d.left_turn_inds))
        pred = _oracle_boundary(rep, right, b_d, rep.n - 1)
        return SearchResult(found=False, pos=pred + 1, pred=pred, b_d=b_d,
                            bits_insert_idx=pred, skey_greater=True)
    left = list(range(j - 1, d.lo - 1, -1)) + list(reversed(d.right_turn_inds))
    pred = _oracle_boundary(rep, left, b_d, -1)
    return SearchResult(found=False, pos=pred + 1, pred=pred, b_d=b_d,
                        bits_insert_idx=pred + 1, skey_greater=False)


class RawKeySource:
    """A table of raw ``width``-byte keys (rows are the keys themselves)."""

    def __init__(self, width):
        self.width = width
        self.cost = CostModel()
        self.table = Table(
            key_of_row=lambda row: row, row_bytes=48, cost_model=self.cost
        )


def _ledger(search, rep, key, tag):
    """Run one search on a fresh ledger; return the result and the
    ledger's counts and tag buckets, in insertion order."""
    cost = CostModel()
    rep.cost = cost
    rep.table.cost_model = cost
    if tag:
        with cost.attributed_to(tag):
            result = search(key)
    else:
        result = search(key)
    tagged = [(t, list(bucket.items())) for t, bucket in cost.tagged.items()]
    return result, list(cost.counts.items()), tagged


ORACLE_REPS = [(SeqTrieRep, {})] + [
    (SeqTreeRep, {"levels": levels}) for levels in range(4)
]


@st.composite
def oracle_key_sets(draw):
    """Sorted distinct keys of width 8, 16 or 32 B: uniform, sharing a
    long prefix (dense low bits), or holding the all-zero key."""
    width = draw(st.sampled_from([8, 16, 32]))
    nbits = width * 8
    shape = draw(st.sampled_from(["uniform", "shared_prefix", "zero"]))
    if shape == "uniform":
        # Up to 80 keys: a SeqTrie scan then spans two cache lines.
        values = draw(st.lists(st.integers(0, (1 << nbits) - 1),
                               min_size=1, max_size=80))
    else:
        low = draw(st.integers(1, 12))
        prefix = 0 if shape == "zero" else draw(
            st.integers(0, (1 << (nbits - low)) - 1))
        values = [prefix << low | v for v in draw(st.lists(
            st.integers(0, (1 << low) - 1), min_size=1, max_size=40))]
        if shape == "zero":
            values.append(0)
    values = sorted(set(values))
    return width, [v.to_bytes(width, "big") for v in values]


@settings(max_examples=100, deadline=None)
@given(case=oracle_key_sets(), tag=st.sampled_from(["", "compact.search"]))
def test_int_search_matches_bytes_oracle(case, tag):
    width, keys = case
    top = (1 << (width * 8)) - 1
    probes = {0, top}
    for key in keys:
        v = int.from_bytes(key, "big")
        probes.update(p for p in (v - 1, v, v + 1) if 0 <= p <= top)
    source = RawKeySource(width)
    tids = [source.table.insert_row(key) for key in keys]
    for rep_cls, kwargs in ORACLE_REPS:
        rep = rep_cls.from_sorted(keys, tids, source.table, width,
                                  source.cost, **kwargs)
        for p in sorted(probes):
            probe = p.to_bytes(width, "big")
            expected = _ledger(lambda k: oracle_search(rep, k), rep, probe, tag)
            actual = _ledger(rep.search, rep, probe, tag)
            assert actual == expected, (rep_cls.__name__, kwargs, probe)


@pytest.mark.parametrize("rep_cls,kwargs", ORACLE_REPS)
def test_int_search_on_empty_and_wrong_width(rep_cls, kwargs):
    source = RawKeySource(8)
    empty = rep_cls(source.table, 8, source.cost, **kwargs)
    assert _ledger(empty.search, empty, bytes(8), "") == _ledger(
        lambda k: oracle_search(empty, k), empty, bytes(8), "")
    keys = [encode_u64(v) for v in (3, 9, 200)]
    tids = [source.table.insert_row(key) for key in keys]
    rep = rep_cls.from_sorted(keys, tids, source.table, 8, source.cost,
                              **kwargs)
    # A candidate whose width differs from the searched key's.
    with pytest.raises(ValueError):
        rep.search(encode_u64(9) + b"\x00")

"""Ablations of the elastic design choices called out in DESIGN.md.

* **Grow/shrink policy** (section 4 leaves the policy space open): the
  paper's incremental overflow-piggyback policy vs. eager wholesale
  compaction (the hybrid-index style it argues against, section 2) vs.
  never compacting.  The eager policy matches the incremental one on
  space but pays a latency spike — the "significant time" bulk
  compaction takes.
* **Compact representation**: the elastic tree with SeqTree vs. SubTrie
  vs. plain SeqTrie leaves (the framework's first parameter).
* **Hysteresis**: shrink/expand thresholds too close together cause
  state oscillation; the default gap does not.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.harness import (
    ExperimentResult,
    estimate_stx_bytes_per_key,
    make_u64_environment,
    measure,
)
from repro.blindi.seqtree import SeqTreeRep
from repro.blindi.seqtrie import SeqTrieRep
from repro.blindi.subtrie import SubTrieRep
from repro.core.policies import (
    EagerCompactionPolicy,
    NeverCompactPolicy,
    PaperPolicy,
)
from repro.core.config import ElasticConfig
from repro.core.elastic_btree import ElasticBPlusTree
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import Table
from repro.keys.encoding import encode_u64


def _build_elastic(bound: int, policy=None, rep_cls=SeqTreeRep):
    cost = CostModel()
    allocator = TrackingAllocator(cost_model=cost)
    table = Table(encode_u64, row_bytes=32, cost_model=cost)
    config = ElasticConfig(size_bound_bytes=bound, rep_cls=rep_cls)
    tree = ElasticBPlusTree(
        table, config, allocator=allocator, cost_model=cost, policy=policy
    )
    return tree, table, cost


def run_policies(n_items: int = 8_000, seed: int = 12) -> ExperimentResult:
    """Paper policy vs. eager bulk compaction vs. never compacting."""
    rate = estimate_stx_bytes_per_key()
    bound = int(rate * (n_items / 2) / 0.9)
    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), n_items)
    result = ExperimentResult(
        "ablation-policies",
        "Grow/shrink policy ablation (insert run crossing the bound)",
        x_label="metric",
    )
    result.xs = [0, 1, 2]
    result.add_row("metric 0", "final index MB")
    result.add_row("metric 1", "mean insert cost (units)")
    result.add_row("metric 2", "max single-insert cost (units)")
    for label, policy in (
        ("paper", PaperPolicy()),
        ("eager", EagerCompactionPolicy()),
        ("never", NeverCompactPolicy()),
    ):
        tree, table, cost = _build_elastic(bound, policy=policy)
        total = 0.0
        worst = 0.0
        for value in values:
            tid = table.insert_row(value)
            key = table.peek_key(tid)
            with cost.measure() as delta:
                tree.insert(key, tid)
            units = delta.weighted_cost()
            total += units
            worst = max(worst, units)
        result.add_series(
            label,
            [tree.index_bytes / 1e6, total / n_items, worst],
        )
    result.add_row(
        "expectation",
        "eager matches paper's space but its worst-case insert is the "
        "bulk-compaction pause; never matches STX space (largest)",
    )
    return result


def run_representations(
    n_items: int = 8_000, seed: int = 13
) -> ExperimentResult:
    """Elastic tree with SeqTree vs. SubTrie vs. SeqTrie compact leaves."""
    rate = estimate_stx_bytes_per_key()
    bound = int(rate * (n_items / 2) / 0.9)
    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), n_items)
    result = ExperimentResult(
        "ablation-representation",
        "Compact representation ablation inside the elastic tree",
        x_label="metric",
    )
    result.xs = [0, 1, 2]
    result.add_row("metric 0", "final index MB")
    result.add_row("metric 1", "lookup throughput (ops/unit)")
    result.add_row("metric 2", "insert throughput (ops/unit)")
    for label, rep_cls in (
        ("seqtree", SeqTreeRep),
        ("subtrie", SubTrieRep),
        ("seqtrie", SeqTrieRep),
    ):
        tree, table, cost = _build_elastic(bound, rep_cls=rep_cls)
        if label == "seqtrie":
            tree.config.seqtree_levels = 0  # SeqTree at level 0 == SeqTrie
        keys: List[bytes] = []

        def fill():
            for value in values:
                tid = table.insert_row(value)
                key = table.peek_key(tid)
                keys.append(key)
                tree.insert(key, tid)

        m_insert = measure(cost, n_items, fill)
        probes = [rng.choice(keys) for _ in range(3_000)]
        m_lookup = measure(
            cost, len(probes), lambda: [tree.lookup(k) for k in probes]
        )
        result.add_series(
            label,
            [tree.index_bytes / 1e6, m_lookup.throughput, m_insert.throughput],
        )
    return result


def run_hosts(n_items: int = 6_000, seed: int = 15) -> ExperimentResult:
    """Framework generality: the same controller on three hosts.

    Section 3 claims the framework applies to "any index with internal
    key storage, such as a B+-tree, skip list, or Bw-Tree".  This runs
    the identical grow/shrink workload against all three elastic
    instantiations and reports space and throughput.
    """
    from repro.core.elastic_variants import ElasticBwTree
    from repro.skiplist.elastic import ElasticFatSkipList

    rate = estimate_stx_bytes_per_key()
    bound = int(rate * (n_items / 2) / 0.9)
    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), n_items)
    result = ExperimentResult(
        "ablation-hosts",
        "Elastic framework on B+-tree, Bw-tree and fat skip list hosts",
        x_label="metric",
    )
    result.xs = [0, 1, 2, 3]
    result.add_row("metric 0", "final index MB")
    result.add_row("metric 1", "rigid-host index MB (no elasticity)")
    result.add_row("metric 2", "lookup throughput (ops/unit)")
    result.add_row("metric 3", "leaf conversions")

    def hosts(bound_bytes):
        cost = CostModel()
        allocator = TrackingAllocator(cost_model=cost)
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        config = ElasticConfig(size_bound_bytes=bound_bytes)
        yield "btree", ElasticBPlusTree(
            table, config, allocator=allocator, cost_model=cost
        ), table, cost
        cost = CostModel()
        allocator = TrackingAllocator(cost_model=cost)
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        yield "bwtree", ElasticBwTree(
            table, ElasticConfig(size_bound_bytes=bound_bytes),
            allocator=allocator, cost_model=cost,
        ), table, cost
        cost = CostModel()
        allocator = TrackingAllocator(cost_model=cost)
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        yield "skiplist", ElasticFatSkipList(
            table, ElasticConfig(size_bound_bytes=bound_bytes),
            allocator=allocator, cost_model=cost,
        ), table, cost

    rigid_sizes = {}
    for label, index, table, cost in hosts(1 << 40):  # effectively unbounded
        for value in values:
            tid = table.insert_row(value)
            index.insert(table.peek_key(tid), tid)
        rigid_sizes[label] = index.index_bytes
    for label, index, table, cost in hosts(bound):
        keys = []
        for value in values:
            tid = table.insert_row(value)
            key = table.peek_key(tid)
            keys.append(key)
            index.insert(key, tid)
        probes = [rng.choice(keys) for _ in range(2_000)]
        m = measure(cost, len(probes), lambda: [index.lookup(k) for k in probes])
        stats = index.controller.stats
        result.add_series(
            label,
            [
                index.index_bytes / 1e6,
                rigid_sizes[label] / 1e6,
                m.throughput,
                float(stats.conversions_to_compact + stats.capacity_promotions),
            ],
        )
    return result


def run_cold_policy(n_items: int = 8_000, seed: int = 18) -> ExperimentResult:
    """The paper's future-work policy, measured (section 4).

    Workload: uniform inserts drive the index past its bound while
    queries (15-key scans) concentrate on a hot key range.  The paper's
    overflow-piggyback policy compacts whatever overflows — including
    hot leaves — while ColdFirstPolicy spares queried leaves and
    reclaims space from cold ones via a CLOCK sweep.  Scans amplify the
    difference: compact leaves pay an indirect load per scanned key.
    """
    from repro.core.policies import ColdFirstPolicy
    from repro.keys.encoding import encode_u64 as enc

    rate = estimate_stx_bytes_per_key()
    bound = int(rate * (n_items / 2) / 0.9)
    hot_limit = 1 << 16  # hot range: lowest ~6% of the keyspace

    result = ExperimentResult(
        "ablation-cold-policy",
        "Access-aware (cold-first) policy vs. the paper's overflow policy",
        x_label="metric",
    )
    result.xs = [0, 1, 2]
    result.add_row("metric 0", "final index MB")
    result.add_row("metric 1", "hot-range scan throughput (ops/unit)")
    result.add_row("metric 2", "hot-range standard-leaf fraction")
    for label, policy in (("paper", None), ("cold-first", ColdFirstPolicy())):
        cost = CostModel()
        allocator = TrackingAllocator(cost_model=cost)
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        config = ElasticConfig(size_bound_bytes=bound)
        tree = ElasticBPlusTree(
            table, config, allocator=allocator, cost_model=cost,
            policy=policy,
        )
        rng = random.Random(seed)
        values = rng.sample(range(1 << 20), n_items)
        hot = [v for v in values if v < hot_limit] or values[:20]
        for i, value in enumerate(values):
            tid = table.insert_row(value)
            tree.insert(enc(value), tid)
            if i % 2 == 0:
                tree.scan(enc(rng.choice(hot)), 15)
        starts = [enc(rng.choice(hot)) for _ in range(800)]
        m = measure(cost, len(starts),
                    lambda: [tree.scan(k, 15) for k in starts])
        standard = compact = 0
        leaf = tree.first_leaf
        boundary = enc(hot_limit)
        while leaf is not None:
            if leaf.count:
                first = next(iter(leaf.items()))[0]
                if first < boundary:
                    if leaf.kind == "standard":
                        standard += 1
                    else:
                        compact += 1
            leaf = leaf.next_leaf
        result.add_series(
            label,
            [
                tree.index_bytes / 1e6,
                m.throughput,
                standard / max(1, standard + compact),
            ],
        )
    return result


def run_scan_lengths(
    n_items: int = 8_000,
    lengths=(1, 5, 15, 50, 150, 500),
    seed: int = 16,
) -> ExperimentResult:
    """Where indirect key storage hurts: the scan-length sweep.

    Point queries barely differ between STX and the blind tries; the gap
    opens with scan length because every scanned key is a table load
    (sections 2 and 6).  This charts STX / SeqTree128 / HOT throughput
    against the scan length — the crossover evidence behind the paper's
    workload-E and Figure-8d results.
    """
    from repro.bench.harness import make_u64_environment

    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), n_items)
    result = ExperimentResult(
        "ablation-scan-length",
        "Scan throughput vs. scan length, per index",
        x_label="scan length",
    )
    result.xs = [float(length) for length in lengths]
    for name in ("stx", "seqtree128", "hot"):
        env = make_u64_environment(name)
        keys = []
        for value in values:
            tid = env.table.insert_row(value)
            key = env.table.peek_key(tid)
            keys.append(key)
            env.index.insert(key, tid)
        ys = []
        for length in lengths:
            starts = [rng.choice(keys) for _ in range(300)]
            m = measure(
                env.cost, len(starts),
                lambda: [env.index.scan(k, length) for k in starts],
            )
            ys.append(m.throughput)
        result.add_series(name, ys)
    return result


def run_hysteresis(n_items: int = 6_000, seed: int = 14) -> ExperimentResult:
    """State transitions while hovering at the bound, per threshold gap."""
    rate = estimate_stx_bytes_per_key()
    bound = int(rate * (n_items / 2) / 0.9)
    rng = random.Random(seed)
    result = ExperimentResult(
        "ablation-hysteresis",
        "State transitions vs. expand/shrink threshold gap",
        x_label="expand threshold fraction",
    )
    gaps = (0.895, 0.85, 0.75, 0.6)
    result.xs = list(gaps)
    transitions = []
    for expand_fraction in gaps:
        cost = CostModel()
        allocator = TrackingAllocator(cost_model=cost)
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        config = ElasticConfig(
            size_bound_bytes=bound,
            expand_trigger_fraction=expand_fraction,
        )
        tree = ElasticBPlusTree(
            table, config, allocator=allocator, cost_model=cost
        )
        live = []
        next_values = iter(rng.sample(range(1 << 56), 4 * n_items))
        for _ in range(n_items):
            value = next(next_values)
            tid = table.insert_row(value)
            tree.insert(table.peek_key(tid), tid)
            live.append(tid)
        # Hover: alternate insert/delete bursts around the bound.
        for _ in range(10):
            for _ in range(n_items // 20):
                tid = live.pop(rng.randrange(len(live)))
                tree.remove(table.peek_key(tid))
            for _ in range(n_items // 20):
                value = next(next_values)
                tid = table.insert_row(value)
                tree.insert(table.peek_key(tid), tid)
                live.append(tid)
        transitions.append(float(tree.controller.stats.state_transitions))
    result.add_series("state transitions", transitions)
    result.add_row(
        "expectation",
        "a tight gap (0.895 vs the 0.9 shrink trigger) oscillates far "
        "more than the default 0.75",
    )
    return result

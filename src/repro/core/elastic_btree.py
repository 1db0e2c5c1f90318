"""The elastic B+-tree: the paper's demonstration of the framework."""

from __future__ import annotations

from typing import Optional

from repro.btree.stats import TreeStats, collect_stats
from repro.btree.tree import BPlusTree
from repro.core.config import ElasticConfig
from repro.core.framework import make_elastic
from repro.core.policies import GrowShrinkPolicy
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.table.table import Table


class ElasticBPlusTree(BPlusTree):
    """An STX-style B+-tree whose leaves elastically change representation.

    Under typical memory demands it is byte-for-byte a standard B+-tree;
    when the index size approaches the configured soft bound it starts
    converting leaves to the compact blind-trie representation, and it
    gradually reverts once the dataset shrinks (paper sections 3-4).

    Args:
        table: The database table the index references; compact leaves
            load keys from it (indirect key storage).
        config: Elasticity parameters (soft bound, thresholds, compact
            representation, breathing).
        policy: Grow/shrink policy; defaults to the paper's
            overflow/underflow piggyback policy.
        Remaining arguments as for :class:`~repro.btree.tree.BPlusTree`.
    """

    def __init__(
        self,
        table: Table,
        config: ElasticConfig,
        key_width: int = 8,
        leaf_capacity: int = 16,
        inner_capacity: int = 16,
        allocator: Optional[TrackingAllocator] = None,
        cost_model: CostModel = NULL_COST_MODEL,
        policy: Optional[GrowShrinkPolicy] = None,
    ) -> None:
        super().__init__(
            key_width=key_width,
            leaf_capacity=leaf_capacity,
            inner_capacity=inner_capacity,
            allocator=allocator,
            cost_model=cost_model,
        )
        self.table = table
        self.config = config
        make_elastic(self, config, table, policy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pressure_state(self) -> PressureState:
        """Current elasticity state (normal / shrinking / expanding)."""
        return self.controller.state

    def stats(self) -> TreeStats:
        """Structural snapshot (leaf census, occupancy, bytes)."""
        return collect_stats(self)

    def check_elastic_invariants(self) -> None:
        """Structural checks plus the elastic fill invariant: converted
        leaves of capacity 2k hold at least k+1 keys, except transiently
        right after a conversion (which leaves them exactly full at the
        lower capacity) or an expansion split (half full).  Applies to
        every converted kind on the capacity ladder (compact, learned,
        third-party registrations)."""
        self.check_invariants(strict_fill=False)
        leaf = self.first_leaf
        while leaf is not None:
            if leaf.kind != "standard":
                assert leaf.capacity <= self.config.max_compact_capacity
                assert leaf.capacity >= 2 * self.leaf_capacity
                # Never beyond capacity, never empty while chained.
                assert 0 < leaf.count <= leaf.capacity
            leaf = leaf.next_leaf

"""Additional elastic framework instantiations (paper section 3).

The framework "can be applied to any index with internal key storage,
such as a B+-tree, skip list, or Bw-Tree".  This module instantiates it
for the Bw-tree: delta-chain leaves (internal key storage) convert to
blind tries under pressure and back.  The skip-list instantiation lives
in :mod:`repro.skiplist` (it needs its own substrate).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.bwtree import BwTreeIndex, DeltaLeaf
from repro.btree.leaves import LeafNode
from repro.btree.stats import TreeStats, collect_stats
from repro.core.config import ElasticConfig
from repro.core.framework import make_elastic
from repro.core.policies import GrowShrinkPolicy
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.table.table import Table


class ElasticBwTree(BwTreeIndex):
    """A Bw-tree whose delta leaves elastically convert to blind tries.

    Identical wiring to :class:`~repro.core.ElasticBPlusTree`: the
    controller intercepts overflow/underflow events, and the inherited
    B+-tree read/write paths call it through ``self.controller``
    (scalar and batched alike, cache attached or not); conversions replace
    a consolidated delta leaf with a compact leaf of twice the capacity,
    and reversions rebuild a fresh delta leaf (base only, empty chain).
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

    def make_standard_leaf(self, items: List[Tuple[bytes, int]]) -> LeafNode:
        """Reversion target: a consolidated delta leaf."""
        return DeltaLeaf(
            self.key_width, self.leaf_capacity, self.allocator, self.cost,
            items=items,
        )

    @property
    def pressure_state(self) -> PressureState:
        return self.controller.state

    def stats(self) -> TreeStats:
        return collect_stats(self)

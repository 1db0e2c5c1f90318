"""ElasticFatSkipList: the skip-list instantiation of the framework."""

from __future__ import annotations

from typing import Optional

from repro.core.config import ElasticConfig
from repro.core.framework import make_elastic
from repro.core.policies import GrowShrinkPolicy
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.skiplist.fat import FatSkipList
from repro.table.table import Table


class ElasticFatSkipList(FatSkipList):
    """A block skip list whose blocks elastically change representation.

    Wiring is identical to the elastic B+-tree: the unchanged
    :class:`~repro.core.elasticity.ElasticityController` drives block
    conversion through the host surface — demonstrating the framework's
    claim that it applies to any index with internal key storage
    (paper section 3).
    """

    def __init__(
        self,
        table: Table,
        config: ElasticConfig,
        key_width: int = 8,
        leaf_capacity: int = 16,
        allocator: Optional[TrackingAllocator] = None,
        cost_model: CostModel = NULL_COST_MODEL,
        policy: Optional[GrowShrinkPolicy] = None,
        seed: int = 0xFA7,
    ) -> None:
        super().__init__(
            key_width=key_width,
            leaf_capacity=leaf_capacity,
            allocator=allocator,
            cost_model=cost_model,
            seed=seed,
        )
        self.table = table
        self.config = config
        make_elastic(self, config, table, policy)

    @property
    def pressure_state(self) -> PressureState:
        return self.controller.state

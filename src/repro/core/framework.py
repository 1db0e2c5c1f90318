"""The elastic index framework, host-agnostically (paper section 3).

"The elastic index framework can be applied to any index with internal
key storage, such as a B+-tree, skip list, or Bw-Tree."  The
:class:`~repro.core.elasticity.ElasticityController` only talks to its
host through the small surface below; any ordered index whose data sits
in leaf-ADT nodes (:class:`~repro.btree.leaves.LeafNode`) can be made
elastic by implementing it.

Elasticity attaches like the read cache: as one optional attribute,
``host.controller``.  The host owns a single read/write path and calls
the controller from it when one is attached — ``on_search_leaf`` after
a search ends at a leaf, ``after_batch`` after a batched read, and
``run_pending`` at every other operation boundary.  A rigid host leaves
``controller`` at ``None``.  Three hosts ship with this library, each
built through :func:`make_elastic`:

* :class:`~repro.core.elastic_btree.ElasticBPlusTree` — the paper's
  demonstration instance;
* :class:`~repro.core.elastic_variants.ElasticBwTree` — delta-chain
  leaves convert to blind tries and back;
* :class:`~repro.skiplist.ElasticFatSkipList` — a block skip list whose
  blocks convert.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.btree.leaves import LeafNode
from repro.core.config import ElasticConfig
from repro.core.elasticity import ElasticityController
from repro.core.policies import GrowShrinkPolicy
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import Table


@runtime_checkable
class ElasticHost(Protocol):
    """What an index must expose for the elasticity controller.

    ``path`` values are opaque to the controller: it only receives them
    from the host's overflow/underflow events and hands them back to the
    host's structural operations.
    """

    # -- wiring -----------------------------------------------------------
    overflow_handler: Any
    underflow_handler: Any
    #: The attached controller, or ``None`` on a rigid host; the host's
    #: read/write paths call it at searches and operation boundaries.
    controller: Optional[ElasticityController]
    allocator: TrackingAllocator
    cost: CostModel
    key_width: int
    #: Capacity of the host's standard leaves — the bottom rung of the
    #: compact capacity ladder is twice this.
    leaf_capacity: int

    @property
    def index_bytes(self) -> int:
        """Current structural footprint, measured against the bound."""
        ...

    # -- structural operations driven by the controller --------------------
    def split_leaf_and_insert(
        self, path: Any, leaf: LeafNode, key: bytes, tid: int
    ) -> None:
        """The host's textbook overflow handling."""
        ...

    def rebalance_leaf(self, path: Any, leaf: LeafNode) -> None:
        """The host's textbook underflow handling."""
        ...

    def replace_leaf(self, path: Any, old: LeafNode, new: LeafNode) -> None:
        """Swap a leaf in place (representation conversion)."""
        ...

    def insert_separator(self, path: Any, separator: bytes, right: LeafNode) -> None:
        """Register a new right sibling produced by an expansion split."""
        ...

    def make_standard_leaf(self, items: List[Tuple[bytes, int]]) -> LeafNode:
        """Build the host's internal-key leaf (reversion target)."""
        ...

    def iter_leaves_with_paths(self) -> Iterable[Tuple[Any, LeafNode]]:
        """Enumerate leaves for bulk compaction."""
        ...


def make_elastic(
    host: ElasticHost,
    config: ElasticConfig,
    table: Table,
    policy: Optional[GrowShrinkPolicy] = None,
) -> ElasticityController:
    """Attach an elasticity controller to ``host`` and return it.

    After this call the host's overflow/underflow events are routed
    through the elasticity algorithm, and ``host.controller`` is set, so
    the host's own read/write paths call ``on_search_leaf`` after
    searches (expansion splits), ``after_batch`` after batched reads and
    ``run_pending`` at operation boundaries.
    """
    controller = ElasticityController(config, table, policy)
    controller.attach(host)
    return controller

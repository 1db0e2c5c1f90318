"""Structural statistics for B+-trees (leaf census, occupancy, space).

The paper reports several structural facts that these stats regenerate:
the fraction of compact leaves per capacity class (section 6.4: "at 4X
items 10% of the leaves in the elastic index are SeqTree nodes with
capacity of 128, and that number reaches 37% at 5X items") and the ~70%
average leaf occupancy under uniform keys (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.btree.tree import BPlusTree
    from repro.btree.leaves import LeafNode


@dataclass
class TreeStats:
    """Snapshot of a tree's structure."""

    height: int = 0
    item_count: int = 0
    inner_nodes: int = 0
    leaf_count: int = 0
    compact_leaf_count: int = 0
    learned_leaf_count: int = 0
    #: Leaf count per registered kind (``"standard"``, ``"compact"``,
    #: ``"learned"``, third-party names).
    leaves_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Leaf count per representation/capacity class.  Keys are the
    #: ``"<kind>/<capacity>"`` strings of :func:`_leaf_class`
    #: (:attr:`~repro.btree.leaves.LeafNode.kind`), e.g.
    #: ``"compact/128"`` or ``"standard/16"``.
    leaves_by_class: Dict[str, int] = field(default_factory=dict)
    #: Sum of count/capacity over leaves, divided by leaf_count.
    avg_leaf_occupancy: float = 0.0
    index_bytes: int = 0
    bytes_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def compact_fraction(self) -> float:
        """Fraction of leaves using a compact representation."""
        if self.leaf_count == 0:
            return 0.0
        return self.compact_leaf_count / self.leaf_count

    @property
    def learned_fraction(self) -> float:
        """Fraction of leaves using the learned representation."""
        if self.leaf_count == 0:
            return 0.0
        return self.learned_leaf_count / self.leaf_count


def _leaf_class(leaf: "LeafNode") -> str:
    return f"{leaf.kind}/{leaf.capacity}"


def collect_stats(tree: "BPlusTree") -> TreeStats:
    """Walk ``tree`` and return a :class:`TreeStats` snapshot."""
    from repro.btree.tree import InnerNode  # local import to avoid a cycle

    stats = TreeStats(
        height=tree.height,
        item_count=len(tree),
        index_bytes=tree.index_bytes,
        bytes_by_category={
            k: v for k, v in tree.allocator.breakdown().items() if k != "table"
        },
    )
    stack = [tree.root]
    occupancy_sum = 0.0
    while stack:
        node = stack.pop()
        if isinstance(node, InnerNode):
            stats.inner_nodes += 1
            stack.extend(node.children)
        else:
            stats.leaf_count += 1
            kind = node.kind
            if kind == "compact":
                stats.compact_leaf_count += 1
            elif kind == "learned":
                stats.learned_leaf_count += 1
            stats.leaves_by_kind[kind] = stats.leaves_by_kind.get(kind, 0) + 1
            cls = _leaf_class(node)
            stats.leaves_by_class[cls] = stats.leaves_by_class.get(cls, 0) + 1
            if node.capacity:
                occupancy_sum += node.count / node.capacity
    if stats.leaf_count:
        stats.avg_leaf_occupancy = occupancy_sum / stats.leaf_count
    return stats

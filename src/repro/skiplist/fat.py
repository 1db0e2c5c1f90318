"""FatSkipList: a skip list whose towers route to multi-key blocks.

Classic skip lists keep one key per node; a *block* skip list keeps a
sorted run of keys per tower, which (a) amortizes the tower pointers'
space, and (b) creates exactly the leaf abstraction the elastic index
framework operates on: blocks implement the same leaf ADT as B+-tree
leaves, overflow by splitting (spawning a new tower), and underflow by
merging with their successor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.btree.leaves import LeafFullError, LeafNode, StandardLeaf
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

_MAX_LEVEL = 20
_TOWER_HEADER_BYTES = 16
_POINTER_BYTES = 8


class _Tower:
    """A skip-list tower: a routing key and a pointer to its block."""

    __slots__ = ("key", "block", "forward")

    def __init__(self, key: Optional[bytes], block: LeafNode, height: int) -> None:
        self.key = key  # None on the head tower (acts as -infinity)
        self.block = block
        self.forward: List[Optional["_Tower"]] = [None] * height

    def __repr__(self) -> str:
        label = "head" if self.key is None else self.key.hex()
        return f"<Tower {label} h={len(self.forward)}>"


@dataclass
class SkipPath:
    """Opaque path handed to handlers: per-level predecessors + tower.

    ``update`` may be ``None`` for paths produced by plain enumeration
    (bulk compaction), which only needs the tower.
    """

    tower: _Tower
    update: Optional[List[_Tower]] = None


class FatSkipList:
    """Skip list over leaf-ADT blocks; implements the ElasticHost surface."""

    def __init__(
        self,
        key_width: int,
        leaf_capacity: int = 16,
        allocator: Optional[TrackingAllocator] = None,
        cost_model: CostModel = NULL_COST_MODEL,
        seed: int = 0xFA7,
    ) -> None:
        self.key_width = key_width
        self.leaf_capacity = leaf_capacity
        self.allocator = allocator if allocator is not None else TrackingAllocator()
        self.cost = cost_model
        self._rng = random.Random(seed)
        first_block = StandardLeaf(
            key_width, leaf_capacity, self.allocator, cost_model
        )
        self._head = _Tower(None, first_block, _MAX_LEVEL)
        self.first_leaf: LeafNode = first_block
        self._level = 1
        self._count = 0
        self.overflow_handler = FatSkipList.split_overflow_handler
        self.underflow_handler = FatSkipList.rebalance_underflow_handler
        #: Optional elasticity controller, set by its ``attach`` exactly
        #: as on :class:`~repro.btree.tree.BPlusTree`.
        self.controller = None
        self.append_split_fraction = 0.7
        self._charge_tower(self._head, +1)

    # ------------------------------------------------------------------
    # Tower accounting
    # ------------------------------------------------------------------
    def _tower_bytes(self, tower: _Tower) -> int:
        return (
            _TOWER_HEADER_BYTES
            + self.key_width
            + len(tower.forward) * _POINTER_BYTES
        )

    def _charge_tower(self, tower: _Tower, sign: int) -> None:
        if sign > 0:
            self.allocator.allocate(self._tower_bytes(tower), "skiplist.tower")
        else:
            self.allocator.free(self._tower_bytes(tower), "skiplist.tower")

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_LEVEL and self._rng.random() < 0.5:
            height += 1
        return height

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def find(self, key: bytes) -> SkipPath:
        """Per-level predecessors of ``key``; path.tower owns its block."""
        update: List[_Tower] = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while True:
                nxt = node.forward[level]
                self.cost.rand_lines(1)
                self.cost.compares(1)
                self.cost.branches(1)
                if nxt is not None and nxt.key <= key:
                    node = nxt
                else:
                    break
            update[level] = node
        return SkipPath(tower=node, update=update)

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        path = self.find(key)
        block = path.tower.block
        block.access_count += 1
        tid = block.lookup(key)
        if self.controller is not None:
            self.controller.on_search_leaf(path, block)
            self.controller.run_pending()
        return tid

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        if len(key) != self.key_width:
            raise ValueError(f"key width {len(key)} != {self.key_width}")
        path = self.find(key)
        block = path.tower.block
        try:
            old = block.upsert(key, tid)
        except LeafFullError:
            self.overflow_handler(self, path, block, key, tid)
            old = None
        if old is None:
            self._count += 1
        if self.controller is not None:
            self.controller.run_pending()
        return old

    def remove(self, key: bytes) -> Optional[int]:
        path = self.find(key)
        block = path.tower.block
        tid = block.remove(key)
        if tid is not None:
            self._count -= 1
            if block.count < block.underflow_threshold:
                self.underflow_handler(self, path, block)
        if self.controller is not None:
            self.controller.run_pending()
        return tid

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        path = self.find(start_key)
        block = path.tower.block
        block.access_count += 1
        controller = self.controller
        if controller is not None and controller.on_search_leaf(path, block):
            # The block was split while expanding; restart on fresh towers.
            block = self.find(start_key).tower.block
        result = self._collect_scan(block, start_key, count)
        if controller is not None:
            controller.run_pending()
        return result

    def _collect_scan(
        self, block: Optional[LeafNode], start_key: bytes, count: int
    ) -> List[Tuple[bytes, int]]:
        out: List[Tuple[bytes, int]] = []
        iterator = block.iter_from(start_key)
        while block is not None and len(out) < count:
            for item in iterator:
                out.append(item)
                if len(out) >= count:
                    break
            else:
                block = block.next_leaf
                if block is not None:
                    self.cost.rand_lines(1)
                    iterator = block.items()
                continue
            break
        return out

    def items(self) -> Iterable[Tuple[bytes, int]]:
        block: Optional[LeafNode] = self.first_leaf
        while block is not None:
            for item in block.items():
                yield item
            block = block.next_leaf

    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        return sum(
            size
            for category, size in self.allocator.live_bytes.items()
            if category != "table"
        )

    # ------------------------------------------------------------------
    # Textbook overflow: split the block, spawn a tower
    # ------------------------------------------------------------------
    @staticmethod
    def split_overflow_handler(
        sl: "FatSkipList", path: SkipPath, block: LeafNode, key: bytes, tid: int
    ) -> None:
        sl.split_leaf_and_insert(path, block, key, tid)

    def split_leaf_and_insert(
        self, path: SkipPath, block: LeafNode, key: bytes, tid: int
    ) -> None:
        fraction = 0.5
        if (
            block.next_leaf is None
            and isinstance(block, StandardLeaf)
            and block.keys
            and key > block.keys[-1]
        ):
            fraction = self.append_split_fraction
        right, separator = block.split(fraction)
        right.link_after(block)
        self.insert_separator(path, separator, right)
        target = right if key >= separator else block
        target.upsert(key, tid)

    def insert_separator(
        self, path: SkipPath, separator: bytes, right: LeafNode
    ) -> None:
        """Splice a new tower for ``right`` after ``path.tower``."""
        assert path.update is not None, "separator insert needs a search path"
        height = self._random_height()
        tower = _Tower(separator, right, height)
        if height > self._level:
            self._level = height
        for level in range(height):
            pred = path.update[level]
            # The update array was computed for a key >= separator; all
            # towers between pred and its successor have keys beyond it.
            tower.forward[level] = pred.forward[level]
            pred.forward[level] = tower
        self._charge_tower(tower, +1)
        self.cost.allocs(1)

    # ------------------------------------------------------------------
    # Textbook underflow: borrow from / merge with the successor block
    # ------------------------------------------------------------------
    @staticmethod
    def rebalance_underflow_handler(
        sl: "FatSkipList", path: SkipPath, block: LeafNode
    ) -> None:
        sl.rebalance_leaf(path, block)

    def rebalance_leaf(self, path: SkipPath, block: LeafNode) -> None:
        tower = path.tower
        nxt = tower.forward[0]
        if block.count == 0:
            # An empty block is removable no matter how large its
            # neighbours are (mixed-capacity merges may be impossible,
            # but an empty block contributes nothing).
            self._drop_empty_block(path)
            return
        if nxt is None:
            return  # rightmost block: tolerated, like the B+-tree's
        nxt_block = nxt.block
        if nxt_block.count > nxt_block.min_fill:
            key, tid = nxt_block.take_first()
            block.upsert(key, tid)
            nxt.key = nxt_block.first_key()
            return
        if block.count + nxt_block.count <= block.capacity:
            block.merge_from(nxt_block)
            nxt_block.unlink()
            nxt_block.destroy()
            self._remove_tower(nxt, path.update)
            return
        # Neither borrow nor merge possible (mixed capacities): tolerate.

    def _drop_empty_block(self, path: SkipPath) -> None:
        tower = path.tower
        block = tower.block
        if tower is self._head:
            nxt = tower.forward[0]
            if nxt is None:
                return  # the sole (empty) block stays as the head's
            # Promote the successor's block into the head slot.
            tower.block = nxt.block
            block.unlink()
            block.destroy()
            self.first_leaf = tower.block
            self._remove_tower(nxt, path.update)
            return
        block.unlink()
        block.destroy()
        self._remove_tower(tower, path.update)

    def _remove_tower(
        self, tower: _Tower, update: Optional[List[_Tower]]
    ) -> None:
        for level in range(len(tower.forward)):
            pred = (
                update[level]
                if update is not None
                and level < len(update)
                and update[level] is not tower
                else self._head
            )
            while pred.forward[level] is not tower:
                pred = pred.forward[level]
                assert pred is not None, "tower not linked at its level"
                self.cost.rand_lines(1)
            pred.forward[level] = tower.forward[level]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._charge_tower(tower, -1)
        self.cost.frees(1)

    # ------------------------------------------------------------------
    # Elastic-host surface
    # ------------------------------------------------------------------
    def make_standard_leaf(self, items: List[Tuple[bytes, int]]) -> LeafNode:
        return StandardLeaf(
            self.key_width, self.leaf_capacity, self.allocator, self.cost,
            items=items,
        )

    def replace_leaf(self, path: SkipPath, old: LeafNode, new: LeafNode) -> None:
        new.replace_in_chain(old)
        path.tower.block = new
        if self.first_leaf is old:
            self.first_leaf = new
        old.destroy()

    def iter_leaves_with_paths(self) -> Iterable[Tuple[SkipPath, LeafNode]]:
        tower: Optional[_Tower] = self._head
        while tower is not None:
            yield SkipPath(tower=tower), tower.block
            tower = tower.forward[0]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self, strict_fill: bool = True) -> None:
        with self.cost.paused():
            # Towers sorted; each block's keys within [tower.key, next.key).
            blocks: List[LeafNode] = []
            tower: Optional[_Tower] = self._head
            total = 0
            while tower is not None:
                nxt = tower.forward[0]
                block = tower.block
                blocks.append(block)
                keys = [k for k, _ in block.items()]
                assert keys == sorted(keys)
                total += len(keys)
                for key in keys:
                    if tower.key is not None:
                        assert key >= tower.key, "key below tower separator"
                    if nxt is not None:
                        assert key < nxt.key, "key beyond next tower"
                if nxt is not None:
                    assert tower.key is None or tower.key < nxt.key
                tower = nxt
            assert total == self._count, f"count {self._count} != {total}"
            # The block chain agrees with the tower chain.
            chain = []
            block = self.first_leaf
            while block is not None:
                chain.append(block)
                block = block.next_leaf
            assert chain == blocks, "block chain disagrees with towers"
            # Every level is a subsequence of level 0, sorted.
            for level in range(1, self._level):
                node = self._head.forward[level]
                prev_key = None
                while node is not None:
                    assert len(node.forward) > level
                    if prev_key is not None:
                        assert node.key > prev_key
                    prev_key = node.key
                    node = node.forward[level]

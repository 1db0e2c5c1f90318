"""Skip list baseline [25] with internal key storage.

The paper omits skip lists from its plots because they "consume more
memory than STX" (section 6.1) — each key carries its own node with a
tower of forward pointers, and searches chase pointers at every step
instead of binary-searching a cache-resident array.  This implementation
exists to verify that domination claim in the benchmark harness.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.baselines.interface import OrderedIndex
from repro.keys.encoding import key_width_error
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

_NODE_HEADER_BYTES = 16  # allocation header + level count
_POINTER_BYTES = 8
_TID_BYTES = 8
_MAX_LEVEL = 24


class _Node:
    __slots__ = ("key", "tid", "forward")

    def __init__(self, key: Optional[bytes], tid: int, level: int) -> None:
        self.key = key
        self.tid = tid
        self.forward: List[Optional[_Node]] = [None] * level


class SkipListIndex(OrderedIndex):
    """Randomized skip list (p = 1/2) storing keys in its nodes."""

    def __init__(
        self,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
        seed: int = 0xC0FFEE,
    ) -> None:
        self.key_width = key_width
        self.cost = cost_model
        self._rng = random.Random(seed)
        self._head = _Node(None, -1, _MAX_LEVEL)
        self._level = 1
        self._count = 0
        self._bytes = 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < 0.5:
            level += 1
        return level

    def _node_bytes(self, node: _Node) -> int:
        return (
            _NODE_HEADER_BYTES
            + self.key_width
            + _TID_BYTES
            + len(node.forward) * _POINTER_BYTES
        )

    def _find_predecessors(self, key: bytes) -> List[_Node]:
        """Per-level predecessors of ``key`` (the classic update array).

        Every operation starts here, so this is where a key of the wrong
        width is refused."""
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        update: List[_Node] = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while True:
                nxt = node.forward[level]
                # Every step is a pointer chase to a cold node.
                self.cost.rand_lines(1)
                self.cost.compares(1)
                self.cost.branches(1)
                if nxt is not None and nxt.key < key:
                    node = nxt
                else:
                    break
            update[level] = node
        return update

    # ------------------------------------------------------------------
    # OrderedIndex protocol
    # ------------------------------------------------------------------
    def insert(self, key: bytes, tid: int) -> Optional[int]:
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            old = candidate.tid
            candidate.tid = tid
            return old
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, tid, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._count += 1
        self._bytes += self._node_bytes(node)
        self.cost.allocs(1)
        self.cost.copy_bytes(self.key_width + _TID_BYTES)
        return None

    def lookup(self, key: bytes) -> Optional[int]:
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.tid
        return None

    def remove(self, key: bytes) -> Optional[int]:
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is None or candidate.key != key:
            return None
        for i in range(len(candidate.forward)):
            if update[i].forward[i] is candidate:
                update[i].forward[i] = candidate.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._count -= 1
        self._bytes -= self._node_bytes(candidate)
        self.cost.frees(1)
        return candidate.tid

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        update = self._find_predecessors(start_key)
        node = update[0].forward[0]
        out: List[Tuple[bytes, int]] = []
        while node is not None and len(out) < count:
            # Keys are internal, but every step is still a pointer chase
            # to a non-contiguous node (no cache-line batching).
            self.cost.rand_lines(1)
            out.append((node.key, node.tid))
            node = node.forward[0]
        return out

    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        return self._bytes

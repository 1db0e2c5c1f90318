"""ART — Adaptive Radix Tree [16] baseline.

The paper reports ART is "outperformed by HOT, which is also more space
efficient" (section 6.1) and omits it from plots; this implementation
verifies that domination.  Standard ART design: four adaptive node sizes
(4/16/48/256 children), pessimistic path compression, and single-value
leaves that store the full key (lazy expansion), which makes scans
self-contained (no table loads) at a space cost.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.baselines.interface import OrderedIndex
from repro.keys.encoding import key_width_error
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

_TID_BYTES = 8
_LEAF_HEADER = 16
_INNER_BASE = 16 + 8  # header + compressed-prefix field


class _Leaf:
    __slots__ = ("key", "tid")

    def __init__(self, key: bytes, tid: int) -> None:
        self.key = key
        self.tid = tid


class _Inner:
    """Adaptive inner node; ``kind`` is the child-slot budget."""

    __slots__ = ("prefix", "keys", "children", "kind")

    def __init__(self, prefix: bytes) -> None:
        self.prefix = prefix
        self.keys: List[int] = []  # sorted child bytes
        self.children: List[_Node] = []
        self.kind = 4

    # -- child access -----------------------------------------------------
    def find(self, byte: int) -> Optional["_Node"]:
        import bisect

        pos = bisect.bisect_left(self.keys, byte)
        if pos < len(self.keys) and self.keys[pos] == byte:
            return self.children[pos]
        return None

    def add(self, byte: int, child: "_Node") -> None:
        import bisect

        pos = bisect.bisect_left(self.keys, byte)
        self.keys.insert(pos, byte)
        self.children.insert(pos, child)
        while len(self.keys) > self.kind:
            self.kind = {4: 16, 16: 48, 48: 256}[self.kind]

    def drop(self, byte: int) -> None:
        import bisect

        pos = bisect.bisect_left(self.keys, byte)
        assert pos < len(self.keys) and self.keys[pos] == byte
        del self.keys[pos]
        del self.children[pos]
        shrink_at = {16: 3, 48: 12, 256: 36}
        if self.kind in shrink_at and len(self.keys) <= shrink_at[self.kind]:
            self.kind = {16: 4, 48: 16, 256: 48}[self.kind]

    def replace(self, byte: int, child: "_Node") -> None:
        import bisect

        pos = bisect.bisect_left(self.keys, byte)
        assert pos < len(self.keys) and self.keys[pos] == byte
        self.children[pos] = child

    @property
    def size_bytes(self) -> int:
        if self.kind == 4:
            return _INNER_BASE + 4 + 4 * 8
        if self.kind == 16:
            return _INNER_BASE + 16 + 16 * 8
        if self.kind == 48:
            return _INNER_BASE + 256 + 48 * 8
        return _INNER_BASE + 256 * 8


_Node = Union[_Leaf, _Inner]


class ARTIndex(OrderedIndex):
    """Adaptive radix tree over fixed-width byte keys."""

    def __init__(
        self, key_width: int, cost_model: CostModel = NULL_COST_MODEL
    ) -> None:
        self.key_width = key_width
        self.cost = cost_model
        self._root: Optional[_Node] = None
        self._count = 0
        self._bytes = 0

    # ------------------------------------------------------------------
    # Space accounting helpers
    # ------------------------------------------------------------------
    def _charge_node(self, node: _Node, sign: int) -> None:
        if isinstance(node, _Leaf):
            size = _LEAF_HEADER + self.key_width + _TID_BYTES
        else:
            size = node.size_bytes
        self._bytes += sign * size
        if sign > 0:
            self.cost.allocs(1)
        else:
            self.cost.frees(1)

    def _reprice(self, node: _Inner, before_kind: int) -> None:
        """Adjust accounting when a node changed its adaptive size."""
        sizes = {
            4: _INNER_BASE + 4 + 32,
            16: _INNER_BASE + 16 + 128,
            48: _INNER_BASE + 256 + 384,
            256: _INNER_BASE + 2048,
        }
        if node.kind != before_kind:
            self._bytes += sizes[node.kind] - sizes[before_kind]
            self.cost.allocs(1)
            self.cost.copy_bytes(sizes[before_kind])

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        node = self._root
        depth = 0
        while node is not None:
            self.cost.rand_lines(1)
            if isinstance(node, _Leaf):
                self.cost.compares(1)
                return node.tid if node.key == key else None
            prefix = node.prefix
            if key[depth : depth + len(prefix)] != prefix:
                return None
            depth += len(prefix)
            self.cost.compares(1)
            node = node.find(key[depth])
            depth += 1
        return None

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        if self._root is None:
            leaf = _Leaf(key, tid)
            self._charge_node(leaf, +1)
            self._root = leaf
            self._count = 1
            return None
        replaced: List[Optional[int]] = [None]
        self._root = self._insert(self._root, key, tid, 0, replaced)
        if replaced[0] is None:
            self._count += 1
        return replaced[0]

    def _common_prefix(self, a: bytes, b: bytes) -> int:
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        return n

    def _insert(
        self,
        node: _Node,
        key: bytes,
        tid: int,
        depth: int,
        replaced: List[Optional[int]],
    ) -> _Node:
        self.cost.rand_lines(1)
        if isinstance(node, _Leaf):
            if node.key == key:
                replaced[0] = node.tid
                node.tid = tid
                return node
            common = self._common_prefix(node.key[depth:], key[depth:])
            inner = _Inner(key[depth : depth + common])
            self._charge_node(inner, +1)
            leaf = _Leaf(key, tid)
            self._charge_node(leaf, +1)
            inner.add(node.key[depth + common], node)
            inner.add(key[depth + common], leaf)
            return inner
        prefix = node.prefix
        common = self._common_prefix(prefix, key[depth : depth + len(prefix)])
        if common < len(prefix):
            # Split the compressed prefix.
            parent = _Inner(prefix[:common])
            self._charge_node(parent, +1)
            node.prefix = prefix[common + 1 :]
            parent.add(prefix[common], node)
            leaf = _Leaf(key, tid)
            self._charge_node(leaf, +1)
            parent.add(key[depth + common], leaf)
            return parent
        depth += len(prefix)
        byte = key[depth]
        child = node.find(byte)
        self.cost.compares(1)
        if child is None:
            leaf = _Leaf(key, tid)
            self._charge_node(leaf, +1)
            before = node.kind
            node.add(byte, leaf)
            self._reprice(node, before)
            return node
        new_child = self._insert(child, key, tid, depth + 1, replaced)
        if new_child is not child:
            node.replace(byte, new_child)
        return node

    def remove(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        if self._root is None:
            return None
        removed: List[Optional[int]] = [None]
        self._root = self._remove(self._root, key, 0, removed)
        if removed[0] is not None:
            self._count -= 1
        return removed[0]

    def _remove(
        self,
        node: _Node,
        key: bytes,
        depth: int,
        removed: List[Optional[int]],
    ) -> Optional[_Node]:
        self.cost.rand_lines(1)
        if isinstance(node, _Leaf):
            if node.key == key:
                removed[0] = node.tid
                self._charge_node(node, -1)
                return None
            return node
        prefix = node.prefix
        if key[depth : depth + len(prefix)] != prefix:
            return node
        depth += len(prefix)
        byte = key[depth]
        child = node.find(byte)
        if child is None:
            return node
        new_child = self._remove(child, key, depth + 1, removed)
        if new_child is child:
            return node
        if new_child is None:
            before = node.kind
            node.drop(byte)
            self._reprice(node, before)
            if len(node.keys) == 1:
                # Path compression: collapse single-child inner nodes.
                only = node.children[0]
                if isinstance(only, _Inner):
                    only.prefix = node.prefix + bytes([node.keys[0]]) + only.prefix
                self._charge_node(node, -1)
                return only
        else:
            node.replace(byte, new_child)
        return node

    # ------------------------------------------------------------------
    # Scans: keys are in the leaves, no table loads needed
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if len(start_key) != self.key_width:
            raise key_width_error(start_key, self.key_width)
        out: List[Tuple[bytes, int]] = []
        if self._root is None or count <= 0:
            return out
        # In-order walk, pruning subtrees whose largest key lies below
        # the start key.
        self._walk_from(self._root, start_key, out, count)
        return out[:count]

    def _walk_from(
        self,
        node: _Node,
        start_key: bytes,
        out: List[Tuple[bytes, int]],
        count: int,
    ) -> bool:
        self.cost.rand_lines(1)
        if isinstance(node, _Leaf):
            if node.key >= start_key:
                out.append((node.key, node.tid))
            return len(out) >= count
        for child in node.children:
            if self._subtree_max_below(child, start_key):
                continue
            if self._walk_from(child, start_key, out, count):
                return True
        return False

    def _subtree_max_below(self, node: _Node, start_key: bytes) -> bool:
        """Cheap prune: skip a subtree when its largest key < start_key.
        Descends the rightmost spine (cost-charged)."""
        while isinstance(node, _Inner):
            node = node.children[-1]
            self.cost.branches(1)
        return node.key < start_key

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        return self._bytes

    def check_invariants(self) -> None:
        if self._root is None:
            assert self._count == 0
            return

        def walk(node: _Node) -> List[bytes]:
            if isinstance(node, _Leaf):
                return [node.key]
            assert node.keys == sorted(node.keys)
            assert len(node.keys) >= 1
            keys: List[bytes] = []
            for child in node.children:
                keys.extend(walk(child))
            return keys

        keys = walk(self._root)
        assert keys == sorted(keys)
        assert len(keys) == self._count

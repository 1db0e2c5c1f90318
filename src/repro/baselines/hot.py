"""Simplified HOT — Height-Optimized Trie [3] (paper sections 2, 6, 7).

HOT is the paper's main competitor: a Patricia (blind) trie that stores
keys *indirectly* (tuple ids only) and packs trie nodes into compound
nodes with high fan-out, giving best-in-class space and fast point
queries — but slow scans, because every scanned key must be loaded from
the table (sections 2 and 6.1).

Substitution note (DESIGN.md): the real HOT is a SIMD-heavy C++
structure.  This model keeps the two properties the paper's comparisons
rest on:

* **Structure**: a binary Patricia trie with indirect key storage;
  point searches descend by key bits and verify with one table load.
* **Compound packing**: cost and space are charged per *compound* node
  of up to 32 entries (absorbing ~5 binary levels per cache-line-sized
  node), which is what gives HOT its low search cost and ~10 B/key
  footprint for 8-byte keys.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.keys.bitops import first_diff_bit, get_bit
from repro.keys.encoding import key_width_error
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.baselines.interface import OrderedIndex
from repro.table.table import Table

#: Binary trie levels absorbed per compound node (32-entry compounds).
_SPAN_LEVELS = 5
_ENTRIES_PER_COMPOUND = 31
_COMPOUND_HEADER_BYTES = 32
_ENTRY_BYTES = 2  # discriminating-bit index + sparse partial key byte
_TID_BYTES = 8


class _PNode:
    """Binary Patricia node: a discriminating bit and two children."""

    __slots__ = ("bit", "left", "right")

    def __init__(self, bit: int, left: "_Child", right: "_Child") -> None:
        self.bit = bit
        self.left = left
        self.right = right


class _PLeaf:
    """Trie leaf: a tuple id only — the key lives in the table."""

    __slots__ = ("tid",)

    def __init__(self, tid: int) -> None:
        self.tid = tid


_Child = Union[_PNode, _PLeaf]


class HOTIndex(OrderedIndex):
    """Height-Optimized Trie with indirect key storage."""

    def __init__(
        self,
        table: Table,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
    ) -> None:
        self.table = table
        self.key_width = key_width
        self.cost = cost_model
        self._root: Optional[_Child] = None
        self._count = 0
        #: When set to a list, descents append the ids of the compound
        #: nodes crossed (used by the concurrency simulator).
        self.trace: Optional[list] = None
        #: Ids of nodes structurally modified by the last insert/remove.
        self.last_write_set: list = []

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _charge_descent(self, depth: int) -> None:
        """A depth-``depth`` binary descent crosses ~depth/5 compounds.

        Each compound node spans more than one cache line (32 entries of
        partial keys plus child pointers), so a hop costs one dependent
        line plus one adjacent line.
        """
        if depth >= 0:
            hops = max(1, -(-max(depth, 1) // _SPAN_LEVELS))
            self.cost.rand_lines(hops)
            self.cost.seq_lines(hops)
            self.cost.compares(max(1, depth))
            self.cost.branches(max(1, depth))

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _descend(self, key: bytes) -> Tuple[_PLeaf, int]:
        """Blind descent to the candidate leaf; returns (leaf, depth)."""
        node = self._root
        depth = 0
        while isinstance(node, _PNode):
            if self.trace is not None and depth % _SPAN_LEVELS == 0:
                self.trace.append(id(node))
            node = node.right if get_bit(key, node.bit) else node.left
            depth += 1
        assert isinstance(node, _PLeaf)
        return node, depth

    def lookup(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        if self._root is None:
            return None
        leaf, depth = self._descend(key)
        self._charge_descent(depth)
        loaded = self.table.load_key(leaf.tid)
        self.cost.compares(1)
        return leaf.tid if loaded == key else None

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        self.last_write_set = []
        if self._root is None:
            self._root = _PLeaf(tid)
            self._count = 1
            self.cost.allocs(1)
            return None
        leaf, depth = self._descend(key)
        self._charge_descent(depth)
        loaded = self.table.load_key(leaf.tid)
        self.cost.compares(1)
        b_d = first_diff_bit(loaded, key)
        if b_d is None:
            old = leaf.tid
            leaf.tid = tid
            return old
        # Splice a new node above the first node whose bit exceeds b_d.
        parent: Optional[_PNode] = None
        node: _Child = self._root
        splice_depth = 0
        while isinstance(node, _PNode) and node.bit < b_d:
            parent = node
            node = node.right if get_bit(key, node.bit) else node.left
            splice_depth += 1
        self._charge_descent(splice_depth)
        new_leaf = _PLeaf(tid)
        if get_bit(key, b_d):
            new_node = _PNode(b_d, node, new_leaf)
        else:
            new_node = _PNode(b_d, new_leaf, node)
        if parent is None:
            self._root = new_node
        elif get_bit(key, parent.bit):
            parent.right = new_node
        else:
            parent.left = new_node
        self._count += 1
        # HOT inserts rewrite the affected compound node (copy-on-write).
        self.last_write_set.append(id(parent) if parent is not None else 0)
        self.cost.allocs(1)
        self.cost.copy_bytes(
            _ENTRIES_PER_COMPOUND * _ENTRY_BYTES + _COMPOUND_HEADER_BYTES
        )
        return None

    def remove(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        if self._root is None:
            return None
        parent: Optional[_PNode] = None
        grand: Optional[_PNode] = None
        node: _Child = self._root
        depth = 0
        while isinstance(node, _PNode):
            grand = parent
            parent = node
            node = node.right if get_bit(key, node.bit) else node.left
            depth += 1
        self._charge_descent(depth)
        loaded = self.table.load_key(node.tid)
        self.cost.compares(1)
        if loaded != key:
            return None
        tid = node.tid
        if parent is None:
            self._root = None
        else:
            sibling = parent.left if node is parent.right else parent.right
            if grand is None:
                self._root = sibling
            elif parent is grand.right:
                grand.right = sibling
            else:
                grand.left = sibling
        self._count -= 1
        self.cost.frees(1)
        return tid

    # ------------------------------------------------------------------
    # Scans: the expensive operation (one table load per key)
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if len(start_key) != self.key_width:
            raise key_width_error(start_key, self.key_width)
        out: List[Tuple[bytes, int]] = []
        if self._root is None or count <= 0:
            return out
        # Blind descent, stacking the right subtrees not taken.
        stack: List[_Child] = []
        node: _Child = self._root
        depth = 0
        while isinstance(node, _PNode):
            if get_bit(start_key, node.bit):
                node = node.right
            else:
                stack.append(node.right)
                node = node.left
            depth += 1
        self._charge_descent(depth)
        loaded = self.table.load_key(node.tid)
        self.cost.compares(1)
        b_d = first_diff_bit(loaded, start_key)
        if b_d is None:
            start_subtree: Optional[_Child] = node
        else:
            # Re-descend to the maximal subtree sharing start_key's
            # b_d-bit prefix: its keys all sit on one side of start_key.
            stack = []
            node = self._root
            redepth = 0
            while isinstance(node, _PNode) and node.bit < b_d:
                if get_bit(start_key, node.bit):
                    node = node.right
                else:
                    stack.append(node.right)
                    node = node.left
                redepth += 1
            self._charge_descent(redepth)
            start_subtree = None if get_bit(start_key, b_d) else node
        if start_subtree is not None:
            stack.append(start_subtree)
        # In-order emission; every key is an independent table load.
        visited_internal = 0
        while stack and len(out) < count:
            top = stack.pop()
            while isinstance(top, _PNode):
                stack.append(top.right)
                top = top.left
                visited_internal += 1
            key = self.table.load_key_batched(top.tid)
            out.append((key, top.tid))
        self.cost.branches(visited_internal + len(out))
        # Advancing a HOT iterator decodes one compound entry (partial
        # key + child offset) per emitted key, unlike the plain array
        # walk of a B+-tree leaf.
        self.cost.seq_lines(len(out))
        self.cost.rand_lines(-(-max(visited_internal, 1) // _ENTRIES_PER_COMPOUND))
        return out

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        """Compound-packed space model: ~10.4 B/key for 8-byte keys."""
        if self._count == 0:
            return 0
        internal = self._count - 1
        compounds = -(-internal // _ENTRIES_PER_COMPOUND) if internal else 1
        return (
            compounds * _COMPOUND_HEADER_BYTES
            + internal * _ENTRY_BYTES
            + self._count * _TID_BYTES
        )

    def check_invariants(self) -> None:
        """Verify Patricia structure against the stored keys (tests)."""
        if self._root is None:
            assert self._count == 0
            return

        def walk(node: _Child, lo: int) -> List[bytes]:
            if isinstance(node, _PLeaf):
                return [self.table.peek_key(node.tid)]
            assert node.bit >= lo, "bits must increase along paths"
            left = walk(node.left, node.bit + 1)
            right = walk(node.right, node.bit + 1)
            for key in left:
                assert get_bit(key, node.bit) == 0
            for key in right:
                assert get_bit(key, node.bit) == 1
            return left + right

        keys = walk(self._root, 0)
        assert keys == sorted(keys), "in-order traversal not sorted"
        assert len(keys) == self._count

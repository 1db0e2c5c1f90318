"""Masstree baseline [19] — a trie of B+-trees over 8-byte key slices.

The paper omits Masstree from plots because it "consumes more memory
than STX" (section 6.1): every layer is a full B+-tree whose border
nodes carry version/permutation metadata, and direct values must keep
the full key for disambiguation.  This model reuses the B+-tree
substrate per layer and adds those overheads to the space model.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from repro.btree.tree import BPlusTree
from repro.memory.allocator import TrackingAllocator
from repro.baselines.interface import OrderedIndex
from repro.keys.encoding import key_width_error
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

_SLICE = 8
#: Per-stored-value record: header + full key copy + tid (lazy expansion).
_VALUE_HEADER = 16
#: Masstree border-node metadata (version, permutation) beyond STX's.
_BORDER_EXTRA_PER_LEAF = 16


class _Direct:
    __slots__ = ("full_key", "tid")

    def __init__(self, full_key: bytes, tid: int) -> None:
        self.full_key = full_key
        self.tid = tid


class _Layer:
    """One trie layer: a B+-tree over an 8-byte slice."""

    def __init__(self, index: "MasstreeIndex") -> None:
        self.tree = BPlusTree(
            key_width=_SLICE,
            leaf_capacity=index.leaf_capacity,
            inner_capacity=index.leaf_capacity,
            allocator=index.allocator,
            cost_model=index.cost,
        )


_Value = Union[_Direct, _Layer]


class MasstreeIndex(OrderedIndex):
    """Layered B+-trees over 8-byte key slices."""

    def __init__(
        self,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
        leaf_capacity: int = 16,
    ) -> None:
        self.key_width = key_width
        #: Keys are processed in 8-byte slices; the last slice is
        #: zero-padded (order- and distinctness-preserving for
        #: fixed-width keys).
        self.padded_width = -(-key_width // _SLICE) * _SLICE
        self.cost = cost_model
        self.leaf_capacity = leaf_capacity
        self.allocator = TrackingAllocator(cost_model=cost_model)
        self._values: List[Optional[_Value]] = []
        self._free: List[int] = []
        self._root = _Layer(self)
        self._count = 0

    # ------------------------------------------------------------------
    # Value-slot indirection (B+-trees store ints)
    # ------------------------------------------------------------------
    def _store(self, value: _Value) -> int:
        if self._free:
            slot = self._free.pop()
            self._values[slot] = value
        else:
            slot = len(self._values)
            self._values.append(value)
        return slot

    def _release(self, slot: int) -> None:
        self._values[slot] = None
        self._free.append(slot)

    def _pad(self, key: bytes) -> bytes:
        """``key`` zero-padded to whole slices; every operation starts
        here, so this is where a key of the wrong width is refused."""
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        return key.ljust(self.padded_width, b"\x00")

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        padded = self._pad(key)
        layer = self._root
        depth = 0
        while True:
            piece = padded[depth : depth + _SLICE]
            slot = layer.tree.lookup(piece)
            if slot is None:
                return None
            value = self._values[slot]
            if isinstance(value, _Direct):
                self.cost.rand_lines(1)
                self.cost.compares(1)
                return value.tid if value.full_key == padded else None
            layer = value
            depth += _SLICE

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        padded = self._pad(key)
        layer = self._root
        depth = 0
        while True:
            piece = padded[depth : depth + _SLICE]
            slot = layer.tree.lookup(piece)
            if slot is None:
                self._insert_direct(layer, piece, padded, tid)
                self._count += 1
                return None
            value = self._values[slot]
            if isinstance(value, _Layer):
                layer = value
                depth += _SLICE
                continue
            self.cost.rand_lines(1)
            self.cost.compares(1)
            if value.full_key == padded:
                old = value.tid
                value.tid = tid
                return old
            # Slice collision between distinct keys: push the existing
            # direct value down into a fresh sub-layer.
            sub = _Layer(self)
            sub_depth = depth + _SLICE
            existing_piece = value.full_key[sub_depth : sub_depth + _SLICE]
            sub.tree.insert(existing_piece, self._store(value))
            layer.tree.insert(piece, self._store(sub))
            self._release(slot)
            self.cost.allocs(1)
            layer = sub
            depth = sub_depth

    def _insert_direct(
        self, layer: _Layer, piece: bytes, padded: bytes, tid: int
    ) -> None:
        value = _Direct(padded, tid)
        layer.tree.insert(piece, self._store(value))
        self.cost.allocs(1)
        self.cost.copy_bytes(self.padded_width)

    def remove(self, key: bytes) -> Optional[int]:
        padded = self._pad(key)
        layer = self._root
        depth = 0
        while True:
            piece = padded[depth : depth + _SLICE]
            slot = layer.tree.lookup(piece)
            if slot is None:
                return None
            value = self._values[slot]
            if isinstance(value, _Layer):
                # (Layer collapse on single entries is not implemented —
                # acceptable slack for a baseline the paper also treats
                # as memory-dominated.)
                layer = value
                depth += _SLICE
                continue
            self.cost.rand_lines(1)
            self.cost.compares(1)
            if value.full_key != padded:
                return None
            layer.tree.remove(piece)
            self._release(slot)
            self._count -= 1
            self.cost.frees(1)
            return value.tid

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        padded = self._pad(start_key)
        out: List[Tuple[bytes, int]] = []
        for full_key, tid in self._iter_layer(self._root, padded, 0):
            out.append((full_key[: self.key_width], tid))
            if len(out) >= count:
                break
        return out

    def _iter_layer(
        self, layer: _Layer, start: bytes, depth: int
    ) -> Iterator[Tuple[bytes, int]]:
        piece = start[depth : depth + _SLICE]
        first = True
        for slice_key, slot in layer.tree.iter_from(piece):
            value = self._values[slot]
            if isinstance(value, _Direct):
                self.cost.rand_lines(1)
                if value.full_key >= start:
                    yield value.full_key, value.tid
            else:
                if first and slice_key == piece:
                    yield from self._iter_layer(value, start, depth + _SLICE)
                else:
                    yield from self._iter_all(value)
            first = False

    def _iter_all(self, layer: _Layer) -> Iterator[Tuple[bytes, int]]:
        for _, slot in layer.tree.items():
            value = self._values[slot]
            if isinstance(value, _Direct):
                self.cost.rand_lines(1)
                yield value.full_key, value.tid
            else:
                yield from self._iter_all(value)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        tree_bytes = self.allocator.total_bytes
        value_bytes = self._count * (_VALUE_HEADER + self.padded_width + 8)
        leaf_bytes = self.allocator.bytes_in("leaf.standard")
        # Border-node metadata overhead, proportional to leaf count.
        leaf_size = 32 + self.leaf_capacity * (_SLICE + 8)
        border_extra = (leaf_bytes // leaf_size) * _BORDER_EXTRA_PER_LEAF
        return tree_bytes + value_bytes + border_extra

"""Hybrid index baseline [33] — the section-2 comparison point.

Hybrid indexes use a two-stage architecture: a small *dynamic* stage (a
B+-tree here) absorbs recent inserts, while a *compact, read-only* stage
(occupancy-sized sorted arrays) holds the bulk of the entries.  A merge
migrates the dynamic stage into the compact stage by rebuilding it
entirely — the coarse-grained behaviour the elastic index improves on:
merges are O(total index) pauses, and the compact stage supports no
in-place updates (deletes become tombstones in the dynamic stage).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.btree.tree import BPlusTree
from repro.memory.allocator import TrackingAllocator
from repro.baselines.interface import OrderedIndex
from repro.keys.encoding import key_width_error
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

_TID_BYTES = 8
_STATIC_HEADER = 64


class _StaticStage:
    """Read-only sorted arrays: key array + tid array, binary searched."""

    def __init__(self, key_width: int, cost: CostModel) -> None:
        self.key_width = key_width
        self.cost = cost
        self.keys: List[bytes] = []
        self.tids: List[int] = []

    def lookup(self, key: bytes) -> Optional[int]:
        n = len(self.keys)
        if n == 0:
            return None
        probes = max(1, n.bit_length())
        # Each binary-search probe in a large cold array is a miss.
        self.cost.rand_lines(min(probes, 6))
        self.cost.compares(probes)
        self.cost.branches(probes)
        pos = bisect.bisect_left(self.keys, key)
        if pos < n and self.keys[pos] == key:
            return self.tids[pos]
        return None

    def position(self, key: bytes) -> int:
        return bisect.bisect_left(self.keys, key)

    @property
    def size_bytes(self) -> int:
        if not self.keys:
            return 0
        return _STATIC_HEADER + len(self.keys) * (self.key_width + _TID_BYTES)


class HybridIndex(OrderedIndex):
    """Two-stage hybrid index with merge-based compaction."""

    def __init__(
        self,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
        merge_threshold: int = 4096,
    ) -> None:
        self.key_width = key_width
        self.cost = cost_model
        self.merge_threshold = merge_threshold
        self._alloc = TrackingAllocator(cost_model=cost_model)
        self._dynamic = BPlusTree(
            key_width, 16, 16, self._alloc, cost_model
        )
        self._static = _StaticStage(key_width, cost_model)
        self._tombstones: Dict[bytes, bool] = {}
        self._count = 0
        self.merge_count = 0
        #: Cost units spent in merges (the pause the paper criticizes).
        self.merge_cost_units = 0.0

    # ------------------------------------------------------------------
    # Merge: rebuild the compact stage entirely
    # ------------------------------------------------------------------
    def _maybe_merge(self) -> None:
        # Merge when the dynamic stage fills up, or when tombstones for
        # the read-only stage pile up and need reclaiming.
        if (
            len(self._dynamic) < self.merge_threshold
            and len(self._tombstones) < self.merge_threshold
        ):
            return
        self.merge()

    def merge(self) -> None:
        """Migrate the dynamic stage into a rebuilt compact stage."""
        with self.cost.measure() as delta:
            merged_keys: List[bytes] = []
            merged_tids: List[int] = []
            dyn = list(self._dynamic.items())
            stat = list(zip(self._static.keys, self._static.tids))
            i = j = 0
            while i < len(dyn) or j < len(stat):
                if j >= len(stat) or (i < len(dyn) and dyn[i][0] <= stat[j][0]):
                    key, tid = dyn[i]
                    if i < len(dyn) - 0 and j < len(stat) and stat[j][0] == key:
                        j += 1  # dynamic entry supersedes static
                    i += 1
                else:
                    key, tid = stat[j]
                    j += 1
                if self._tombstones.pop(key, None):
                    continue
                merged_keys.append(key)
                merged_tids.append(tid)
            self.cost.copy_bytes(
                len(merged_keys) * (self.key_width + _TID_BYTES)
            )
            self.cost.allocs(1)
            self._static.keys = merged_keys
            self._static.tids = merged_tids
            # Reset the dynamic stage.
            self._dynamic = BPlusTree(
                self.key_width, 16, 16, TrackingAllocator(cost_model=self.cost),
                self.cost,
            )
            self._tombstones.clear()
        self.merge_count += 1
        self.merge_cost_units += delta.weighted_cost()

    # ------------------------------------------------------------------
    # OrderedIndex protocol
    # ------------------------------------------------------------------
    def insert(self, key: bytes, tid: int) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        was_tombstoned = self._tombstones.pop(key, None) is not None
        old = self._dynamic.insert(key, tid)
        if old is None and not was_tombstoned:
            # A static copy, if any, is shadowed until the next merge.
            old = self._static.lookup(key)
        if old is None:
            self._count += 1
        self._maybe_merge()
        return old

    def lookup(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        if key in self._tombstones:
            return None
        found = self._dynamic.lookup(key)
        if found is not None:
            return found
        return self._static.lookup(key)

    def remove(self, key: bytes) -> Optional[int]:
        if len(key) != self.key_width:
            raise key_width_error(key, self.key_width)
        old = self._dynamic.remove(key)
        if old is not None:
            # A stale static copy must not resurrect at the next lookup.
            if self._static.lookup(key) is not None:
                self._tombstones[key] = True
            self._count -= 1
            return old
        if key in self._tombstones:
            return None
        old = self._static.lookup(key)
        if old is not None:
            self._tombstones[key] = True
            self._count -= 1
            self._maybe_merge()
        return old

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if len(start_key) != self.key_width:
            raise key_width_error(start_key, self.key_width)
        out: List[Tuple[bytes, int]] = []
        dyn_iter = self._dynamic.iter_from(start_key)
        dyn_item = next(dyn_iter, None)
        pos = self._static.position(start_key)
        self.cost.rand_lines(2)
        while len(out) < count:
            stat_item = None
            if pos < len(self._static.keys):
                stat_item = (self._static.keys[pos], self._static.tids[pos])
            if dyn_item is None and stat_item is None:
                break
            if stat_item is None or (
                dyn_item is not None and dyn_item[0] <= stat_item[0]
            ):
                if stat_item is not None and stat_item[0] == dyn_item[0]:
                    pos += 1  # dynamic shadows static
                item = dyn_item
                dyn_item = next(dyn_iter, None)
            else:
                item = stat_item
                pos += 1
                self.cost.seq_lines(1)
            if item[0] in self._tombstones:
                continue
            out.append(item)
        return out

    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        return (
            self._dynamic.index_bytes
            + self._static.size_bytes
            + len(self._tombstones) * (self.key_width + 8)
        )

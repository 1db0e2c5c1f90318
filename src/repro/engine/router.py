"""The router layer: scatter/gather over a set of index shards.

:class:`ShardedIndex` presents the :class:`~repro.baselines.interface.
OrderedIndex` surface over N per-shard indexes, so every consumer of the
protocol — :class:`~repro.exec.BatchExecutor`, the database facade, the
workload runners — works against a sharded index unchanged:

* Point operations (``insert`` / ``lookup`` / ``remove``) route to the
  one shard the partitioner places the key on.
* Batch operations partition the batch per shard and hand each segment
  to the shard index's own batch fast path (sorted-run descent sharing
  on the B+-tree family), gathering results back into input order.
* Scans depend on the partitioner: range partitioning keeps shard order
  equal to key order, so a scan drains the start shard and spills into
  successive shards; hash partitioning scatters the scan to every shard
  and k-way merges the per-shard runs.

*How* the per-shard segments execute is delegated to a
:class:`~repro.engine.executor.ShardExecutor`: the default serial
backend visits shards one at a time (byte-identical to the unsharded
index in results and cost units), while the parallel backend overlaps
shard dispatches and charges critical-path cost — see
:mod:`repro.engine.executor`.

Results are byte-identical to the same index unsharded under either
backend: every key lives on exactly one deterministic shard, batch
segments preserve input order within a shard (duplicate keys apply in
input order), and scan merges reassemble global key order.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.executor import SerialShardExecutor, ShardExecutor, ShardTask
from repro.engine.partition import Partitioner, make_partitioner
from repro.engine.shard import IndexShard
from repro.errors import CacheConfigError, ShardConfigError
from repro.memory.cost_model import NULL_COST_MODEL, CostModel
from repro.obs import ShardRouteEvent

#: Shared default backend: stateless, so one instance serves every
#: serial-routed index.
_SERIAL = SerialShardExecutor()


class ShardedIndex:
    """An OrderedIndex that hash- or range-partitions across shards."""

    def __init__(
        self,
        shards: Sequence[IndexShard],
        partitioner: Partitioner,
        executor: Optional[ShardExecutor] = None,
        cost: Optional[CostModel] = None,
    ) -> None:
        if len(shards) != partitioner.n_shards:
            raise ShardConfigError(
                f"partitioner expects {partitioner.n_shards} shards, "
                f"got {len(shards)}"
            )
        self.shards: List[IndexShard] = list(shards)
        self.partitioner = partitioner
        self.executor: ShardExecutor = executor if executor is not None else _SERIAL
        if cost is None:
            cost = (
                self.shards[0].allocator.cost_model
                if self.shards else NULL_COST_MODEL
            )
        self.cost = cost

    # ------------------------------------------------------------------
    # Point operations: route to one shard
    # ------------------------------------------------------------------
    def _shard(self, key: bytes) -> IndexShard:
        return self.shards[self.partitioner.shard_of(key)]

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        return self._shard(key).index.insert(key, tid)

    def lookup(self, key: bytes) -> Optional[int]:
        return self._shard(key).index.lookup(key)

    def remove(self, key: bytes) -> Optional[int]:
        return self._shard(key).index.remove(key)

    # ------------------------------------------------------------------
    # Scans: spill in shard order, or scatter + merge
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if count <= 0:
            return []
        if self.partitioner.ordered:
            items: List[Tuple[bytes, int]] = []
            first = self.partitioner.shard_of(start_key)
            for shard in self.shards[first:]:
                items.extend(shard.index.scan(start_key, count - len(items)))
                if len(items) >= count:
                    break
            return items
        runs = self.executor.run_tasks(
            "scan",
            [
                ShardTask(
                    shard_id=shard.shard_id, ops=1, read_only=True,
                    run=lambda s=shard: s.index.scan(start_key, count),
                )
                for shard in self.shards
            ],
            self.cost,
        )
        return list(islice(heapq.merge(*runs), count))

    # ------------------------------------------------------------------
    # Batch operations: partition, per-shard fast path, gather
    # ------------------------------------------------------------------
    def _group_by_shard(self, keys: Sequence[bytes]) -> Dict[int, List[int]]:
        """Input positions per shard, preserving input order."""
        groups: Dict[int, List[int]] = {}
        shard_of = self.partitioner.shard_of
        for position, key in enumerate(keys):
            groups.setdefault(shard_of(key), []).append(position)
        return groups

    def _emit_routes(self, op: str, groups: Dict[int, List[int]]) -> None:
        if obs.is_enabled():
            for shard_id, positions in sorted(groups.items()):
                obs.emit(ShardRouteEvent(
                    op=op, shard=shard_id, ops=len(positions),
                    fanout=len(groups),
                ))

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        results: List[Optional[int]] = [None] * len(keys)
        groups = self._group_by_shard(keys)
        self._emit_routes("get", groups)
        tasks = [
            ShardTask(
                shard_id=shard_id, ops=len(positions), read_only=True,
                run=lambda s=self.shards[shard_id],
                ks=[keys[p] for p in positions]: s.index.lookup_batch(ks),
            )
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks("get", tasks, self.cost)
        for positions, hits in zip(groups.values(), gathered):
            for position, tid in zip(positions, hits):
                results[position] = tid
        return results

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        results: List[Optional[int]] = [None] * len(pairs)
        groups = self._group_by_shard([key for key, _ in pairs])
        self._emit_routes("insert", groups)
        tasks = [
            ShardTask(
                shard_id=shard_id, ops=len(positions), read_only=False,
                run=lambda s=self.shards[shard_id],
                ps=[pairs[p] for p in positions]: s.index.insert_sorted_batch(ps),
            )
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks("insert", tasks, self.cost)
        for positions, replaced in zip(groups.values(), gathered):
            for position, tid in zip(positions, replaced):
                results[position] = tid
        return results

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        results: List[List[Tuple[bytes, int]]] = [[] for _ in start_keys]
        if not start_keys or count <= 0:
            return results
        if not self.partitioner.ordered:
            # Scatter to every shard, merge per start key.
            tasks = [
                ShardTask(
                    shard_id=shard.shard_id, ops=len(start_keys),
                    read_only=True,
                    run=lambda s=shard: s.index.scan_batch(start_keys, count),
                )
                for shard in self.shards
            ]
            runs = self.executor.run_tasks("scan", tasks, self.cost)
            self._emit_routes(
                "scan",
                {i: list(range(len(start_keys))) for i in range(len(self.shards))},
            )
            for position in range(len(start_keys)):
                merged = heapq.merge(*(run[position] for run in runs))
                results[position] = list(islice(merged, count))
            return results
        groups = self._group_by_shard(start_keys)
        self._emit_routes("scan", groups)
        tasks = [
            ShardTask(
                shard_id=shard_id, ops=len(positions), read_only=True,
                run=lambda s=self.shards[shard_id],
                ks=[start_keys[p] for p in positions]: s.index.scan_batch(
                    ks, count
                ),
            )
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks("scan", tasks, self.cost)
        for (shard_id, positions), batches in zip(groups.items(), gathered):
            for position, items in zip(positions, batches):
                # Spill into successive shards until the scan fills.
                # The spill chain is a sequential dependency (each hop
                # knows how many items are still missing), so it stays
                # on the caller's critical path under every backend.
                for shard in self.shards[shard_id + 1:]:
                    if len(items) >= count:
                        break
                    items = items + shard.index.scan(
                        start_keys[position], count - len(items)
                    )
                results[position] = items
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def index_bytes(self) -> int:
        return sum(shard.index_bytes for shard in self.shards)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def controllers(self) -> List:
        """Elasticity controllers of the elastic shards, in shard order."""
        return [s.controller for s in self.shards if s.controller is not None]

    def shard_report(self) -> List[Dict[str, float]]:
        """Per-shard occupancy/pressure snapshot (bench reporting)."""
        report = []
        for shard in self.shards:
            state = shard.pressure_state
            report.append({
                "name": shard.name,
                "items": len(shard),
                "index_bytes": shard.index_bytes,
                "soft_bound_bytes": shard.soft_bound_bytes or 0,
                "compact_fraction": shard.compact_fraction,
                "state": state.value if state is not None else "",
            })
        return report

    def caches(self) -> List:
        """Adaptive caches of the shards that have one, in shard order."""
        return [s.cache for s in self.shards if s.cache is not None]

    def cache_report(self) -> List[Dict[str, object]]:
        """Per-shard cache occupancy/hit-rate snapshot."""
        return [
            dict(shard.cache.report().as_dict(), shard=shard.name)
            for shard in self.shards
            if shard.cache is not None
        ]


def _attach_cache(index, kind: str, cache, name: str) -> None:
    """Attach an adaptive cache named ``<name>.cache`` to ``index``."""
    if not hasattr(index, "attach_cache"):
        raise CacheConfigError(
            f"index kind {kind!r} does not support adaptive caching"
        )
    from repro.cache import IndexCache

    index.attach_cache(IndexCache(cache, name=f"{name}.cache"))


def build_sharded_index(
    kind: str,
    *,
    table,
    cost,
    key_width: int,
    n_shards: int,
    partitioner: str = "hash",
    size_bound_bytes: Optional[int] = None,
    name: str = "",
    executor: Optional[ShardExecutor] = None,
    cache=None,
    **index_kwargs,
) -> ShardedIndex:
    """Build ``n_shards`` independent ``kind`` indexes behind one router.

    Each shard gets its own tracking allocator (isolated footprint and
    budget observations) over the shared cost model; an elastic
    ``size_bound_bytes`` is split equally across shards with
    largest-remainder rounding — the static apportionment a
    :class:`~repro.engine.arbiter.BudgetArbiter` later overrides.
    ``executor`` selects the scatter/gather backend (default serial).
    A :class:`~repro.cache.CacheConfig` as ``cache`` attaches one
    adaptive cache per shard, splitting the configured budget across
    shards the same way the soft bound is split; writes routed to a
    shard invalidate that shard's cache through the tree write path.
    """
    from repro.memory.allocator import TrackingAllocator
    from repro.registry import build_index

    part = make_partitioner(partitioner, n_shards)
    if size_bound_bytes is not None:
        from repro.engine.arbiter import largest_remainder

        bounds = largest_remainder(size_bound_bytes, [1.0] * n_shards)
    else:
        bounds = [None] * n_shards
    cache_budgets = [None] * n_shards
    if cache is not None:
        from dataclasses import replace

        from repro.engine.arbiter import largest_remainder

        cache.validate()
        floor = cache.min_budget_bytes
        per_shard = largest_remainder(
            max(cache.budget_bytes, n_shards * floor), [1.0] * n_shards
        )
        cache_budgets = [max(b, floor) for b in per_shard]
    shards = []
    for shard_id in range(n_shards):
        allocator = TrackingAllocator(cost_model=cost)
        index = build_index(
            kind,
            table=table,
            allocator=allocator,
            cost=cost,
            key_width=key_width,
            size_bound_bytes=bounds[shard_id],
            **index_kwargs,
        )
        label = f"{name}[{shard_id}]" if name else f"shard[{shard_id}]"
        if cache is not None:
            shard_config = replace(cache, budget_bytes=cache_budgets[shard_id])
            if bounds[shard_id] is not None:
                shard_config.validate(bounds[shard_id])
            _attach_cache(index, kind, shard_config, label)
        shards.append(IndexShard(shard_id, index, allocator, name=label))
    return ShardedIndex(shards, part, executor=executor, cost=cost)


def build_engine_index(
    kind: str,
    *,
    table,
    cost,
    key_width: int,
    shards: int = 1,
    partitioner: str = "hash",
    size_bound_bytes: Optional[int] = None,
    name: str = "",
    executor: Optional[ShardExecutor] = None,
    cache=None,
    **index_kwargs,
):
    """Build one engine-tier index: plain for ``shards == 1``, else sharded.

    The plain index gets its own tracking allocator over the shared
    cost model and, with a :class:`~repro.cache.CacheConfig` as
    ``cache``, one adaptive cache named ``<name>.cache``; kinds that
    cannot take a cache raise :class:`~repro.errors.CacheConfigError`.
    ``shards > 1`` defers to :func:`build_sharded_index`.
    """
    if shards > 1:
        return build_sharded_index(
            kind,
            table=table,
            cost=cost,
            key_width=key_width,
            n_shards=shards,
            partitioner=partitioner,
            size_bound_bytes=size_bound_bytes,
            name=name,
            executor=executor,
            cache=cache,
            **index_kwargs,
        )
    from repro.memory.allocator import TrackingAllocator
    from repro.registry import build_index

    index = build_index(
        kind,
        table=table,
        allocator=TrackingAllocator(cost_model=cost),
        cost=cost,
        key_width=key_width,
        size_bound_bytes=size_bound_bytes,
        **index_kwargs,
    )
    if cache is not None:
        _attach_cache(index, kind, cache, name)
    return index

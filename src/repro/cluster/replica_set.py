"""The replica-set layer: N divergent full copies behind one surface.

A :class:`ReplicaSet` slots between the database facade and the
engine's shard router, refactoring the read path from *router → shard →
index* into *router → replica-set → shard → index*:

* every replica holds a **full copy** of the table's index, built from
  its own :class:`~repro.cluster.ReplicaProfile` (possibly sharded
  underneath via the existing engine router);
* **reads** route whole operations to the one replica the
  :class:`~repro.cluster.ClusterRouter` scores cheapest for the
  operation's query class;
* **writes** fan out to *all* replicas — including down ones, since an
  outage models read-serving failure only — through the engine's
  :class:`~repro.engine.executor.ShardExecutor` machinery (one
  :class:`~repro.engine.executor.ShardTask` per replica), so replicas
  never diverge in content, only in configuration;
* the cluster-global soft bound is apportioned across the elastic
  replicas by profile weight (largest remainder) at build time and
  announced with a ``cluster_budget`` event; the database's
  :class:`~repro.engine.BudgetArbiter` then sees every replica's
  controllers under that one global bound.

Like :class:`~repro.engine.router.ShardedIndex`, a ReplicaSet presents
the ``OrderedIndex`` surface without subclassing it, so
:class:`~repro.exec.BatchExecutor` treats its batch methods as native.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.config import (
    BOUNDED_KINDS,
    ReplicaConfig,
    ReplicaProfile,
)
from repro.cluster.router import ClusterRouter
from repro.engine.executor import (
    SerialShardExecutor,
    ShardExecutor,
    ShardTask,
)
from repro.engine.router import ShardedIndex, build_engine_index
from repro.errors import ReplicaConfigError
from repro.memory.cost_model import CostModel
from repro.obs import ClusterBudgetEvent, ReplicaRebuildEvent

#: Shared default write-fanout backend (stateless, like the engine's).
_SERIAL = SerialShardExecutor()


class Replica:
    """One full copy of the index plus its configuration identity."""

    def __init__(
        self,
        replica_id: int,
        profile: ReplicaProfile,
        index,
        name: str = "",
        bound_bytes: Optional[int] = None,
    ) -> None:
        self.replica_id = replica_id
        self.profile = profile
        self.index = index
        self.name = name or f"replica[{replica_id}]"
        self.bound_bytes = bound_bytes
        #: Read-serving health; writes ignore it (see module docstring).
        self.up = True

    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes

    def controllers(self) -> List:
        """Elasticity controllers under this replica (0, 1, or per shard)."""
        if isinstance(self.index, ShardedIndex):
            return self.index.controllers()
        controller = getattr(self.index, "controller", None)
        return [controller] if controller is not None else []

    def caches(self) -> List:
        """Adaptive caches under this replica, if any."""
        if isinstance(self.index, ShardedIndex):
            return self.index.caches()
        cache = getattr(self.index, "cache", None)
        return [cache] if cache is not None else []

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return (
            f"Replica({self.name}, profile={self.profile.name!r}, "
            f"items={len(self)}, bytes={self.index_bytes}, "
            f"up={self.up})"
        )


class ReplicaSet:
    """An OrderedIndex surface over N divergently-configured replicas."""

    def __init__(
        self,
        replicas: Sequence[Replica],
        config: ReplicaConfig,
        cost: CostModel,
        executor: Optional[ShardExecutor] = None,
        build_params: Optional[Dict] = None,
    ) -> None:
        if not replicas:
            raise ReplicaConfigError("a replica set needs >= 1 replica")
        self.replicas: List[Replica] = list(replicas)
        self.config = config
        self.cost = cost
        self.executor: ShardExecutor = (
            executor if executor is not None else _SERIAL
        )
        self.router = ClusterRouter(config, self.replicas, cost)
        #: How replicas were built (the knobs :meth:`rebuild` reuses
        #: when rebuilding one replica under a new profile).
        self.build_params: Dict = build_params or {}

    # ------------------------------------------------------------------
    # Writes: fan out to every replica (up or down)
    # ------------------------------------------------------------------
    def _fan_out(self, op: str, ops: int, runs) -> List:
        tasks = [
            ShardTask(
                shard_id=replica.replica_id, ops=ops, read_only=False,
                run=run,
            )
            for replica, run in zip(self.replicas, runs)
        ]
        return self.executor.run_tasks(op, tasks, self.cost)

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        self.router.tick(1)
        results = self._fan_out(
            "insert", 1,
            [
                (lambda r=replica: r.index.insert(key, tid))
                for replica in self.replicas
            ],
        )
        return results[0]

    def remove(self, key: bytes) -> Optional[int]:
        self.router.tick(1)
        results = self._fan_out(
            "remove", 1,
            [
                (lambda r=replica: r.index.remove(key))
                for replica in self.replicas
            ],
        )
        return results[0]

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        self.router.tick(len(pairs))
        results = self._fan_out(
            "insert", len(pairs),
            [
                (lambda r=replica: r.index.insert_sorted_batch(pairs))
                for replica in self.replicas
            ],
        )
        return results[0]

    # ------------------------------------------------------------------
    # Reads: classify, route to one replica
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        self.router.note_access(key)
        cls = self.router.classify_point(key)
        self.router.observe(cls, [key])
        self.router.tick(1, cls)
        return self.router.replica_for(cls).index.lookup(key)

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        if not keys:
            return []
        self.router.observe("batch", keys)
        self.router.tick(len(keys), "batch")
        return self.router.replica_for("batch").index.lookup_batch(keys)

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if count <= 0:
            return []
        self.router.observe("scan", [start_key])
        self.router.tick(1, "scan")
        return self.router.replica_for("scan").index.scan(start_key, count)

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        if not start_keys or count <= 0:
            return [[] for _ in start_keys]
        self.router.observe("scan", start_keys)
        self.router.tick(len(start_keys), "scan")
        return self.router.replica_for("scan").index.scan_batch(
            start_keys, count
        )

    # ------------------------------------------------------------------
    # Rebuild (billed)
    # ------------------------------------------------------------------
    def rebuild(self, replica_id: int, profile: ReplicaProfile) -> float:
        """Rebuild one replica under ``profile``; returns billed units.

        The replica's current index is drained in key order and bulk-
        loaded into a fresh index built from ``profile`` — over the
        create-time ``index_kwargs``, exactly as :func:`build_replica_set`
        merges them — under the same apportioned bound.  The whole round
        trip is charged to the shared cost model like a bulk leaf
        conversion (nothing is rebated), and the router's cached scores
        for the replica are invalidated so the next round re-probes it.
        """
        profile.validate()
        if not 0 <= replica_id < len(self.replicas):
            raise ReplicaConfigError(
                f"no replica {replica_id} in a "
                f"{len(self.replicas)}-replica cluster"
            )
        replica = self.replicas[replica_id]
        bound = replica.bound_bytes
        if profile.kind in BOUNDED_KINDS and bound is None:
            raise ReplicaConfigError(
                f"profile {profile.name!r} is elastic but replica "
                f"{replica_id} holds no bound share to reuse"
            )
        params = self.build_params
        old_profile = replica.profile
        items = len(replica.index)
        with self.cost.measure() as delta:
            drained = (
                replica.index.scan(bytes(params["key_width"]), items)
                if items else []
            )
            new_index = build_engine_index(
                profile.kind,
                table=params["table"],
                cost=self.cost,
                key_width=params["key_width"],
                shards=params["shards"],
                partitioner=params["partitioner"],
                size_bound_bytes=bound,
                name=replica.name,
                executor=params["executor"],
                cache=profile.cache,
                **{**params["index_kwargs"], **profile.builder_kwargs()},
            )
            if drained:
                new_index.insert_sorted_batch(drained)
        cost_units = delta.weighted_cost()
        replica.index = new_index
        replica.profile = profile
        self.router.invalidate(replica_id)
        if obs.is_enabled():
            obs.emit(ReplicaRebuildEvent(
                replica=replica_id, old_profile=old_profile.name,
                new_profile=profile.name, items=items,
                cost_units=cost_units,
            ))
        return cost_units

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.replicas[0].index)

    @property
    def index_bytes(self) -> int:
        """Total bytes across all replicas — the cluster's true footprint."""
        return sum(replica.index_bytes for replica in self.replicas)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def controllers(self) -> List:
        """All elasticity controllers across replicas, replica order."""
        return [
            controller
            for replica in self.replicas
            for controller in replica.controllers()
        ]

    def caches(self) -> List:
        return [
            cache
            for replica in self.replicas
            for cache in replica.caches()
        ]

    def replica_report(self) -> List[Dict[str, object]]:
        """Per-replica configuration/health/routing snapshot."""
        assignment = self.router.assignment()
        scores = self.router.scores()
        report = []
        for replica in self.replicas:
            classes = sorted(
                cls for cls, rid in assignment.items()
                if rid == replica.replica_id
            )
            report.append({
                "name": replica.name,
                "profile": replica.profile.name,
                "kind": replica.profile.kind,
                "up": replica.up,
                "items": len(replica),
                "index_bytes": replica.index_bytes,
                "bound_bytes": replica.bound_bytes or 0,
                "weight": replica.profile.weight,
                "classes": classes,
                "scores": {
                    cls: units
                    for (cls, rid), units in sorted(scores.items())
                    if rid == replica.replica_id
                },
            })
        return report


def apportion_bounds(
    profiles: Sequence[ReplicaProfile],
    total_bound_bytes: Optional[int],
) -> List[Optional[int]]:
    """Split the cluster-global bound across the bounded profiles.

    Largest-remainder over the bounded profiles' weights; unbounded
    kinds get ``None``.  Raises when a bounded profile exists but no
    total bound was given (the budget would silently vanish).
    """
    bounded = [p.kind in BOUNDED_KINDS for p in profiles]
    if not any(bounded):
        return [None] * len(profiles)
    if total_bound_bytes is None:
        names = [p.name for p, b in zip(profiles, bounded) if b]
        raise ReplicaConfigError(
            f"elastic profiles {names} need a cluster bound: pass "
            "ReplicaConfig(total_bound_bytes=...) or size_bound_bytes"
        )
    from repro.engine.arbiter import largest_remainder

    weights = [p.weight for p, b in zip(profiles, bounded) if b]
    shares = largest_remainder(total_bound_bytes, weights)
    bounds: List[Optional[int]] = []
    cursor = 0
    for is_bounded in bounded:
        if is_bounded:
            bounds.append(shares[cursor])
            cursor += 1
        else:
            bounds.append(None)
    return bounds


def build_replica_set(
    config: ReplicaConfig,
    *,
    kind: str,
    table,
    cost: CostModel,
    key_width: int,
    size_bound_bytes: Optional[int] = None,
    name: str = "",
    shards: int = 1,
    partitioner: str = "hash",
    executor: Optional[ShardExecutor] = None,
    cache=None,
    **index_kwargs,
) -> ReplicaSet:
    """Materialize ``config.replicas`` full copies behind one router.

    Each replica is built from its resolved profile — its own kind,
    leaf-kind selection, trigger fractions, and optional cache — and,
    with ``shards > 1``, is itself a
    :class:`~repro.engine.router.ShardedIndex` over the given
    partitioner (the replica tier stacks *above* the shard tier).  The
    cluster bound (``config.total_bound_bytes``, falling back to
    ``size_bound_bytes``) is apportioned across the elastic replicas by
    profile weight.
    """
    config.validate()
    if config.profiles and cache is not None:
        raise ReplicaConfigError(
            "pass caches per profile (ReplicaProfile(cache=...)) when "
            "explicit profiles are given"
        )
    profiles = config.resolved_profiles(kind, cache, **index_kwargs)
    total = (
        config.total_bound_bytes
        if config.total_bound_bytes is not None
        else size_bound_bytes
    )
    bounds = apportion_bounds(profiles, total)
    replicas: List[Replica] = []
    for replica_id, (profile, bound) in enumerate(zip(profiles, bounds)):
        label = (
            f"{name}/r{replica_id}" if name else f"replica[{replica_id}]"
        )
        index = build_engine_index(
            profile.kind,
            table=table,
            cost=cost,
            key_width=key_width,
            shards=shards,
            partitioner=partitioner,
            size_bound_bytes=bound,
            name=label,
            executor=executor,
            cache=profile.cache,
            **{**index_kwargs, **profile.builder_kwargs()},
        )
        replicas.append(
            Replica(replica_id, profile, index, name=label,
                    bound_bytes=bound)
        )
    if obs.is_enabled():
        obs.emit(ClusterBudgetEvent(
            total_bytes=total or 0,
            replicas=[p.name for p in profiles],
            bounds=[b or 0 for b in bounds],
            reason="build",
        ))
    return ReplicaSet(
        replicas, config, cost, executor=None,
        build_params={
            "table": table,
            "key_width": key_width,
            "shards": shards,
            "partitioner": partitioner,
            "executor": executor,
            "name": name,
            "index_kwargs": dict(index_kwargs),
        },
    )

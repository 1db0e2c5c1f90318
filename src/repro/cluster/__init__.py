"""repro.cluster — divergent replica sets above the engine tier.

The cluster tier materializes N replicas of one table's index, each
with a *different* configuration drawn from the same registry (the
elastic 3-kind lattice, a compact-heavy tree, a cache-heavy tree, the
non-elastic baseline), routes each query class to the replica that
serves it cheapest, fans writes out to all replicas, survives
scripted replica outages, and re-profiles one replica at a time
(:meth:`ReplicaSet.rebuild`, billed like a bulk conversion) — all
deterministic and priced through the shared
:class:`~repro.memory.cost_model.CostModel`.

Layering (top to bottom)::

    Database.create_index(..., replicas=ReplicaConfig(...))
      └── ReplicaSet            (this package: route reads, fan writes,
                                 rebuild one replica)
            └── ClusterRouter   (heat histogram, what-if scores, failover)
            └── Replica × N     (one profile each)
                  └── ShardedIndex / plain index   (existing engine tier)

``replicas=1`` (or no ``replicas`` argument) bypasses this package
entirely: the database builds the plain or sharded index exactly as
before, byte-identical to every pre-cluster baseline.
"""

from repro.cluster.config import (
    QUERY_CLASSES,
    ReplicaConfig,
    ReplicaProfile,
    preset_profile,
)
from repro.cluster.replica_set import (
    Replica,
    ReplicaSet,
    apportion_bounds,
    build_replica_set,
)
from repro.cluster.router import ClusterRouter

__all__ = [
    "ClusterRouter",
    "QUERY_CLASSES",
    "Replica",
    "ReplicaConfig",
    "ReplicaProfile",
    "ReplicaSet",
    "apportion_bounds",
    "build_replica_set",
    "preset_profile",
]

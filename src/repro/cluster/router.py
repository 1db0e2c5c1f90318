"""Query-class routing across divergent replicas.

The :class:`ClusterRouter` is the read-side brain of a
:class:`~repro.cluster.ReplicaSet`.  It maintains:

* a deterministic **heat histogram** over the key space (``key[:2]``
  mapped onto ``heat_buckets`` range buckets) that splits point reads
  into ``point_hot`` vs. ``point_cold``;
* per-class **sample buffers** (the most recent ``probe_keys`` observed
  keys) used as what-if probes;
* a **score table**: every ``score_interval_ops`` operations each query
  class is probed against every *up* replica inside one
  :meth:`~repro.memory.cost_model.CostModel.what_if` round: each
  probe's delta is rebated (the ledger stays net-clean), and a fixed
  ``advisor_fee_units`` charge per scored (class, replica) pair prices
  the advisory work itself.  Each class then routes to its
  cheapest-scoring replica (ties break toward the lowest replica id).

Heartbeats consume the :class:`~repro.engine.FaultPlan` outage script:
a replica whose beat fails stops serving reads — its classes reroute to
the next-cheapest survivor (``replica_failover`` events) — while writes
keep fanning out to it, so recovery is re-admission from the cached
score table with no catch-up work and no double-charging.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.cluster.config import QUERY_CLASSES, ReplicaConfig
from repro.memory.cost_model import CostModel
from repro.obs import ReplicaFailoverEvent, ReplicaRouteEvent


class ClusterRouter:
    """Classifies operations and routes each class to a replica."""

    def __init__(
        self,
        config: ReplicaConfig,
        replicas: Sequence,
        cost: CostModel,
    ) -> None:
        self.config = config
        self.replicas = list(replicas)
        self.cost = cost
        self._heat: List[int] = [0] * config.heat_buckets
        self._heat_total = 0
        self._samples: Dict[str, List[bytes]] = {
            cls: [] for cls in QUERY_CLASSES
        }
        self._class_ops: Dict[str, int] = {cls: 0 for cls in QUERY_CLASSES}
        #: (query_class, replica_id) -> mean probe cost units.
        self._scores: Dict[tuple, float] = {}
        self._assignment: Dict[str, int] = {}
        self._ops_since_score = 0
        self._ops_since_beat = 0
        self._scored_once = False

    # ------------------------------------------------------------------
    # Heat classification
    # ------------------------------------------------------------------
    def bucket_of(self, key: bytes) -> int:
        """Deterministic range bucket of ``key`` (first two bytes)."""
        prefix = int.from_bytes(key[:2].ljust(2, b"\x00"), "big")
        return prefix * self.config.heat_buckets // 65536

    def note_access(self, key: bytes) -> None:
        """Fold one point access into the heat histogram."""
        self._heat[self.bucket_of(key)] += 1
        self._heat_total += 1

    def is_hot(self, key: bytes) -> bool:
        """Whether ``key``'s bucket exceeds the hot share threshold.

        Cold until at least one access per bucket has been seen on
        average — a near-empty histogram says nothing about skew.
        """
        total = self._heat_total
        if total < self.config.heat_buckets:
            return False
        count = self._heat[self.bucket_of(key)]
        return count * self.config.heat_buckets > (
            self.config.hot_multiplier * total
        )

    def classify_point(self, key: bytes) -> str:
        return "point_hot" if self.is_hot(key) else "point_cold"

    def observe(self, query_class: str, keys: Sequence[bytes]) -> None:
        """Record ``keys`` as recent probes for ``query_class``."""
        buffer = self._samples[query_class]
        limit = self.config.probe_keys
        for key in keys:
            buffer.append(key)
        if len(buffer) > limit:
            del buffer[: len(buffer) - limit]

    def class_mix(self) -> Dict[str, float]:
        """Observed share of operations per query class."""
        total = sum(self._class_ops.values())
        if not total:
            return {cls: 0.0 for cls in QUERY_CLASSES}
        return {
            cls: count / total for cls, count in self._class_ops.items()
        }

    # ------------------------------------------------------------------
    # Cadence
    # ------------------------------------------------------------------
    def tick(self, ops: int, query_class: Optional[str] = None) -> None:
        """Advance the op clock; fire heartbeat/scoring at boundaries."""
        if query_class is not None:
            self._class_ops[query_class] += ops
        self._ops_since_beat += ops
        if self._ops_since_beat >= self.config.heartbeat_interval_ops:
            self._ops_since_beat = 0
            self.heartbeat()
        self._ops_since_score += ops
        if self._ops_since_score >= self.config.score_interval_ops:
            self._ops_since_score = 0
            self.score_round()

    # ------------------------------------------------------------------
    # Heartbeat / failover
    # ------------------------------------------------------------------
    def up_replicas(self) -> List:
        return [replica for replica in self.replicas if replica.up]

    def heartbeat(self) -> None:
        """Consume one heartbeat per replica; apply up/down transitions.

        Replicas are beaten in id order, so a scripted plan replayed
        against the same op stream produces the same down/up timeline.
        """
        faults = self.config.faults
        if faults is None:
            return
        for replica in self.replicas:
            failed = faults.take_heartbeat(replica.replica_id)
            if failed and replica.up:
                replica.up = False
                self._fail_over(replica)
            elif not failed and not replica.up:
                replica.up = True
                self._readmit(replica)

    def _fail_over(self, replica) -> None:
        """Reroute the down replica's classes to the next-cheapest up."""
        rerouted = False
        for cls in QUERY_CLASSES:
            if self._assignment.get(cls) != replica.replica_id:
                continue
            target = self._cheapest(cls)
            if target is None:
                continue  # no survivor; reads will raise downstream
            self._assignment[cls] = target.replica_id
            rerouted = True
            if obs.is_enabled():
                obs.emit(ReplicaFailoverEvent(
                    replica=replica.replica_id, query_class=cls,
                    to_replica=target.replica_id, reason="heartbeat",
                ))
                obs.emit(ReplicaRouteEvent(
                    query_class=cls, replica=target.replica_id,
                    cost_units=self._scores.get(
                        (cls, target.replica_id), 0.0),
                    candidates=len(self.up_replicas()), reason="failover",
                ))
        if not rerouted and obs.is_enabled():
            obs.emit(ReplicaFailoverEvent(
                replica=replica.replica_id, query_class="",
                to_replica=-1, reason="heartbeat",
            ))

    def _readmit(self, replica) -> None:
        """Re-admit a recovered replica from the cached score table.

        No probes run and nothing is rebuilt — the replica kept
        receiving writes while down, so its index is current and
        recovery costs nothing beyond moving routes back.
        """
        if obs.is_enabled():
            obs.emit(ReplicaFailoverEvent(
                replica=replica.replica_id, query_class="",
                to_replica=replica.replica_id, reason="recover",
            ))
        for cls in QUERY_CLASSES:
            current = self._assignment.get(cls)
            if current is None or current == replica.replica_id:
                continue
            returned = self._scores.get((cls, replica.replica_id))
            incumbent = self._scores.get((cls, current))
            if returned is None:
                continue
            if incumbent is None or (returned, replica.replica_id) < (
                incumbent, current
            ):
                self._assignment[cls] = replica.replica_id
                if obs.is_enabled():
                    obs.emit(ReplicaRouteEvent(
                        query_class=cls, replica=replica.replica_id,
                        cost_units=returned,
                        candidates=len(self.up_replicas()),
                        reason="recover",
                    ))

    # ------------------------------------------------------------------
    # What-if scoring
    # ------------------------------------------------------------------
    def _probe(self, query_class: str, replica,
               keys: Sequence[bytes]) -> int:
        """Run ``query_class``'s probe ops against ``replica``; count them.

        ``point_cold`` probes first evict the probe key from the
        candidate's row caches: the sample keys were *just* served (that
        is how they were sampled), so a cached hit would price the
        replica as if cold keys stayed resident — the opposite of what
        defines the class.  Hot and batch probes keep their cached
        paths; residency is exactly the property being priced there.
        """
        index = replica.index
        if query_class == "scan":
            for key in keys:
                index.scan(key, self.config.scan_probe_count)
            return len(keys)
        if query_class == "batch":
            index.lookup_batch(list(keys))
            return len(keys)
        if query_class == "point_cold":
            for cache in replica.caches():
                for key in keys:
                    cache.invalidate_key(key)
        for key in keys:
            index.lookup(key)
        return len(keys)

    def score_round(self) -> Dict[tuple, float]:
        """Probe every (class, up replica) pair; reassign routes.

        The round is one :meth:`~repro.memory.cost_model.CostModel.
        what_if` round: every probe is measured and rebated, leaving only
        the deterministic advisor fee — ``advisor_fee_units`` per scored
        pair — on the ledger.
        """
        self._scored_once = True
        up = self.up_replicas()
        with self.cost.what_if(self.config.advisor_fee_units) as round_:
            for cls in QUERY_CLASSES:
                keys = self._samples[cls]
                if not keys:
                    continue
                for replica in up:
                    with round_.probe() as delta:
                        probes = self._probe(cls, replica, keys)
                    self._scores[(cls, replica.replica_id)] = (
                        delta.weighted_cost() / probes
                    )
        for cls in QUERY_CLASSES:
            if not self._samples[cls]:
                continue
            target = self._cheapest(cls)
            if target is None:
                continue
            previous = self._assignment.get(cls)
            self._assignment[cls] = target.replica_id
            if obs.is_enabled() and previous != target.replica_id:
                obs.emit(ReplicaRouteEvent(
                    query_class=cls, replica=target.replica_id,
                    cost_units=self._scores[(cls, target.replica_id)],
                    candidates=len(up), reason="score",
                ))
        return dict(self._scores)

    def invalidate(self, replica_id: int) -> None:
        """Drop a replica's cached scores (after a rebuild)."""
        for cls in QUERY_CLASSES:
            self._scores.pop((cls, replica_id), None)

    def _cheapest(self, query_class: str):
        """The up replica with the lowest cached score for the class.

        Unscored up replicas rank after scored ones; with no scores at
        all the lowest-id up replica wins.  Returns None when every
        replica is down.
        """
        up = self.up_replicas()
        if not up:
            return None
        return min(
            up,
            key=lambda replica: (
                self._scores.get(
                    (query_class, replica.replica_id), float("inf")
                ),
                replica.replica_id,
            ),
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def replica_for(self, query_class: str):
        """The replica currently serving ``query_class`` reads.

        The first read triggers an initial scoring round (lazy, so the
        build path stays probe-free); a stale assignment to a down
        replica falls back to the cheapest survivor.
        """
        if not self._scored_once:
            self.score_round()
        rid = self._assignment.get(query_class)
        if rid is not None:
            replica = self.replicas[rid]
            if replica.up:
                return replica
        target = self._cheapest(query_class)
        if target is None:
            raise RuntimeError(
                "no replica is up; reads cannot be served"
            )
        return target

    def assignment(self) -> Dict[str, int]:
        """Current class -> replica-id routing table (copy)."""
        return dict(self._assignment)

    def scores(self) -> Dict[tuple, float]:
        """Cached (class, replica) -> cost-units score table (copy)."""
        return dict(self._scores)

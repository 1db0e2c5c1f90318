"""Tests for the replicated cluster tier (``repro.cluster``).

Covers the tier's four contracts:

* **differential** — a replica set must answer every read exactly like
  a plain index over the same rows, for replicas in {1, 3} and with the
  shard tier stacked underneath (hash and range partitioners);
* **failover determinism** — a scripted :class:`~repro.engine.
  FaultPlan` outage replays to byte-identical results, cost units, and
  event streams, and recovery re-admits the replica without a rebuild;
* **budget** — the cluster-global bound is apportioned exactly by
  profile weight and every replica enrolls with the budget arbiter;
* **billing** — ``ReplicaSet.rebuild`` is charged like a bulk
  conversion, announced as a ``replica_rebuild`` event, and keeps the
  create-time ``index_kwargs``.
"""

import random

import pytest

from repro import obs
from repro.cluster import (
    QUERY_CLASSES,
    ReplicaConfig,
    ReplicaProfile,
    ReplicaSet,
    apportion_bounds,
    build_replica_set,
    preset_profile,
)
from repro.db.database import Database
from repro.engine import FaultPlan
from repro.errors import ReplicaConfigError, ReproError
from repro.table.table import RowSchema

SCHEMA = RowSchema("t", ("k", "v"), (8, 8))


def make_table(db=None):
    db = db or Database()
    table = db.create_table(SCHEMA)
    return db, table


def load_values(n=600, seed=7):
    rng = random.Random(seed)
    return sorted({rng.getrandbits(48) for _ in range(n)})


def divergent_profiles():
    return (
        preset_profile("lattice", weight=0.5),
        preset_profile("cache", weight=0.3),
        preset_profile("compact", weight=0.2),
    )


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestReplicaConfig:
    def test_defaults_validate(self):
        ReplicaConfig().validate()
        ReplicaConfig(replicas=3, profiles=divergent_profiles(),
                      total_bound_bytes=90_000).validate()

    @pytest.mark.parametrize("bad", [
        ReplicaConfig(replicas=0),
        ReplicaConfig(replicas=2, profiles=(preset_profile("lattice"),)),
        ReplicaConfig(replicas=2, profiles=(
            preset_profile("lattice"), preset_profile("lattice"))),
        ReplicaConfig(total_bound_bytes=0),
        ReplicaConfig(probe_keys=0),
        ReplicaConfig(score_interval_ops=0),
        ReplicaConfig(heat_buckets=1),
        ReplicaConfig(hot_multiplier=1.0),
        ReplicaConfig(advisor_fee_units=-0.5),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ReplicaConfigError):
            bad.validate()

    def test_profile_validation(self):
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="").validate()
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="w", weight=0.0).validate()
        # leaf_kinds only make sense on the elastic family.
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="p", kind="stx",
                           leaf_kinds=("standard",)).validate()

    def test_presets(self):
        assert preset_profile("lattice").leaf_kinds == (
            "standard", "compact", "learned")
        assert preset_profile("cache").cache is not None
        assert preset_profile("baseline").kind == "stx"
        with pytest.raises(ReplicaConfigError):
            preset_profile("nope")

    def test_uniform_profiles_resolved_from_index_kwargs(self):
        cfg = ReplicaConfig(replicas=3)
        profiles = cfg.resolved_profiles("elastic", leaf_budget=64)
        assert [p.name for p in profiles] == [
            "elastic-0", "elastic-1", "elastic-2"]
        assert all(p.builder_kwargs() == {"leaf_budget": 64}
                   for p in profiles)

    def test_error_is_catchable_as_repro_error(self):
        assert issubclass(ReplicaConfigError, ReproError)
        assert issubclass(ReplicaConfigError, ValueError)


# ----------------------------------------------------------------------
# Budget apportionment
# ----------------------------------------------------------------------
class TestApportionment:
    def test_largest_remainder_is_exact(self):
        bounds = apportion_bounds(divergent_profiles(), 100_001)
        assert sum(bounds) == 100_001
        assert bounds[0] > bounds[1] > bounds[2]

    def test_non_elastic_profiles_get_no_bound(self):
        profiles = (preset_profile("lattice", weight=1.0),
                    preset_profile("baseline", weight=1.0))
        bounds = apportion_bounds(profiles, 50_000)
        assert bounds == [50_000, None]

    def test_all_unbounded_needs_no_total(self):
        profiles = (preset_profile("baseline"),)
        assert apportion_bounds(profiles, None) == [None]

    def test_elastic_without_total_rejected(self):
        with pytest.raises(ReplicaConfigError):
            apportion_bounds(divergent_profiles(), None)

    def test_create_index_apportions_cluster_bound(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=90_000,
            ),
        )
        bounds = [r.bound_bytes for r in secondary.index.replicas]
        assert sum(bounds) == 90_000
        assert bounds == [45_000, 27_000, 18_000]

    def test_explicit_profiles_refuse_create_index_cache(self):
        from repro.cache import CacheConfig

        _, table = make_table()
        with pytest.raises(ReplicaConfigError):
            table.create_index(
                "by_k", ("k",), kind="elastic",
                cache=CacheConfig(budget_bytes=8192),
                replicas=ReplicaConfig(
                    replicas=3, profiles=divergent_profiles(),
                    total_bound_bytes=90_000,
                ),
            )


# ----------------------------------------------------------------------
# Differential: replica sets answer exactly like a plain index
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_reads_match_plain_index(self, replicas, partitioner):
        values = load_values()
        rng = random.Random(11)

        def build(with_replicas):
            _, table = make_table()
            cfg = None
            if with_replicas:
                cfg = ReplicaConfig(
                    replicas=replicas, total_bound_bytes=60_000 * replicas,
                    score_interval_ops=128, heartbeat_interval_ops=64,
                )
            table.create_index(
                "by_k", ("k",), kind="elastic",
                size_bound_bytes=60_000, shards=2,
                partitioner=partitioner, replicas=cfg,
            )
            table.insert_batch([(v, v & 0xFF) for v in values])
            return table

        plain = build(False)
        cluster = build(True)
        probes = [rng.choice(values) for _ in range(120)]
        probes += [rng.getrandbits(48) for _ in range(30)]  # misses
        for v in probes:
            assert cluster.get("by_k", (v,)) == plain.get("by_k", (v,))
        batch = [(v,) for v in probes[:40]]
        assert cluster.get_batch("by_k", batch) == \
            plain.get_batch("by_k", batch)
        for start in probes[:20]:
            assert cluster.scan("by_k", (start,), count=17,
                                include_rows=False) == \
                plain.scan("by_k", (start,), count=17, include_rows=False)

    def test_writes_fan_out_to_every_replica(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(replicas=3, total_bound_bytes=90_000),
        )
        table.insert_batch([(v, 0) for v in load_values(200)])
        table.insert((7, 7))
        replica_set = secondary.index
        assert isinstance(replica_set, ReplicaSet)
        counts = {len(replica) for replica in replica_set.replicas}
        assert len(counts) == 1  # identical content everywhere
        # index_bytes is the cluster's true (summed) footprint.
        assert replica_set.index_bytes == sum(
            r.index_bytes for r in replica_set.replicas)

    def test_replicas_one_is_plain_passthrough(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic", size_bound_bytes=60_000,
            replicas=ReplicaConfig(replicas=1),
        )
        # No cluster machinery at all: the plain elastic index.
        assert not isinstance(secondary.index, ReplicaSet)
        assert not hasattr(secondary.index, "replica_report")


# ----------------------------------------------------------------------
# Routing: heat classification and class assignment
# ----------------------------------------------------------------------
class TestRouting:
    def build_cluster(self, faults=None, values=None):
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, profiles=divergent_profiles(),
            total_bound_bytes=120_000, score_interval_ops=64,
            heartbeat_interval_ops=32, probe_keys=4, faults=faults,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        table.insert_batch([(v, v & 0xFF) for v in values or load_values()])
        return db, table, secondary.index

    def test_skewed_reads_classify_hot(self):
        # Heat buckets split on the key's top 16 bits, so the hot and
        # cold probes need distinct prefixes.
        hot = (5_000 << 48) | 17
        values = sorted(set(load_values()) | {hot})
        _, table, replica_set = self.build_cluster(values=values)
        router = replica_set.router
        for _ in range(200):
            table.get("by_k", (hot,))
        hot_key = hot.to_bytes(8, "big")
        assert router.is_hot(hot_key)
        assert router.classify_point(hot_key) == "point_hot"
        # A key from a bucket never touched is cold.
        cold_key = ((60_000 << 48) | 17).to_bytes(8, "big")
        assert router.classify_point(cold_key) == "point_cold"

    def test_assignment_covers_observed_classes(self):
        values = load_values()
        _, table, replica_set = self.build_cluster(values=values)
        rng = random.Random(3)
        for _ in range(300):
            table.get("by_k", (rng.choice(values),))
        table.get_batch("by_k", [(v,) for v in values[:8]])
        table.scan("by_k", (values[0],), count=8, include_rows=False)
        assignment = replica_set.router.assignment()
        assert set(assignment) <= set(QUERY_CLASSES)
        assert assignment  # scoring rounds fired
        n = replica_set.n_replicas
        assert all(0 <= rid < n for rid in assignment.values())
        mix = replica_set.router.class_mix()
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_scoring_is_rebated_except_fee(self):
        values = load_values(300)
        db, table, replica_set = self.build_cluster(values=values)
        router = replica_set.router
        router.observe("point_cold", [values[0].to_bytes(8, "big")])
        before = db.cost.weighted_cost()
        scores = router.score_round()
        charged = db.cost.weighted_cost() - before
        # Only the advisor fee is left on the ledger.
        fee = replica_set.config.advisor_fee_units
        assert scores
        assert charged == pytest.approx(fee * len(scores) / 1.0, rel=1e-6)


# ----------------------------------------------------------------------
# Failover: scripted outages, deterministic replay, cheap recovery
# ----------------------------------------------------------------------
class TestFailover:
    def run_outage(self, capture=False):
        values = load_values(400, seed=5)
        rng = random.Random(9)
        queries = [rng.choice(values) for _ in range(400)]
        plan = FaultPlan().down(replica=0, beats=4, after=2)
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, total_bound_bytes=120_000,
            score_interval_ops=64, heartbeat_interval_ops=32,
            probe_keys=4, faults=plan,
        )
        table.create_index("by_k", ("k",), kind="elastic", replicas=cfg)
        table.insert_batch([(v, v & 0xFF) for v in values])
        results = []
        with db.cost.measure() as delta:
            for v in queries:
                results.append(table.get("by_k", (v,)))
        events = []
        if capture:
            for event in db.event_log():
                kind = type(event).kind
                if kind.startswith("replica"):
                    # seq is a process-global counter; replay identity
                    # is about the payloads, in order.
                    fields = {k: v for k, v in vars(event).items()
                              if k != "seq"}
                    events.append((kind, sorted(fields.items())))
        return results, delta.weighted_cost(), events, plan

    def test_replay_is_deterministic(self):
        first = self.run_outage()
        second = self.run_outage()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[3].exhausted  # the outage actually fired

    def test_failover_events_replay_identically(self):
        with obs.enabled():
            first = self.run_outage(capture=True)
            second = self.run_outage(capture=True)
        assert first[2] == second[2]
        kinds = [kind for kind, _ in first[2]]
        assert "replica_failover" in kinds
        # Recovery is re-admission from cached scores: no rebuilds.
        assert "replica_rebuild" not in kinds

    def test_down_replica_stops_serving_reads(self):
        _, table = make_table()
        plan = FaultPlan().down(replica=0, beats=1000)
        cfg = ReplicaConfig(
            replicas=2, total_bound_bytes=80_000,
            score_interval_ops=32, heartbeat_interval_ops=8, faults=plan,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        values = load_values(300)
        table.insert_batch([(v, 0) for v in values])
        replica_set = secondary.index
        assert not replica_set.replicas[0].up
        rng = random.Random(2)
        for _ in range(50):
            v = rng.choice(values)
            assert table.get("by_k", (v,)) is not None
        served = replica_set.router.assignment()
        assert all(rid == 1 for rid in served.values())
        # Writes still fan out to the down replica (no content divergence).
        table.insert((3, 3))
        assert len(replica_set.replicas[0]) == len(replica_set.replicas[1])

    def test_all_replicas_down_raises(self):
        _, table = make_table()
        plan = (FaultPlan()
                .down(replica=0, beats=1000)
                .down(replica=1, beats=1000))
        cfg = ReplicaConfig(
            replicas=2, total_bound_bytes=80_000,
            heartbeat_interval_ops=8, faults=plan,
        )
        table.create_index("by_k", ("k",), kind="elastic", replicas=cfg)
        values = load_values(200)
        table.insert_batch([(v, 0) for v in values])
        with pytest.raises(RuntimeError):
            table.get("by_k", (values[0],))

    def test_fault_plan_after_offset(self):
        plan = FaultPlan().down(replica=1, beats=2, after=3)
        beats = [plan.take_heartbeat(1) for _ in range(7)]
        assert beats == [False, False, False, True, True, False, False]
        assert plan.exhausted
        assert not plan.take_heartbeat(0)  # other replicas unaffected


# ----------------------------------------------------------------------
# Rebuild: one replica re-profiled, billed like a bulk conversion
# ----------------------------------------------------------------------
class TestRebuild:
    def build(self):
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, profiles=divergent_profiles(),
            total_bound_bytes=120_000, score_interval_ops=64,
            heartbeat_interval_ops=32, probe_keys=4,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        values = load_values(400)
        table.insert_batch([(v, v & 0xFF) for v in values])
        return db, table, secondary.index, values

    def test_rebuild_is_billed_and_swaps_profile(self):
        db, table, replica_set, values = self.build()
        items_before = len(replica_set.replicas[2])
        before = db.cost.weighted_cost()
        with obs.enabled():
            observer = obs.Observer()
            units = replica_set.rebuild(
                2, preset_profile("lattice", weight=0.2))
            events = observer.event_log("replica_rebuild")
            observer.close()
        assert units > 0
        assert db.cost.weighted_cost() - before == pytest.approx(units)
        assert replica_set.replicas[2].profile.name == "lattice"
        assert len(replica_set.replicas[2]) == items_before
        assert len(events) == 1
        assert events[0].old_profile == "compact"
        assert events[0].new_profile == "lattice"
        assert events[0].cost_units == pytest.approx(units)
        # The rebuilt replica still answers reads correctly.
        assert replica_set.replicas[2].index.lookup(
            values[0].to_bytes(8, "big")) is not None

    def test_rebuild_drains_a_compact_leftmost_leaf(self):
        # The drain scans from the smallest key of the index's width; a
        # zero-width start key made the compact leaf's bit search fail.
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=2,
            profiles=(preset_profile("lattice", weight=0.5),
                      ReplicaProfile(name="seq", kind="stx-seqtree",
                                     weight=0.5)),
            total_bound_bytes=120_000,
        )
        replica_set = table.create_index(
            "by_k", ("k",), kind="elastic", replicas=cfg).index
        values = load_values(400)
        table.insert_batch([(v, v & 0xFF) for v in values])
        assert replica_set.replicas[1].index.first_leaf.kind == "compact"
        replica_set.rebuild(1, preset_profile("baseline", weight=0.5))
        rebuilt = replica_set.replicas[1].index
        assert [k for k, _ in rebuilt.scan(bytes(8), len(values) + 1)] == [
            v.to_bytes(8, "big") for v in values
        ]

    def test_rebuild_validates_target(self):
        _, _, replica_set, _ = self.build()
        with pytest.raises(ReplicaConfigError):
            replica_set.rebuild(9, preset_profile("lattice"))

    def test_rebuild_keeps_create_time_index_kwargs(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=2,
                profiles=(preset_profile("lattice"),
                          preset_profile("cache")),
                total_bound_bytes=120_000,
            ),
            expand_trigger_fraction=0.6,
        )
        replica_set = secondary.index
        table.insert_batch([(v, 0) for v in load_values(200)])
        replica_set.rebuild(1, preset_profile("lattice"))
        assert [
            replica.index.config.expand_trigger_fraction
            for replica in replica_set.replicas
        ] == [0.6, 0.6]


# ----------------------------------------------------------------------
# Arbiter enrollment and tooling
# ----------------------------------------------------------------------
class TestClusterIntegration:
    def test_replicas_enroll_with_budget_arbiter(self):
        db, table = make_table()
        arbiter = db.enable_budget_arbiter(1 << 20)
        table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=120_000,
            ),
        )
        assert sorted(arbiter.shard_names) == [
            "t.by_k/r0", "t.by_k/r1", "t.by_k/r2"]

    def test_cluster_budget_event_announced_at_build(self):
        with obs.enabled():
            db, table = make_table()
            table.create_index(
                "by_k", ("k",), kind="elastic",
                replicas=ReplicaConfig(
                    replicas=3, profiles=divergent_profiles(),
                    total_bound_bytes=90_000,
                ),
            )
            events = db.event_log("cluster_budget")
        assert len(events) == 1
        assert events[0].total_bytes == 90_000
        assert sum(events[0].bounds) == 90_000
        assert events[0].replicas == ["lattice", "cache", "compact"]

    def test_inspect_cluster_summary(self):
        from repro.tools.inspect import cluster_summary

        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=120_000,
            ),
        )
        table.insert_batch([(v, 0) for v in load_values(200)])
        text = cluster_summary(secondary.index)
        for label in ("lattice", "cache", "compact", "bound share"):
            assert label in text
        # Plain indexes render a symmetric single-row table.
        plain = table.create_index("plain", ("v", "k"), kind="stx")
        assert "replica" in cluster_summary(plain.index)

    def test_api_surface(self):
        from repro import api

        import repro.cluster as cluster

        for name in ("ReplicaConfig", "ReplicaProfile", "ReplicaSet",
                     "Replica", "ClusterRouter",
                     "ReplicaConfigError", "build_replica_set",
                     "preset_profile"):
            assert hasattr(api, name), name
            assert name in api.__all__, name
        # Replica rebuilds live on ReplicaSet; there is no second advisor.
        for module in (api, cluster):
            assert not hasattr(module, "ReplicaAdvisor")
            assert "ReplicaAdvisor" not in module.__all__

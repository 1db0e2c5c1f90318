"""The BENCH gate machinery of scripts/check_bench_regression.py.

No smoke runs here: the specs are pinned against literal tables, and
the generic checker and replay are fed synthetic inputs.  Loosening a
bound therefore needs a visible edit to this file.
"""

from __future__ import annotations

import importlib.util
import json
import os
import types

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(REPO, "scripts", "check_bench_regression.py")
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gates = _load_script()

SCENARIOS = ("anti_zipf_churn", "bulk_load_then_scan", "diurnal",
             "hotspot_migration", "noisy_neighbor")

#: (gate, check, bound) for every contract check, in spec order.
PINNED_CHECKS = [
    ("batch", "elastic.cost_saving >=", 0.30),
    ("batch", "stx.cost_saving >=", 0.30),
    ("shard", "arbiter_cost_units <", "static_cost_units"),
    ("shard", "cost_saving >=", 0.05),
    ("shard", "rebalances >", 0),
    ("parallel", "results_identical ==", True),
    ("parallel", "per_shards.1.parallel_lookup_cost ==",
     "per_shards.1.serial_lookup_cost"),
    ("parallel", "per_shards.1.parallel_scan_cost ==",
     "per_shards.1.serial_scan_cost"),
    ("parallel", "per_shards.4.parallel_lookup_cost <",
     "per_shards.4.serial_lookup_cost"),
    ("parallel", "per_shards.4.critical_path_units <",
     "per_shards.4.serial_sum_units"),
    ("cache", "results_identical ==", True),
    ("cache", "zipf_cost_saving >=", 0.25),
    ("cache", "iotta_cost_saving >=", 0.25),
    ("cache", "zipf_hit_rate >", 0.0),
    ("cache", "iotta_hit_rate >", 0.0),
    *[
        entry
        for kind in ("elastic", "stx", "seqtree128")
        for entry in (
            ("mlp", f"{kind}.results_identical ==", True),
            ("mlp", f"{kind}.w1_exact ==", True),
            *[("mlp", f"{kind}.per_width_cost_units.{w} <",
               f"{kind}.scalar_cost_units") for w in (2, 3, 4)],
        )
    ],
    ("mlp", "elastic.saving_at_w4_vs_batched >=", 0.20),
    ("learned", "results_identical ==", True),
    ("learned", "learned_mem_lt_full ==", True),
    ("learned", "learned_cost_lt_compact ==", True),
    ("learned", "elastic3_not_worse ==", True),
    ("learned", "learned_off_exact ==", True),
    ("cluster", "results_identical ==", True),
    ("cluster", "r1_exact ==", True),
    ("cluster", "failover_deterministic ==", True),
    ("cluster", "divergent_saving >=", 0.03),
    ("wal", "results_identical ==", True),
    ("wal", "recovery_match ==", True),
    ("wal", "recovery_deterministic ==", True),
    ("wal", "overhead_saving >=", 0.30),
    ("wal", "records_discarded >", 0),
    ("selftune", "results_identical ==", True),
    *[("selftune", f"scenarios.{s}.dominates ==", True) for s in SCENARIOS],
    ("selftune", "strict_wins >=", 3),
    *[("selftune", f"scenarios.{s}.actions_applied >", 0) for s in SCENARIOS],
]

#: gate -> (replay metrics, replay events, replay checks).
PINNED_REPLAY = {
    "batch": (("repro_batch_dispatch_ops_total",), ("batch_dispatch",), ()),
    "shard": ((), (), (("rebalance_events >", 0),
                       ("rebalance_events ==", "rebalances"))),
    "parallel": (("repro_shard_dispatch_ops_total",), ("parallel_gather",),
                 (("results_identical ==", True),)),
    "cache": (("repro_cache_events_total", "repro_cache_hit_rate"), (), ()),
    "mlp": (("repro_mlp_waves_total",), ("mlp_wave",), ()),
    "learned": (("repro_leaf_retrains_total",),
                ("leaf_retrain", "leaf_conversion:to_learned"), ()),
    "cluster": (("repro_replica_routes_total",), (),
                tuple((f"failover_events.{k} >", 0) for k in (
                    "replica_route", "replica_failover", "cluster_budget"))),
    "wal": (("repro_wal_records_total",), (),
            tuple((f"crash_events.{k} >", 0) for k in (
                "wal_append", "group_commit", "recovery_replay"))),
    "selftune": (("repro_tuning_actions_total",),
                 ("tuning_probe", "tuning_action"), ()),
}


def test_contract_checks_are_pinned():
    table = [
        (name, entry.name, entry.bound)
        for name, gate in gates.GATES.items()
        for entry in gate.checks
    ]
    assert table == PINNED_CHECKS


def test_replay_expectations_are_pinned():
    table = {
        name: (gate.replay_metrics, gate.replay_events,
               tuple((c.name, c.bound) for c in gate.replay_checks))
        for name, gate in gates.GATES.items()
    }
    assert table == PINNED_REPLAY


@pytest.mark.parametrize("name", list(gates.GATES))
def test_spec_config_matches_committed_baseline(name):
    gate = gates.GATES[name]
    with open(os.path.join(REPO, gate.baseline)) as fh:
        stored = json.load(fh)["config"]
    assert stored == json.loads(json.dumps(gate.config))


# ----------------------------------------------------------------------
# Synthetic inputs for the generic checker and replay (the wal gate).
# ----------------------------------------------------------------------
WAL = gates.GATES["wal"]


def wal_meta(**overrides):
    meta = {
        "results_identical": True,
        "recovery_match": True,
        "recovery_deterministic": True,
        "overhead_saving": 0.9,
        "records_discarded": 3,
        "off_cost_units": 9427.31,
        "perop_cost_units": 79399.81,
        "group_cost_units": 11591.81,
        "recovery_cost_units": 4861.59,
        "crash_events": {"wal_append": 5, "group_commit": 7,
                         "recovery_replay": 1},
    }
    meta.update(overrides)
    return meta


def baseline_of(metrics):
    return {"config": {}, **{k: round(v, 4) for k, v in metrics.items()}}


class FakeObserver:
    def __init__(self, totals, events):
        self.registry = types.SimpleNamespace(
            get=lambda name: (types.SimpleNamespace(total=lambda: totals[name])
                              if name in totals else None))
        self.events = [types.SimpleNamespace(kind=k, direction=d)
                       for k, d in events]

    def event_log(self, kind=None):
        return [e for e in self.events if kind is None or e.kind == kind]


def check_wal(meta, baseline=None):
    metrics = WAL.metrics(meta)
    if baseline is None:
        baseline = baseline_of(metrics)
    return gates.check_gate("wal", WAL, metrics, meta, baseline)


def test_clean_inputs_pass():
    assert check_wal(wal_meta()) == []


def test_stored_metric_drift_fails():
    metrics = WAL.metrics(wal_meta())
    baseline = baseline_of(metrics)
    baseline["wal.group_cost_units"] = round(
        baseline["wal.group_cost_units"] + 1e-4, 4)
    failures = check_wal(wal_meta(), baseline)
    assert len(failures) == 1 and "wal.group_cost_units" in failures[0]


def test_metric_missing_from_baseline_fails():
    baseline = baseline_of(WAL.metrics(wal_meta()))
    del baseline["wal.off_cost_units"]
    failures = check_wal(wal_meta(), baseline)
    assert failures == ["wal.off_cost_units: missing from baseline "
                        "(run --update)"]


def test_stored_metric_not_measured_fails():
    baseline = baseline_of(WAL.metrics(wal_meta()))
    baseline["wal.extra_cost_units"] = 1.0
    assert check_wal(wal_meta(), baseline) == [
        "wal.extra_cost_units: in the baseline but not measured"]


def test_floor_breached_by_epsilon_fails():
    assert check_wal(wal_meta(overhead_saving=0.30)) == []
    failures = check_wal(wal_meta(overhead_saving=0.30 - 1e-6))
    assert len(failures) == 1 and "overhead_saving >=" in failures[0]


def test_false_contract_flag_fails():
    failures = check_wal(wal_meta(recovery_match=False))
    assert len(failures) == 1 and "recovery_match ==" in failures[0]


def test_missing_contract_key_fails():
    meta = wal_meta()
    del meta["records_discarded"]
    failures = check_wal(meta)
    assert len(failures) == 1 and "not evaluable" in failures[0]


def test_ordering_check_compares_two_paths():
    shard = gates.GATES["shard"]
    meta = {"static_cost_units": 10.0, "arbiter_cost_units": 10.0,
            "cost_saving": 0.1, "rebalances": 1}
    failures = gates.check_gate("shard", shard, shard.metrics(meta), meta,
                                baseline_of(shard.metrics(meta)))
    assert len(failures) == 1 and "arbiter_cost_units <" in failures[0]


def replay_wal(metrics, meta, totals):
    base = WAL.metrics(wal_meta())
    return gates.check_replay("wal", WAL, base, metrics, meta,
                              FakeObserver(totals, []))


def test_clean_replay_passes():
    meta = wal_meta()
    assert replay_wal(WAL.metrics(meta), meta,
                      {"repro_wal_records_total": 4}) == []


def test_replay_metric_difference_fails():
    meta = wal_meta()
    metrics = dict(WAL.metrics(meta))
    metrics["wal.group_cost_units"] += 1e-9
    failures = replay_wal(metrics, meta, {"repro_wal_records_total": 4})
    assert len(failures) == 1 and "wal.group_cost_units" in failures[0]


def test_replay_unrecorded_metric_fails():
    meta = wal_meta()
    failures = replay_wal(WAL.metrics(meta), meta,
                          {"repro_wal_records_total": 0})
    assert failures == [
        "wal enabled-replay: repro_wal_records_total never recorded"]


def test_replay_missing_meta_event_kind_fails():
    meta = wal_meta(crash_events={"wal_append": 5, "group_commit": 7})
    failures = replay_wal(WAL.metrics(meta), meta,
                          {"repro_wal_records_total": 4})
    assert len(failures) == 1 and "recovery_replay" in failures[0]


def test_replay_missing_observer_event_kind_fails():
    learned = gates.GATES["learned"]
    totals = {"repro_leaf_retrains_total": 2}
    ok = [("leaf_retrain", None), ("leaf_conversion", "to_learned")]
    assert gates.check_replay("learned", learned, {}, {}, {},
                              FakeObserver(totals, ok)) == []
    for events in (ok[1:], [ok[0], ("leaf_conversion", "to_compact")]):
        failures = gates.check_replay("learned", learned, {}, {}, {},
                                      FakeObserver(totals, events))
        assert len(failures) == 1 and "events captured" in failures[0]

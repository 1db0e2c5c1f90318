#!/usr/bin/env python
"""Gate the deterministic cost-unit baselines (``BENCH_*.json``).

Each entry of ``GATES`` runs one ``repro.bench`` experiment in a small,
seeded smoke configuration and fails (exit 1) unless:

* every metric equals its committed baseline at the stored precision,
  ``round(value, 4)`` — cost units are exactly reproducible, so any
  drift at all means the economics (or the zero-overhead guarantee of
  ``repro.obs``) changed;
* the gate's contract checks (floors, orderings, flags) hold;
* a replay with observability enabled and an ``Observer`` attached
  reproduces every metric exactly and shows the gate's activity as the
  events and metrics its spec names.

A subprocess smoke then drives the ``DBTable`` surface under
``-W error::DeprecationWarning``, and the wall-clock microbenchmarks
run once with timing disabled (``--skip-wallclock`` skips them).
Bad arguments exit 2.  Not part of the tier-1 suite; run it by hand or
from CI:

    PYTHONPATH=src python scripts/check_bench_regression.py
    PYTHONPATH=src python scripts/check_bench_regression.py --only cache wal
    PYTHONPATH=src python scripts/check_bench_regression.py --update --only batch
    PYTHONPATH=src python scripts/check_bench_regression.py --list
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
import os
import subprocess
import sys
from typing import Callable, Dict, NamedTuple, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Check(NamedTuple):
    """One contract entry: ``holds(meta, bound)`` must be true."""

    name: str
    bound: object
    holds: Callable[[dict, object], bool]


_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
        "==": operator.eq}


def _at(meta: dict, path: str):
    """``meta["a"]["b"]`` for the dotted path ``"a.b"``."""
    for part in path.split("."):
        meta = meta[part]
    return meta


def check(path: str, op: str, bound) -> Check:
    """``meta[path] <op> bound``; a ``str`` bound names another path."""
    def holds(meta, bound):
        other = _at(meta, bound) if isinstance(bound, str) else bound
        return _OPS[op](_at(meta, path), other)
    return Check(f"{path} {op}", bound, holds)


def flags(*paths: str) -> Tuple[Check, ...]:
    """Contract booleans that must all be true."""
    return tuple(check(path, "==", True) for path in paths)


class Gate(NamedTuple):
    """One BENCH gate: what to run, what to pin, what must hold."""

    reason: str
    baseline: str
    #: Smoke kwargs for ``repro.bench.<gate>.run``; stored as the
    #: baseline's ``config`` on ``--update``.
    config: dict
    #: ``meta -> {metric: value}``; every value is pinned exactly.
    metrics: Callable[[dict], Dict[str, float]]
    checks: Tuple[Check, ...]
    #: Registry instruments whose total must be nonzero in the replay.
    replay_metrics: Tuple[str, ...] = ()
    #: Event kinds the replay's observer must capture; ``kind:direction``
    #: counts only events with that ``direction``.
    replay_events: Tuple[str, ...] = ()
    #: Checks over the replay's meta (event counts the bench run kept).
    replay_checks: Tuple[Check, ...] = ()
    #: Forward ``capture_events`` (off in the base run, on in the replay).
    capture_events: bool = False


def _pick(prefix: str, meta: dict, keys) -> Dict[str, float]:
    return {f"{prefix}.{key}": meta[key] for key in keys}


BATCH = dict(n_keys=20_000, query_count=2048,
             batch_sizes=(1, 16, 256, 2048), indexes=("elastic", "stx"),
             seed=11, wall_repeats=1)
MLP = dict(n_keys=10_000, query_count=1024, widths=(1, 2, 3, 4),
           indexes=("elastic", "stx", "seqtree128"), seed=13,
           batch_size=256)
LEARNED_ARMS = ("full", "compact", "learned", "elastic-2way",
                "elastic-3way")
SCENARIOS = ("anti_zipf_churn", "bulk_load_then_scan", "diurnal",
             "hotspot_migration", "noisy_neighbor")
CACHE_WORKLOADS = ("zipf", "iotta")


def _parallel_metrics(meta):
    return {
        f"parallel.s{shards}.{name}": meta["per_shards"][shards][name]
        for shards in sorted(meta["per_shards"], key=int)
        for name in ("serial_lookup_cost", "parallel_lookup_cost",
                     "serial_scan_cost", "parallel_scan_cost")
    }


def _mlp_metrics(meta):
    metrics = {}
    for kind in MLP["indexes"]:
        arm = meta[kind]
        metrics.update(_pick(f"mlp.{kind}", arm, ("scalar_cost_units",
                                                  "batched_cost_units")))
        for width, cost in arm["per_width_cost_units"].items():
            metrics[f"mlp.{kind}.w{width}_cost_units"] = cost
    return metrics


def _mlp_checks():
    checks = ()
    for kind in MLP["indexes"]:
        checks += flags(f"{kind}.results_identical", f"{kind}.w1_exact")
        checks += tuple(check(f"{kind}.per_width_cost_units.{width}", "<",
                              f"{kind}.scalar_cost_units")
                        for width in MLP["widths"] if width >= 2)
    return checks


def _selftune_metrics(meta):
    # Totals sum in sorted scenario order, the order the baseline used.
    scenarios = sorted(meta["scenarios"].items())
    metrics = {}
    for name, verdict in scenarios:
        metrics.update(_pick(f"selftune.{name}", verdict,
                             ("self_cost_units", "best_static_units")))
    metrics["selftune.self_cost_units"] = round(
        sum(v["self_cost_units"] for _, v in scenarios), 2)
    metrics["selftune.best_static_cost_units"] = round(
        sum(v["best_static_units"] for _, v in scenarios), 2)
    return metrics


#: The gate registry, in the order the mechanisms landed.
GATES: Dict[str, Gate] = {
    "batch": Gate(
        "shared-descent batching cuts lookup cost units by >= 30%",
        "BENCH_batch.json", BATCH,
        lambda meta: {
            f"{kind}.{name}": meta[kind][name]
            for kind in BATCH["indexes"]
            for name in ("scalar_cost_units", "batch_cost_units",
                         "cost_saving")
        },
        tuple(check(f"{kind}.cost_saving", ">=", 0.30)
              for kind in BATCH["indexes"]),
        replay_metrics=("repro_batch_dispatch_ops_total",),
        replay_events=("batch_dispatch",),
    ),
    "shard": Gate(
        "the budget arbiter strictly beats a static equal split",
        "BENCH_shard.json",
        dict(n_big=4000, n_small=300, txn_ops=6000, shards=2, seed=17),
        lambda meta: _pick("shard", meta, (
            "static_cost_units", "arbiter_cost_units", "cost_saving")),
        (check("arbiter_cost_units", "<", "static_cost_units"),
         check("cost_saving", ">=", 0.05),
         check("rebalances", ">", 0)),
        replay_checks=(check("rebalance_events", ">", 0),
                       check("rebalance_events", "==", "rebalances")),
        capture_events=True,
    ),
    "parallel": Gate(
        "scatter/gather keeps answers; its critical path beats the "
        "serial sum at 4 shards and equals serial at 1",
        "BENCH_parallel.json",
        dict(n_keys=6000, batch_ops=512, scan_ops=64, scan_count=8,
             shard_counts=(1, 4), workers=4, seed=19),
        _parallel_metrics,
        flags("results_identical") + (
            check("per_shards.1.parallel_lookup_cost", "==",
                  "per_shards.1.serial_lookup_cost"),
            check("per_shards.1.parallel_scan_cost", "==",
                  "per_shards.1.serial_scan_cost"),
            check("per_shards.4.parallel_lookup_cost", "<",
                  "per_shards.4.serial_lookup_cost"),
            check("per_shards.4.critical_path_units", "<",
                  "per_shards.4.serial_sum_units"),
        ),
        replay_metrics=("repro_shard_dispatch_ops_total",),
        replay_events=("parallel_gather",),
        replay_checks=flags("results_identical"),
    ),
    "cache": Gate(
        "the adaptive cache cuts cost >= 25% at equal memory on both "
        "skewed workloads without changing answers",
        "BENCH_cache.json",
        dict(n_keys=8000, query_count=16_000, iotta_rows=6000, seed=23),
        lambda meta: {
            f"cache.{workload}.{name}": meta[f"{workload}_{name}"]
            for workload in CACHE_WORKLOADS
            for name in ("base_cost_units", "cached_cost_units",
                         "cost_saving", "hit_rate")
        },
        flags("results_identical")
        + tuple(check(f"{workload}_cost_saving", ">=", 0.25)
                for workload in CACHE_WORKLOADS)
        + tuple(check(f"{workload}_hit_rate", ">", 0.0)
                for workload in CACHE_WORKLOADS),
        replay_metrics=("repro_cache_events_total", "repro_cache_hit_rate"),
    ),
    "mlp": Gate(
        "wave pricing keeps answers, W=1 reproduces batched counts, every "
        "W >= 2 beats serial, elastic W=4 beats batched by >= 20%",
        "BENCH_mlp.json", MLP, _mlp_metrics,
        _mlp_checks() + (check("elastic.saving_at_w4_vs_batched", ">=",
                               0.20),),
        replay_metrics=("repro_mlp_waves_total",),
        replay_events=("mlp_wave",),
    ),
    "learned": Gate(
        "learned leaves are a third frontier point: smaller than full, "
        "cheaper than compact, and never hurt the elastic arm",
        "BENCH_learned.json",
        dict(n_keys=9_000, query_count=2_048, seed=29, batch_size=256),
        lambda meta: {
            f"learned.{arm}.{name}": meta["arms"][arm][name]
            for arm in LEARNED_ARMS
            for name in ("index_bytes", "sorted_cost_units",
                         "zipf_cost_units")
        },
        flags("results_identical", "learned_mem_lt_full",
              "learned_cost_lt_compact", "elastic3_not_worse",
              "learned_off_exact"),
        replay_metrics=("repro_leaf_retrains_total",),
        replay_events=("leaf_retrain", "leaf_conversion:to_learned"),
    ),
    "cluster": Gate(
        "divergent replicas beat identical ones at equal memory; one "
        "replica is the plain index; failover replays deterministically",
        "BENCH_cluster.json", dict(n_keys=6_000, ops=3_000, seed=41),
        lambda meta: _pick("cluster", meta, (
            "uniform_cost_units", "divergent_cost_units",
            "single_cost_units", "r1_cost_units", "failover_cost_units")),
        flags("results_identical", "r1_exact", "failover_deterministic")
        + (check("divergent_saving", ">=", 0.03),),
        replay_metrics=("repro_replica_routes_total",),
        replay_checks=tuple(
            check(f"failover_events.{kind}", ">", 0)
            for kind in ("replica_route", "replica_failover",
                         "cluster_budget")),
        capture_events=True,
    ),
    "wal": Gate(
        "group commit cuts durability overhead >= 30% vs per-op fsync; "
        "kill + recover matches the committed prefix",
        "BENCH_wal.json",
        dict(n_rows=2_000, batch_rows=24, group_size=64,
             kill_after_applies=90, seed=43),
        lambda meta: _pick("wal", meta, (
            "off_cost_units", "perop_cost_units", "group_cost_units",
            "recovery_cost_units")),
        flags("results_identical", "recovery_match",
              "recovery_deterministic")
        + (check("overhead_saving", ">=", 0.30),
           check("records_discarded", ">", 0)),
        replay_metrics=("repro_wal_records_total",),
        replay_checks=tuple(
            check(f"crash_events.{kind}", ">", 0)
            for kind in ("wal_append", "group_commit", "recovery_replay")),
        capture_events=True,
    ),
    "selftune": Gate(
        "the self-tuned arm never loses to the best static arm, wins "
        "strictly on >= 3 of 5 scenarios, and acts on every one",
        "BENCH_selftune.json", dict(scale=1), _selftune_metrics,
        flags("results_identical")
        + flags(*(f"scenarios.{name}.dominates" for name in SCENARIOS))
        + (check("strict_wins", ">=", 3),)
        + tuple(check(f"scenarios.{name}.actions_applied", ">", 0)
                for name in SCENARIOS),
        replay_metrics=("repro_tuning_actions_total",),
        replay_events=("tuning_probe", "tuning_action"),
    ),
}


def run_gate(name: str, gate: Gate, capture_events: bool = False):
    """Run the gate's smoke; returns ``(result, metrics, meta)``.

    The selftune advisor flips the global obs switch on for its own
    observation plane, so the switch is restored afterwards.
    """
    from repro import obs

    kwargs = dict(gate.config)
    if gate.capture_events:
        kwargs["capture_events"] = capture_events
    was_enabled = obs.is_enabled()
    try:
        result = importlib.import_module(f"repro.bench.{name}").run(**kwargs)
    finally:
        obs.set_enabled(was_enabled)
    return result, gate.metrics(result.meta), result.meta


def _failed_checks(label: str, checks, meta: dict) -> list:
    failures = []
    for entry in checks:
        try:
            ok = entry.holds(meta, entry.bound)
        except (KeyError, TypeError) as exc:
            ok, detail = False, f"not evaluable: {exc!r}"
        else:
            try:  # a check's name is "<meta path> <op>"
                detail = f"observed {_at(meta, entry.name.split()[0])!r}"
            except (KeyError, TypeError):
                detail = ""
        if not ok:
            failures.append(
                f"{label}: {entry.name} {entry.bound!r} violated ({detail})"
            )
    return failures


def check_gate(name: str, gate: Gate, metrics: dict, meta: dict,
               baseline: dict) -> list:
    """Contract checks plus the exact baseline rule for one gate."""
    failures = _failed_checks(name, gate.checks, meta)
    stored = {k: v for k, v in baseline.items() if k != "config"}
    for key in sorted(metrics.keys() | stored.keys()):
        if key not in stored:
            failures.append(f"{key}: missing from baseline (run --update)")
        elif key not in metrics:
            failures.append(f"{key}: in the baseline but not measured")
        elif round(metrics[key], 4) != stored[key]:
            value, base = metrics[key], stored[key]
            drift = f"{(value / base - 1) * 100:+.4f}%" if base else "n/a"
            failures.append(
                f"{key}: {value!r} vs baseline {base!r} ({drift}; must "
                f"match exactly at 4 decimals)"
            )
    return failures


def _captured(observer, spec: str) -> list:
    kind, _, direction = spec.partition(":")
    return [event for event in observer.event_log(kind)
            if not direction or event.direction == direction]


def check_replay(name: str, gate: Gate, base_metrics: dict,
                 metrics: dict, meta: dict, observer) -> list:
    """The enabled replay must cost exactly the disabled run and show
    every expectation of the spec."""
    label = f"{name} enabled-replay"
    failures = [
        f"{label}: {key} = {metrics.get(key)!r} with observability enabled "
        f"vs {base_metrics.get(key)!r} disabled (instrumentation must not "
        f"charge cost units)"
        for key in sorted(metrics.keys() | base_metrics.keys())
        if metrics.get(key) != base_metrics.get(key)
    ]
    for metric in gate.replay_metrics:
        instrument = observer.registry.get(metric)
        if instrument is None or instrument.total() == 0:
            failures.append(f"{label}: {metric} never recorded")
    counts = {spec: len(_captured(observer, spec))
              for spec in gate.replay_events}
    failures += [f"{label}: no {spec} events captured"
                 for spec, count in counts.items() if count == 0]
    failures += _failed_checks(label, gate.replay_checks, meta)
    if not failures:
        seen = [f"{metric} = {observer.registry.get(metric).total():g}"
                for metric in gate.replay_metrics]
        seen += [f"{count} {spec} events" for spec, count in counts.items()]
        print("; ".join([f"{label}: cost identical", *seen]))
    return failures


def replay_gate(name: str, gate: Gate, base_metrics: dict) -> list:
    """Re-run the gate with obs enabled and an ``Observer`` attached."""
    from repro import obs

    observer = None
    was_enabled = obs.is_enabled()
    obs.set_enabled(True)
    try:
        observer = obs.Observer()
        _, metrics, meta = run_gate(name, gate, capture_events=True)
    finally:
        obs.set_enabled(was_enabled)
        if observer is not None:
            observer.close()
    return check_replay(name, gate, base_metrics, metrics, meta, observer)


def smoke_deprecation_free_db_surface() -> int:
    """The DBTable read/write surface must not trip DeprecationWarning."""
    script = (
        "from repro.db import Database\n"
        "from repro.table.table import RowSchema\n"
        "from repro.wal import WalConfig\n"
        "db = Database()\n"
        "t = db.create_table(RowSchema('t', ('a', 'b'), (8, 8)))\n"
        "t.create_index('by_a', ('a',))\n"
        "t.insert_batch([(i, i * 2) for i in range(200)])\n"
        "assert t.get('by_a', (5,)) == (5, 10)\n"
        "wal_db = Database(wal=WalConfig(group_size=16))\n"
        "wt = wal_db.create_table(RowSchema('t', ('a', 'b'), (8, 8)))\n"
        "wt.create_index('by_a', ('a',))\n"
        "with wal_db.begin_batch() as batch:\n"
        "    batch.insert_batch(wt, [(i, i) for i in range(32)])\n"
        "    batch.insert(wt, (99, 99))\n"
        "stale = wt.insert((500, 0))\n"
        "with wal_db.begin_batch() as batch:\n"
        "    batch.delete(wt, stale)\n"
        "assert wt.get('by_a', (99,)) == (99, 99)\n"
        "assert wt.get('by_a', (500,)) is None\n"
        "assert len(t.get_batch('by_a', [(i,) for i in range(8)])) == 8\n"
        "assert len(t.scan('by_a', (0,), count=10)) == 10\n"
        "keys = t.scan('by_a', (0,), count=4, include_rows=False)\n"
        "assert len(keys) == 4 and isinstance(keys[0], bytes)\n"
        "batches = t.scan_batch('by_a', [(0,), (50,)], count=3)\n"
        "assert [len(b) for b in batches] == [3, 3]\n"
        "snapshot = db.metrics_snapshot()\n"
        "assert snapshot.startswith('# HELP')\n"
        "print('db surface smoke ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.call(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
        env=env,
        cwd=REPO,
    )


def smoke_wallclock() -> int:
    """One timing-disabled pass over the wall-clock microbenchmarks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            os.path.join(REPO, "benchmarks", "bench_wallclock_micro.py"),
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
            "--override-ini",
            "testpaths=benchmarks",
        ],
        env=env,
        cwd=REPO,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the BENCH baselines (restricted by --only) from "
        "the current run",
    )
    parser.add_argument(
        "--skip-wallclock",
        action="store_true",
        help="skip the wall-clock microbenchmark smoke pass",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="enumerate every gated BENCH baseline and exit "
        "(exit 1 if any is missing)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="GATE",
        default=None,
        choices=sorted(GATES),
        help="run only the named gates (default: all of "
        f"{', '.join(GATES)}); with --update, only their baselines "
        "are rewritten",
    )
    args = parser.parse_args()

    if args.list:
        missing = 0
        for name, gate in GATES.items():
            present = os.path.exists(os.path.join(REPO, gate.baseline))
            status = "ok" if present else "MISSING (run --update)"
            print(f"{name:<10} {gate.baseline:<20} {status}")
            missing += not present
        return 1 if missing else 0

    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro import obs

    selected = [
        name for name in GATES
        if args.only is None or name in args.only
    ]

    failures = []
    runs = {}
    for name in selected:
        if obs.is_enabled():
            failures.append(f"{name}: observability enabled in the base run")
        result, metrics, meta = run_gate(name, GATES[name])
        print(result.render())
        print()
        runs[name] = (metrics, meta)

    if args.update:
        for name in selected:
            path = os.path.join(REPO, GATES[name].baseline)
            payload = {
                "config": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in GATES[name].config.items()},
                **{k: round(v, 4) for k, v in runs[name][0].items()},
            }
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"baseline written to {path}")
        return 0

    for name in selected:
        gate = GATES[name]
        path = os.path.join(REPO, gate.baseline)
        if not os.path.exists(path):
            print(f"no baseline at {path}; run with --update first")
            return 1
        with open(path) as fh:
            baseline = json.load(fh)
        metrics, meta = runs[name]
        failures.extend(check_gate(name, gate, metrics, meta, baseline))
        failures.extend(replay_gate(name, gate, metrics))

    for failure in failures:
        print(f"REGRESSION: {failure}")
    if not failures:
        print("cost metrics bit-identical to baseline and every gate "
              "contract holds")

    print("\nDBTable read-surface smoke (-W error::DeprecationWarning):")
    if smoke_deprecation_free_db_surface() != 0:
        failures.append("DBTable read-surface deprecation smoke failed")

    if not args.skip_wallclock:
        print("\nwall-clock micro smoke pass (timing disabled):")
        if smoke_wallclock() != 0:
            failures.append("wall-clock microbenchmark smoke pass failed")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

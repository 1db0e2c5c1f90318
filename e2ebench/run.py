#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of ``repro.api.Database``.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload point_zipf_replicated --seed 1 \\
        --seconds 10 --trace 0

One client on one thread drives the database as a closed loop; every
result is checked against a reference model.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print each metric by name with its unit and, for
percentiles, its sample count.

``--trace 0`` (end-to-end metrics)
    Builds the database three times and reports the median set-up time:
    once in a child process, which warms up and replays the
    deterministic window (the first ``window_calls`` calls after the
    warm-up) and returns its exact counters, then twice here.  The last
    build warms up and runs the timed phase for ``--seconds``; its
    counters over the same window must equal the child's (the child
    runs under another hash seed, so hidden nondeterminism in the
    program shows up as a mismatch).  Times are scaled by the reference
    clock (see :mod:`refclock`); the printed lines give raw wall-clock
    figures beside them.

``--trace 1`` (per-layer metrics)
    Builds three copies and runs the deterministic window on each,
    interleaved segment by segment so that all three see the same
    machine: untraced with accounting on, untraced with
    ``db.cost.enabled = False`` after load (the ledger's share of the
    time), and traced, with spans around each layer's public calls (see
    :mod:`spans`).  The traced window must reproduce the untraced
    counters exactly.  Spans are written to
    ``e2ebench/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

#: Reference keys re-read through ``get`` after the timed phase.
AUDIT_KEYS = 2000
#: Seconds a child process may take before the run fails.
CHILD_TIMEOUT_S = 150

READ_KINDS = ("get", "scan")
WRITE_KINDS = ("insert", "batch")
#: Consecutive parts of the timed phase whose p99s give the median p99.
TAIL_PARTS = 5

#: The cost categories the per-layer report breaks ``cost_units_per_op``
#: into (the paper's memory-hierarchy events plus the durability pair).
COST_CATEGORIES = (
    "rand_line", "seq_line", "key_load", "key_load_batched", "compare",
    "cache_hit", "model_eval", "alloc", "copy_line", "log_append",
    "log_fsync",
)

#: Unit of every ``--trace 1`` metric (``BENCHMARK.json``'s per_layer).
PER_LAYER_UNITS = {
    "db.self_us_per_op": "us",
    "db.commit_us_per_batch": "us",
    "cluster.self_us_per_get": "us",
    "cluster.hot_route_share": "fraction",
    "cluster.index_writes_per_row": "count",
    "cluster.score_rounds": "count",
    "engine.router_self_us_per_op": "us",
    "engine.shards_per_scan": "count",
    "engine.scan_spill_share": "fraction",
    "engine.arbiter_tick_us_per_op": "us",
    "engine.arbiter_rebalances": "count",
    "cache.hit_rate": "fraction",
    "cache.answer_share": "fraction",
    "cache.probe_us_per_get": "us",
    "cache.evictions_per_kop": "count/kop",
    "index.self_us_per_op": "us",
    "elastic.conversions_per_kop": "count/kop",
    "elastic.conversion_cost_share": "fraction",
    "leaf.compact_fraction": "fraction",
    "leaf.learned_fraction": "fraction",
    "table.fetch_us_per_op": "us",
    "table.rows_per_scan": "count",
    "wal.append_us_per_row": "us",
    "wal.group_commit_us_per_batch": "us",
    "wal.rows_per_fsync": "count",
    "tuning.probes": "count",
    "tuning.actions": "count",
    "tuning.op_share": "fraction",
    "memory.charge_calls_per_op": "count/op",
    "memory.ledger_share": "fraction",
    "memory.ledger_share_available": "count",
    **{f"memory.cost.{category}_per_op": "count/op"
       for category in COST_CATEGORIES},
    "trace.overhead_ratio": "ratio",
    "trace.self_time_residual_ns": "ns",
    "trace.spans_per_op": "count/op",
}


def percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of sorted ns samples, in microseconds."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1000.0


def reference(args) -> int:
    """Child mode: build once, replay the window, print its counters."""
    import counters
    from refclock import RefClock
    from workloads import WORKLOADS

    clock = RefClock()
    workload = fresh(args, WORKLOADS, clock)
    snapshot = counters.Snapshot(workload.db)
    gc.collect()
    workload.play(clock, workload.window_calls)
    print(json.dumps({
        "setup_s": workload.setup_s,
        "raw_setup_s": workload.raw_setup_s,
        "errors": workload.errors,
        "counters": counters.delta(snapshot, workload),
    }))
    return 0


def run_reference_child(args) -> dict:
    """Run :func:`reference` in a child process under a different
    ``PYTHONHASHSEED`` than this process."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--reference"],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"reference process failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh(args, workloads, clock, accounting=True):
    """A built, loaded and warmed-up workload."""
    gc.collect()
    workload = workloads[args.workload](args.seed)
    workload.setup(clock)
    workload.db.cost.enabled = accounting
    workload.warm_up(clock)
    return workload


def latency_metrics(workload) -> tuple:
    """(metrics, printable lines) for the read and write latencies.

    p50 is taken over all samples.  p99 is the median of the p99s of
    ``TAIL_PARTS`` consecutive parts of the timed phase (fewer when a
    part would hold under 1000 samples), so that one burst of
    interference from other tenants moves one part, not the metric.
    """
    metrics, lines = {}, []
    for label, kinds in (("read", READ_KINDS), ("write", WRITE_KINDS)):
        ordered = [
            ns for kind in kinds for ns in workload.samples.get(kind, ())
        ]
        samples = sorted(ordered)
        raw = sorted(
            ns for kind in kinds for ns in workload.raw_samples.get(kind, ())
        )
        names = "+".join(k for k in kinds if workload.samples.get(k))
        if not samples:
            raise RuntimeError(f"no {label} samples on {workload.name}")
        n = len(samples)
        p50 = percentile(samples, 0.5)
        parts = max(1, min(TAIL_PARTS, n // 1000))
        size = n // parts
        p99 = statistics.median(
            percentile(sorted(ordered[i * size:(i + 1) * size]), 0.99)
            for i in range(parts)
        )
        metrics[f"{label}_p50_us"] = p50
        metrics[f"{label}_p99_us"] = p99
        lines.append(
            f"{label}_p50_us ({names} latency)  {p50:.3f} us  n={n}, "
            f"{n - math.ceil(0.5 * n)} beyond; raw wall clock "
            f"{percentile(raw, 0.5):.3f} us"
        )
        lines.append(
            f"{label}_p99_us ({names} latency)  {p99:.3f} us  median of "
            f"{parts} parts of n={size}, {size - math.ceil(0.99 * size)} "
            f"beyond each; pooled p99 {percentile(samples, 0.99):.3f} us, "
            f"raw wall clock {percentile(raw, 0.99):.3f} us"
        )
    return metrics, lines


def timed(args) -> dict:
    import counters
    from refclock import RefClock
    from workloads import WORKLOADS

    out_lines = []
    problems = []
    ref = run_reference_child(args)
    clock = RefClock()
    setups = [ref["setup_s"]]
    raw_setups = [ref["raw_setup_s"]]
    spare = WORKLOADS[args.workload](args.seed)
    spare.setup(clock)
    setups.append(spare.setup_s)
    raw_setups.append(spare.raw_setup_s)
    del spare
    workload = fresh(args, WORKLOADS, clock)
    setups.append(workload.setup_s)
    raw_setups.append(workload.raw_setup_s)

    snapshot = counters.Snapshot(workload.db)
    window = {}

    def close_window():
        window.update(counters.delta(snapshot, workload))

    gc.collect()
    workload.play(clock, workload.window_calls, args.seconds,
                  (workload.window_calls, close_window))
    attempted = workload.warmup_ops + workload.ops
    attempted += workload.audit(AUDIT_KEYS)

    mismatch = counters.mismatches(window, ref["counters"])
    if mismatch:
        problems.append(
            "determinism: counters differ from the reference process: "
            + ", ".join(f"{k}={window.get(k)!r} vs "
                        f"{ref['counters'].get(k)!r}" for k in mismatch[:6])
        )
    problems.extend("reference process: " + e for e in ref["errors"])
    problems.extend(workload.errors)

    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": workload.ops / (workload.busy_ns / 1e9),
    }
    lat, lat_lines = latency_metrics(workload)
    metrics.update(lat)
    metrics["cost_units_per_op"] = window["cost_units"] / window["ops"]
    metrics["index_bytes_per_key"] = window["index_bytes_per_key"]
    units = {
        "setup_s": "s", "throughput_ops_s": "ops/s",
        "cost_units_per_op": "units", "index_bytes_per_key": "B/key",
    }
    out_lines.append(
        f"setup_s  {metrics['setup_s']:.4f} s  (median of "
        + ", ".join(f"{s:.3f}" for s in setups) + "; raw wall clock "
        + ", ".join(f"{s:.3f}" for s in raw_setups) + ")"
    )
    out_lines.append(
        f"throughput_ops_s  {metrics['throughput_ops_s']:.1f} ops/s  "
        f"({workload.ops} ops in {workload.calls} calls, "
        f"{workload.busy_ns / 1e9:.3f} s in calls; raw wall clock "
        f"{workload.ops / (workload.raw_busy_ns / 1e9):.1f} ops/s)"
    )
    factors = sorted(clock.factors)
    out_lines.append(
        f"reference clock  {len(factors)} segments, scale factor "
        f"median {statistics.median(factors):.3f}, range "
        f"{factors[0]:.3f}-{factors[-1]:.3f}"
    )
    out_lines.extend(lat_lines)
    out_lines.append(
        f"cost_units_per_op  {metrics['cost_units_per_op']:.4f} units  "
        f"(first {window['calls']} calls, {window['ops']} ops)"
    )
    out_lines.append(
        f"index_bytes_per_key  {metrics['index_bytes_per_key']:.3f} B/key  "
        f"(mean of {len(workload.bytes_per_key)} samples over the window; "
        f"{window['index_bytes']} B / {window['live_rows']} rows at its end)"
    )
    failed = workload.warmup_failed + workload.failed_ops
    out_lines.append(
        f"error_rate  {failed / attempted:.6f} fraction  "
        f"({failed} of {attempted} ops, audit included)"
    )
    out_lines.append(
        "determinism  " + ("ok" if not mismatch else "MISMATCH")
        + f"  ({len(window)} exact counters vs the reference process)"
    )
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "us")}
            for name, value in metrics.items()
        },
        "lines": out_lines,
        "problems": problems,
    }


def traced(args) -> dict:
    import counters
    import spans
    from refclock import RefClock
    from workloads import WORKLOADS, routers

    problems = []
    clock = RefClock()
    # Three arms over the same window, interleaved segment by segment so
    # that they see the same machine: accounting on, accounting off, and
    # traced (accounting on).
    on = fresh(args, WORKLOADS, clock)
    off = fresh(args, WORKLOADS, clock, accounting=False)
    workload = fresh(args, WORKLOADS, clock)
    recorder = spans.SpanRecorder(workload.db)
    workload.tracer = recorder
    arms = (on, off, workload)
    snapshots = [counters.Snapshot(arm.db) for arm in arms]
    gc.collect()
    while any(arm.calls < arm.window_calls for arm in arms):
        for arm in arms:
            if arm.calls < arm.window_calls:
                arm.segment(clock, stop_at=arm.window_calls)
    on_window, off_window, window = (
        counters.delta(snapshot, arm) for snapshot, arm in zip(snapshots, arms)
    )
    for arm in arms:
        problems.extend(arm.errors)
    mismatch = counters.mismatches(window, on_window)
    if mismatch:
        problems.append(
            "determinism: traced counters differ from the untraced "
            "arm: " + ", ".join(mismatch[:8])
        )
    stats = recorder.analyse()
    if stats.max_residual_ns:
        problems.append(
            f"span self times miss their op total by up to "
            f"{stats.max_residual_ns} ns"
        )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}.jsonl"
    written = recorder.write_jsonl(trace_path)

    ops = window["ops"]
    calls = workload.calls
    gets = len(workload.samples.get("get", ()))
    scans = len(workload.samples.get("scan", ()))
    row_writes = sum(workload.kind_ops.get(kind, 0) for kind in WRITE_KINDS)
    us = 1000.0

    def per(value, n):
        return value / n if n else 0.0

    counts = recorder.counts
    commits = stats.calls["db.commit"]
    appends = window.get("cost.log_append", 0)
    fsyncs = window.get("cost.log_fsync", 0)
    hits = window["cache.row_hits"] + window["cache.desc_hits"]
    lookups = window["cache.row_hits"] + window["cache.row_misses"]
    matched = (
        off_window["results"] == on_window["results"]
        and off_window["index_bytes"] == on_window["index_bytes"]
        and all(off_window.get(k) == on_window.get(k)
                for k in on_window if k.endswith(".assignment"))
    )
    ledger_share = 1.0 - off.busy_ns / on.busy_ns if matched else 0.0
    routes = counts["route.point_hot"] + counts["route.point_cold"]

    m = {
        "db.self_us_per_op": per(stats.self_of("db.") / us, ops),
        "db.commit_us_per_batch": per(stats.incl_of("db.commit") / us,
                                      commits),
        "cluster.self_us_per_get": per(stats.self_of("cluster.") / us, gets),
        "cluster.hot_route_share": per(counts["route.point_hot"], routes),
        "cluster.index_writes_per_row": per(counts["index_writes"],
                                            row_writes),
        "cluster.score_rounds": stats.calls["cluster.score_round"],
        "engine.router_self_us_per_op": per(
            stats.self_of("engine.router.") / us, ops),
        "engine.shards_per_scan": per(
            stats.by_root[("db.scan", "index.scan")], scans),
        "engine.scan_spill_share": per(stats.multi_shard_scans, scans),
        "engine.arbiter_tick_us_per_op": per(
            stats.incl_of("engine.arbiter.") / us, ops),
        "engine.arbiter_rebalances": window.get("arbiter.rebalances", 0),
        "cache.hit_rate": per(hits, lookups),
        "cache.answer_share": per(window["cache.row_hits"], gets),
        "cache.probe_us_per_get": per(stats.incl_of("cache.probe") / us,
                                      gets),
        "cache.evictions_per_kop": per(
            1000 * (window["cache.row_evictions"]
                    + window["cache.desc_evictions"]), ops),
        "index.self_us_per_op": per(stats.self_of("index.") / us, ops),
        "elastic.conversions_per_kop": per(
            1000 * window["elastic.conversions"], ops),
        "elastic.conversion_cost_share": per(
            window["elastic.conversion_cost_units"], window["cost_units"]),
        "leaf.compact_fraction": per(window["leaf.compact"],
                                     window["leaf.leaves"]),
        "leaf.learned_fraction": per(window["leaf.learned"],
                                     window["leaf.leaves"]),
        "table.fetch_us_per_op": per(stats.incl_of("table.row") / us, ops),
        "table.rows_per_scan": per(
            stats.by_root[("db.scan", "table.row")], scans),
        "wal.append_us_per_row": per(stats.incl_of("wal.append") / us,
                                     appends),
        "wal.group_commit_us_per_batch": per(
            stats.incl_of("wal.group_commit") / us,
            stats.calls["wal.group_commit"]),
        "wal.rows_per_fsync": per(appends, fsyncs),
        "tuning.probes": window.get("tuning.probes", 0),
        "tuning.actions": window.get("tuning.actions", 0),
        "tuning.op_share": per(recorder.advisor_calls, calls),
        "memory.charge_calls_per_op": per(counts["charge_calls"], ops),
        "memory.ledger_share": ledger_share,
        "memory.ledger_share_available": 1 if matched else 0,
    }
    for category in COST_CATEGORIES:
        m[f"memory.cost.{category}_per_op"] = per(
            window.get("cost." + category, 0), ops)
    m["trace.overhead_ratio"] = per(workload.busy_ns, on.busy_ns)
    m["trace.self_time_residual_ns"] = stats.max_residual_ns
    m["trace.spans_per_op"] = per(len(recorder.spans), ops)

    lines = [f"traced window: {calls} calls, {ops} ops, {written} spans "
             f"-> {trace_path.relative_to(HERE.parent)}"]
    layers = stats.layer_self_ns()
    total = stats.root_ns
    for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  layer {layer:<8} self {ns / us / ops:9.3f} us/op  "
                     f"{100.0 * ns / total:5.1f}%")
    lines.append(
        f"  layer self times sum to {sum(layers.values()):.0f} ns of "
        f"{total:.0f} ns op time (max per-op residual "
        f"{stats.max_residual_ns} ns)"
    )
    if not matched:
        lines.append(
            "  memory.ledger_share unavailable: with accounting off the "
            "results, index bytes or router assignment differ"
        )
    for name, value in m.items():
        lines.append(f"{name}  {value:.6g} {PER_LAYER_UNITS[name]}")
    lines.append(f"tuning_summary:\n{_tuning_summary(workload.db)}")
    lines.append(
        "determinism  " + ("ok" if not mismatch else "MISMATCH")
        + f"  ({len(window)} exact counters, traced vs untraced arm)"
    )
    for router in routers(workload.db):
        lines.append(f"router assignment {router.assignment()}")
    return {
        "correct": not problems,
        "attempted": sum(arm.warmup_ops + arm.ops for arm in arms),
        "failed": sum(arm.warmup_failed + arm.failed_ops for arm in arms),
        "metrics": {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in m.items()
        },
        "lines": lines,
        "problems": problems,
    }


def _tuning_summary(db) -> str:
    from repro.tools import tuning_summary

    return tuning_summary(db)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under src/: {exc}",
              file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.reference:
        return reference(args)
    result = traced(args) if args.trace else timed(args)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in result.pop("lines"):
        print("  " + line)
    for problem in result.pop("problems"):
        print("  PROBLEM: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Figures 6a-c: YCSB load and transaction throughput (section 6.2).

Single-threaded YCSB with a load phase of uniformly distributed 64-bit
keys and a transaction phase per core workload; request keys uniform or
zipfian.  ElasticXX starts shrinking after XX% of the loaded items have
been inserted.  Workloads B, C, D behave like each other and are omitted
from the paper's plots; the driver accepts any subset.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.bench.harness import (
    ExperimentResult,
    estimate_stx_bytes_per_key,
    make_u64_environment,
    measure,
)
from repro.workloads.ycsb import YCSB_CORE, YCSBRunner

DEFAULT_INDEXES = (
    "stx",
    "elastic90",
    "elastic75",
    "elastic66",
    "stx-seqtree",
    "hot",
)


def _make_env(name: str, load_n: int, bytes_per_key: float):
    if name.startswith("elastic"):
        percent = int(name[len("elastic") :])
        threshold_bytes = bytes_per_key * load_n * percent / 100.0
        return make_u64_environment(
            "elastic", size_bound_bytes=int(threshold_bytes / 0.9)
        )
    if name == "stx-seqtree":
        return make_u64_environment("stx-seqtree", capacity=128, breathing=4)
    return make_u64_environment(name)


def run(
    load_n: int = 15_000,
    txn_n: int = 30_000,
    workloads: Sequence[str] = ("A", "E", "F"),
    distributions: Sequence[str] = ("uniform", "zipfian"),
    indexes: Sequence[str] = DEFAULT_INDEXES,
    scan_max: int = 100,
    seed: int = 6,
    batch_size: Optional[int] = None,
    events_dir: Optional[str] = None,
) -> ExperimentResult:
    """YCSB load throughput, txn throughput, and load-phase memory.

    With ``batch_size`` set, both phases execute through the batched
    mode (``YCSBRunner.load(batch_size=...)`` / ``run_batched``): same
    operation stream, amortized descents.

    With ``events_dir`` set, observability is enabled for the whole
    experiment and the captured elasticity/batch events and Prometheus
    metrics snapshot are dumped into that directory as
    ``fig6_events.jsonl`` / ``fig6_metrics.prom``.
    """
    bytes_per_key = estimate_stx_bytes_per_key()
    observer = None
    was_enabled = obs.is_enabled()
    if events_dir is not None:
        obs.set_enabled(True)
        observer = obs.Observer()
    experiment_id = "fig6" if batch_size is None else f"fig6-batch{batch_size}"
    result = ExperimentResult(
        experiment_id,
        "YCSB throughput (load phase; txn phase per workload)"
        + (f" — batched execution, batch={batch_size}" if batch_size else ""),
        x_label="panel",
    )
    # Panels: 0 = load, then one per (workload, distribution).
    panels: List[str] = ["load"]
    for dist in distributions:
        for workload in workloads:
            panels.append(f"{workload}/{dist}")
    result.xs = list(range(len(panels)))
    for i, panel in enumerate(panels):
        result.add_row(f"panel {i}", panel)

    memory_after_load: Dict[str, int] = {}
    for name in indexes:
        ys: List[float] = []
        load_tput = None
        for dist in ["__load__"] + [
            f"{w}|{d}" for d in distributions for w in workloads
        ]:
            env = _make_env(name, load_n, bytes_per_key)
            spec_dist = dist
            if dist == "__load__":
                runner = YCSBRunner(
                    env.index, env.table, YCSB_CORE["C"], seed=seed
                )
                m = measure(
                    env.cost,
                    load_n,
                    lambda: runner.load(load_n, batch_size=batch_size),
                )
                load_tput = m.throughput
                memory_after_load[name] = env.index.index_bytes
                ys.append(m.throughput)
                continue
            workload, request_dist = spec_dist.split("|")
            spec = YCSB_CORE[workload]
            if workload == "E":
                spec = type(spec)(
                    spec.name, spec.read, spec.update, spec.insert,
                    spec.scan, spec.rmw, scan_max,
                )
            runner = YCSBRunner(
                env.index, env.table, spec, request_dist=request_dist,
                seed=seed,
            )
            runner.load(load_n)
            ops = txn_n if workload != "E" else txn_n // 4
            if batch_size is None:
                m = measure(env.cost, ops, lambda: runner.run(ops))
            else:
                m = measure(
                    env.cost,
                    ops,
                    lambda: runner.run_batched(ops, batch_size=batch_size),
                )
            ys.append(m.throughput)
        result.add_series(name, ys)

    stx_mem = memory_after_load.get("stx")
    if stx_mem:
        for name in indexes:
            result.add_row(
                f"memory[{name}] / memory[stx] (Figure 7a)",
                f"{memory_after_load[name] / stx_mem:.3f}",
            )
    if observer is not None:
        os.makedirs(events_dir, exist_ok=True)
        observer.write_event_log(
            os.path.join(events_dir, f"{experiment_id}_events.jsonl")
        )
        with open(
            os.path.join(events_dir, f"{experiment_id}_metrics.prom"),
            "w", encoding="utf-8",
        ) as fh:
            fh.write(observer.metrics_snapshot())
        result.add_row(
            "events",
            f"{len(observer.events)} captured -> {events_dir}",
        )
        observer.close()
        obs.set_enabled(was_enabled)
    return result

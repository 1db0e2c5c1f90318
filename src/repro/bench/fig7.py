"""Figure 7: YCSB memory (7a) and multi-threaded scaling (7b-c).

7a is produced by :mod:`repro.bench.fig6` (memory rows).  7b-c compare
BTreeOLC, BTreeOLC-SeqTree, and HOT under the OLC discrete-event
simulator (see :mod:`repro.concurrency`): 7b is the read-only workload C
transaction phase; 7c is the insert (load) phase.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.bench.harness import ExperimentResult, make_u64_environment
from repro.concurrency.olc import OLCSimulator, record_ops
from repro.workloads.distributions import ScrambledZipfianGenerator

DEFAULT_THREADS = (1, 2, 4, 8, 16, 32, 48, 64, 80)
INDEXES = ("stx", "stx-seqtree", "hot")
LABELS = {
    "stx": "BTreeOLC",
    "stx-seqtree": "BTreeOLC-SeqTree",
    "hot": "HOT",
}


def _make_env(name: str):
    if name == "stx-seqtree":
        return make_u64_environment("stx-seqtree", capacity=128, breathing=4)
    return make_u64_environment(name)


def run(
    load_n: int = 8_000,
    op_n: int = 4_000,
    threads: Sequence[int] = DEFAULT_THREADS,
    seed: int = 7,
) -> ExperimentResult:
    """Simulated scaling curves for reads (7b) and inserts (7c)."""
    result = ExperimentResult(
        "fig7bc",
        "Multi-threaded scaling under simulated OLC",
        x_label="threads",
    )
    result.xs = list(threads)
    sim = OLCSimulator()
    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), load_n + op_n)

    for name in INDEXES:
        label = LABELS[name]
        # --- reads (workload C, zipfian requests) -------------------
        env = _make_env(name)
        inserted_keys: List[bytes] = []
        for value in values[:load_n]:
            tid = env.table.insert_row(value)
            key = env.table.peek_key(tid)
            env.index.insert(key, tid)
            inserted_keys.append(key)
        zipf = ScrambledZipfianGenerator(load_n, seed=seed ^ 1)
        read_ops = []
        for _ in range(op_n):
            key = inserted_keys[zipf.next()]
            read_ops.append(lambda k=key: env.index.lookup(k))
        read_records = record_ops(env.index, read_ops, env.cost)
        read_curve = [sim.run(read_records, t).throughput for t in threads]
        result.add_series(f"read[{label}]", read_curve)

        # --- inserts (load phase) ------------------------------------
        env2 = _make_env(name)
        for value in values[:load_n]:
            tid = env2.table.insert_row(value)
            env2.index.insert(env2.table.peek_key(tid), tid)
        insert_ops = []
        for value in values[load_n:]:
            tid = env2.table.insert_row(value)
            key = env2.table.peek_key(tid)
            insert_ops.append(lambda k=key, t=tid: env2.index.insert(k, t))
        insert_records = record_ops(env2.index, insert_ops, env2.cost)
        insert_curve = [sim.run(insert_records, t).throughput for t in threads]
        result.add_series(f"insert[{label}]", insert_curve)

    result.add_row(
        "paper 7b", "near-linear read scaling; HOT best, then BTreeOLC, "
        "then BTreeOLC-SeqTree"
    )
    result.add_row(
        "paper 7c", "BTreeOLC scales best: 2.5x HOT and 1.66x "
        "BTreeOLC-SeqTree at 80 threads"
    )
    return result

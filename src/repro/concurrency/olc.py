"""Discrete-event simulator of Optimistic Lock Coupling execution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.memory.cost_model import CostModel

#: Shared memory bandwidth, in cache lines per cost unit, across the
#: whole machine.  One core streams ~4 lines/unit (a unit is one DRAM
#: latency); the socket sustains ~90 lines/unit — so ~24 cores' worth of
#: pure streaming saturates it, which is what bends the copy-heavy
#: curves (HOT compound rewrites, SeqTree shifts) past ~16-24 threads.
DEFAULT_BANDWIDTH_LINES_PER_UNIT = 90.0


@dataclass
class OpRecord:
    """One operation's resource profile, captured from a serial run."""

    cost_units: float
    lines: float
    read_set: Tuple[int, ...]
    write_set: Tuple[int, ...]


@dataclass
class ScalingResult:
    """Outcome of simulating one thread count."""

    threads: int
    ops: int
    makespan_units: float
    retries: int

    @property
    def throughput(self) -> float:
        """Operations per cost unit (relative scale)."""
        if self.makespan_units <= 0:
            return 0.0
        return self.ops / self.makespan_units


@dataclass
class MixedScalingResult(ScalingResult):
    """Outcome of a mixed reader/writer simulation (:meth:`OLCSimulator.
    run_mixed`).

    Extends the read-only result with the write side's durability
    accounting: writers serialize their commit records on one log-append
    clock and fsync in groups, so ``log_wait_units`` (time writers spent
    queued behind the log) and ``group_commits`` (fsync barriers
    charged) quantify how group commit trades commit latency for
    barrier amortization under concurrency.
    """

    reader_ops: int = 0
    writer_ops: int = 0
    group_commits: int = 0
    log_wait_units: float = 0.0


def record_ops(
    index,
    operations: Iterable[Callable[[], None]],
    cost_model: CostModel,
) -> List[OpRecord]:
    """Execute ``operations`` serially on the real ``index``, recording
    each one's cost, line volume, and read/write node sets.

    ``index`` must expose ``trace`` (visited node ids) and
    ``last_write_set`` — both the B+-tree family and the HOT model do.
    """
    records: List[OpRecord] = []
    for op in operations:
        index.trace = []
        if hasattr(index, "last_write_set"):
            index.last_write_set = []
        with cost_model.measure() as delta:
            op()
        counts = delta.counts
        lines = (
            counts.get("rand_line", 0)
            + counts.get("seq_line", 0)
            + counts.get("copy_line", 0) * 2  # copies read and write
            + counts.get("key_load", 0)
            + counts.get("key_load_batched", 0)
        )
        records.append(
            OpRecord(
                cost_units=delta.weighted_cost(),
                lines=float(lines),
                read_set=tuple(index.trace),
                write_set=tuple(getattr(index, "last_write_set", ())),
            )
        )
    index.trace = None
    return records


class OLCSimulator:
    """Replays recorded operations on T virtual threads."""

    def __init__(
        self,
        bandwidth_lines_per_unit: float = DEFAULT_BANDWIDTH_LINES_PER_UNIT,
        max_retries: int = 3,
    ) -> None:
        self.bandwidth = bandwidth_lines_per_unit
        self.max_retries = max_retries

    def run(self, records: Sequence[OpRecord], threads: int) -> ScalingResult:
        """Simulate ``records`` distributed over ``threads`` workers."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        thread_free = [0.0] * threads
        bw_clock = 0.0
        retries = 0
        # Per-node recent write intervals (pruned as time advances).
        write_intervals: Dict[int, List[Tuple[float, float, int]]] = {}
        makespan = 0.0
        for i, record in enumerate(records):
            worker = min(range(threads), key=thread_free.__getitem__)
            start = thread_free[worker]
            duration = record.cost_units
            # Shared-bandwidth service: copies/misses queue on the
            # memory system once aggregate demand exceeds its capacity.
            if record.lines > 0 and self.bandwidth > 0:
                bw_start = max(start, bw_clock)
                bw_time = record.lines / self.bandwidth
                bw_clock = bw_start + bw_time
                end = max(start + duration, bw_clock)
            else:
                end = start + duration
            # OLC conflict detection: any traversed or written node with
            # a concurrent write by another worker forces a restart.
            attempt = 0
            touched = record.read_set + record.write_set
            while attempt < self.max_retries:
                conflict = False
                for node in touched:
                    for (ws, we, owner) in write_intervals.get(node, ()):
                        if owner != worker and ws < end and we > start:
                            conflict = True
                            break
                    if conflict:
                        break
                if not conflict:
                    break
                retries += 1
                attempt += 1
                end += record.cost_units  # redo the work
            for node in record.write_set:
                bucket = write_intervals.setdefault(node, [])
                bucket.append((start, end, worker))
                if len(bucket) > 8:
                    del bucket[: len(bucket) - 8]
            thread_free[worker] = end
            if end > makespan:
                makespan = end
            # Periodically prune stale intervals to bound memory.
            if i % 4096 == 4095:
                horizon = min(thread_free)
                for node in list(write_intervals):
                    kept = [iv for iv in write_intervals[node] if iv[1] >= horizon]
                    if kept:
                        write_intervals[node] = kept
                    else:
                        del write_intervals[node]
        return ScalingResult(
            threads=threads,
            ops=len(records),
            makespan_units=makespan,
            retries=retries,
        )

    def run_mixed(
        self,
        records: Sequence[OpRecord],
        threads: int,
        group_size: int = 1,
        append_units: Optional[float] = None,
        fsync_units: Optional[float] = None,
    ) -> MixedScalingResult:
        """Simulate a mixed reader/writer recording with a shared WAL.

        Ops with a non-empty ``write_set`` are writers: besides the OLC
        conflict rules of :meth:`run`, each one appends a commit record
        to a single log whose tail is a serial resource (the append
        clock), paying ``append_units`` there.  Every ``group_size``-th
        append closes a commit group and additionally pays
        ``fsync_units`` on the log clock — the group-commit barrier —
        and a final partial group, if any, is flushed at the end of the
        simulation.  Readers never touch the log.

        ``append_units`` / ``fsync_units`` default to the
        ``log_append`` / ``log_fsync`` weights of a fresh
        :class:`~repro.memory.cost_model.CostModel`, so the simulator
        prices durability exactly like the real write path.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        weights = CostModel().weights
        if append_units is None:
            append_units = weights.log_append
        if fsync_units is None:
            fsync_units = weights.log_fsync
        thread_free = [0.0] * threads
        bw_clock = 0.0
        log_clock = 0.0
        retries = 0
        reader_ops = 0
        writer_ops = 0
        group_commits = 0
        log_wait = 0.0
        pending_in_group = 0
        write_intervals: Dict[int, List[Tuple[float, float, int]]] = {}
        makespan = 0.0
        for i, record in enumerate(records):
            worker = min(range(threads), key=thread_free.__getitem__)
            start = thread_free[worker]
            duration = record.cost_units
            if record.lines > 0 and self.bandwidth > 0:
                bw_start = max(start, bw_clock)
                bw_time = record.lines / self.bandwidth
                bw_clock = bw_start + bw_time
                end = max(start + duration, bw_clock)
            else:
                end = start + duration
            attempt = 0
            touched = record.read_set + record.write_set
            while attempt < self.max_retries:
                conflict = False
                for node in touched:
                    for (ws, we, owner) in write_intervals.get(node, ()):
                        if owner != worker and ws < end and we > start:
                            conflict = True
                            break
                    if conflict:
                        break
                if not conflict:
                    break
                retries += 1
                attempt += 1
                end += record.cost_units  # redo the work
            if record.write_set:
                writer_ops += 1
                # Serialize on the log tail: the commit record cannot
                # land before both the writer and the log are free.
                log_start = max(end, log_clock)
                log_wait += log_start - end
                log_clock = log_start + append_units
                pending_in_group += 1
                if pending_in_group >= group_size:
                    log_clock += fsync_units
                    group_commits += 1
                    pending_in_group = 0
                end = log_clock
            else:
                reader_ops += 1
            for node in record.write_set:
                bucket = write_intervals.setdefault(node, [])
                bucket.append((start, end, worker))
                if len(bucket) > 8:
                    del bucket[: len(bucket) - 8]
            thread_free[worker] = end
            if end > makespan:
                makespan = end
            if i % 4096 == 4095:
                horizon = min(thread_free)
                for node in list(write_intervals):
                    kept = [iv for iv in write_intervals[node] if iv[1] >= horizon]
                    if kept:
                        write_intervals[node] = kept
                    else:
                        del write_intervals[node]
        if pending_in_group:
            # Flush the trailing partial group (checkpoint barrier).
            log_clock += fsync_units
            group_commits += 1
            if log_clock > makespan:
                makespan = log_clock
        return MixedScalingResult(
            threads=threads,
            ops=len(records),
            makespan_units=makespan,
            retries=retries,
            reader_ops=reader_ops,
            writer_ops=writer_ops,
            group_commits=group_commits,
            log_wait_units=log_wait,
        )

    def sweep(
        self, records: Sequence[OpRecord], thread_counts: Iterable[int]
    ) -> List[ScalingResult]:
        """Simulate several thread counts over the same recording."""
        return [self.run(records, t) for t in thread_counts]

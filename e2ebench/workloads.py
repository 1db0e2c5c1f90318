"""The benchmark's three workloads over the public ``repro.api`` surface.

Each workload builds one :class:`~repro.api.Database` from rows it
generates from the seed, then plays a seeded stream of client calls
against it as a closed loop: one client, one thread, each call waits
for its result.  A reference model (a dict plus a sorted key list where
scans need one) is updated outside the timed call and checks every
result the database returns.

The program only ever sees the generated rows and keys; the generators
(uniform, scrambled zipfian) live here so that a change to the
program's own workload module cannot change the benchmark's inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from typing import Dict, List, Optional, Tuple

from refclock import SEGMENT_NS, RefClock
from repro.api import (
    Database,
    ReplicaConfig,
    ReplicaSet,
    RowSchema,
    ShardedIndex,
    WalConfig,
    preset_profile,
)

_NS = time.perf_counter_ns
#: Rows per ``insert_batch`` call while loading.
_LOAD_CHUNK = 1000


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv64(value: int) -> int:
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class ScrambledZipf:
    """YCSB's scrambled zipfian over ``[0, n)`` (Gray et al., theta 0.99):
    zipf ranks are spread over the item space by an FNV hash, so the
    popular items are scattered rather than clustered."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99):
        self.n = n
        self.rng = rng
        self.theta = theta
        zeta_n = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta_2 = 1.0 + 1.0 / (2 ** theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.zeta_n = zeta_n
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta_2 / zeta_n)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)
        return _fnv64(rank) % self.n


def distinct_ids(rng: random.Random, n: int) -> List[int]:
    """``n`` distinct uniform 64-bit ids, in generation order."""
    seen = set()
    out = []
    while len(out) < n:
        value = rng.getrandbits(64)
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


_STX_RATE: Dict[int, float] = {}


def stx_bytes_per_key(sample: int = 8000) -> float:
    """Bytes per key of the STX-style baseline on uniform 64-bit ids,
    measured through the public surface once per process; the elastic
    bounds below are expressed as fractions of it."""
    if sample not in _STX_RATE:
        rng = random.Random("stx-calibration")
        db = Database()
        table = db.create_table(RowSchema("calib", ("id", "v"), (8, 8)))
        table.create_index("by_id", ("id",), kind="stx")
        table.insert_batch([(i, 0) for i in distinct_ids(rng, sample)])
        _STX_RATE[sample] = table.memory_report()["index_bytes_total"] / sample
    return _STX_RATE[sample]


# ----------------------------------------------------------------------
# Structure walks (public attributes only)
# ----------------------------------------------------------------------
def index_trees(db: Database, include_parked: bool = False):
    """Every per-shard / per-replica tree behind the database's indexes."""
    for dbtable in db.tables.values():
        for secondary in dbtable.indexes.values():
            if secondary.parked and not include_parked:
                continue
            yield from _trees_of(secondary.index)


def _trees_of(index):
    if isinstance(index, ReplicaSet):
        for replica in index.replicas:
            yield from _trees_of(replica.index)
    elif isinstance(index, ShardedIndex):
        for shard in index.shards:
            yield shard.index
    else:
        yield index


def routers(db: Database):
    for dbtable in db.tables.values():
        for secondary in dbtable.indexes.values():
            if isinstance(secondary.index, ReplicaSet):
                yield secondary.index.router


# ----------------------------------------------------------------------
# The client loop
# ----------------------------------------------------------------------
class OpFailure(Exception):
    """A call returned a result the reference model disagrees with."""


class Workload:
    """One built database, its reference model and its call stream.

    Subclasses implement :meth:`generate`, :meth:`create` and
    :meth:`loaded` (inputs, empty database, reference model),
    :meth:`next_call`, and a ``call_<kind>`` / ``check_<kind>`` pair per
    call kind (the timed call; its oracle check and reference update).
    """

    name = ""
    #: Untimed calls between load and the timed phase, so that caches
    #: fill and the elastic structure settles from its load transient.
    warmup_calls = 0
    #: Calls in the deterministic window at the start of the timed
    #: phase: exact counts are taken over it and must repeat for a seed.
    window_calls = 0
    #: Index-size samples taken, evenly spaced, over the window.
    size_samples = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}:calls")
        self.errors: List[str] = []
        self.failed_ops = 0
        #: Ops and failed ops of the warm-up (checked, not measured).
        self.warmup_ops = 0
        self.warmup_failed = 0
        #: Span recorder of a traced run (None = untraced).
        self.tracer = None
        self.db: Optional[Database] = None
        self.setup_s = 0.0
        self.raw_setup_s = 0.0
        self._reset_measurements()

    def _reset_measurements(self) -> None:
        #: Latency samples (ns) per call kind.
        self.samples: Dict[str, List[int]] = {}
        #: Database ops per call kind (a batch counts each staged row).
        self.kind_ops: Dict[str, int] = {}
        #: The same samples unscaled (wall-clock ns as measured).
        self.raw_samples: Dict[str, List[int]] = {}
        self.ops = 0
        self.calls = 0
        #: Time inside calls: scaled by the reference clock, and raw.
        self.busy_ns = 0.0
        self.raw_busy_ns = 0
        #: Hash of every result returned, in call order.
        self.digest = hashlib.blake2b(digest_size=16)
        #: Index bytes per live row, sampled over the window.
        self.bytes_per_key: List[float] = []

    # -- hooks -----------------------------------------------------------
    def generate(self) -> None:
        """Make ``load_rows`` and any other inputs (not set-up time)."""
        raise NotImplementedError

    def create(self) -> None:
        """Create the database, its table and indexes (empty)."""
        raise NotImplementedError

    def loaded(self, tids: List[int]) -> None:
        """Initialise the reference model from the loaded rows."""
        raise NotImplementedError

    def next_call(self) -> Tuple:
        raise NotImplementedError

    # -- client loop -----------------------------------------------------
    def setup(self, clock: RefClock) -> float:
        """Create and load the database; returns set-up seconds scaled by
        ``clock`` (a probe follows every load chunk)."""
        self.generate()
        rows = self.load_rows
        tids: List[int] = []
        total = raw = 0.0
        start = _NS()
        self.create()
        for lo in range(0, len(rows), _LOAD_CHUNK):
            tids.extend(self.table.insert_batch(rows[lo:lo + _LOAD_CHUNK]))
            elapsed = _NS() - start
            raw += elapsed
            total += elapsed * clock.close_segment()
            start = _NS()
        self.setup_s = total / 1e9
        self.raw_setup_s = raw / 1e9
        self.loaded(tids)
        return self.setup_s

    def warm_up(self, clock: RefClock) -> None:
        """Run the warm-up calls, then start measuring from zero."""
        self.play(clock, self.warmup_calls)
        self.warmup_ops = self.ops
        self.warmup_failed = self.failed_ops
        self.failed_ops = 0
        self._reset_measurements()

    def segment(self, clock: RefClock, stop_at: Optional[int] = None,
                checkpoint=None) -> float:
        """Run client calls for about ``SEGMENT_NS`` of wall time, then
        close the segment with a ``clock`` probe that rescales its
        latencies.  Stops early right after call number ``stop_at``.  A
        ``checkpoint`` ``(n, fn)`` runs ``fn()`` right after call number
        ``n``; returns the seconds it took."""
        samples = self.samples
        marks = {kind: len(v) for kind, v in samples.items()}
        busy = self.raw_busy_ns
        first_op = self.calls
        paused = 0.0
        stop = _NS() + SEGMENT_NS
        while _NS() < stop:
            self.step()
            if checkpoint is not None and self.calls == checkpoint[0]:
                start = time.perf_counter()
                checkpoint[1]()
                paused += time.perf_counter() - start
            if self.calls == stop_at:
                break
        factor = clock.close_segment()
        for kind, values in samples.items():
            for i in range(marks.get(kind, 0), len(values)):
                values[i] *= factor
        self.busy_ns += (self.raw_busy_ns - busy) * factor
        if self.tracer is not None:
            self.tracer.scale_ops(first_op, factor)
        return paused

    def play(self, clock: RefClock, calls: int, seconds: float = 0.0,
             checkpoint=None) -> None:
        """Run segments until at least ``calls`` calls and ``seconds`` of
        wall time (checkpoint time excluded); with ``seconds=0`` exactly
        ``calls`` calls."""
        deadline = time.perf_counter() + seconds
        stop_at = None if seconds else calls
        while self.calls < calls or time.perf_counter() < deadline:
            deadline += self.segment(clock, stop_at, checkpoint)

    def step(self) -> None:
        """Generate, time, check and account one client call."""
        call = self.next_call()
        kind = call[0]
        run = getattr(self, "call_" + kind)
        check = getattr(self, "check_" + kind)
        ops = self.ops_of(call)
        self.kind_ops[kind] = self.kind_ops.get(kind, 0) + ops
        self.calls += 1
        self.ops += ops
        tracer = self.tracer
        if tracer is not None:
            tracer.sync()
        t0 = _NS()
        try:
            if tracer is None:
                result = run(call)
            else:
                result = tracer.top("db." + kind, run, call)
        except Exception as exc:  # a raising call is a failed op
            self.raw_busy_ns += _NS() - t0
            self._fail(ops, f"{kind} raised {type(exc).__name__}: {exc}")
            return
        elapsed = _NS() - t0
        self.raw_busy_ns += elapsed
        self.samples.setdefault(kind, []).append(elapsed)
        self.raw_samples.setdefault(kind, []).append(elapsed)
        if tracer is not None:
            tracer.after_call()
        self.digest.update(repr(result).encode())
        try:
            check(call, result)
        except OpFailure as exc:
            self._fail(ops, f"{kind}: {exc}")
        every = self.window_calls // self.size_samples
        if self.calls <= self.window_calls and self.calls % every == 0:
            report = self.table.memory_report()
            self.bytes_per_key.append(
                report["index_bytes_total"] / len(self.table)
            )

    @staticmethod
    def ops_of(call: Tuple) -> int:
        """Database ops in one call: a batch counts each staged row."""
        if call[0] == "batch":
            return len(call[1]) + len(call[2])
        return 1

    def _fail(self, ops: int, message: str) -> None:
        self.failed_ops += ops
        if len(self.errors) < 5:
            self.errors.append(message)


def _expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise OpFailure(f"{what}: got {actual!r}, expected {expected!r}")


class _KeyedRows(Workload):
    """Shared reference model: id -> row and id -> tid for live rows."""

    def loaded(self, tids: List[int]) -> None:
        rows = self.load_rows
        self.ref: Dict[int, Tuple] = {row[0]: row for row in rows}
        self.tid_of: Dict[int, int] = {
            row[0]: tid for row, tid in zip(rows, tids)
        }
        self.live_tids = set(tids)
        self.live_ids: List[int] = [row[0] for row in rows]
        self.slot_of: Dict[int, int] = {
            key: i for i, key in enumerate(self.live_ids)
        }

    def _fresh_id(self) -> int:
        while True:
            value = self.rng.getrandbits(64)
            if value not in self.ref:
                return value

    def _add_live(self, row: Tuple, tid: int) -> None:
        if tid in self.live_tids:
            raise OpFailure(f"tid {tid} returned for a new row is live")
        self.ref[row[0]] = row
        self.tid_of[row[0]] = tid
        self.live_tids.add(tid)
        self.slot_of[row[0]] = len(self.live_ids)
        self.live_ids.append(row[0])

    def _drop_live(self, key: int) -> None:
        del self.ref[key]
        self.live_tids.discard(self.tid_of.pop(key))
        slot = self.slot_of.pop(key)
        last = self.live_ids.pop()
        if last != key:
            self.live_ids[slot] = last
            self.slot_of[last] = slot

    # -- calls shared by the workloads ------------------------------------
    def call_get(self, call):
        return self.table.get("by_id", (call[1],))

    def check_get(self, call, result) -> None:
        _expect(result, self.ref.get(call[1]), f"get {call[1]}")

    def call_insert(self, call):
        return self.table.insert(call[1])

    def check_insert(self, call, result) -> None:
        if not isinstance(result, int):
            raise OpFailure(f"insert returned {result!r}, not a tid")
        self._add_live(call[1], result)

    def batch_call(self, rows: List[Tuple], deletes: int) -> Tuple:
        """A ``batch`` call: insert ``rows``, delete ``deletes`` random
        live rows, in one committed WriteBatch."""
        doomed = self.rng.sample(self.live_ids, deletes)
        tids = tuple(self.tid_of[key] for key in doomed)
        return ("batch", tuple(rows), tuple(doomed), tids)

    def call_batch(self, call):
        table = self.table
        batch = self.db.begin_batch()
        for row in call[1]:
            batch.insert(table, row)
        for tid in call[3]:
            batch.delete(table, tid)
        tids = batch.commit()
        return tids, batch.deleted_rows

    def check_batch(self, call, result) -> None:
        tids, deleted = result
        _expect(deleted, [self.ref[key] for key in call[2]], "batch deletes")
        if len(tids) != len(call[1]) or len(set(tids)) != len(tids):
            raise OpFailure(f"batch returned tids {tids!r}")
        # Add before dropping: a new tid must not collide with any row
        # that was live when the batch ran, the deleted ones included.
        for row, tid in zip(call[1], tids):
            self._add_live(row, tid)
        for key in call[2]:
            self._drop_live(key)

    def audit(self, limit: int) -> int:
        """Untimed re-read of up to ``limit`` random live rows through
        ``get`` plus a row-count check; returns the ops checked
        (mismatches count as failed ops)."""
        rng = random.Random(f"{self.name}:{self.seed}:audit")
        keys = self.live_ids
        sample = rng.sample(keys, min(limit, len(keys)))
        for key in sample:
            row = self.table.get("by_id", (key,))
            if row != self.ref[key]:
                self._fail(1, f"audit get {key}: got {row!r}")
        if len(self.table) != len(self.ref):
            self._fail(1, f"audit: table holds {len(self.table)} rows, "
                          f"reference {len(self.ref)}")
        return len(sample) + 1


# ----------------------------------------------------------------------
# Workload 1: replicated point reads under zipf skew
# ----------------------------------------------------------------------
class PointZipfReplicated(_KeyedRows):
    """95% zipf gets / 5% fresh inserts through the replicated cluster:
    two divergent replicas (lattice, cache) of 2 hash shards each, under
    one cluster bound of half the STX footprint of both copies, with
    the budget arbiter on."""

    name = "point_zipf_replicated"
    rows = 50_000
    warmup_calls = 10_000
    window_calls = 20_000
    insert_share = 0.05

    def generate(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:rows")
        ids = distinct_ids(rng, self.rows)
        self.load_rows = [(key, rng.getrandbits(63)) for key in ids]
        self.loaded_ids = ids
        self.zipf = ScrambledZipf(self.rows, self.rng)
        self.bound = int(0.5 * stx_bytes_per_key() * self.rows * 2)

    def create(self) -> None:
        db = Database()
        table = db.create_table(RowSchema("kv", ("id", "v"), (8, 8)))
        db.enable_budget_arbiter(self.bound)
        table.create_index(
            "by_id", ("id",), kind="elastic", shards=2,
            replicas=ReplicaConfig(
                replicas=2,
                profiles=(preset_profile("lattice"), preset_profile("cache")),
                total_bound_bytes=self.bound,
            ),
        )
        self.db, self.table = db, table

    def next_call(self) -> Tuple:
        if self.rng.random() < self.insert_share:
            return ("insert", (self._fresh_id(), self.rng.getrandbits(63)))
        return ("get", self.loaded_ids[self.zipf.next()])


# ----------------------------------------------------------------------
# Workload 2: range scans over the 3-kind lattice, range-sharded
# ----------------------------------------------------------------------
class ScanRangeLattice(_KeyedRows):
    """Scans from uniform start keys over 4 range shards of an elastic
    3-kind lattice at half the STX footprint; no cache, arbiter or WAL.
    A 5% share of one-insert-one-delete WriteBatches (so the row count
    stays put) gives the write-latency metrics a sample on this
    workload too."""

    name = "scan_range_lattice"
    rows = 50_000
    warmup_calls = 1_000
    window_calls = 8_000
    write_share = 0.05
    counts = (16, 32, 64)

    def generate(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:rows")
        ids = distinct_ids(rng, self.rows)
        self.load_rows = [(key, rng.getrandbits(63)) for key in ids]
        self.bound = int(0.5 * stx_bytes_per_key() * self.rows)

    def create(self) -> None:
        db = Database()
        table = db.create_table(RowSchema("kv", ("id", "v"), (8, 8)))
        table.create_index(
            "by_id", ("id",), kind="elastic", size_bound_bytes=self.bound,
            shards=4, partitioner="range",
            leaf_kinds=("standard", "compact", "learned"),
        )
        self.db, self.table = db, table

    def loaded(self, tids: List[int]) -> None:
        super().loaded(tids)
        self.sorted_ids = sorted(self.ref)

    def next_call(self) -> Tuple:
        rng = self.rng
        if rng.random() < self.write_share:
            row = (self._fresh_id(), rng.getrandbits(63))
            return self.batch_call([row], 1)
        return ("scan", rng.getrandbits(64), rng.choice(self.counts))

    def call_scan(self, call):
        return self.table.scan("by_id", (call[1],), count=call[2])

    def check_scan(self, call, result) -> None:
        ids = self.sorted_ids
        lo = bisect.bisect_left(ids, call[1])
        expected = [self.ref[key] for key in ids[lo:lo + call[2]]]
        _expect(result, expected, f"scan {call[1]}+{call[2]}")

    def check_batch(self, call, result) -> None:
        super().check_batch(call, result)
        ids = self.sorted_ids
        for row in call[1]:
            bisect.insort(ids, row[0])
        for key in call[2]:
            del ids[bisect.bisect_left(ids, key)]


# ----------------------------------------------------------------------
# Workload 3: durable batched ingest under the self-tuning advisor
# ----------------------------------------------------------------------
class IngestWalSelftune(_KeyedRows):
    """Each step commits one WriteBatch of 32 inserts + 32 deletes of
    random live rows through a 2-stream group-committed WAL, then runs 24
    uniform gets on ``by_id``.  ``by_ts`` is written but never read, so
    the self-tuning advisor may park it.

    The advisor runs once per arbiter interval (4096 ops), so it runs
    during about 64 / 4096 = 1.6% of the batches and ``write_p99_us``
    lands inside its spikes.  Batches of 8 + 8 would put it in 0.4% of
    them, and p99 on the knee between those spikes and host preemptions,
    where it spreads by a third from run to run.  The first get after a
    batch runs about 1.5x slower than the rest; 24 gets a step keep it to
    a small share of the gets, so ``read_p99_us`` does not hinge on it."""

    name = "ingest_wal_selftune"
    rows = 20_000
    warmup_calls = 10_250
    window_calls = 5_200
    batch_inserts = 32
    batch_deletes = 32
    gets_per_step = 24

    def generate(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:rows")
        ids = distinct_ids(rng, self.rows)
        self.load_rows = [(key, ts) for ts, key in enumerate(ids)]
        self.next_ts = self.rows
        stx = stx_bytes_per_key() * self.rows
        self.bound_id = int(0.4 * stx)
        self.bound_ts = int(0.4 * stx)
        self._phase = 0

    def create(self) -> None:
        db = Database(wal=WalConfig(group_size=64, shards=2))
        table = db.create_table(RowSchema("events", ("id", "ts"), (8, 8)))
        db.enable_budget_arbiter(self.bound_id + self.bound_ts)
        table.create_index(
            "by_id", ("id",), kind="elastic",
            size_bound_bytes=self.bound_id, shards=2,
        )
        table.create_index(
            "by_ts", ("ts",), kind="elastic", size_bound_bytes=self.bound_ts,
        )
        db.enable_self_tuning()
        self.db, self.table = db, table

    def next_call(self) -> Tuple:
        phase = self._phase
        self._phase = (phase + 1) % (1 + self.gets_per_step)
        rng = self.rng
        if phase:
            return ("get", rng.choice(self.live_ids))
        rows = []
        for _ in range(self.batch_inserts):
            rows.append((self._fresh_id(), self.next_ts))
            self.next_ts += 1
        return self.batch_call(rows, self.batch_deletes)


WORKLOADS = {
    cls.name: cls
    for cls in (PointZipfReplicated, ScanRangeLattice, IngestWalSelftune)
}

"""Span tracing from outside the program.

:class:`SpanRecorder` wraps public methods on the instances a workload
built — one span per call into a layer, kept in memory as
``(name, start_ns, end_ns, parent, op)`` and written out as JSON lines
when the run ends.  Nothing under ``src/`` knows it is being traced;
the wrappers sit on instance attributes, so the class code is shared
with untraced runs unchanged.

Layers are the first dotted component of a span name:

* ``db`` — the client call itself (``db.get``, ``db.batch``, ...) and
  ``WriteBatch.commit`` (``db.commit``);
* ``cluster`` — ``ReplicaSet`` calls and ``ClusterRouter.tick`` /
  ``score_round``;
* ``engine`` — ``ShardedIndex`` routing (``engine.router.*``) and
  ``BudgetArbiter.tick`` (``engine.arbiter.tick``; the self-tuning
  advisor runs inside it);
* ``index`` — per-shard / per-replica tree calls (descent, leaf kinds
  and elasticity work all run inside them);
* ``cache`` — ``IndexCache`` probes and admissions;
* ``table`` — ``Table.row`` fetches;
* ``wal`` — ``WriteAheadLog.append`` / ``group_commit``.

The cost ledger gets a counting-only wrapper on ``db.cost.charge``:
timing each charge would cost more than the charge itself.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Dict, List

from repro.api import ReplicaSet, ShardedIndex

_NS = time.perf_counter_ns

#: The OrderedIndex surface shared by ReplicaSet, ShardedIndex and trees.
_INDEX_METHODS = ("lookup", "insert", "remove", "scan",
                  "insert_sorted_batch", "lookup_batch", "scan_batch")
_CACHE_METHODS = ("probe_row", "probe_leaf", "admit_row", "admit_leaf")


class SpanRecorder:
    """In-memory span log plus the instrumentation that feeds it."""

    def __init__(self, db) -> None:
        self.db = db
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        #: Reference-clock scale factor per op (see :mod:`refclock`).
        self.op_scale: List[float] = []
        #: Calls during which the self-tuning advisor ticked.
        self.advisor_calls = 0
        self._advisor_ticks = self._ticks()
        self._seen: Dict[int, object] = {}
        self._indexes: Dict[tuple, int] = {}
        self._instrument_db(db)
        self.sync()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def top(self, name: str, fn, *args):
        """Run one client call as a new op's root span."""
        self.op += 1
        self.op_scale.append(1.0)
        return self._span(name, fn, args, {})

    def scale_ops(self, first: int, factor: float) -> None:
        """Set the scale factor of ops ``first`` onwards."""
        scale = self.op_scale
        for op in range(first, len(scale)):
            scale[op] = factor

    def _ticks(self) -> int:
        advisor = self.db.advisor
        return advisor.stats.ticks if advisor is not None else 0

    def after_call(self) -> None:
        ticks = self._ticks()
        if ticks != self._advisor_ticks:
            self._advisor_ticks = ticks
            self.advisor_calls += 1

    def _span(self, name, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = _NS()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _NS()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, obj, method: str, name: str) -> None:
        fn = getattr(obj, method)
        span = self._span

        def traced(*args, **kwargs):
            return span(name, fn, args, kwargs)

        setattr(obj, method, traced)

    def _count(self, obj, method: str, key: str, weight=None) -> None:
        """Count calls (or ``weight(args)`` units) without a span."""
        fn = getattr(obj, method)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1 if weight is None else weight(args)
            return fn(*args, **kwargs)

        setattr(obj, method, counted)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _once(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def _instrument_db(self, db) -> None:
        self._count(db.cost, "charge", "charge_calls")
        begin = db.begin_batch
        wrap = self._wrap

        def begin_batch():
            batch = begin()
            wrap(batch, "commit", "db.commit")
            return batch

        db.begin_batch = begin_batch
        if db.arbiter is not None:
            self._wrap(db.arbiter, "tick", "engine.arbiter.tick")
        if db.wal is not None:
            self._wrap(db.wal, "append", "wal.append")
            self._wrap(db.wal, "group_commit", "wal.group_commit")
        for dbtable in db.tables.values():
            self._wrap(dbtable.table, "row", "table.row")

    def sync(self) -> None:
        """Instrument any index the program swapped in since the last
        call (the self-tuning advisor rebuilds, parks and unparks)."""
        for dbtable in self.db.tables.values():
            for name, secondary in dbtable.indexes.items():
                key = (dbtable.schema.name, name)
                if self._indexes.get(key) != id(secondary.index):
                    self._indexes[key] = id(secondary.index)
                    self._instrument_index(secondary.index)

    def _instrument_index(self, index) -> None:
        if not self._once(index):
            return
        if isinstance(index, ReplicaSet):
            for method in _INDEX_METHODS:
                self._wrap(index, method, "cluster." + method)
            router = index.router
            self._wrap(router, "tick", "cluster.tick")
            self._wrap(router, "score_round", "cluster.score_round")
            classify = router.classify_point
            counts = self.counts

            def classify_point(key):
                cls = classify(key)
                counts["route." + cls] += 1
                return cls

            router.classify_point = classify_point
            for replica in index.replicas:
                self._instrument_index(replica.index)
            return
        if isinstance(index, ShardedIndex):
            for method in _INDEX_METHODS:
                self._wrap(index, method, "engine.router." + method)
            for shard in index.shards:
                self._instrument_index(shard.index)
            return
        self._count(index, "insert_sorted_batch", "index_writes",
                    weight=lambda args: len(args[0]))
        self._count(index, "insert", "index_writes")
        self._count(index, "remove", "index_writes")
        for method in _INDEX_METHODS:
            self._wrap(index, method, "index." + method)
        cache = getattr(index, "cache", None)
        if cache is not None and self._once(cache):
            for method in _CACHE_METHODS:
                self._wrap(cache, method, "cache." + method)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyse(self) -> "SpanStats":
        return SpanStats(self.spans, self.op_scale)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns lines."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                span = {
                    "op": op, "span": i, "parent": parent, "name": name,
                    "start_ns": start - base, "end_ns": end - base,
                }
                if parent < 0:
                    span["scale"] = self.op_scale[op]
                out.write(json.dumps(span) + "\n")
        return len(self.spans)


class SpanStats:
    """Self and inclusive times per span name, from one span log.

    A span's self time is its duration minus the part of it that its
    child spans cover (the union of their intervals, clipped to the
    parent).  Summed over an op's spans, self times equal the root
    span's duration; :attr:`max_residual_ns` is the largest departure
    from that over all ops (in raw ns), and is 0 when every span nests
    properly.  Times are accumulated scaled by each op's reference-clock
    factor.
    """

    def __init__(self, spans: List[tuple], op_scale: List[float]) -> None:
        children: Dict[int, List[int]] = defaultdict(list)
        roots: List[int] = []
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent < 0:
                roots.append(i)
            else:
                children[parent].append(i)
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: (root span name, span name) -> spans of that name under roots
        #: of that name.
        self.by_root: Counter = Counter()
        #: Root spans whose op touched >= 2 ``index.scan`` spans.
        self.multi_shard_scans = 0
        self.root_ns = 0
        self.max_residual_ns = 0
        self.ops = len(roots)
        for root in roots:
            root_name, r_start, r_end = spans[root][:3]
            scale = op_scale[spans[root][4]]
            self.root_ns += (r_end - r_start) * scale
            total_self = 0
            stack = [root]
            index_scans = 0
            while stack:
                i = stack.pop()
                name, start, end = spans[i][:3]
                kids = children.get(i, ())
                covered = _covered(
                    [(spans[k][1], spans[k][2]) for k in kids], start, end
                )
                own = end - start - covered
                total_self += own
                self.self_ns[name] += own * scale
                self.incl_ns[name] += (end - start) * scale
                self.calls[name] += 1
                self.by_root[(root_name, name)] += 1
                if name == "index.scan":
                    index_scans += 1
                stack.extend(kids)
            if index_scans >= 2:
                self.multi_shard_scans += 1
            residual = abs((r_end - r_start) - total_self)
            self.max_residual_ns = max(self.max_residual_ns, residual)

    def layer_self_ns(self) -> Dict[str, int]:
        layers: Counter = Counter()
        for name, ns in self.self_ns.items():
            layers[name.split(".", 1)[0]] += ns
        return dict(layers)

    def self_of(self, prefix: str) -> int:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.startswith(prefix))

    def incl_of(self, prefix: str) -> int:
        return sum(ns for name, ns in self.incl_ns.items()
                   if name.startswith(prefix))


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total

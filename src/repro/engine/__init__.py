"""repro.engine — the sharded storage engine.

Three layers between the database facade and the elastic index family:

* **router** (:class:`~repro.engine.router.ShardedIndex`): hash- or
  range-partitions one logical index across N shards and
  scatter/gathers point, batch, and scan operations, presenting the
  ordinary :class:`~repro.baselines.interface.OrderedIndex` surface.
* **shard** (:class:`~repro.engine.shard.IndexShard`): one index
  instance with its own tracking allocator — and, for elastic indexes,
  its own :class:`~repro.memory.budget.MemoryBudget`.
* **arbiter** (:class:`~repro.engine.arbiter.BudgetArbiter`): owns the
  single global soft bound and periodically reapportions it across all
  registered shards of all tables by occupancy and pressure state,
  replacing the static at-creation ``Database.split_budget`` carve-up.

A fourth layer decides *how* a scatter executes:

* **executor** (:class:`~repro.engine.executor.ShardExecutor`): the
  scatter/gather backend behind the router.  The serial backend is
  byte-identical to visiting shards in a loop; the parallel backend
  dispatches per-shard sub-batches over a thread pool and charges
  critical-path cost, with deterministic retry/hedging/degradation
  driven by a :class:`~repro.engine.faults.FaultPlan`.

With one shard, no arbiter, and the serial executor the engine is
byte-identical to the unsharded index it wraps; the layers add
behaviour only when asked to.
"""

from repro.engine.arbiter import ArbiterStats, BudgetArbiter, largest_remainder
from repro.engine.executor import (
    ExecutorStats,
    ParallelShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    ShardTask,
    make_executor,
)
from repro.engine.faults import FaultPlan
from repro.engine.partition import (
    HashPartitioner,
    PARTITIONERS,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.engine.router import (
    ShardedIndex,
    build_engine_index,
    build_sharded_index,
)
from repro.engine.shard import IndexShard

__all__ = [
    "ArbiterStats",
    "BudgetArbiter",
    "ExecutorStats",
    "FaultPlan",
    "HashPartitioner",
    "IndexShard",
    "PARTITIONERS",
    "ParallelShardExecutor",
    "Partitioner",
    "RangePartitioner",
    "SerialShardExecutor",
    "ShardExecutor",
    "ShardTask",
    "ShardedIndex",
    "build_engine_index",
    "build_sharded_index",
    "largest_remainder",
    "make_executor",
    "make_partitioner",
]

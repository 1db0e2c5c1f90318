"""Exact counters read from the program's public state.

A :class:`Snapshot` taken at the start of a window plus :func:`delta`
at its end give the window's cost-ledger counts and the cache,
elasticity, arbiter and tuning counters.  They are pure functions of
the seed and the call stream, so two runs with the same seed must
produce identical dicts; a mismatch means hidden nondeterminism in the
program.
"""

from __future__ import annotations

from typing import Dict, List

from workloads import index_trees, routers

_CACHE_FIELDS = (
    "row_hits", "row_misses", "desc_hits", "desc_misses",
    "row_evictions", "desc_evictions",
)
_CONVERSION_FIELDS = (
    "conversions_to_compact", "conversions_to_learned", "conversions_other",
    "reversions_to_standard",
)


def _cache_tuple(cache) -> tuple:
    stats = cache.stats
    return tuple(getattr(stats, f) for f in _CACHE_FIELDS)


def _controller_tuple(controller) -> tuple:
    stats = controller.stats
    return tuple(getattr(stats, f) for f in _CONVERSION_FIELDS) + (
        stats.conversion_cost_units,
    )


def _components(db):
    caches, controllers = [], []
    for tree in index_trees(db, include_parked=True):
        cache = getattr(tree, "cache", None)
        if cache is not None:
            caches.append(cache)
        controller = getattr(tree, "controller", None)
        if controller is not None:
            controllers.append(controller)
    return caches, controllers


def leaf_census(db) -> Dict[str, int]:
    """Leaf counts by kind across every live (unparked) elastic tree."""
    census = {"leaves": 0, "compact": 0, "learned": 0}
    for tree in index_trees(db):
        if not hasattr(tree, "stats"):
            continue
        stats = tree.stats()
        census["leaves"] += stats.leaf_count
        census["compact"] += stats.compact_leaf_count
        census["learned"] += stats.learned_leaf_count
    return census


class Snapshot:
    """Counter state at the start of a window (objects kept by
    reference, so components the advisor replaces mid-window still
    contribute their own deltas)."""

    def __init__(self, db) -> None:
        self.db = db
        self.cost = dict(db.cost.counts)
        caches, controllers = _components(db)
        self.caches = {id(c): (c, _cache_tuple(c)) for c in caches}
        self.controllers = {
            id(c): (c, _controller_tuple(c)) for c in controllers
        }
        arbiter = db.arbiter
        self.arbiter = (
            (arbiter.stats.evaluations, arbiter.stats.rebalances,
             arbiter.stats.cache_resizes) if arbiter else (0, 0, 0)
        )
        advisor = db.advisor
        self.advisor = (
            (advisor.stats.ticks, advisor.stats.candidates_scored,
             advisor.stats.actions_applied) if advisor else (0, 0, 0)
        )
        self.census = leaf_census(db)


def _sum_deltas(before: Dict, now: List, read) -> List:
    """Per-field sum of (current - start) over components present at the
    start or now; components new in the window start from zero."""
    objects = {key: obj for key, (obj, _) in before.items()}
    objects.update({id(obj): obj for obj in now})
    total = None
    for key, obj in objects.items():
        current = read(obj)
        start = before[key][1] if key in before else (0,) * len(current)
        diff = [c - s for c, s in zip(current, start)]
        total = diff if total is None else [t + d for t, d in zip(total, diff)]
    return total or []


def delta(snapshot: Snapshot, workload) -> Dict[str, object]:
    """The window's exact counters, flat and JSON-serialisable."""
    db = snapshot.db
    out: Dict[str, object] = {}
    counts = db.cost.counts
    for category in sorted(set(counts) | set(snapshot.cost)):
        diff = counts.get(category, 0) - snapshot.cost.get(category, 0)
        if diff:
            out["cost." + category] = diff
    weights = db.cost.weights.as_dict()
    weighted = 0.0
    for category in sorted(set(counts) | set(snapshot.cost)):
        diff = counts.get(category, 0) - snapshot.cost.get(category, 0)
        if category == "fixed_op_milli":
            weighted += weights["fixed_op"] * diff / 1000.0
        else:
            weighted += weights.get(category, 0.0) * diff
    out["cost_units"] = weighted
    caches, controllers = _components(db)
    cache = _sum_deltas(snapshot.caches, caches, _cache_tuple)
    for name, value in zip(_CACHE_FIELDS, cache or [0] * len(_CACHE_FIELDS)):
        out["cache." + name] = value
    conv = _sum_deltas(snapshot.controllers, controllers, _controller_tuple)
    conv = conv or [0] * (len(_CONVERSION_FIELDS) + 1)
    out["elastic.conversions"] = sum(conv[:-1])
    out["elastic.conversion_cost_units"] = conv[-1]
    arbiter = db.arbiter
    if arbiter is not None:
        now = (arbiter.stats.evaluations, arbiter.stats.rebalances,
               arbiter.stats.cache_resizes)
        for name, a, b in zip(("evaluations", "rebalances", "cache_resizes"),
                              now, snapshot.arbiter):
            out["arbiter." + name] = a - b
    advisor = db.advisor
    if advisor is not None:
        now = (advisor.stats.ticks, advisor.stats.candidates_scored,
               advisor.stats.actions_applied)
        for name, a, b in zip(("ticks", "probes", "actions"),
                              now, snapshot.advisor):
            out["tuning." + name] = a - b
    for i, router in enumerate(routers(db)):
        assignment = sorted(router.assignment().items())
        out[f"router{i}.assignment"] = repr(assignment)
    for name, value in snapshot.census.items():
        out["leaf." + name] = value
    report = workload.table.memory_report()
    out["index_bytes"] = report["index_bytes_total"]
    samples = workload.bytes_per_key
    out["index_bytes_per_key"] = sum(samples) / len(samples)
    out["live_rows"] = len(workload.table)
    out["ops"] = workload.ops
    out["calls"] = workload.calls
    out["failed_ops"] = workload.failed_ops
    out["results"] = workload.digest.hexdigest()
    return out


def mismatches(a: Dict, b: Dict) -> List[str]:
    """Keys whose values differ between two counter dicts."""
    keys = sorted(set(a) | set(b))
    return [k for k in keys if a.get(k) != b.get(k)]

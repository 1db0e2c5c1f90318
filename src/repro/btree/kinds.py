"""Pluggable leaf-kind registry: conversion targets as first-class names.

The paper's elasticity is a two-point dial: full or compact leaves.
This module turns leaf representations into registered *kinds*: each
kind supplies construction hooks, and the tree / elasticity / cache /
stats layers dispatch on :attr:`~repro.btree.leaves.LeafNode.kind` plus
the registered :class:`LeafKindSpec` instead of probing concrete
classes.  New representations (gapped leaves, hash leaves, ...) become
one :func:`register_leaf_kind` call plus a ``leaf_kinds`` selection on
:class:`~repro.core.config.ElasticConfig` — no edits to the conversion
machinery.

The built-in kinds mirror the three-point elastic frontier:

* ``"standard"`` — :class:`~repro.btree.leaves.StandardLeaf`, inline
  keys, fastest scans, largest footprint.
* ``"compact"`` — :class:`~repro.blindi.leaf.CompactLeaf`, blind-trie
  payload + indirect keys, smallest footprint.
* ``"learned"`` — :class:`~repro.learned.leaf.LearnedLeaf`,
  piecewise-linear models + indirect keys, between the two on space and
  cheapest per point probe on distributions the models fit.

Hooks receive a :class:`LeafKindContext` (host tree, backing table,
elastic config) so registrations stay closures over nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import LeafKindError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.btree.leaves import LeafNode
    from repro.btree.tree import BPlusTree
    from repro.core.config import ElasticConfig
    from repro.table.table import Table

#: (key, tuple id) pairs in key order, the conversion interchange format.
Items = List[Tuple[bytes, int]]


@dataclass
class LeafKindContext:
    """Everything a kind's hooks may need to build a leaf.

    ``config`` is the elastic configuration when the build happens under
    an elasticity controller (hooks then honour its representation
    knobs and set the k+1 elastic underflow invariant), or ``None`` for
    static trees.
    """

    tree: "BPlusTree"
    table: Optional["Table"] = None
    config: Optional["ElasticConfig"] = None

    def require_table(self, kind: str) -> "Table":
        if self.table is None:
            raise LeafKindError(
                f"leaf kind {kind!r} stores keys indirectly and needs a "
                "backing table, but the host tree has none"
            )
        return self.table


@dataclass(frozen=True)
class LeafKindSpec:
    """One registered leaf kind.

    ``from_sorted(ctx, items, capacity)`` builds a leaf over sorted
    items (``capacity=None`` means the kind's default for the host
    tree); ``build(ctx)`` makes an empty leaf; ``convert(ctx, leaf,
    capacity)`` rebuilds an existing leaf of any kind as this kind
    (the default materializes ``keys_and_tids`` — charging the source
    kind's key loads — and rebuilds).  ``size_for(ctx, capacity)`` is
    an optional byte estimate for capacity planning.  ``cache_rows``
    marks kinds whose verify loads the adaptive row cache can
    short-circuit (indirect-key kinds); ``cache_supported`` gates
    attaching a :class:`~repro.cache.CacheConfig` at all.
    """

    name: str
    from_sorted: Callable[[LeafKindContext, Items, Optional[int]], "LeafNode"]
    build: Callable[[LeafKindContext], "LeafNode"]
    convert: Callable[
        [LeafKindContext, "LeafNode", Optional[int]], "LeafNode"
    ]
    size_for: Optional[Callable[[LeafKindContext, int], int]] = None
    cache_rows: bool = False
    cache_supported: bool = True


class LeafKindRegistry:
    """Name -> :class:`LeafKindSpec` mapping with typed errors."""

    def __init__(self) -> None:
        self._kinds: Dict[str, LeafKindSpec] = {}

    def register(
        self,
        name: str,
        *,
        from_sorted: Callable[
            [LeafKindContext, Items, Optional[int]], "LeafNode"
        ],
        build: Optional[Callable[[LeafKindContext], "LeafNode"]] = None,
        convert: Optional[
            Callable[[LeafKindContext, "LeafNode", Optional[int]], "LeafNode"]
        ] = None,
        size_for: Optional[Callable[[LeafKindContext, int], int]] = None,
        cache_rows: bool = False,
        cache_supported: bool = True,
        replace: bool = False,
    ) -> LeafKindSpec:
        """Register ``name``; returns the spec.

        Raises:
            LeafKindError: on a duplicate name without ``replace=True``
                or an invalid name.
        """
        if not name or not isinstance(name, str):
            raise LeafKindError(f"invalid leaf kind name {name!r}")
        if name in self._kinds and not replace:
            raise LeafKindError(
                f"leaf kind {name!r} is already registered "
                "(pass replace=True to override)"
            )
        if build is None:
            def build(ctx: LeafKindContext) -> "LeafNode":
                return from_sorted(ctx, [], None)
        if convert is None:
            def convert(
                ctx: LeafKindContext,
                leaf: "LeafNode",
                capacity: Optional[int] = None,
            ) -> "LeafNode":
                keys, tids = leaf.keys_and_tids()
                return from_sorted(ctx, list(zip(keys, tids)), capacity)
        spec = LeafKindSpec(
            name=name,
            from_sorted=from_sorted,
            build=build,
            convert=convert,
            size_for=size_for,
            cache_rows=cache_rows,
            cache_supported=cache_supported,
        )
        self._kinds[name] = spec
        return spec

    def get(self, name: str) -> LeafKindSpec:
        try:
            return self._kinds[name]
        except KeyError:
            raise LeafKindError(
                f"unknown leaf kind {name!r}; registered kinds: "
                f"{', '.join(sorted(self._kinds)) or '(none)'}"
            ) from None

    def unregister(self, name: str) -> None:
        """Remove ``name`` (third-party kinds in tests/plugins)."""
        if name not in self._kinds:
            raise LeafKindError(f"unknown leaf kind {name!r}")
        del self._kinds[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._kinds))

    def __contains__(self, name: str) -> bool:
        return name in self._kinds


#: The process-wide registry the elastic machinery resolves against.
DEFAULT_REGISTRY = LeafKindRegistry()


def register_leaf_kind(name: str, **kwargs) -> LeafKindSpec:
    """Register a leaf kind on the default registry (see
    :meth:`LeafKindRegistry.register`)."""
    return DEFAULT_REGISTRY.register(name, **kwargs)


def unregister_leaf_kind(name: str) -> None:
    """Remove a kind from the default registry."""
    DEFAULT_REGISTRY.unregister(name)


def leaf_kind(name: str) -> LeafKindSpec:
    """Resolve ``name`` on the default registry.

    Raises:
        LeafKindError: if no such kind is registered.
    """
    return DEFAULT_REGISTRY.get(name)


def available_leaf_kinds() -> Tuple[str, ...]:
    """Sorted names of every registered kind."""
    return DEFAULT_REGISTRY.names()


# ----------------------------------------------------------------------
# Built-in kinds.  Hook bodies import lazily so this module stays free
# of cycles with the tree/representation modules.
# ----------------------------------------------------------------------
def _standard_from_sorted(
    ctx: LeafKindContext, items: Items, capacity: Optional[int] = None
) -> "LeafNode":
    # Standard leaves are fixed at the host tree's leaf capacity; the
    # elastic capacity ladder only applies to converted kinds.
    return ctx.tree.make_standard_leaf(items)


def _standard_size_for(ctx: LeafKindContext, capacity: int) -> int:
    from repro.btree.leaves import LEAF_HEADER_BYTES, TID_BYTES

    return LEAF_HEADER_BYTES + capacity * (ctx.tree.key_width + TID_BYTES)


def _elastic_capacity(ctx: LeafKindContext, capacity: Optional[int]) -> int:
    if capacity is not None:
        return capacity
    return 2 * ctx.tree.leaf_capacity


def _compact_from_sorted(
    ctx: LeafKindContext, items: Items, capacity: Optional[int] = None
) -> "LeafNode":
    from repro.blindi.leaf import CompactLeaf
    from repro.blindi.seqtree import SeqTreeRep

    config = ctx.config
    leaf = CompactLeaf(
        _elastic_capacity(ctx, capacity),
        ctx.require_table("compact"),
        ctx.tree.allocator,
        ctx.tree.cost,
        key_width=ctx.tree.key_width,
        rep_cls=config.rep_cls if config is not None else SeqTreeRep,
        rep_kwargs=config.rep_kwargs() if config is not None else None,
        breathing_slack=(
            config.breathing_slack if config is not None else None
        ),
        items=items or None,
    )
    if config is not None:
        leaf.elastic_underflow = True
    return leaf


def _compact_size_for(ctx: LeafKindContext, capacity: int) -> int:
    from repro.blindi.breathing import TID_BYTES
    from repro.blindi.leaf import COMPACT_HEADER_BYTES
    from repro.blindi.seqtree import SeqTreeRep

    config = ctx.config
    rep_cls = config.rep_cls if config is not None else SeqTreeRep
    rep_kwargs = config.rep_kwargs() if config is not None else {}
    rep = rep_cls(
        ctx.require_table("compact"), ctx.tree.key_width, **rep_kwargs
    )
    return (
        COMPACT_HEADER_BYTES
        + rep.payload_bytes(capacity)
        + capacity * TID_BYTES
    )


def _learned_from_sorted(
    ctx: LeafKindContext, items: Items, capacity: Optional[int] = None
) -> "LeafNode":
    from repro.learned.leaf import LearnedLeaf

    config = ctx.config
    leaf = LearnedLeaf(
        _elastic_capacity(ctx, capacity),
        ctx.require_table("learned"),
        ctx.tree.allocator,
        ctx.tree.cost,
        key_width=ctx.tree.key_width,
        epsilon=config.learned_epsilon if config is not None else 8,
        breathing_slack=(
            config.breathing_slack if config is not None else None
        ),
        items=items or None,
    )
    if config is not None:
        leaf.elastic_underflow = True
    return leaf


def _learned_size_for(ctx: LeafKindContext, capacity: int) -> int:
    from repro.blindi.breathing import TID_BYTES
    from repro.learned.leaf import LEARNED_HEADER_BYTES

    return LEARNED_HEADER_BYTES + capacity * TID_BYTES


register_leaf_kind(
    "standard",
    from_sorted=_standard_from_sorted,
    size_for=_standard_size_for,
    cache_rows=False,
)
register_leaf_kind(
    "compact",
    from_sorted=_compact_from_sorted,
    size_for=_compact_size_for,
    cache_rows=True,
)
register_leaf_kind(
    "learned",
    from_sorted=_learned_from_sorted,
    size_for=_learned_size_for,
    cache_rows=True,
)

"""Configuration of the elastic B+-tree (paper sections 4-6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.blindi.seqtrie import SeqTrieRep
from repro.blindi.seqtree import SeqTreeRep
from repro.errors import LeafKindError


@dataclass
class ElasticConfig:
    """Parameters of the elasticity algorithm and compact representation.

    Defaults follow the paper's evaluated configuration (section 6.1):
    SeqTree with tree level 2, compact leaves capped at 128 keys,
    breathing parameter 4, shrink trigger at 90% of the soft bound.

    Attributes:
        size_bound_bytes: Soft bound on index size (section 4).
        shrink_trigger_fraction: Enter the shrinking state when index
            size reaches this fraction of the bound.
        expand_trigger_fraction: Leave shrinking for expansion when index
            size drops below this fraction (hysteresis).
        max_compact_capacity: Cap on the converted-leaf capacity ladder
            ("starting from a capacity of 16 keys and capping it at 128
            works well"); shared by compact and learned leaves.
        rep_cls: Compact representation class (SeqTree by default; any
            class with the SeqTrie interface works — the framework's
            first parameter).
        seqtree_levels: BlindiTree levels for SeqTree leaves.
        breathing_slack: Breathing parameter ``s`` (section 5.4); ``None``
            disables breathing.
        expand_split_probability: In the expanding state, probability
            that a search terminating at a converted leaf splits it back
            down the capacity ladder (section 4, "Expansion").
        rng_seed: Seed for the expansion-split coin flips, so experiments
            are reproducible.
        leaf_kinds: The conversion targets this tree may use, resolved
            against :mod:`repro.btree.kinds`.  The default two-point
            selection reproduces the paper exactly; adding
            ``"learned"`` enables the three-point frontier (DESIGN.md
            §11).  Must include ``"standard"``.
        learned_epsilon: Probe-window bound ε of learned leaves: every
            probe of a stored key lands within ε positions of the
            model's prediction (>= 2; see ``repro.learned``).
        learned_hot_threshold: Accesses a leaf must have absorbed for a
            shrink conversion to prefer the learned representation over
            compact (read-heavy leaves keep point-probe speed; cold
            leaves take the smaller blind trie).
        learned_churn_retrains: Retrains after which a learned leaf
            counts as churn-heavy: the policy stops promoting it up the
            ladder and the controller splits it back toward full
            representation when memory allows.
    """

    size_bound_bytes: int
    shrink_trigger_fraction: float = 0.9
    expand_trigger_fraction: float = 0.75
    max_compact_capacity: int = 128
    rep_cls: Type[SeqTrieRep] = SeqTreeRep
    seqtree_levels: int = 2
    breathing_slack: Optional[int] = 4
    expand_split_probability: float = 0.05
    rng_seed: int = 0x5EED
    leaf_kinds: Tuple[str, ...] = ("standard", "compact")
    learned_epsilon: int = 8
    learned_hot_threshold: int = 4
    learned_churn_retrains: int = 3

    def __post_init__(self) -> None:
        if self.max_compact_capacity < 8:
            raise ValueError("max compact capacity too small")
        if not 0 <= self.expand_split_probability <= 1:
            raise ValueError("split probability must be in [0, 1]")
        self.leaf_kinds = tuple(self.leaf_kinds)
        if "standard" not in self.leaf_kinds:
            raise LeafKindError(
                "leaf_kinds must include 'standard' (the representation "
                "leaves revert to)"
            )
        from repro.btree.kinds import DEFAULT_REGISTRY

        for name in self.leaf_kinds:
            if name not in DEFAULT_REGISTRY:
                raise LeafKindError(
                    f"leaf_kinds names unknown leaf kind {name!r}; "
                    "register it with repro.btree.kinds.register_leaf_kind"
                )
        if self.learned_epsilon < 2:
            raise ValueError("learned_epsilon must be >= 2")
        if self.learned_hot_threshold < 0:
            raise ValueError("learned_hot_threshold must be >= 0")
        if self.learned_churn_retrains < 1:
            raise ValueError("learned_churn_retrains must be >= 1")

    @property
    def conversion_kinds(self) -> Tuple[str, ...]:
        """The non-standard kinds shrink conversions may target, in
        ``leaf_kinds`` order."""
        return tuple(k for k in self.leaf_kinds if k != "standard")

    def rep_kwargs(self) -> dict:
        """Constructor kwargs for the compact representation."""
        if issubclass(self.rep_cls, SeqTreeRep):
            return {"levels": self.seqtree_levels}
        return {}

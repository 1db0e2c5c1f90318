"""The common ordered-index protocol used by the benchmark harness."""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.keys.encoding import check_key_widths


@runtime_checkable
class OrderedIndex(Protocol):
    """An ordered secondary index mapping fixed-width keys to tuple ids.

    Implemented by :class:`repro.btree.BPlusTree` (and its elastic and
    all-compact variants) and every baseline in this package, so that
    workload runners and benchmark drivers are index-agnostic.

    Batching is part of the protocol: ``lookup_batch``,
    ``insert_sorted_batch`` and ``scan_batch`` carry documented default
    implementations (the sorted scalar loops below), so every conforming
    index accepts batches.  The B+-tree family overrides them with
    shared-descent fast paths; :class:`repro.exec.BatchExecutor` detects
    an override by class identity (``type(index).lookup_batch is not
    OrderedIndex.lookup_batch``) — no ``hasattr`` probing.  Baselines
    without a fast path subclass this protocol explicitly to inherit the
    defaults.
    """

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        """Insert or replace; returns the replaced tuple id if any."""
        ...

    def lookup(self, key: bytes) -> Optional[int]:
        """Point query."""
        ...

    def remove(self, key: bytes) -> Optional[int]:
        """Delete; returns the removed tuple id if present."""
        ...

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` (key, tid) pairs with key >= ``start_key``."""
        ...

    def __len__(self) -> int:
        ...

    @property
    def index_bytes(self) -> int:
        """Simulated memory footprint of the index structure."""
        ...

    # ------------------------------------------------------------------
    # Batch surface (protocol defaults: sorted scalar loops)
    # ------------------------------------------------------------------
    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        """Point-query a batch; results align with the input order.

        Default: the sorted scalar loop of
        :func:`lookup_batch_fallback`.  Indexes with a shared-descent
        fast path (the B+-tree family) override this.
        """
        return lookup_batch_fallback(self, keys)

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        """Insert a batch of (key, tid) pairs in sorted-run order.

        Returns the replaced tuple id per pair (input order); duplicate
        keys within the batch apply in input order, exactly as a scalar
        loop would.  Default: :func:`insert_batch_fallback`.
        """
        return insert_batch_fallback(self, pairs)

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        """Run one ``count``-item scan per start key (input order).

        Default: the sorted scalar loop of :func:`scan_batch_fallback`.
        """
        return scan_batch_fallback(self, start_keys, count)


# ----------------------------------------------------------------------
# Generic batch fallbacks (sorted scalar loops)
# ----------------------------------------------------------------------
# These back the protocol's default batch methods.  Sorting the batch
# into a run costs nothing under the cost model but matches the native
# fast paths' semantics exactly (duplicate keys apply in input order),
# keeps wall-clock cache behaviour reasonable, and makes the executor's
# contract uniform: a batch is always applied in sorted-run order.

def lookup_batch_fallback(
    index: OrderedIndex, keys: Sequence[bytes]
) -> List[Optional[int]]:
    """Scalar-loop batch lookup; results align with the input order."""
    check_key_widths(keys, index.key_width)
    results: List[Optional[int]] = [None] * len(keys)
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        results[i] = index.lookup(keys[i])
    return results


def insert_batch_fallback(
    index: OrderedIndex, pairs: Sequence[Tuple[bytes, int]]
) -> List[Optional[int]]:
    """Scalar-loop batch insert in sorted-run order.

    Duplicate keys within the batch apply in input order (stable sort on
    the key), so the outcome matches a plain input-order loop.
    """
    check_key_widths((key for key, _ in pairs), index.key_width)
    results: List[Optional[int]] = [None] * len(pairs)
    for i in sorted(range(len(pairs)), key=lambda i: pairs[i][0]):
        key, tid = pairs[i]
        results[i] = index.insert(key, tid)
    return results


def scan_batch_fallback(
    index: OrderedIndex, start_keys: Sequence[bytes], count: int
) -> List[List[Tuple[bytes, int]]]:
    """Scalar-loop batch scan; results align with the input order."""
    check_key_widths(start_keys, index.key_width)
    results: List[List[Tuple[bytes, int]]] = [[] for _ in start_keys]
    for i in sorted(range(len(start_keys)), key=start_keys.__getitem__):
        results[i] = index.scan(start_keys[i], count)
    return results

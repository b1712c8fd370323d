"""Epoch-stamped scratch arena for the query hot loops.

Every reverse k-ranks query used to allocate its dense working memory
from scratch: one settled ``bytearray`` for the SDS-tree traversal,
another *per rank refinement* (of which a query runs many), plus three
dense bound lists sized to ``n`` (parent rank, tree height,
``lcount``).  At n ≫ 10⁴ that allocation traffic is a measurable
fraction of query time — exactly the "refinement scratch reuse" lever
ROADMAP ranks next to result batching.

:class:`ScratchArena` keeps all of that storage alive across queries and
replaces the per-query zeroing with *epoch stamps*:

* membership structures (settled sets, notified sets, bound validity)
  are ``bytearray`` stamp tables managed by :class:`EpochStamps` — an
  entry is "set" iff its stamp equals the current epoch, so starting a
  new query or refinement is a counter increment, not an O(n) clear.
  Stamps are one byte wide; the epoch wraps at 256, paying one amortised
  O(n) zeroing every 255 epochs instead of 8x the memory of a wider
  stamp;
* the dense bound lists keep their storage and are guarded by stamp
  tables: a value written in epoch ``e`` is invisible (reads fall back
  to the defaults a fresh allocation would hold) from epoch ``e + 1`` on.

The frontiers themselves are not arena members: each search keeps a
local :mod:`heapq` list plus two dicts (best priority, first push
order) over the nodes it reaches, so they grow with the search rather
than with ``n``.

One arena is owned per engine (and therefore per worker process, whose
private engine owns its own) and threaded through
:class:`~repro.traversal.csr_sds.CompactSDSTreeSearch`.  The arena grows (never
shrinks) when a larger graph arrives: stale stamps from the smaller
graph are invisible by construction, because new entries start at stamp
0 and valid epochs start at 1.

Arenas are *not* thread- or process-safe: they assume the engine's
existing one-query-at-a-time discipline (refinements nest inside a
traversal, which is why tree and refinement scratch are separate
members).
"""

from __future__ import annotations

__all__ = ["EpochStamps", "ScratchArena"]

#: One-byte stamps wrap here; ``advance`` zeroes the table and restarts at 1.
_EPOCH_LIMIT = 256


class EpochStamps:
    """A reusable membership set over dense int keys with O(1) epoch reset.

    ``stamps[key] == epoch`` means "key is in the set for the current
    epoch"; every other stamp value (older epochs, or 0 for never
    touched) means absent.  :meth:`advance` starts a new, empty epoch in
    O(1) — except once every 255 epochs, when the one-byte stamps wrap
    and the table is zeroed (amortised O(1) per epoch).

    Examples
    --------
    >>> stamps = EpochStamps(4)
    >>> epoch = stamps.advance()
    >>> stamps.stamps[2] = epoch
    >>> stamps.is_current(2)
    True
    >>> _ = stamps.advance()   # stale entries from the old epoch vanish
    >>> stamps.is_current(2)
    False
    """

    __slots__ = ("stamps", "epoch")

    def __init__(self, capacity: int = 0) -> None:
        self.stamps = bytearray(capacity)
        self.epoch = 0  # valid epochs are 1..255; stamp 0 = never touched

    @property
    def capacity(self) -> int:
        """Number of keys the stamp table covers."""
        return len(self.stamps)

    def grow(self, capacity: int) -> None:
        """Extend the table; new keys start unstamped (absent in any epoch)."""
        if capacity > len(self.stamps):
            self.stamps.extend(bytes(capacity - len(self.stamps)))

    def advance(self) -> int:
        """Start a new, empty epoch; returns the stamp value that marks
        membership in it.

        The table object is zeroed *in place* on wraparound, so callers
        may keep a local reference to :attr:`stamps` across epochs — but
        must call :meth:`advance` before caching it for a new epoch.
        """
        self.epoch += 1
        if self.epoch == _EPOCH_LIMIT:
            self.stamps[:] = bytes(len(self.stamps))
            self.epoch = 1
        return self.epoch

    def is_current(self, key: int) -> bool:
        """Whether ``key`` is stamped in the current epoch (test helper)."""
        return self.stamps[key] == self.epoch


class ScratchArena:
    """Reusable per-engine scratch memory for SDS-tree queries.

    Members are deliberately public: the hot loops bind them to locals
    once per query/refinement and index them directly.  Call
    :meth:`ensure_capacity` before binding anything for a graph, and
    :meth:`EpochStamps.advance` to start a new search on a stamp table.

    Attributes
    ----------
    tree_settled / refine_settled / refine_notified:
        :class:`EpochStamps` membership sets (settled nodes of either
        search; nodes already counted into ``lcount``).
    parent_bound / height_bound / lcount:
        The three dense Theorem-2 bound lists, guarded by
        ``bound_stamps`` (parent + height are always written together)
        and ``lcount_stamps`` respectively.
    """

    __slots__ = (
        "_capacity",
        "queries_served",
        "tree_settled",
        "refine_settled",
        "refine_notified",
        "bound_stamps",
        "lcount_stamps",
        "parent_bound",
        "height_bound",
        "lcount",
    )

    def __init__(self, capacity: int = 0) -> None:
        self._capacity = 0
        #: How many queries have drawn scratch from this arena (telemetry).
        self.queries_served = 0
        self.tree_settled = EpochStamps()
        self.refine_settled = EpochStamps()
        self.refine_notified = EpochStamps()
        self.bound_stamps = EpochStamps()
        self.lcount_stamps = EpochStamps()
        self.parent_bound: list = []
        self.height_bound: list = []
        self.lcount: list = []
        if capacity:
            self.ensure_capacity(capacity)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of dense node slots currently allocated."""
        return self._capacity

    def ensure_capacity(self, capacity: int) -> None:
        """Grow every dense structure to cover ``capacity`` node indexes.

        Growth never invalidates epochs: fresh slots carry stamp 0,
        which no live epoch matches, so they read as the defaults until
        first written.  The arena never shrinks.
        """
        if capacity <= self._capacity:
            return
        extra = capacity - self._capacity
        self.tree_settled.grow(capacity)
        self.refine_settled.grow(capacity)
        self.refine_notified.grow(capacity)
        self.bound_stamps.grow(capacity)
        self.lcount_stamps.grow(capacity)
        self.parent_bound.extend([0.0] * extra)
        self.height_bound.extend([1] * extra)
        self.lcount.extend([0] * extra)
        self._capacity = capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ScratchArena capacity={self._capacity} "
            f"queries_served={self.queries_served}>"
        )

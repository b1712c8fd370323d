"""Addressable binary min-heap over dense integer keys.

:class:`IntHeap` is the array-specialised twin of
:class:`~repro.traversal.heap.AddressableHeap` for searches that run in
CSR index space: keys are ints in ``[0, capacity)``, and the key -> heap
position mapping is an ``array('q')`` slot table instead of a dict, so no
key is ever hashed on the hot path.

Tie-breaking is **identical** to :class:`AddressableHeap`: ties on priority
are broken by insertion order, and :meth:`decrease_key` preserves a key's
original insertion counter.  This is load-bearing — the SDS-tree
(:mod:`repro.traversal.csr_sds`) settles nodes in exactly this order, and
ranks, refinement counts and every other
:class:`~repro.core.types.QueryStats` counter are pinned to it by the
counter-oracle suite.

The sift loops move a hole instead of swapping entries pairwise, and
compare ``(priority, counter)`` inline rather than through slice
allocations, which is where the pure-Python :class:`AddressableHeap`
spends most of its time.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

__all__ = ["IntHeap"]


class IntHeap:
    """Binary min-heap over int keys ``0 <= key < capacity`` with decrease-key.

    Parameters
    ----------
    capacity:
        Exclusive upper bound on keys (the number of CSR node indexes).
        The position table is allocated once, so construction is O(capacity)
        and every operation afterwards is O(log n) with no hashing.

    Examples
    --------
    >>> heap = IntHeap(4)
    >>> heap.push(0, 3.0)
    >>> heap.push(2, 1.0)
    >>> heap.decrease_key(0, 0.5)
    True
    >>> heap.pop()
    (0, 0.5)
    >>> heap.pop()
    (2, 1.0)
    """

    __slots__ = ("_entries", "_positions", "_counter", "_capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        # Each entry is [priority, insertion_counter, key].
        self._entries: List[list] = []
        # key -> heap position, -1 when absent.
        self._positions = array("q", [-1]) * capacity if capacity else array("q")
        self._counter = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """The exclusive key bound this heap was sized for."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self._capacity and self._positions[key] >= 0

    def _slot(self, key: int) -> int:
        """Position slot of ``key``; rejects negative keys.

        A bare ``self._positions[key]`` would let Python's negative
        indexing silently alias key ``-1`` to key ``capacity - 1`` and
        corrupt the table; keys above capacity already raise naturally.
        """
        if key < 0:
            raise IndexError(f"key {key!r} is outside [0, {self._capacity})")
        return self._positions[key]

    def __iter__(self) -> Iterator[int]:
        """Iterate over keys currently in the heap (unspecified order)."""
        return iter(entry[2] for entry in self._entries)

    # ------------------------------------------------------------------
    def push(self, key: int, priority: float) -> None:
        """Insert ``key`` with ``priority``.

        Raises
        ------
        ValueError
            If the key is already in the heap.
        IndexError
            If the key is outside ``[0, capacity)``.
        """
        if self._slot(key) >= 0:
            raise ValueError(f"key {key!r} is already in the heap")
        entry = [priority, self._counter, key]
        self._counter += 1
        self._entries.append(entry)
        self._sift_up(len(self._entries) - 1, entry)

    def pop(self) -> Tuple[int, float]:
        """Remove and return the ``(key, priority)`` pair with smallest priority."""
        entries = self._entries
        if not entries:
            raise IndexError("pop from an empty heap")
        top = entries[0]
        last = entries.pop()
        self._positions[top[2]] = -1
        if entries:
            self._sift_down(0, last)
        return top[2], top[0]

    def peek(self) -> Tuple[int, float]:
        """Return (without removing) the smallest ``(key, priority)`` pair."""
        if not self._entries:
            raise IndexError("peek into an empty heap")
        top = self._entries[0]
        return top[2], top[0]

    def get_priority(self, key: int) -> Optional[float]:
        """Current priority of ``key`` or ``None`` if absent."""
        position = self._slot(key)
        if position < 0:
            return None
        return self._entries[position][0]

    def decrease_key(self, key: int, priority: float) -> bool:
        """Lower the priority of ``key``; ``False`` when not a strict decrease.

        The key's original insertion counter is preserved, matching
        :meth:`AddressableHeap.decrease_key` tie semantics exactly.
        """
        position = self._slot(key)
        if position < 0:
            raise KeyError(key)
        entry = self._entries[position]
        if priority >= entry[0]:
            return False
        entry[0] = priority
        self._sift_up(position, entry)
        return True

    def push_or_decrease(self, key: int, priority: float) -> bool:
        """Insert ``key`` or lower its priority, whichever applies.

        Returns ``True`` if the heap changed (new key, or key decreased) —
        the exact operation the paper's pseudo-code performs on ``Q``, and
        the single call the CSR hot loops make per relaxation (one position
        lookup instead of a membership test plus a push/decrease pair).
        """
        if key < 0:
            raise IndexError(f"key {key!r} is outside [0, {self._capacity})")
        position = self._positions[key]
        if position < 0:
            entry = [priority, self._counter, key]
            self._counter += 1
            self._entries.append(entry)
            self._sift_up(len(self._entries) - 1, entry)
            return True
        entry = self._entries[position]
        if priority >= entry[0]:
            return False
        entry[0] = priority
        self._sift_up(position, entry)
        return True

    def clear(self) -> None:
        """Remove every key (resets only the touched position slots).

        The insertion counter deliberately keeps counting: tie-breaking
        only ever compares entries of the same search, where relative
        insertion order is what matters, so a cleared-and-reused heap
        pops in exactly the order a fresh one would.
        """
        positions = self._positions
        for entry in self._entries:
            positions[entry[2]] = -1
        self._entries.clear()

    def grow(self, capacity: int) -> None:
        """Raise the exclusive key bound (for scratch-arena reuse).

        Existing entries and position slots are untouched; new keys
        start absent.  Shrinking is not supported — a smaller capacity
        is simply ignored, matching the arena's grow-only contract.
        """
        if capacity > self._capacity:
            self._positions.extend([-1] * (capacity - self._capacity))
            self._capacity = capacity

    # ------------------------------------------------------------------
    # Heap maintenance (hole-based sifting; compares (priority, counter))
    # ------------------------------------------------------------------
    def _sift_up(self, index: int, entry: list) -> None:
        entries = self._entries
        positions = self._positions
        priority = entry[0]
        counter = entry[1]
        while index > 0:
            parent_index = (index - 1) >> 1
            parent = entries[parent_index]
            if priority < parent[0] or (
                priority == parent[0] and counter < parent[1]
            ):
                entries[index] = parent
                positions[parent[2]] = index
                index = parent_index
            else:
                break
        entries[index] = entry
        positions[entry[2]] = index

    def _sift_down(self, index: int, entry: list) -> None:
        entries = self._entries
        positions = self._positions
        size = len(entries)
        priority = entry[0]
        counter = entry[1]
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            child_entry = entries[child]
            right = child + 1
            if right < size:
                right_entry = entries[right]
                if right_entry[0] < child_entry[0] or (
                    right_entry[0] == child_entry[0]
                    and right_entry[1] < child_entry[1]
                ):
                    child = right
                    child_entry = right_entry
            if child_entry[0] < priority or (
                child_entry[0] == priority and child_entry[1] < counter
            ):
                entries[index] = child_entry
                positions[child_entry[2]] = index
                index = child
            else:
                break
        entries[index] = entry
        positions[entry[2]] = index

    # ------------------------------------------------------------------
    def check_invariant(self) -> bool:
        """Verify the heap property and the position table (used by tests)."""
        entries = self._entries
        size = len(entries)
        for index in range(size):
            left = 2 * index + 1
            right = left + 1
            here = (entries[index][0], entries[index][1])
            if left < size and (entries[left][0], entries[left][1]) < here:
                return False
            if right < size and (entries[right][0], entries[right][1]) < here:
                return False
            if self._positions[entries[index][2]] != index:
                return False
        occupied = sum(1 for slot in self._positions if slot >= 0)
        return occupied == size

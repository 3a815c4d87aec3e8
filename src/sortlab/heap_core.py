"""Binary max/min heap over a contiguous element sequence.

The heap occupies ``elements[0:heap_size]`` as a complete binary tree in
breadth-first order (0-based):

    left(i) = 2i + 1, right(i) = 2i + 2, parent(i) = (i - 1) // 2

Every parent dominates its children: ``>=`` for a max-at-root heap, ``<=``
for min-at-root. Slots at or beyond ``heap_size`` belong to the backing
list but are unconstrained.

All sifting runs on three hole-based kernels: a top-down sift (``build``,
``Heap.sift_down``, ``Heap.remove_at``), a climb (``Heap.push``,
``Heap.remove_at``) and a bottom-up "leafward" sift after Wegener's
BOTTOM-UP-HEAPSORT (TCS 118, 1993) for root removal (``Heap.pop_root`` and
the extraction phase of ``uhs_sort``). A kernel holds one element out of the
list and moves a hole instead of swapping pairs, so heap code reports no
swaps: every write of an element into the backing list counts as one
``element_moves``.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Callable

from .counting import OpCounters


class HeapOrder(Enum):
    MAX_AT_ROOT = "max"
    MIN_AT_ROOT = "min"


class EmptyHeapError(IndexError):
    """Raised by peek/pop on a heap with no live elements."""


class HeapIndexError(IndexError):
    """Raised when an index falls outside the live heap prefix."""


def is_heap(elements, size: int | None = None, order: HeapOrder = HeapOrder.MAX_AT_ROOT) -> bool:
    """True iff every parent dominates its in-range children. Read-only O(n) scan."""
    n = len(elements) if size is None else size
    if n > len(elements):
        raise ValueError(f"size {n} exceeds backing length {len(elements)}")
    dominates = operator.ge if order is HeapOrder.MAX_AT_ROOT else operator.le
    for i in range(1, n):
        if not dominates(elements[(i - 1) >> 1], elements[i]):
            return False
    return True


def _strict_dominance(order: HeapOrder) -> Callable:
    return operator.gt if order is HeapOrder.MAX_AT_ROOT else operator.lt


# Each kernel holds one element x out of the list and returns
# (comparisons, element_moves). Whatever a comparison does, x ends up written
# into the hole, so a comparison that raises leaves the list a permutation of
# its input.


def _sift_down(a: list, n: int, hole: int, gt: Callable) -> tuple[int, int]:
    """Let a[hole] descend through a[0:n] until both children are dominated.

    At most two comparisons per level: left child vs x, then right child vs
    the better of the two. Ties never move x, and when both children tie
    while dominating x the left child wins. An x that stays put costs no
    write.
    """
    x = a[hole]
    start = hole
    cmp = 0
    try:
        child = 2 * hole + 1
        while child < n:
            v = a[child]
            cmp += 1
            if not gt(v, x):
                child += 1
                if child >= n:
                    break
                v = a[child]
                cmp += 1
                if not gt(v, x):
                    break
            elif child + 1 < n:
                cmp += 1
                w = a[child + 1]
                if gt(w, v):
                    child += 1
                    v = w
            a[hole] = v
            hole = child
            child = 2 * child + 1
    finally:
        if hole != start:
            a[hole] = x
    levels = (hole + 1).bit_length() - (start + 1).bit_length()
    return cmp, (levels + 1 if levels else 0)


def _climb(a: list, hole: int, x, gt: Callable) -> tuple[int, int]:
    """Write x at ``hole`` or above it, past every ancestor it strictly dominates.

    The path is searched before anything moves, so a comparison that raises
    leaves every ancestor in place and x in the starting hole.
    """
    start = top = hole
    try:
        while top > 0:
            p = (top - 1) >> 1
            if not gt(x, a[p]):
                break
            top = p
        while hole > top:
            p = (hole - 1) >> 1
            a[hole] = a[p]
            hole = p
    finally:
        a[hole] = x
    levels = (start + 1).bit_length() - (hole + 1).bit_length()
    return (levels + 1 if hole else levels), levels + 1


def _sift_leafward(a: list, last: int, gt: Callable) -> tuple[int, int]:
    """Move the root of a[0:last+1] to slot ``last`` and refill the root bottom-up.

    The element displaced from ``last`` is held while the hole left at the
    root walks to a leaf of a[0:last] along the dominant child (left wins
    ties), with one comparison per level that has two children; a lone left
    child at the bottom is taken without one. The held element then climbs
    back from that leaf. Descent costs follow from the leaf depth, so the
    loop counts nothing.
    """
    x = a[last]
    a[last] = a[0]
    hole = 0
    child = 1
    pairs_end = last - 1  # child < pairs_end exactly when its right sibling is live
    try:
        while child < pairs_end:
            if gt(a[child + 1], a[child]):
                child += 1
            a[hole] = a[child]
            hole = child
            child = 2 * child + 1
    except BaseException:
        a[hole] = x
        raise
    depth = (hole + 1).bit_length() - 1
    moves = depth + 1  # the root's move included
    if child == pairs_end:
        a[hole] = a[child]
        hole = child
        moves += 1
    c, m = _climb(a, hole, x, gt)
    return depth + c, moves + m


class Heap:
    """Mutable heap state: backing list, live size, and direction.

    The constructor trusts that ``elements`` already satisfies the order
    invariant; use :func:`build` to heapify an arbitrary sequence. The
    backing list is aliased, never copied.
    """

    __slots__ = ("elements", "heap_size", "order", "_gt")

    def __init__(self, elements: list | None = None, order: HeapOrder = HeapOrder.MAX_AT_ROOT):
        self.elements = [] if elements is None else elements
        self.heap_size = len(self.elements)
        self.order = order
        self._gt = _strict_dominance(order)

    def __len__(self) -> int:
        return self.heap_size

    def __repr__(self) -> str:
        live = self.elements[: self.heap_size]
        return f"Heap({live!r}, order={self.order.value})"

    def peek(self):
        """Dominating element (max for max-at-root) without mutation."""
        if self.heap_size == 0:
            raise EmptyHeapError("peek on empty heap")
        return self.elements[0]

    def sift_down(self, i: int, counters: OpCounters | None = None) -> None:
        """Restore the order invariant at ``i``, assuming both subtrees hold it."""
        if not 0 <= i < self.heap_size:
            raise HeapIndexError(f"index {i} outside live heap of size {self.heap_size}")
        cmp, moves = _sift_down(self.elements, self.heap_size, i, self._gt)
        if counters is not None:
            counters.add(comparisons=cmp, element_moves=moves)

    def push(self, x, counters: OpCounters | None = None) -> None:
        """Insert ``x`` into the first slack slot (appending one if none), climbing.

        Every comparison happens before anything moves and ``heap_size``
        grows only after the climb, so a comparison that raises leaves the
        live heap exactly as it was.
        """
        a = self.elements
        size = self.heap_size
        if size == len(a):
            a.append(None)  # a slot for the hole; the climb always fills it
        cmp, moves = _climb(a, size, x, self._gt)
        self.heap_size = size + 1
        if counters is not None:
            counters.add(comparisons=cmp, element_moves=moves)

    def pop_root(self, counters: OpCounters | None = None):
        """Remove and return the dominating element.

        The root moves to the last live slot, which leaves the heap, and the
        element it displaces refills the root with the leafward sift.
        """
        if self.heap_size == 0:
            raise EmptyHeapError("pop_root on empty heap")
        a = self.elements
        last = self.heap_size - 1
        self.heap_size = last
        if last > 0:
            cmp, moves = _sift_leafward(a, last, self._gt)
            if counters is not None:
                counters.add(comparisons=cmp, element_moves=moves)
        return a[last]

    def remove_at(self, i: int, counters: OpCounters | None = None):
        """Remove and return the element at live index ``i``.

        The removed element moves to the last live slot, which leaves the
        heap, and the element it displaces climbs from ``i``, or sifts down
        if it did not rise.
        """
        if not 0 <= i < self.heap_size:
            raise HeapIndexError(f"index {i} outside live heap of size {self.heap_size}")
        a = self.elements
        last = self.heap_size - 1
        removed = a[i]
        self.heap_size = last
        if i == last:
            return removed
        x = a[last]
        a[last] = removed
        gt = self._gt
        cmp, moves = _climb(a, i, x, gt)
        if moves == 1:  # x was written at i without rising
            c, m = _sift_down(a, last, i, gt)
            cmp += c
            moves += m
        if counters is not None:
            counters.add(comparisons=cmp, element_moves=moves + 1)
        return removed


def build(
    elements: list,
    order: HeapOrder = HeapOrder.MAX_AT_ROOT,
    counters: OpCounters | None = None,
) -> Heap:
    """Heapify ``elements`` in place bottom-up and return the resulting Heap.

    Sift-down runs at indices n//2 - 1 down to 0; everything after the last
    internal node is a one-element heap already. Total comparisons are at
    most 2*(n - 1) because node heights in a complete tree sum to n - 1.
    """
    heap = Heap(elements, order)
    n = len(elements)
    gt = heap._gt
    cmp = moves = 0
    for i in range(n // 2 - 1, -1, -1):
        c, m = _sift_down(elements, n, i, gt)
        cmp += c
        moves += m
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)
    return heap

"""Binary max/min heap over a contiguous element sequence.

The heap occupies ``elements[0:heap_size]`` as a complete binary tree in
breadth-first order (0-based):

    left(i) = 2i + 1, right(i) = 2i + 2, parent(i) = (i - 1) // 2

Every parent dominates its children: ``>=`` for a max-at-root heap, ``<=``
for min-at-root. Slots at or beyond ``heap_size`` belong to the backing
list but are unconstrained.

Two hole-based kernels sift, each taking ``mx`` (True for a max-at-root
heap) and comparing inline, ``(a > b) if mx else (a < b)``:

- ``_sift_down`` (``build`` and ``Heap.remove_at``) is a bottom-up sift
  after Wegener (TCS 118, 1993) and McDiarmid & Reed (J. Algorithms 10,
  1989). It walks the dominant-child path to a leaf with one comparison per
  level that has two children, searches back up for the deepest path node
  that strictly dominates the sifted element, then rotates the element into
  place. It leaves the same arrangement and makes the same writes as the
  classic top-down sift, and it writes nothing until every comparison is
  done, so a comparison that raises leaves the list unchanged.
- ``_sift_leafward`` drains ``uhs_sort``'s extraction phase in one call:
  after Wegener's BOTTOM-UP-HEAPSORT, each extraction moves the root past
  the shrinking heap boundary, walks the hole it leaves to a leaf along the
  dominant child, and lets the displaced element climb back.

The priority-queue operations run their own loops inline, so that each
costs one call: ``Heap.push`` and ``Heap.remove_at`` climb, and
``Heap.pop_root`` runs one leafward extraction. Each climb moves every
ancestor it passes down a level as it goes; a comparison that raises moves
them back, so a failed operation leaves the heap exactly as it was.

Every sift holds one element out of the list and moves a hole instead of
swapping pairs, so heap code reports no swaps: every write of an element
into the backing list counts as one ``element_moves``.
"""

from __future__ import annotations

import operator
from enum import Enum

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
    if not 0 <= n <= len(elements):
        raise ValueError(f"size {n} is outside 0..{len(elements)}, the backing length")
    dominates = operator.ge if order is HeapOrder.MAX_AT_ROOT else operator.le
    for i in range(1, n):
        if not dominates(elements[(i - 1) >> 1], elements[i]):
            return False
    return True


# Each kernel returns (comparisons, element_moves) and leaves the list a
# permutation of its input, even when a comparison raises.


def _sift_down(a: list, n: int, hole: int, mx: bool) -> tuple[int, int]:
    """Let a[hole] descend through a[0:n] until both children are dominated.

    The walk follows the dominant child (the right one only if it strictly
    dominates the left) down to a leaf, with one comparison per level that
    has two children; a lone left child at the bottom is taken without one.
    The search back up stops at the deepest path node that strictly
    dominates x, so ties never move x. Only then are the path nodes above it
    lifted a level and x written in its place. An x that stays put costs no
    write.
    """
    x = a[hole]
    j = hole
    child = 2 * hole + 1
    pairs_end = n - 1  # child < pairs_end exactly when its right sibling is live
    cmp = 0
    while child < pairs_end:
        cmp += 1
        if (a[child + 1] > a[child]) if mx else (a[child + 1] < a[child]):
            child += 1
        j = child
        child = 2 * child + 1
    if child == pairs_end:
        j = child
    while j != hole:
        cmp += 1
        if (a[j] > x) if mx else (a[j] < x):
            break
        j = (j - 1) >> 1
    if j == hole:
        return cmp, 0
    moves = 1
    while j != hole:
        a[j], x = x, a[j]
        j = (j - 1) >> 1
        moves += 1
    a[hole] = x
    return cmp, moves


def _sift_leafward(a: list, mx: bool) -> tuple[int, int]:
    """Drain the whole heap ``a`` into sorted order, refilling the root bottom-up.

    For ``end`` from ``len(a) - 1`` down to 1, the root of a[0:end+1] moves
    to slot ``end``, and the element it displaced is held while the hole left
    at the root walks to a leaf of a[0:end] along the dominant child (left
    wins ties), with one comparison per level that has two children; a lone
    left child at the bottom is taken without one. The held element then
    climbs back from that leaf past every ancestor it strictly dominates.
    Descent costs follow from the leaf depth, so the descent loop counts
    nothing.
    """
    cmp = moves = 0
    for end in range(len(a) - 1, 0, -1):
        x = a[end]
        a[end] = a[0]
        hole = 0
        child = 1
        pairs_end = end - 1  # child < pairs_end exactly when its right sibling is live
        try:
            while child < pairs_end:
                if (a[child + 1] > a[child]) if mx else (a[child + 1] < a[child]):
                    child += 1
                a[hole] = a[child]
                hole = child
                child = 2 * child + 1
            depth = (hole + 1).bit_length() - 1
            cmp += depth
            if child == pairs_end:
                a[hole] = a[child]
                hole = child
                depth += 1
            top = hole
            while top:
                p = (top - 1) >> 1
                cmp += 1
                if not ((x > a[p]) if mx else (x < a[p])):
                    break
                top = p
            moves += 2 + depth  # the root's move, the descent and x's write
            while hole > top:
                p = (hole - 1) >> 1
                a[hole] = a[p]
                hole = p
                moves += 1
        finally:
            a[hole] = x
    return cmp, moves


class Heap:
    """Mutable heap state: backing list, live size, and direction.

    The constructor trusts that ``elements`` already satisfies the order
    invariant; use :func:`build` to heapify an arbitrary sequence. The
    backing list is aliased, never copied.
    """

    __slots__ = ("elements", "heap_size", "order", "_mx")

    def __init__(self, elements: list | None = None, order: HeapOrder = HeapOrder.MAX_AT_ROOT):
        self.elements = [] if elements is None else elements
        self.heap_size = len(self.elements)
        self.order = order
        self._mx = order is HeapOrder.MAX_AT_ROOT

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

    def push(self, x, counters: OpCounters | None = None) -> None:
        """Insert ``x`` into the first slack slot (appending one if none), climbing.

        x climbs past every ancestor it strictly dominates, each of which
        moves down a level into the hole. ``heap_size`` grows only once x has
        landed, and a comparison that raises moves the shifted ancestors back
        up, so a failed push leaves the live heap exactly as it was.
        """
        a = self.elements
        size = hole = self.heap_size
        if size == len(a):
            a.append(None)  # a slot for the hole; the climb always fills it
        mx = self._mx
        levels = 0
        try:
            while hole:
                p = (hole - 1) >> 1
                y = a[p]
                if not ((x > y) if mx else (x < y)):
                    break
                a[hole] = y
                hole = p
                levels += 1
        except BaseException:
            _unclimb(a, size, hole)
            raise
        a[hole] = x
        self.heap_size = size + 1
        if counters is not None:
            counters.comparisons += levels + 1 if hole else levels
            counters.element_moves += levels + 1

    def pop_root(self, counters: OpCounters | None = None):
        """Remove and return the dominating element.

        The root moves to the last live slot, which leaves the heap. The hole
        it leaves walks to a leaf along the dominant child (left wins ties),
        with one comparison per level that has two children, and the element
        displaced from the last slot climbs back from that leaf past every
        ancestor it strictly dominates. A comparison that raises shifts the
        path back down and puts the root and the displaced element back, so a
        failed pop leaves the heap exactly as it was.
        """
        size = self.heap_size
        if size == 0:
            raise EmptyHeapError("pop_root on empty heap")
        a = self.elements
        last = size - 1
        root = a[0]
        if last == 0:
            self.heap_size = 0
            return root
        mx = self._mx
        x = a[last]
        a[last] = root
        hole = 0
        child = 1
        pairs_end = last - 1  # child < pairs_end exactly when its right sibling is live
        try:
            while child < pairs_end:
                if (a[child + 1] > a[child]) if mx else (a[child + 1] < a[child]):
                    child += 1
                a[hole] = a[child]
                hole = child
                child = 2 * child + 1
            cmp = (hole + 1).bit_length() - 1
            moves = cmp + 2  # the root's move, the descent and x's write
            if child == pairs_end:
                a[hole] = a[child]
                hole = child
                moves += 1
            while hole:
                p = (hole - 1) >> 1
                y = a[p]
                cmp += 1
                if not ((x > y) if mx else (x < y)):
                    break
                a[hole] = y
                hole = p
                moves += 1
        except BaseException:
            while hole:  # the descent lifted the path a level; the climb undid its lower part
                p = (hole - 1) >> 1
                a[hole] = a[p]
                hole = p
            a[0] = root
            a[last] = x
            raise
        a[hole] = x
        self.heap_size = last
        if counters is not None:
            counters.comparisons += cmp
            counters.element_moves += moves
        return root

    def remove_at(self, i: int, counters: OpCounters | None = None):
        """Remove and return the element at live index ``i``.

        The removed element moves to the last live slot, which leaves the
        heap, and the element it displaces climbs from ``i``, or sifts down
        if it did not rise. A comparison that raises moves every element
        back, so a failed removal leaves the heap exactly as it was.
        """
        size = self.heap_size
        if not 0 <= i < size:
            raise HeapIndexError(f"index {i} outside live heap of size {size}")
        a = self.elements
        last = size - 1
        removed = a[i]
        if i == last:
            self.heap_size = last
            return removed
        x = a[last]
        a[last] = removed
        mx = self._mx
        hole = i
        levels = 0
        try:
            while hole:
                p = (hole - 1) >> 1
                y = a[p]
                if not ((x > y) if mx else (x < y)):
                    break
                a[hole] = y
                hole = p
                levels += 1
            a[hole] = x
            cmp = levels + 1 if hole else levels
            moves = levels + 2  # x's write and the removed element's move
            if not levels:
                c, m = _sift_down(a, last, i, mx)
                cmp += c
                moves += m
        except BaseException:
            _unclimb(a, i, hole)
            a[i] = removed
            a[last] = x
            raise
        self.heap_size = last
        if counters is not None:
            counters.comparisons += cmp
            counters.element_moves += moves
        return removed


def _unclimb(a: list, start: int, hole: int) -> None:
    """Undo a climb from ``start`` stopped at ``hole``: lift each shifted ancestor back."""
    y = a[start]
    while start != hole:
        start = (start - 1) >> 1
        a[start], y = y, a[start]


def build(
    elements: list,
    order: HeapOrder = HeapOrder.MAX_AT_ROOT,
    counters: OpCounters | None = None,
) -> Heap:
    """Heapify ``elements`` in place bottom-up and return the resulting Heap.

    Sift-down runs at indices n//2 - 1 down to 0; everything after the last
    internal node is a one-element heap already. A node of height h costs
    at most 2h comparisons, h down the path and h back up, so the total is
    at most 2*(n - 1) because node heights in a complete tree sum to at most
    n - 1. Per element, that is about 1.65 comparisons on random input and
    1.5 on input sorted against the heap order, but 2.0 on input already in
    heap order or all equal, where the search back up climbs the whole
    path (a top-down sift stops at once there, for 1.0).
    """
    heap = Heap(elements, order)
    n = len(elements)
    mx = heap._mx
    cmp = moves = 0
    for i in range(n // 2 - 1, -1, -1):
        c, m = _sift_down(elements, n, i, mx)
        cmp += c
        moves += m
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)
    return heap

"""The six baseline sorting algorithms measured alongside heapsort.

Every sort mutates its input list, honors ascending/descending order, and
reports costs through :class:`~sortlab.counting.OpCounters`. The comparison
loops compare inline and work out their comparison counts from loop indices
instead of counting each step. In insertion sort, bubble sort and
quicksort's partition, only the loop that compares is written once per
order, and the order test sits outside it: once per insertion, pass or
partition. Insertion sort moves each run of shifted elements with one
C-level list operation and bubble sort writes one slot per step, yet their
counts are those of the textbook loops, which shift or exchange one element
at a time. Merge sort and quicksort's median-of-three branch on the order
at each comparison (for merge sort that timed the same as separate copies),
so no kernel calls an ``operator`` function. Elements are compared only
through their own ``<``, ``<=``, ``>`` and ``>=``, so tagged elements (key +
payload) travel through the comparison sorts unchanged; bucket and radix
sort read each element as its own numeric key.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import accumulate, chain, islice

from .counting import OpCounters
from .uhs_sort import SortOrder


class AlgorithmId(Enum):
    """Closed set of measured algorithms."""

    INSERTION = "insertion"
    MERGE = "merge"
    QUICK = "quick"
    BUCKET = "bucket"
    RADIX = "radix"
    BUBBLE = "bubble"
    UHS = "uhs"


class PivotRule(Enum):
    LAST_ELEMENT = "last"
    MEDIAN_OF_THREE = "median3"
    RANDOM_SEEDED = "random"


class KeyDomainError(ValueError):
    """A key falls outside the domain an algorithm requires."""


RADIX_BASE = 256  # radix sort's digit base: one byte of the key per pass


def _insertion_loop(a: list, asc: bool) -> tuple[int, int]:
    """Insertion-sort ``a`` in place; returns (comparisons, element_moves).

    The Python loop only compares: each insertion scans left from ``a[i]``
    past every element that must come after it, then one C-level ``del``
    and ``insert`` pair moves the whole run. The scan's first comparison,
    with ``a[i - 1]``, is made inline, and an element already in place costs
    no more; the rest of the scan is a ``for`` loop over the indices below,
    which ends at the element the scan stops at or runs off the front. The
    counts are those of the textbook loop that shifts one element at a time:
    a comparison per element shifted, plus one with the element the scan
    stops at unless it ran off the front, and a move per element shifted
    plus one for ``x``. Nothing is written while a comparison runs, so if
    one raises, ``a`` is left as it was after the last completed insertion.
    """
    cmp = moves = 0
    for i in range(1, len(a)):
        x = a[i]
        if asc:
            if not a[i - 1] > x:
                cmp += 1
                continue
            for j in range(i - 2, -1, -1):
                if not a[j] > x:
                    break
            else:
                j = -1
        else:
            if not a[i - 1] < x:
                cmp += 1
                continue
            for j in range(i - 2, -1, -1):
                if not a[j] < x:
                    break
            else:
                j = -1
        shifted = i - 1 - j
        cmp += shifted + (j >= 0)
        del a[i]
        a.insert(j + 1, x)
        moves += shifted + 1
    return cmp, moves


def insertion_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Stable in-place insertion sort. Best case n-1 comparisons, worst n(n-1)/2."""
    cmp, moves = _insertion_loop(elements, order is SortOrder.ASCENDING)
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)


def bubble_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Stable in-place bubble sort with early exit on a swap-free pass.

    Each pass holds the element it is bubbling in a local ``x`` and leaves a
    hole where it was. Step ``h`` compares ``x`` with the next element
    ``y``, read through a live iterator over the pass's slots (it runs
    ahead of the hole, so no step reads a slot the pass has written and the
    pass copies nothing), and fills the hole with one write: ``y`` if the
    two swap, otherwise ``x``, and ``y`` is held from then on. Each swap
    step is one adjacent exchange of the textbook pass, so ``swaps`` counts
    exactly those exchanges; a pass over ``end + 1`` slots makes ``end``
    comparisons. If a comparison raises, the held element drops into the
    hole, so ``elements`` stays a permutation of its input.
    """
    a = elements
    asc = order is SortOrder.ASCENDING
    cmp = swaps = 0
    end = len(a) - 1
    while end > 0:
        h = keep = 0
        x = a[0]
        try:
            if asc:
                for h, y in enumerate(islice(a, 1, end + 1)):
                    if x > y:
                        a[h] = y
                    else:
                        a[h] = x
                        x = y
                        keep += 1
            else:
                for h, y in enumerate(islice(a, 1, end + 1)):
                    if x < y:
                        a[h] = y
                    else:
                        a[h] = x
                        x = y
                        keep += 1
            h = end
        finally:
            a[h] = x
        cmp += end
        if keep == end:
            break
        swaps += end - keep
        end -= 1
    if counters is not None:
        counters.add(comparisons=cmp, swaps=swaps)


def _merge_range(a: list, lo: int, hi: int, asc: bool) -> tuple[int, int, int]:
    """Merge-sort a[lo:hi]; returns (comparisons, element_moves, depth)."""
    if hi - lo <= 1:
        return 0, 0, 1
    mid = (lo + hi) // 2
    cmp, moves, d1 = _merge_range(a, lo, mid, asc)
    c, m, d2 = _merge_range(a, mid, hi, asc)
    buf = a[lo:mid]
    width = mid - lo
    # one comparison per element placed until either run runs out;
    # ties take the left run's element, which keeps the sort stable
    i = 0
    j = mid
    k = lo
    x = buf[0]
    y = a[mid]
    try:
        while True:
            if (x <= y) if asc else (x >= y):
                a[k] = x
                k += 1
                i += 1
                if i == width:
                    break
                x = buf[i]
            else:
                a[k] = y
                k += 1
                j += 1
                if j == hi:
                    break
                y = a[j]
    finally:
        # the left run's unplaced tail belongs in the j - k == width - i
        # slots from k: the last ones if the right run ran out first,
        # stale ones if a comparison raised
        if i < width:
            del buf[:i]
            a[k:j] = buf
    # width moves into buf, then one write into each slot from lo to j;
    # any right-run leftovers past j are already in place
    return cmp + c + k - lo, moves + m + width + j - lo, 1 + max(d1, d2)


def merge_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Stable top-down merge sort; each merge copies out only its left run.

    A tail of it that outlasts the right run is trimmed and written back; with
    the slots CPython's slice operations hold meanwhile, that stays within n.
    """
    n = len(elements)
    if n <= 1:
        return
    cmp, moves, peak = _merge_range(elements, 0, n, order is SortOrder.ASCENDING)
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)
        counters.note_peaks(aux_slots=n, recursion=peak)


def _median3_index(a: list, lo: int, mid: int, hi: int, asc: bool) -> tuple[int, int]:
    """Index of the median of a[lo], a[mid], a[hi] plus comparisons spent."""
    x, y, z = a[lo], a[mid], a[hi]
    cmp = 1
    if (x > y) if asc else (x < y):
        cmp += 1
        if (y > z) if asc else (y < z):
            return mid, cmp
        cmp += 1
        return (hi, cmp) if ((x > z) if asc else (x < z)) else (lo, cmp)
    cmp += 1
    if (x > z) if asc else (x < z):
        return lo, cmp
    cmp += 1
    return (hi, cmp) if ((y > z) if asc else (y < z)) else (mid, cmp)


def _quick_range(
    a: list, lo: int, hi: int, asc: bool, bits, pivot: PivotRule
) -> tuple[int, int, int]:
    """Quicksort a[lo..hi], both ends included; returns (comparisons, swaps, depth)."""
    cmp = swaps = 0
    depth = 1
    while lo < hi:
        if bits is not None:
            # rng.randint(lo, hi) value for value: CPython's rejection loop
            width = hi - lo
            nbits = (width + 1).bit_length()
            r = bits(nbits)
            while r > width:
                r = bits(nbits)
            if r != width:
                k = lo + r
                a[k], a[hi] = a[hi], a[k]
                swaps += 1
        elif pivot is PivotRule.MEDIAN_OF_THREE and hi - lo >= 2:
            m, c = _median3_index(a, lo, (lo + hi) // 2, hi, asc)
            cmp += c
            if m != hi:
                a[m], a[hi] = a[hi], a[m]
                swaps += 1
        # Elements before the first one that belongs after p stay put;
        # from there on, each one that belongs before p is a swap.
        p = a[hi]
        i = lo
        if asc:
            while i < hi and a[i] <= p:
                i += 1
            first = i
            for j in range(i + 1, hi):
                x = a[j]
                if x <= p:
                    a[j] = a[i]
                    a[i] = x
                    i += 1
        else:
            while i < hi and a[i] >= p:
                i += 1
            first = i
            for j in range(i + 1, hi):
                x = a[j]
                if x >= p:
                    a[j] = a[i]
                    a[i] = x
                    i += 1
        swaps += i - first
        cmp += hi - lo
        if i != hi:
            a[i], a[hi] = a[hi], a[i]
            swaps += 1
        # recurse into the smaller side, loop on the larger
        if i - lo < hi - i:
            sub_lo, sub_hi, lo = lo, i - 1, i + 1
        else:
            sub_lo, sub_hi, hi = i + 1, hi, i - 1
        if sub_lo <= sub_hi:
            c, s, d = _quick_range(a, sub_lo, sub_hi, asc, bits, pivot)
            cmp += c
            swaps += s
            depth = max(depth, d + 1)
    return cmp, swaps, depth


def quicksort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
    pivot: PivotRule = PivotRule.RANDOM_SEEDED,
    seed: int = 0,
) -> None:
    """In-place quicksort with Lomuto partition and a configurable pivot rule.

    The smaller side of each partition is recursed and the larger side is
    handled by the loop, so the metered call depth stays within log2(n) + 1
    even on adversarial input. With ``LAST_ELEMENT`` on already-sorted input
    the comparison count is exactly n(n-1)/2.
    """
    n = len(elements)
    if n <= 1:
        return
    bits = random.Random(seed).getrandbits if pivot is PivotRule.RANDOM_SEEDED else None
    cmp, swaps, peak = _quick_range(
        elements, 0, n - 1, order is SortOrder.ASCENDING, bits, pivot
    )
    if counters is not None:
        counters.add(comparisons=cmp, swaps=swaps)
        counters.note_peaks(recursion=peak)


def bucket_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Stable bucket sort for keys in [0, 1); linear on uniformly spread keys.

    Elements scatter into n buckets by value, each bucket is
    insertion-sorted, and buckets are concatenated back. Every bucket is
    sorted before any is written back, so a comparison that raises leaves
    ``elements`` untouched. The scatter tests each key against
    ``0 <= v < 1`` before placing it, two key comparisons each; only the
    insertion sorts' comparisons are counted, not this domain scan's.
    """
    n = len(elements)
    if n == 0:
        return
    asc = order is SortOrder.ASCENDING
    buckets: list[list] = [[] for _ in range(n)]
    top = n - 1
    for x in elements:
        if not 0 <= x < 1:
            raise KeyDomainError(f"bucket sort key {x!r} outside [0, 1)")
        idx = int(x * n)
        buckets[idx if idx < top else top].append(x)
    cmp = 0
    moves = 2 * n  # each element's scatter and its write back
    for bucket in buckets:
        if len(bucket) > 1:
            c, m = _insertion_loop(bucket, asc)
            cmp += c
            moves += m
    elements[:] = chain.from_iterable(buckets if asc else reversed(buckets))
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)
        counters.note_peaks(aux_slots=2 * n)


def radix_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Stable LSD radix sort for non-negative integer keys, one byte per pass.

    There are as many passes as the largest key has bytes (at least one).
    Each pass runs a counting sort on one base-256 digit: tally digit
    occurrences into a counting array, turn tallies into starting offsets,
    then place every element, read from a copy that lives only while it is
    placed (n + 256 slots in all). Placements are the only counted moves, so
    the total is exactly digits * n. The passes compare no keys, but the
    domain scan before them compares every key twice (``v < 0`` and
    ``v > top``, which finds the largest); those comparisons are not counted.
    """
    n = len(elements)
    if n == 0:
        return
    top = 0
    for v in elements:
        if not isinstance(v, int):
            raise KeyDomainError(f"radix sort requires integer keys, got {v!r}")
        if v < 0:
            raise KeyDomainError(f"radix keys must be non-negative, got {v}")
        if v > top:
            top = v
    digits = max(1, (top.bit_length() + 7) // 8)
    base = RADIX_BASE
    moves = 0
    ascending = order is SortOrder.ASCENDING

    for p in range(digits):
        counts = [0] * base
        div = base**p
        for v in elements:
            counts[(v // div) % base] += 1
        # Tallies become each digit's first slot, past the keys of every digit
        # placed before it: the smaller ones ascending, the larger descending.
        if ascending:
            counts = list(accumulate(counts[:-1], initial=0))
        else:  # n minus the keys whose digit is d or smaller
            counts = list(map(n.__sub__, accumulate(counts)))
        for x in elements[:]:  # a copy that lives only while it is placed
            d = (x // div) % base
            elements[counts[d]] = x
            counts[d] += 1
        moves += n
    if counters is not None:
        counters.add(element_moves=moves)
        counters.note_peaks(aux_slots=n + base)

"""In-place heapsort: build a max-heap, then repeatedly move the root past
the shrinking heap boundary and refill the root bottom-up.

The array is split into a heap prefix and a sorted suffix; each pass moves
one more extreme element across the boundary until one element remains.
Ascending output uses a max-at-root heap, descending uses min-at-root, so
no reversal pass (and no auxiliary storage) is ever needed.

Both phases sift bottom-up. ``build`` sifts every internal node in one call
of ``heap_core``'s bottom-up sift-down (about 1.65 comparisons per element
on random input, at most 2(n - 1) in all). The extraction phase is Wegener's
BOTTOM-UP-HEAPSORT (TCS 118, 1993), drained by one ``_sift_leafward`` call
(``heap_core`` describes its leafward extraction). That measures about
n lg n comparisons in all; the classic two-comparison sift measures about
1.8 n lg n. The worst case of 1.5 n lg n + O(n) is Wegener's bound, cited,
not measured: the costliest inputs measured here, in comparisons (build plus
extraction) per n lg n at n = 2^12 and 2^16, are all-equal keys (1.083,
1.062), reversed (1.064, 1.051), sorted (1.032, 1.028) and seeded shuffles
of distinct keys (about 1.03, 1.022). The heap code counts element moves,
not swaps.
"""

from __future__ import annotations

from enum import Enum

from .counting import OpCounters
from .heap_core import HeapOrder, _sift_leafward, build


class SortOrder(Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"


def uhs_sort(
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    counters: OpCounters | None = None,
) -> None:
    """Sort ``elements`` in place using zero auxiliary element slots.

    One ``_sift_leafward`` call runs all n - 1 extractions. ``build`` reports
    its own counts into ``counters``.
    """
    mx = order is SortOrder.ASCENDING
    build(elements, HeapOrder.MAX_AT_ROOT if mx else HeapOrder.MIN_AT_ROOT, counters)
    cmp, moves = _sift_leafward(elements, mx)
    if counters is not None:
        counters.add(comparisons=cmp, element_moves=moves)

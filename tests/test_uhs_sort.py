import math
import operator
import random

import pytest

from conftest import key_type

from sortlab.counting import OpCounters
from sortlab.heap_core import HeapOrder, build, is_heap
from sortlab.uhs_sort import SortOrder, uhs_sort

HEAP_ORDER = {SortOrder.ASCENDING: HeapOrder.MAX_AT_ROOT, SortOrder.DESCENDING: HeapOrder.MIN_AT_ROOT}


def sorted_region_invariant(elements, heap_size: int, order: SortOrder = SortOrder.ASCENDING) -> bool:
    """Mid-sort loop invariant: heap prefix, sorted suffix, suffix dominates prefix.

    True iff ``elements[0:heap_size]`` is a valid heap for ``order``,
    ``elements[heap_size:]`` is sorted per ``order``, and every suffix element
    dominates every prefix element (>= for ascending, <= for descending).
    """
    n = len(elements)
    if heap_size > n:
        raise ValueError(f"heap_size {heap_size} exceeds length {n}")
    if not is_heap(elements, heap_size, HEAP_ORDER[order]):
        return False
    suffix_ok = operator.le if order is SortOrder.ASCENDING else operator.ge
    for i in range(heap_size, n - 1):
        if not suffix_ok(elements[i], elements[i + 1]):
            return False
    if 0 < heap_size < n:
        prefix = elements[:heap_size]
        boundary = max(prefix) if order is SortOrder.ASCENDING else min(prefix)
        if not suffix_ok(boundary, elements[heap_size]):
            return False
    return True


class TestCorrectness:
    def test_idempotent(self):
        a = [5, 3, 8, 1, 1, 9]
        uhs_sort(a)
        before = a[:]
        c = OpCounters()
        uhs_sort(a, counters=c)
        assert a == before
        # sorted input still moves every root across the boundary
        assert (c.comparisons, c.element_moves) == (13, 23)

class TestAccounting:
    def test_zero_auxiliary_slots_and_moves(self):
        # element moves are the in-place hole writes, pinned exactly; none of
        # them goes to scratch storage
        rng = random.Random(8)
        a = [rng.randint(0, 9999) for _ in range(4096)]
        c = OpCounters()
        uhs_sort(a, counters=c)
        assert c.aux_peak_slots == 0
        assert (c.comparisons, c.element_moves) == (50575, 52537)
        assert c.swaps == 0
        assert c.recursion_peak == 0

    def test_descending_needs_no_reversal_pass(self):
        # a reversal pass would cost extra moves; instead descending on xs is
        # ascending on the negated keys, operation for operation
        xs = list(range(512))
        a = xs[:]
        c = OpCounters()
        uhs_sort(a, SortOrder.DESCENDING, c)
        assert a == list(range(511, -1, -1))
        neg = [-x for x in xs]
        c_neg = OpCounters()
        uhs_sort(neg, counters=c_neg)
        assert (c.comparisons, c.element_moves) == (c_neg.comparisons, c_neg.element_moves)
        assert (c.comparisons, c.element_moves) == (5014, 4527)
        assert c.aux_peak_slots == 0

    @pytest.mark.parametrize("make", [
        lambda rng, n: [rng.randint(0, 4 * n) for _ in range(n)],
        lambda rng, n: list(range(n)),
        lambda rng, n: list(range(n, 0, -1)),
        lambda rng, n: [rng.randrange(4) for _ in range(n)],
        lambda rng, n: [7] * n,
        lambda rng, n: list(range(n // 2)) + list(range(n - n // 2, 0, -1)),
    ], ids=["random", "sorted", "reversed", "few-unique", "all-equal", "organ-pipe"])
    def test_comparison_bound(self, make):
        # bottom-up extraction: one comparison per level on the way down
        rng = random.Random(31)
        for n in (16, 64, 256, 1024, 4096):
            for order in SortOrder:
                a = make(rng, n)
                c = OpCounters()
                uhs_sort(a, order, c)
                bound = n * math.ceil(math.log2(n)) + 2 * n
                assert c.comparisons <= bound, (n, order)

    def test_root_extraction_swap_tally(self):
        # build: (5, 5); the four extractions: (3, 5), (2, 3), (1, 4), (0, 2),
        # each led by one move of the root into the sorted suffix
        a = [3, 1, 2, 5, 4]
        c = OpCounters()
        uhs_sort(a, counters=c)
        assert a == [1, 2, 3, 4, 5]
        assert (c.comparisons, c.element_moves) == (11, 19)


class TestLoopInvariant:
    @pytest.mark.parametrize("order", list(SortOrder))
    def test_prefix_heap_suffix_sorted_at_every_step(self, order):
        # Draining a built heap with pop_root runs the same leafward sifts as
        # uhs_sort's extraction loop, so the invariant is audited after each
        # pop and the drain must then agree with uhs_sort element for element.
        rng = random.Random(77)
        Key = key_type()
        for _ in range(200):
            keys = [rng.randint(-40, 40) for _ in range(rng.randint(0, 80))]
            a = [Key(k, i) for i, k in enumerate(keys)]
            b = a[:]
            drain_counts = OpCounters()
            h = build(b, HEAP_ORDER[order], drain_counts)
            drained = []
            while len(h):
                drained.append(h.pop_root(drain_counts))
                assert sorted_region_invariant(b, len(h), order), (keys, len(h))
            sort_counts = OpCounters()
            uhs_sort(a, order, sort_counts)
            assert [e.label for e in reversed(drained)] == [e.label for e in a]
            assert drain_counts.as_dict() == sort_counts.as_dict()

    def test_invariant_helper_accepts_valid_split(self):
        assert sorted_region_invariant([5, 1, 3, 7, 9], 3)
        assert sorted_region_invariant([1, 5, 3, 0, -1], 3, SortOrder.DESCENDING)

    def test_invariant_helper_rejects_bad_boundary(self):
        # prefix max 8 exceeds first suffix element 7
        assert not sorted_region_invariant([8, 1, 3, 7, 9], 3)

    def test_invariant_helper_rejects_unsorted_suffix(self):
        assert not sorted_region_invariant([5, 1, 3, 9, 7], 3)

    def test_invariant_helper_rejects_broken_prefix_heap(self):
        assert not sorted_region_invariant([1, 5, 3, 7, 9], 3)


class TestStabilityBehavior:
    def test_two_equal_keys_swap_origins(self):
        # extraction moves the root past the last element, reordering equal
        # keys: by design
        Key = key_type()
        a = [Key(1, 0), Key(1, 1)]
        uhs_sort(a)
        assert [t.label for t in a] == [1, 0]

import math
import random

import pytest

from conftest import key_type

from sortlab.counting import OpCounters
from sortlab.heap_core import HeapOrder, build, is_heap
from sortlab.uhs_sort import SortOrder, uhs_sort

HEAP_ORDER = {SortOrder.ASCENDING: HeapOrder.MAX_AT_ROOT, SortOrder.DESCENDING: HeapOrder.MIN_AT_ROOT}


class TestAccounting:
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

class TestLoopInvariant:
    @pytest.mark.parametrize("order", list(SortOrder))
    def test_prefix_heap_suffix_sorted_at_every_step(self, order):
        # Draining a built heap with pop_root runs the same leafward sifts as
        # uhs_sort's extraction loop. After each pop, with k keys live, the
        # first k are a heap and the rest are the last n - k keys of the sorted
        # input; the drain must then agree with uhs_sort element for element.
        rng = random.Random(77)
        Key = key_type()
        for _ in range(200):
            keys = [rng.randint(-40, 40) for _ in range(rng.randint(0, 80))]
            done = sorted(keys, reverse=order is SortOrder.DESCENDING)
            a = [Key(k, i) for i, k in enumerate(keys)]
            b = a[:]
            drain_counts = OpCounters()
            h = build(b, HEAP_ORDER[order], drain_counts)
            drained = []
            while len(h):
                drained.append(h.pop_root(drain_counts))
                k, plain = len(h), list(map(int, b))
                assert is_heap(plain, k, HEAP_ORDER[order]), (keys, k)
                assert plain[k:] == done[k:], (keys, k)
            sort_counts = OpCounters()
            uhs_sort(a, order, sort_counts)
            assert [e.label for e in reversed(drained)] == [e.label for e in a]
            assert drain_counts.as_dict() == sort_counts.as_dict()

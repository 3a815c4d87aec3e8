import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortlab.baseline_sorts import (
    AlgorithmId,
    KeyDomainError,
    PivotRule,
    bubble_sort,
    bucket_sort,
    insertion_sort,
    merge_sort,
    quicksort,
    radix_sort,
)
from sortlab.counting import OpCounters
from sortlab.instrumentation import TaggedElement
from sortlab.uhs_sort import SortOrder


def test_enum_values_are_frozen_identifiers():
    assert [a.value for a in AlgorithmId] == [
        "insertion", "merge", "quick", "bucket", "radix", "bubble", "uhs",
    ]
    assert [p.value for p in PivotRule] == ["last", "median3", "random"]


class TestInsertion:
    def test_sorted_input_exact_count(self):
        a = list(range(100))
        c = OpCounters()
        insertion_sort(a, counters=c)
        assert c.comparisons == 99
        assert c.element_moves == 0

    def test_reversed_input_exact_count(self):
        a = list(range(99, -1, -1))
        c = OpCounters()
        insertion_sort(a, counters=c)
        assert c.comparisons == 100 * 99 // 2
        # every insertion shifts i elements then places the moved one
        assert c.element_moves == sum(i + 1 for i in range(1, 100))

    def test_no_auxiliary(self):
        a = [3, 1, 2] * 50
        c = OpCounters()
        insertion_sort(a, counters=c)
        assert c.aux_peak_slots == 0 and c.recursion_peak == 0

    @given(st.lists(st.integers(), max_size=80))
    def test_property_equals_sorted(self, xs):
        got = xs[:]
        insertion_sort(got)
        assert got == sorted(xs)

    def test_descending(self):
        a = [5, 1, 4, 1, 5]
        insertion_sort(a, SortOrder.DESCENDING)
        assert a == [5, 5, 4, 1, 1]


class TestBubble:
    def test_reversed_input_exact_count(self):
        a = list(range(99, -1, -1))
        c = OpCounters()
        bubble_sort(a, counters=c)
        assert c.comparisons == 100 * 99 // 2
        assert c.swaps == 100 * 99 // 2

    def test_sorted_input_early_exit(self):
        a = list(range(100))
        c = OpCounters()
        bubble_sort(a, counters=c)
        assert c.comparisons == 99
        assert c.swaps == 0

    def test_no_auxiliary(self):
        c = OpCounters()
        bubble_sort([4, 2, 9, 2], counters=c)
        assert c.aux_peak_slots == 0 and c.recursion_peak == 0

    @given(st.lists(st.integers(), max_size=80))
    def test_property_equals_sorted(self, xs):
        got = xs[:]
        bubble_sort(got)
        assert got == sorted(xs)


class TestMerge:
    def test_two_element_exact_count(self):
        a = [2, 1]
        c = OpCounters()
        merge_sort(a, counters=c)
        assert a == [1, 2]
        assert (c.comparisons, c.element_moves) == (1, 3)

    def test_sorted_power_of_two_exact_count(self):
        # left run exhausts after width/2 comparisons at every merge
        a = list(range(8))
        c = OpCounters()
        merge_sort(a, counters=c)
        assert c.comparisons == 8 // 2 * 3

    def test_scratch_is_exactly_n(self):
        for n in (2, 3, 17, 256):
            c = OpCounters()
            merge_sort(list(range(n, 0, -1)), counters=c)
            assert c.aux_peak_slots == n

    def test_recursion_depth_logarithmic(self):
        for n in (8, 64):
            c = OpCounters()
            merge_sort(list(range(n, 0, -1)), counters=c)
            assert c.recursion_peak == int(math.log2(n)) + 1

    def test_comparison_upper_bound(self):
        rng = random.Random(2)
        n = 4096
        a = [rng.randint(0, 10**6) for _ in range(n)]
        c = OpCounters()
        merge_sort(a, counters=c)
        assert c.comparisons <= n * math.ceil(math.log2(n))

    @given(st.lists(st.integers(), max_size=120))
    def test_property_equals_sorted(self, xs):
        got = xs[:]
        merge_sort(got)
        assert got == sorted(xs)

    @given(st.lists(st.integers(), max_size=120))
    @settings(max_examples=50)
    def test_property_descending(self, xs):
        got = xs[:]
        merge_sort(got, SortOrder.DESCENDING)
        assert got == sorted(xs, reverse=True)


class TestQuick:
    def test_sorted_with_last_pivot_is_exactly_quadratic(self):
        for n in (100, 1000):
            a = list(range(n))
            c = OpCounters()
            quicksort(a, counters=c, pivot=PivotRule.LAST_ELEMENT)
            assert c.comparisons == n * (n - 1) // 2
            assert a == list(range(n))

    def test_degenerate_input_keeps_shallow_stack(self):
        # the larger side is never recursed into, so sorted input stays at depth 1
        a = list(range(1000))
        c = OpCounters()
        quicksort(a, counters=c, pivot=PivotRule.LAST_ELEMENT)
        assert c.recursion_peak == 1

    def test_recursion_depth_bounded_by_log(self):
        for seed in range(50):
            rng = random.Random(seed)
            a = [rng.randint(0, 4096) for _ in range(1024)]
            c = OpCounters()
            quicksort(a, counters=c, pivot=PivotRule.RANDOM_SEEDED, seed=seed)
            assert c.recursion_peak <= int(math.log2(1024)) + 1

    def test_seeded_pivot_near_theoretical_average(self):
        n = 2**14
        rng = random.Random(6)
        a = [rng.randint(0, 10**7) for _ in range(n)]
        c = OpCounters()
        quicksort(a, counters=c, seed=0)
        ratio = c.comparisons / (n * math.log2(n))
        assert 0.8 <= ratio <= 2.2  # theory says ~1.39 for random pivots

    def test_median_of_three_tames_sorted_input(self):
        n = 4096
        a = list(range(n))
        c = OpCounters()
        quicksort(a, counters=c, pivot=PivotRule.MEDIAN_OF_THREE)
        assert a == list(range(n))
        assert c.comparisons <= 4 * n * math.log2(n)  # far below n^2/2

    def test_no_auxiliary_slots(self):
        c = OpCounters()
        quicksort([5, 3, 8, 1], counters=c)
        assert c.aux_peak_slots == 0

    def test_same_seed_same_counts(self):
        base = [9, 2, 5, 2, 7, 1, 8] * 10
        runs = []
        for _ in range(2):
            c = OpCounters()
            quicksort(base[:], counters=c, seed=42)
            runs.append(c.as_dict())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("pivot", list(PivotRule))
    def test_property_equals_sorted(self, pivot):
        rng = random.Random(13)
        for _ in range(120):
            a = [rng.randint(-20, 20) for _ in range(rng.randint(0, 60))]
            got = a[:]
            quicksort(got, pivot=pivot, seed=1)
            assert got == sorted(a)
            got = a[:]
            quicksort(got, SortOrder.DESCENDING, pivot=pivot, seed=1)
            assert got == sorted(a, reverse=True)


class TestBucket:
    def test_rejects_keys_outside_unit_interval(self):
        with pytest.raises(KeyDomainError):
            bucket_sort([0.5, 1.0])
        with pytest.raises(KeyDomainError):
            bucket_sort([-0.1])
        with pytest.raises(KeyDomainError):
            bucket_sort([2])

    def test_aux_slots_at_most_two_n(self):
        rng = random.Random(1)
        n = 2**12
        a = [rng.random() for _ in range(n)]
        c = OpCounters()
        bucket_sort(a, counters=c)
        assert c.aux_peak_slots <= 2 * n

    def test_uniform_keys_stay_near_linear(self):
        rng = random.Random(14)
        n = 2**12
        a = [rng.random() for _ in range(n)]
        c = OpCounters()
        bucket_sort(a, counters=c)
        assert c.comparisons <= 4 * n

    def test_key_extractor(self):
        pairs = [(0.75, "c"), (0.25, "a"), (0.5, "b")]
        bucket_sort(pairs, key=lambda p: p[0])
        assert [p[1] for p in pairs] == ["a", "b", "c"]

    def test_descending(self):
        a = [0.1, 0.9, 0.5, 0.5]
        bucket_sort(a, SortOrder.DESCENDING)
        assert a == [0.9, 0.5, 0.5, 0.1]

    def test_empty_is_noop(self):
        a: list = []
        c = OpCounters()
        bucket_sort(a, counters=c)
        assert a == [] and c.aux_peak_slots == 0

    @given(st.lists(st.floats(min_value=0, max_value=1, exclude_max=True), max_size=80))
    @settings(max_examples=60)
    def test_property_equals_sorted(self, xs):
        got = xs[:]
        bucket_sort(got)
        assert got == sorted(xs)


class TestRadixPlan:
    def test_byte_plans(self):
        # one pass per byte of the largest key, and at least one pass;
        # a single key is placed once per pass
        for top, digits in ((0, 1), (255, 1), (256, 2), (65535, 2), (65536, 3)):
            c = OpCounters()
            radix_sort([top], counters=c)
            assert c.element_moves == digits, top


class TestRadix:
    def test_moves_are_exactly_digits_times_n(self):
        rng = random.Random(23)
        for n, top, digits in ((50, 255, 1), (64, 65535, 2), (40, 2**20, 3)):
            a = [rng.randrange(top + 1) for _ in range(n - 1)] + [top]
            rng.shuffle(a)
            ref = sorted(a)
            c = OpCounters()
            radix_sort(a, counters=c)
            assert a == ref
            assert c.element_moves == digits * n, top
            assert c.comparisons == 0 and c.swaps == 0

    def test_aux_is_n_plus_base(self):
        rng = random.Random(2)
        n = 1000
        a = [rng.randrange(65536) for _ in range(n)]
        c = OpCounters()
        radix_sort(a, counters=c)
        assert c.aux_peak_slots == n + 256

    def test_rejects_bad_keys(self):
        with pytest.raises(KeyDomainError):
            radix_sort([1.5])
        with pytest.raises(KeyDomainError):
            radix_sort([float("inf")])
        with pytest.raises(KeyDomainError):
            radix_sort([3, -1])
        with pytest.raises(KeyDomainError):
            radix_sort([-1])

    def test_default_plan_covers_max_key(self):
        a = [256, 0, 70000, 3]
        radix_sort(a)
        assert a == [0, 3, 256, 70000]

    def test_key_extractor(self):
        pairs = [(300, "c"), (2, "a"), (40, "b")]
        radix_sort(pairs, key=lambda p: p[0])
        assert [p[1] for p in pairs] == ["a", "b", "c"]

    def test_descending(self):
        a = [512, 1, 70000, 1]
        radix_sort(a, SortOrder.DESCENDING)
        assert a == [70000, 512, 1, 1]

    @given(st.lists(st.integers(min_value=0, max_value=2**24), max_size=80))
    @settings(max_examples=60)
    def test_property_equals_sorted(self, xs):
        got = xs[:]
        radix_sort(got)
        assert got == sorted(xs)


@pytest.mark.parametrize("sort", [insertion_sort, bubble_sort, merge_sort, quicksort],
                         ids=["insertion", "bubble", "merge", "quick"])
def test_trivial_sizes_cost_nothing(sort):
    for a in ([], [5]):
        c = OpCounters()
        sort(a, counters=c)
        assert c.as_dict() == OpCounters().as_dict()


# Reference loops: the operator-based kernels the inline-comparison ones
# replaced, kept to check that every comparison, write and count is the same.


def _ref_insertion(a, order, counters):
    gt = operator.gt if order is SortOrder.ASCENDING else operator.lt
    cmp = moves = 0
    for i in range(1, len(a)):
        x = a[i]
        j = i - 1
        while j >= 0:
            cmp += 1
            if gt(a[j], x):
                a[j + 1] = a[j]
                moves += 1
                j -= 1
            else:
                break
        if j + 1 != i:
            a[j + 1] = x
            moves += 1
    counters.add(comparisons=cmp, element_moves=moves)


def _ref_bubble(a, order, counters):
    gt = operator.gt if order is SortOrder.ASCENDING else operator.lt
    cmp = swaps = 0
    end = len(a) - 1
    while end > 0:
        swapped = False
        for j in range(end):
            cmp += 1
            if gt(a[j], a[j + 1]):
                a[j], a[j + 1] = a[j + 1], a[j]
                swaps += 1
                swapped = True
        if not swapped:
            break
        end -= 1
    counters.add(comparisons=cmp, swaps=swaps)


def _ref_merge(a, order, counters):
    n = len(a)
    if n <= 1:
        return
    le = operator.le if order is SortOrder.ASCENDING else operator.ge
    cmp = moves = peak = 0
    buf = [None] * n

    def rec(lo, hi, depth):
        nonlocal cmp, moves, peak
        peak = max(peak, depth)
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        rec(lo, mid, depth + 1)
        rec(mid, hi, depth + 1)
        width = mid - lo
        buf[0:width] = a[lo:mid]
        moves += width
        i, j, k = 0, mid, lo
        while i < width and j < hi:
            cmp += 1
            x = buf[i]
            y = a[j]
            if le(x, y):
                a[k] = x
                i += 1
            else:
                a[k] = y
                j += 1
            k += 1
            moves += 1
        while i < width:
            a[k] = buf[i]
            i += 1
            k += 1
            moves += 1

    rec(0, n, 1)
    counters.add(comparisons=cmp, element_moves=moves)
    counters.note_peaks(aux_slots=n, recursion=peak)


def _ref_median3(a, lo, mid, hi, gt):
    x, y, z = a[lo], a[mid], a[hi]
    cmp = 1
    if gt(x, y):
        cmp += 1
        if gt(y, z):
            return mid, cmp
        cmp += 1
        return (hi, cmp) if gt(x, z) else (lo, cmp)
    cmp += 1
    if gt(x, z):
        return lo, cmp
    cmp += 1
    return (hi, cmp) if gt(y, z) else (mid, cmp)


def _ref_quick(a, order, counters, pivot, seed):
    if len(a) <= 1:
        return
    asc = order is SortOrder.ASCENDING
    le = operator.le if asc else operator.ge
    gt = operator.gt if asc else operator.lt
    rng = random.Random(seed) if pivot is PivotRule.RANDOM_SEEDED else None
    cmp = swaps = peak = 0

    def rec(lo, hi, depth):
        nonlocal cmp, swaps, peak
        peak = max(peak, depth)
        while lo < hi:
            if rng is not None:
                k = rng.randint(lo, hi)
                if k != hi:
                    a[k], a[hi] = a[hi], a[k]
                    swaps += 1
            elif pivot is PivotRule.MEDIAN_OF_THREE and hi - lo >= 2:
                m, c = _ref_median3(a, lo, (lo + hi) // 2, hi, gt)
                cmp += c
                if m != hi:
                    a[m], a[hi] = a[hi], a[m]
                    swaps += 1
            p = a[hi]
            i = lo
            for j in range(lo, hi):
                cmp += 1
                if le(a[j], p):
                    if i != j:
                        a[i], a[j] = a[j], a[i]
                        swaps += 1
                    i += 1
            if i != hi:
                a[i], a[hi] = a[hi], a[i]
                swaps += 1
            if i - lo < hi - i:
                if i - lo > 0:
                    rec(lo, i - 1, depth + 1)
                lo = i + 1
            else:
                if hi - i > 0:
                    rec(i + 1, hi, depth + 1)
                hi = i - 1

    rec(0, len(a) - 1, 1)
    counters.add(comparisons=cmp, swaps=swaps)
    counters.note_peaks(recursion=peak)


@pytest.mark.parametrize("order", list(SortOrder))
def test_kernels_match_operator_reference(order):
    pairs = [(insertion_sort, _ref_insertion), (bubble_sort, _ref_bubble),
             (merge_sort, _ref_merge)]
    for pivot in PivotRule:
        pairs.append((
            lambda a, o, c, p=pivot: quicksort(a, o, c, pivot=p, seed=len(a)),
            lambda a, o, c, p=pivot: _ref_quick(a, o, c, p, seed=len(a)),
        ))
    rng = random.Random(31)
    for _ in range(320):
        n = rng.randint(0, 60)
        keys = [rng.randint(0, n // 3 + 1) for _ in range(n)]  # many ties
        shape = rng.random()
        if shape < 0.2:
            keys.sort()
        elif shape < 0.4:
            keys.sort(reverse=True)
        tagged = [TaggedElement(k, i) for i, k in enumerate(keys)]
        for sort, ref in pairs:
            want, got = tagged[:], tagged[:]
            cw, cg = OpCounters(), OpCounters()
            ref(want, order, cw)
            sort(got, order, cg)
            assert [e.origin for e in got] == [e.origin for e in want], (sort, keys)
            assert cg.as_dict() == cw.as_dict(), (sort, keys)


class _Recorded:
    """Orders by key alone, and logs each comparison it makes as
    (operator, left operand's origin, right operand's origin)."""

    __slots__ = ("key", "origin", "log")

    def __init__(self, key, origin, log):
        self.key = key
        self.origin = origin
        self.log = log

    def _compare(self, op, other):
        self.log.append((op.__name__, self.origin, other.origin))
        return op(self.key, other.key)

    def __lt__(self, other):
        return self._compare(operator.lt, other)

    def __le__(self, other):
        return self._compare(operator.le, other)

    def __gt__(self, other):
        return self._compare(operator.gt, other)

    def __ge__(self, other):
        return self._compare(operator.ge, other)


@pytest.mark.parametrize("order", list(SortOrder))
def test_kernels_make_the_reference_comparisons(order):
    # equal totals can hide a kernel that compares other operands, with
    # another operator or in another order; the logs cannot
    pairs = [(insertion_sort, _ref_insertion), (bubble_sort, _ref_bubble),
             (merge_sort, _ref_merge)]
    for pivot in PivotRule:
        pairs.append((
            lambda a, o, c, p=pivot: quicksort(a, o, c, pivot=p, seed=len(a)),
            lambda a, o, c, p=pivot: _ref_quick(a, o, c, p, seed=len(a)),
        ))
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(0, 40)
        keys = [rng.randint(0, n // 3 + 1) for _ in range(n)]
        if rng.random() < 0.3:
            keys.sort(reverse=rng.random() < 0.5)
        for sort, ref in pairs:
            want, got = [], []
            ref([_Recorded(k, i, want) for i, k in enumerate(keys)], order, OpCounters())
            sort([_Recorded(k, i, got) for i, k in enumerate(keys)], order, OpCounters())
            assert got == want, (sort, keys)

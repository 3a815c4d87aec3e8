import gc
import math
import operator
import random
import struct
import tracemalloc
import weakref

import pytest

from conftest import key_type

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
from sortlab.heap_core import HeapOrder, build
from sortlab.instrumentation import SPECS, KeyDomain, counted_sort
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

    def test_recursion_depth_logarithmic(self):
        # halving a run of n reaches runs of one after ceil(log2(n)) levels
        for n in (*range(2, 301), 4097):
            c = OpCounters()
            merge_sort(list(range(n, 0, -1)), counters=c)
            assert c.recursion_peak == (n - 1).bit_length() + 1, n

    def test_comparison_upper_bound(self):
        rng = random.Random(2)
        n = 4096
        a = [rng.randint(0, 10**6) for _ in range(n)]
        c = OpCounters()
        merge_sort(a, counters=c)
        assert c.comparisons <= n * math.ceil(math.log2(n))


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

    def test_same_seed_same_counts(self):
        base = [9, 2, 5, 2, 7, 1, 8] * 10
        runs = []
        for _ in range(2):
            c = OpCounters()
            quicksort(base[:], counters=c, seed=42)
            runs.append(c.as_dict())
        assert runs[0] == runs[1]

class TestBucket:
    def test_rejects_keys_outside_unit_interval(self):
        with pytest.raises(KeyDomainError):
            bucket_sort([0.5, 1.0])
        with pytest.raises(KeyDomainError):
            bucket_sort([-0.1])
        with pytest.raises(KeyDomainError):
            bucket_sort([2])

    def test_uniform_keys_stay_near_linear(self):
        rng = random.Random(14)
        n = 2**12
        a = [rng.random() for _ in range(n)]
        c = OpCounters()
        bucket_sort(a, counters=c)
        assert c.comparisons <= 4 * n

    @pytest.mark.parametrize("order", list(SortOrder), ids=lambda order: order.value)
    def test_a_raising_comparison_leaves_the_list_untouched(self, order):
        # every bucket is sorted before any is written back, so each slot
        # still holds its own key, whether the range check or an insertion
        # sort raised
        rng = random.Random(12)
        keys = [rng.randint(0, 9) / 10 for _ in range(24)]
        Key = key_type(float)
        bucket_sort(list(map(Key, keys)), order)
        assert Key.made > 2 * len(keys)  # the insertion sorts compare too
        for budget in range(Key.made):
            items = list(map(key_type(float, budget=budget), keys))
            a = items[:]
            with pytest.raises(RuntimeError):
                bucket_sort(a, order)
            assert all(map(operator.is_, a, items)), budget

    def test_records_sort_as_float_subclasses(self):
        # a record sorts by the value it is; its payload rides along, stably
        Key = key_type(float)
        a = [Key(0.75, "c"), Key(0.25, "a"), Key(0.5, "b"), Key(0.25, "a2")]
        items = a[:]
        bucket_sort(a)
        assert [x.label for x in a] == ["a", "a2", "b", "c"]
        assert sorted(map(id, a)) == sorted(map(id, items))


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

    def test_rejects_bad_keys(self):
        with pytest.raises(KeyDomainError):
            radix_sort([1.5])
        with pytest.raises(KeyDomainError):
            radix_sort([float("inf")])
        with pytest.raises(KeyDomainError):
            radix_sort([3, -1])
        with pytest.raises(KeyDomainError):
            radix_sort([-1])

    def test_records_sort_as_int_subclasses(self):
        # a record sorts by the value it is; its payload rides along, stably
        Key = key_type()
        a = [Key(300, "c"), Key(2, "a"), Key(40, "b"), Key(2, "a2")]
        items = a[:]
        radix_sort(a)
        assert [x.label for x in a] == ["a", "a2", "b", "c"]
        assert sorted(map(id, a)) == sorted(map(id, items))


# What a sort may hold above its input beyond the slots it reports: frames,
# loop counters and radix sort's 256 count ints. A copy of the input costs a
# pointer a key, 32 KiB at n = 4096.
TRACED_ALLOWANCE = 16 * 1024
POINTER = struct.calcsize("P")


@pytest.mark.parametrize("algorithm", [
    pytest.param(a, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="bucket holds 13.1-13.9 words a key here (12.1-12.5 on random keys), "
               "mostly its n bucket lists, against the 2n slots it reports"))
    if a is AlgorithmId.BUCKET else a
    for a in SPECS
])
def test_traced_peak_above_the_input_is_within_the_reported_slots(algorithm):
    # tracemalloc sees every allocation the sort makes. The input is a
    # permutation with its largest key first: bubble and insertion sort finish
    # it in two passes, and merge sort reaches its n-slot peak on it, trimming
    # all but the last key of the top merge's left run
    floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT

    def keys(n):
        a = [n - 1, *range(n - 1)]
        return [k / n for k in a] if floats else a

    counted_sort(algorithm, keys(4))  # first-call allocations off the peak
    peaks = []
    for n in (512, 4096):
        a = keys(n)
        tracemalloc.start()
        try:
            _, counters = counted_sort(algorithm, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a == sorted(a)
        assert peak <= counters.aux_peak_slots * POINTER + TRACED_ALLOWANCE, (n, peak)
        peaks.append(peak)
    if algorithm is AlgorithmId.UHS:  # O(1) space: flat across n
        assert peaks[1] - peaks[0] < 256, peaks


class _Watched(list):
    """A list a weakref can watch."""


@pytest.mark.parametrize("algorithm, order, raises", [
    pytest.param(a, o, r, id=f"{getattr(a, 'value', a)}-{o.value}" + "-raises" * r)
    for r in (False, True)
    for a, o in [*((a, o) for a in SPECS for o in SortOrder), ("build", HeapOrder.MIN_AT_ROOT)]
])
def test_nothing_outlives_the_call(algorithm, order, raises):
    # With the collector off, a list that a reference cycle still holds
    # stays alive after the caller drops it, and the cycle shows up as what
    # gc.collect() finds. A sort or build must leave neither, whether it
    # returns or a comparison raises part way through.
    rng = random.Random(300)
    floats = algorithm != "build" and SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
    keys = [rng.random() if floats else rng.randrange(1000) for _ in range(300)]
    if raises:
        # fewer comparisons than any case makes, domain scans included
        keys = list(map(key_type(float if floats else int, budget=200), keys))
    gc.collect()
    gc.disable()
    try:
        a = _Watched(keys)
        watch = weakref.ref(a)
        raised = False
        # no pytest.raises and no "as": neither the exception nor its
        # traceback, which holds the sort's frames, outlives the except clause
        try:
            if algorithm == "build":
                heap = build(a, order, OpCounters())
                heap.push(-1, OpCounters())
                heap.pop_root(OpCounters())
                heap.remove_at(len(heap) // 2, OpCounters())
                del heap
            else:
                counted_sort(algorithm, a, order, seed=1)
        except RuntimeError:
            raised = True
        assert raised == raises
        del a
        assert watch() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


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


KERNELS = [
    pytest.param(insertion_sort, _ref_insertion, id="insertion"),
    pytest.param(bubble_sort, _ref_bubble, id="bubble"),
    pytest.param(merge_sort, _ref_merge, id="merge"),
    *(pytest.param(
        lambda a, o, c, p=p: quicksort(a, o, c, pivot=p, seed=len(a)),
        lambda a, o, c, p=p: _ref_quick(a, o, c, p, seed=len(a)),
        id=f"quick-{p.value}") for p in PivotRule),
]


@pytest.mark.parametrize("order", list(SortOrder), ids=lambda order: order.value)
@pytest.mark.parametrize("sort, ref", KERNELS)
def test_kernels_match_the_reference_loops(sort, ref, order):
    # on a seeded stream of lists with many ties, a fifth of them sorted and a
    # fifth reversed, the kernel must leave its reference loop's arrangement,
    # report its counts and make its comparisons: equal totals can hide a
    # kernel that compares other operands, with another operator or in
    # another order, and the logs cannot
    rng = random.Random(31)
    for _ in range(320):
        n = rng.randint(0, 60)
        keys = [rng.randint(0, n // 3 + 1) for _ in range(n)]
        shape = rng.random()
        if shape < 0.2:
            keys.sort()
        elif shape < 0.4:
            keys.sort(reverse=True)
        want, got = key_type(log=[]), key_type(log=[])
        want_keys = [want(k, i) for i, k in enumerate(keys)]
        got_keys = [got(k, i) for i, k in enumerate(keys)]
        cw, cg = OpCounters(), OpCounters()
        ref(want_keys, order, cw)
        sort(got_keys, order, cg)
        assert [e.label for e in got_keys] == [e.label for e in want_keys], keys
        assert cg == cw, keys
        assert got.log == want.log, keys


@pytest.mark.parametrize("n", [2, 3, 64, 1000, 5000])
def test_seeded_pivots_are_the_randint_stream(n):
    # _ref_quick draws each pivot with rng.randint(lo, hi), the kernel with
    # its own rejection loop on getrandbits; with distinct keys every
    # partition's comparisons name its pivot, so equal logs mean equal
    # pivot sequences, over spans of every bit length up to n's
    keys = random.Random(n).sample(range(10 * n), n)
    for seed in (0, 1, 2):
        for order in SortOrder:
            want, got = key_type(log=[]), key_type(log=[])
            _ref_quick([want(k, i) for i, k in enumerate(keys)], order,
                       OpCounters(), PivotRule.RANDOM_SEEDED, seed)
            quicksort([got(k, i) for i, k in enumerate(keys)], order,
                      pivot=PivotRule.RANDOM_SEEDED, seed=seed)
            assert got.log == want.log, (n, seed, order)

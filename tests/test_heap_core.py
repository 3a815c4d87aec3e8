import operator
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key_type

from sortlab.counting import OpCounters
from sortlab.heap_core import (
    EmptyHeapError,
    Heap,
    HeapIndexError,
    HeapOrder,
    _sift_down,
    build,
    is_heap,
)


def _ancestor_oracle(a, order):
    """True iff every node dominates all its descendants (checked via ancestor walks)."""
    ok = (lambda x, y: x >= y) if order is HeapOrder.MAX_AT_ROOT else (lambda x, y: x <= y)
    for j in range(1, len(a)):
        k = j
        while k > 0:
            k = (k - 1) // 2
            if not ok(a[k], a[j]):
                return False
    return True


class TestIsHeap:
    @pytest.mark.parametrize("order", list(HeapOrder))
    def test_matches_ancestor_oracle_on_permutations(self, order):
        for n in range(7):
            for perm in permutations(range(n)):
                a = list(perm)
                assert is_heap(a, order=order) == _ancestor_oracle(a, order), a

    @pytest.mark.parametrize("order", list(HeapOrder))
    def test_matches_ancestor_oracle_with_duplicates(self, order):
        for n in (4, 7, 10):
            for combo in product((0, 1), repeat=n):
                a = list(combo)
                assert is_heap(a, order=order) == _ancestor_oracle(a, order), a

    def test_prefix_size_argument(self):
        a = [9, 5, 7, 100, 100]
        assert is_heap(a, 3)
        assert not is_heap(a)

    def test_size_beyond_backing_rejected(self):
        with pytest.raises(ValueError):
            is_heap([1, 2], 3)

    @pytest.mark.parametrize("size", [-1, -2])
    def test_negative_size_rejected(self, size):
        with pytest.raises(ValueError, match="outside"):
            is_heap([1, 2, 3], size)

    def test_trivial_cases(self):
        assert is_heap([])
        assert is_heap([42])
        assert is_heap([3, 3, 3, 3])


def _top_down_sift(a, n, hole, gt):
    """The classic top-down sift, kept as the reference the kernel must match.

    It moves x down past the dominant child (the right one only if it
    strictly dominates the left) while that child strictly dominates x, and
    returns its element writes.
    """
    x = a[hole]
    moves = 0
    child = 2 * hole + 1
    while child < n:
        if child + 1 < n and gt(a[child + 1], a[child]):
            child += 1
        if not gt(a[child], x):
            break
        a[hole] = a[child]
        moves += 1
        hole = child
        child = 2 * child + 1
    if moves:
        a[hole] = x
        moves += 1
    return moves


def _bottom_up_sift(a, n, hole, gt):
    """The bottom-up sift as `_sift_down`'s docstring states it, one hole at
    a time: the reference for the kernel's comparisons, writes and
    arrangement.

    It lists the path of dominant children (the right one only if it
    strictly dominates the left) from the hole to a leaf, one comparison for
    each node on it with two children; then looks back up the path, one
    comparison a node, for the deepest node that strictly dominates x; then
    lifts the path nodes above that one a level and writes x there. It
    returns (comparisons, element writes).
    """
    x = a[hole]
    path = [hole]
    cmp = 0
    while 2 * path[-1] + 1 < n:
        child = 2 * path[-1] + 1
        if child + 1 < n:
            cmp += 1
            if gt(a[child + 1], a[child]):
                child += 1
        path.append(child)
    stop = len(path) - 1
    while stop > 0:
        cmp += 1
        if gt(a[path[stop]], x):
            break
        stop -= 1
    if stop == 0:
        return cmp, 0
    for k in range(stop):
        a[path[k]] = a[path[k + 1]]
    a[path[stop]] = x
    return cmp, stop + 1


class TestBottomUpSiftDown:
    @pytest.mark.parametrize("order", list(HeapOrder))
    def test_matches_top_down_reference(self, order):
        gt = operator.gt if order is HeapOrder.MAX_AT_ROOT else operator.lt
        rng = random.Random(23)
        Key = key_type()
        for _ in range(400):
            n = rng.randint(0, 70)
            keys = [rng.randint(0, n // 3 + 1) for _ in range(n)]  # many ties
            tagged = [Key(k, i) for i, k in enumerate(keys)]
            ref = tagged[:]
            ref_moves = sum(_top_down_sift(ref, n, i, gt) for i in range(n // 2 - 1, -1, -1))
            got = tagged[:]
            c = OpCounters()
            build(got, order, c)
            assert [e.label for e in got] == [e.label for e in ref], keys
            assert c.element_moves == ref_moves, keys
            if not n:
                continue
            # a new key at any node leaves both of its subtrees heaps
            i = rng.randrange(n)
            ref[i] = got[i] = Key(rng.randint(0, n // 3 + 1), n)
            size = rng.randint(i + 1, n)
            ref_moves = _top_down_sift(ref, size, i, gt)
            _, moves = _sift_down(got, size, (i,), order is HeapOrder.MAX_AT_ROOT)
            assert [e.label for e in got] == [e.label for e in ref], (keys, i, size)
            assert moves == ref_moves, (keys, i, size)

    @pytest.mark.parametrize("order", list(HeapOrder), ids=lambda order: order.value)
    def test_build_is_one_reference_sift_per_internal_node(self, order):
        # build's one kernel call over every internal node makes the
        # comparisons, in the same order, and the writes and arrangement
        # that a reference sift at each node in turn makes
        gt = operator.gt if order is HeapOrder.MAX_AT_ROOT else operator.lt
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(0, 70)
            keys = [rng.randint(0, n // 3 + 1) for _ in range(n)]  # many ties
            want, got = key_type(log=[]), key_type(log=[])
            ref = [want(k, i) for i, k in enumerate(keys)]
            ref_cmp = ref_moves = 0
            for i in range(n // 2 - 1, -1, -1):
                c, m = _bottom_up_sift(ref, n, i, gt)
                ref_cmp += c
                ref_moves += m
            a = [got(k, i) for i, k in enumerate(keys)]
            counters = OpCounters()
            build(a, order, counters)
            assert _labels(a) == _labels(ref), keys
            assert (counters.comparisons, counters.element_moves) == (ref_cmp, ref_moves), keys
            assert got.log == want.log and got.made == ref_cmp, keys


class TestBuild:
    def test_comparison_bound_two_n(self):
        rng = random.Random(11)
        for n in [2, 3, 4, 5, 6, 7, 8, 16, 31, 32, 33, 100, 1024]:
            a = list(range(n))
            rng.shuffle(a)
            c = OpCounters()
            build(a, counters=c)
            assert is_heap(a)
            assert c.comparisons <= 2 * (n - 1), n
            # input already in heap order, or all equal, costs the most: the
            # search back up from each leaf climbs the whole path
            for b in (list(range(n)), list(range(n, 0, -1)), [7] * n):
                for order in HeapOrder:
                    c = OpCounters()
                    build(b[:], order, c)
                    assert c.comparisons <= 2 * (n - 1), (n, b[:2], order)

    def test_min_max_duality(self):
        rng = random.Random(5)
        for _ in range(50):
            a = [rng.randint(-99, 99) for _ in range(rng.randint(0, 64))]
            mn = a[:]
            build(mn, HeapOrder.MIN_AT_ROOT)
            mx = [-x for x in a]
            build(mx, HeapOrder.MAX_AT_ROOT)
            assert mn == [-x for x in mx]

    def test_all_equal_never_swaps(self):
        a = [7] * 15
        c = OpCounters()
        build(a, counters=c)
        assert c.element_moves == 0
        assert c.comparisons > 0

    def test_building_a_trivial_heap_costs_nothing(self):
        for a in ([], [42]):
            c = OpCounters()
            build(a, counters=c)
            assert c.as_dict() == OpCounters().as_dict()

    @given(st.lists(st.integers()))
    def test_property_build_yields_heap(self, xs):
        build(xs)
        assert is_heap(xs)

    @given(st.lists(st.integers(), max_size=200))
    def test_property_min_build_yields_min_heap(self, xs):
        build(xs, HeapOrder.MIN_AT_ROOT)
        assert is_heap(xs, order=HeapOrder.MIN_AT_ROOT)


class TestHeapLifecycle:
    def test_peek_and_pop_on_empty_raise(self):
        h = Heap()
        with pytest.raises(EmptyHeapError):
            h.peek()
        with pytest.raises(EmptyHeapError):
            h.pop_root()

    def test_pop_single_element_costs_nothing(self):
        h = Heap([5])
        c = OpCounters()
        assert h.pop_root(c) == 5
        assert len(h) == 0
        assert c.as_dict() == OpCounters().as_dict()

    def test_push_reuses_slack_slot(self):
        h = Heap([5, 4, 1])
        assert h.pop_root() == 5
        assert len(h.elements) == 3 and len(h) == 2
        h.push(2)
        assert len(h.elements) == 3 and len(h) == 3
        assert is_heap(h.elements)

    def test_remove_last_just_shrinks(self):
        h = Heap([9, 4, 7])
        c = OpCounters()
        assert h.remove_at(2, c) == 7
        assert len(h) == 2
        assert c.as_dict() == OpCounters().as_dict()

    def test_remove_at_validates_index(self):
        h = Heap([9, 4, 7])
        with pytest.raises(HeapIndexError):
            h.remove_at(3)
        with pytest.raises(HeapIndexError):
            h.remove_at(-1)

    def test_repr_shows_only_live_prefix(self):
        h = Heap([9, 4])
        h.pop_root()
        assert repr(h) == "Heap([4], order=max)"  # stale slack slot hidden

class _RefHeap:
    """The heap operations as plain loops, counting each comparison and write
    where it happens: a climb that searches the path before anything moves,
    pop_root's extraction as the leafward sift runs it, and remove_at's sift
    down as `_bottom_up_sift`."""

    def __init__(self, order):
        self.a = []
        self.size = 0
        self.mx = order is HeapOrder.MAX_AT_ROOT
        self.gt = operator.gt if self.mx else operator.lt

    def _climb(self, hole, x):
        a = self.a
        top = hole
        cmp = 0
        while top > 0:
            p = (top - 1) // 2
            cmp += 1
            if not self.gt(x, a[p]):
                break
            top = p
        moves = 1
        while hole > top:
            p = (hole - 1) // 2
            a[hole] = a[p]
            moves += 1
            hole = p
        a[hole] = x
        return cmp, moves

    def push(self, x):
        if self.size == len(self.a):
            self.a.append(None)
        counts = self._climb(self.size, x)
        self.size += 1
        return None, counts

    def pop_root(self):
        a = self.a
        last = self.size - 1
        self.size = last
        if last == 0:
            return a[0], (0, 0)
        x = a[last]
        a[last] = a[0]
        cmp, moves = 0, 1
        hole, child = 0, 1
        while child < last:  # down the dominant child; left wins ties
            if child + 1 < last:
                cmp += 1
                if self.gt(a[child + 1], a[child]):
                    child += 1
            a[hole] = a[child]
            moves += 1
            hole, child = child, 2 * child + 1
        c, m = self._climb(hole, x)
        return a[last], (cmp + c, moves + m)

    def remove_at(self, i):
        a = self.a
        last = self.size - 1
        removed = a[i]
        self.size = last
        if i == last:
            return removed, (0, 0)
        x = a[last]
        a[last] = removed
        cmp, moves = self._climb(i, x)
        if moves == 1:  # x did not rise
            c, m = _bottom_up_sift(a, last, i, self.gt)
            cmp += c
            moves += m
        return removed, (cmp, moves + 1)


def _labels(elements):
    return [getattr(e, "label", None) for e in elements]


@pytest.mark.parametrize("top", [15, 10**6], ids=["ties", "spread"])
@pytest.mark.parametrize("order", list(HeapOrder), ids=lambda order: order.value)
def test_heap_operations_match_reference_loops(order, top):
    # a seeded stream that grows the heap to a few hundred keys from 0..top,
    # then drains it to empty and back, dozens of times. After every
    # operation the results, counts, backing lists (slack included) and
    # comparison logs must agree with the reference loops, the live prefix
    # must be a heap, and what pop_root and remove_at return must come out of
    # a multiset of the live keys, pop_root's as its extreme. The last two
    # checks compare plain ints, so their comparisons stay out of the logs.
    rng = random.Random(31)
    want, got = key_type(log=[]), key_type(log=[])
    ref, heap = _RefHeap(order), Heap(order=order)
    extreme = max if order is HeapOrder.MAX_AT_ROOT else min
    live = Counter()
    for step in range(3000):
        size = ref.size
        r = rng.random()
        if not size or r < (0.7 if step < 1200 else 0.37):
            key = rng.randint(0, top)
            op, args = "push", ((want(key, step),), (got(key, step),))
            live[key] += 1
        elif r < 0.8:
            op, args = "pop_root", ((), ())
        else:
            i = rng.randrange(size)
            op, args = "remove_at", ((i,), (i,))
        expect, expect_counts = getattr(ref, op)(*args[0])
        c = OpCounters()
        result = getattr(heap, op)(*args[1], c)
        assert _labels([result]) == _labels([expect]), (step, op)
        assert (c.comparisons, c.element_moves) == expect_counts, (step, op)
        assert c.swaps == 0
        assert len(heap) == ref.size, (step, op)
        assert _labels(heap.elements) == _labels(ref.a), (step, op)
        values = list(map(int, heap.elements[:len(heap)]))
        assert is_heap(values, order=order), (step, op)
        if op != "push":
            value = int(result)
            assert live[value] > 0, (step, op)
            if op == "pop_root":
                assert value == extreme(+live), step
            live[value] -= 1
    assert Counter(values) == +live
    assert got.log == want.log
    assert len(want.log) > 10_000


class TestExceptionSafety:
    @pytest.mark.parametrize("run", [
        build,
        lambda a: _sift_down(a, len(a), (0,), True),
    ], ids=["build", "sift_down"])
    def test_raising_comparison_leaves_a_permutation(self, run):
        a = [3, "x", 1, 2]
        with pytest.raises(TypeError):
            run(a)
        assert Counter(a) == Counter([3, "x", 1, 2])
        # fail at every comparison of the run, during descents, climbs and
        # extraction: each budget below an unbudgeted run's count raises
        rng = random.Random(6)
        for _ in range(4):
            keys = [rng.randint(0, 9) for _ in range(24)]
            Key = key_type()
            done = list(map(Key, keys))
            run(done)
            count = Key.made
            for spend in range(count + 3):
                items = list(map(key_type(budget=spend), keys))
                a = items[:]
                try:
                    run(a)
                except RuntimeError:
                    assert spend < count, spend
                    assert Counter(map(id, a)) == Counter(map(id, items)), spend
                else:
                    assert spend >= count, spend
                    assert a == done, spend

    def test_failed_push_leaves_heap_unchanged(self):
        h = Heap([3, 1])
        with pytest.raises(TypeError):
            h.push("x")
        assert len(h) == 2 and h.elements[:2] == [3, 1]
        assert is_heap(h.elements, h.heap_size)
        # a comparison that fails above the first level moves nothing either
        Key = key_type(budget=1)
        live = list(map(Key, (9, 7, 8, 1, 2)))
        h = Heap(live[:])
        with pytest.raises(RuntimeError):
            h.push(Key(10))
        assert len(h) == 5
        assert all(x is y for x, y in zip(h.elements[:5], live))

    def test_failed_sift_down_leaves_heap_unchanged(self):
        # every comparison comes before the first write, so a comparison that
        # raises at any point leaves each slot holding the same object
        rng = random.Random(9)
        keys = sorted((rng.randint(0, 20) for _ in range(31)), reverse=True)
        keys[0] = -1  # both subtrees of the root stay heaps
        raised = 0
        for spend in range(12):
            items = list(map(key_type(budget=spend), keys))
            a = items[:]
            try:
                _sift_down(a, len(a), (0,), True)
            except RuntimeError:
                raised += 1
                assert all(x is y for x, y in zip(a, items)), spend
        assert 0 < raised < 12

    @pytest.mark.parametrize("order", list(HeapOrder))
    @pytest.mark.parametrize("op", ["push", "pop_root", "remove_at"])
    def test_failed_operation_leaves_heap_unchanged(self, op, order):
        # a comparison that raises anywhere in a run of operations (in a
        # descent, a climb that has already moved ancestors, or a sift down)
        # leaves each slot holding the object it held before the failed call;
        # only a push's slack slot is free to hold anything. Every key under
        # the root's right child dominates every key under its left one, so
        # an element refilling a slot on the left from the right half of the
        # last level climbs several levels.
        rng = random.Random(14)
        sign = 1 if order is HeapOrder.MAX_AT_ROOT else -1
        keys = [sign * 99]
        for j in range(1, 63):
            while j > 2:  # up to the root's child above j
                j = (j - 1) >> 1
            keys.append(sign * (rng.randint(0, 9) if j == 1 else rng.randint(50, 59)))
        build(keys, order)
        raised = 0
        for spend in range(600):
            Key = key_type(budget=spend)
            items = list(map(Key, keys))
            h = Heap(items[:], order)
            if op == "push":
                h.heap_size = 16  # the last pushes append slots
            picks = random.Random(spend)
            try:
                for _ in range(40):
                    before, size = h.elements[:], len(h)
                    if op == "push":
                        h.push(Key(sign * picks.randint(0, 99)))
                    elif op == "pop_root":
                        h.pop_root()
                    else:
                        h.remove_at(picks.randrange(size))
            except RuntimeError:
                raised += 1
                assert len(h) == size, spend
                kept = size if op == "push" else len(before)
                assert all(map(operator.is_, h.elements[:kept], before[:kept])), spend
        assert 0 < raised < 600  # the largest budgets let every operation finish

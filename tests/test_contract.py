"""The contract every sort shares, checked from `SPECS` in one table: each algorithm
in both orders, quicksort under each pivot rule. What is particular to one sort,
its exact counts and bounds among it, is tested in its module."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import key_type

import sortlab.instrumentation as instrumentation
from sortlab.baseline_sorts import AlgorithmId, PivotRule
from sortlab.counting import OpCounters
from sortlab.instrumentation import SPECS, KeyDomain, counted_sort
from sortlab.uhs_sort import SortOrder

SORTS = [
    pytest.param(a, p, id=f"{a.value}-{p.value}" if "pivot" in s.options else a.value)
    for a, s in SPECS.items()
    for p in (PivotRule if "pivot" in s.options else [PivotRule.RANDOM_SEEDED])
]
EACH_SORT = pytest.mark.parametrize("algorithm, pivot", SORTS)
EACH_ORDER = pytest.mark.parametrize("order", list(SortOrder), ids=lambda order: order.value)
ELEMENTS = {  # a list draws all its keys from one of these; ints draw ties often
    KeyDomain.COMPARABLE: (st.integers(), st.floats(allow_nan=False)),
    KeyDomain.NONNEG_INT: (st.integers(0, 2**24),),
    KeyDomain.UNIT_FLOAT: (st.floats(0, 1, exclude_max=True),),
}
MAX_SIZE = {AlgorithmId.UHS: None, AlgorithmId.MERGE: 120}  # 80 for the others
EXAMPLES = {AlgorithmId.QUICK: 120, AlgorithmId.BUCKET: 60, AlgorithmId.RADIX: 60}  # else 100


def _options(algorithm, pivot):
    """The keywords `counted_sort` would pass the algorithm's sort, with seed 1."""
    return {k: v for k, v in dict(pivot=pivot, seed=1).items() if k in SPECS[algorithm].options}


@EACH_SORT
def test_sorts_every_list_of_domain_keys(algorithm, pivot):
    # each list in both orders, through counted_sort and uncounted through its attribute
    spec = SPECS[algorithm]
    options = _options(algorithm, pivot)
    lists = (st.lists(e, max_size=MAX_SIZE.get(algorithm, 80)) for e in ELEMENTS[spec.keys])

    @settings(max_examples=EXAMPLES.get(algorithm, 100))
    @given(st.one_of(*lists))
    def sorts(keys):
        for order in SortOrder:
            want = sorted(keys, reverse=order is SortOrder.DESCENDING)
            assert counted_sort(algorithm, keys[:], order, **options)[0] == want, order
            plain = keys[:]
            getattr(instrumentation, spec.sort)(plain, order, **options)
            assert plain == want, order

    sorts()


@EACH_ORDER
@pytest.mark.parametrize("algorithm, pivot, keys", [  # a distribution sort passes over one key
    pytest.param(*s.values, k, id=f"{s.id}-n{len(k)}") for s in SORTS for k in ([], [0])
    if not k or SPECS[s.values[0]].keys is KeyDomain.COMPARABLE])
def test_trivial_sizes_cost_nothing(algorithm, pivot, order, keys):
    assert counted_sort(algorithm, keys, order, pivot=pivot)[1] == OpCounters()


@EACH_ORDER
@EACH_SORT
def test_reported_space_is_the_budget_exactly(algorithm, pivot, order):
    spec, rng = SPECS[algorithm], random.Random(7)
    ints = spec.keys is KeyDomain.NONNEG_INT  # else floats in [0, 1), which the others take
    recursive = algorithm in (AlgorithmId.MERGE, AlgorithmId.QUICK)
    for n in (2, 3, 17, 256, 512, 4096):
        if n < 4096:
            keys = [int(rng.random() * 2**24) if ints else rng.random() for _ in range(n)]
        else:
            # the space witness, which bubble and insertion sort finish in two
            # passes: the largest key first, the smallest when descending
            keys = [n - 1, *range(n - 1)]
            if order is SortOrder.DESCENDING:
                keys = [n - 1 - k for k in keys]
            keys = keys if ints else [k / n for k in keys]
        counters = counted_sort(algorithm, keys, order, pivot=pivot)[1]
        assert counters.aux_peak_slots == spec.aux_budget(n), n
        assert (counters.recursion_peak > 0) == recursive, n


@EACH_ORDER
@EACH_SORT
def test_a_raising_comparison_leaves_a_permutation(algorithm, pivot, order):
    # a comparison that raises anywhere in the run, in a domain scan too,
    # leaves each key in the list once; a budget the run does not spend
    # leaves the list as the unbudgeted run does
    spec = SPECS[algorithm]
    sort, options = getattr(instrumentation, spec.sort), _options(algorithm, pivot)
    floats = spec.keys is KeyDomain.UNIT_FLOAT
    kind = float if floats else int
    rng = random.Random(12)
    keys = [rng.randint(0, 9) / 10 if floats else rng.randint(0, 9) for _ in range(24)]
    Key = key_type(kind)
    done = [Key(k, i) for i, k in enumerate(keys)]
    sort(done, order, **options)
    count = Key.made
    for budget in range(count + 3):
        Key = key_type(kind, budget=budget)
        items = [Key(k, i) for i, k in enumerate(keys)]
        a = items[:]
        try:
            sort(a, order, **options)
        except RuntimeError:
            assert budget < count, budget
            assert Counter(map(id, a)) == Counter(map(id, items)), budget
        else:
            assert budget >= count, budget
            assert [k.label for k in a] == [k.label for k in done], budget

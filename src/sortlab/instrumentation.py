"""Measurement harness: algorithm specs, counted dispatch, the sort oracle.

`SPECS` is the one table of what each algorithm claims. `counted_sort` is the
single entry point the benchmarks and the CLI use to run any algorithm with a
fresh operation ledger. `sort_fault` is the one payload-exact oracle: it sorts
key/origin pairs and names how the result differs from Python's stable
``sorted``. `stability_check` drives it to hunt for the smallest reordering
witness an algorithm admits, and `verify`'s differential check drives it in
both orders. `build_cost_audit` confirms the linear bound on bottom-up heap
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import attrgetter, is_
from typing import Callable, NamedTuple, Sequence

# The sort functions are module attributes that `counted_sort` reaches by name.
from .baseline_sorts import (
    RADIX_BASE,
    AlgorithmId,
    PivotRule,
    bubble_sort,
    bucket_sort,
    insertion_sort,
    merge_sort,
    quicksort,
    radix_sort,
)
from .counting import OpCounters
from .heap_core import build, is_heap
from .uhs_sort import SortOrder, uhs_sort

__all__ = [
    "OpCounters",
    "KeyDomain",
    "AlgorithmSpec",
    "SPECS",
    "TaggedElement",
    "StabilityVerdict",
    "BuildCostRow",
    "counted_sort",
    "sort_fault",
    "stability_check",
    "build_cost_audit",
]

class KeyDomain(Enum):
    """The keys an algorithm accepts."""

    COMPARABLE = "any comparable keys"
    UNIT_FLOAT = "float keys in [0, 1)"
    NONNEG_INT = "non-negative integer keys"


@dataclass(frozen=True)
class AlgorithmSpec:
    """What one algorithm is designed to do.

    ``sort`` names its function in this module; `counted_sort` looks it up on
    every call, so a wrapper set on the module attribute sees each dispatch.
    ``options`` are the `counted_sort` keywords that function takes, and
    ``aux_budget(n)`` is its exact peak of auxiliary slots on n >= 2 keys.
    """

    sort: str
    stable: bool
    keys: KeyDomain
    options: tuple[str, ...]
    space: str  # claimed space class
    aux_budget: Callable[[int], int]


_ANY, _UNIT, _NAT = KeyDomain.COMPARABLE, KeyDomain.UNIT_FLOAT, KeyDomain.NONNEG_INT

# Bucket holds n buckets plus n elements; radix a staging copy plus one count
# per digit value.
SPECS: dict[AlgorithmId, AlgorithmSpec] = {
    AlgorithmId.INSERTION: AlgorithmSpec("insertion_sort", True, _ANY, (), "O(1)", lambda n: 0),
    AlgorithmId.MERGE: AlgorithmSpec("merge_sort", True, _ANY, (), "O(n)", lambda n: n),
    AlgorithmId.QUICK: AlgorithmSpec(
        "quicksort", False, _ANY, ("pivot", "seed"), "O(n log n)", lambda n: 0),
    AlgorithmId.BUCKET: AlgorithmSpec(
        "bucket_sort", True, _UNIT, ("key",), "O(n)", lambda n: 2 * n),
    AlgorithmId.RADIX: AlgorithmSpec(
        "radix_sort", True, _NAT, ("key",), "O(n+k)", lambda n: n + RADIX_BASE),
    AlgorithmId.BUBBLE: AlgorithmSpec("bubble_sort", True, _ANY, (), "O(1)", lambda n: 0),
    AlgorithmId.UHS: AlgorithmSpec("uhs_sort", False, _ANY, (), "O(1)", lambda n: 0),
}

class TaggedElement:
    """A sort key plus the index it started at; orders by key alone.

    Sorting a list of these reveals whether equal keys kept their original
    relative order -- the payload rides along without influencing any
    comparison.
    """

    __slots__ = ("key", "origin")

    def __init__(self, key, origin: int):
        self.key = key
        self.origin = origin

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __eq__(self, other):
        return self.key == other.key

    def __repr__(self):
        return f"<{self.key}:{self.origin}>"


@dataclass(frozen=True)
class StabilityVerdict:
    algorithm: AlgorithmId
    stable: bool
    trials: int
    witness: list | None = None

    def describe(self) -> str:
        if self.stable:
            return f"{self.algorithm.value}: STABLE(trials={self.trials})"
        return f"{self.algorithm.value}: UNSTABLE witness={self.witness}"


class BuildCostRow(NamedTuple):
    n: int
    comparisons: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.comparisons <= self.bound


def counted_sort(
    algorithm: AlgorithmId,
    elements: list,
    order: SortOrder = SortOrder.ASCENDING,
    *,
    seed: int = 0,
    pivot: PivotRule = PivotRule.RANDOM_SEEDED,
    key: Callable | None = None,
) -> tuple[list, OpCounters]:
    """Sort ``elements`` in place with ``algorithm`` under a fresh counter set.

    Returns the (mutated) list and the counters. Only the keywords in the
    algorithm's ``SPECS`` options reach its sort, so ``key`` is honored only
    by the distribution sorts; the comparison sorts order whole elements.
    """
    spec = SPECS.get(algorithm) if isinstance(algorithm, AlgorithmId) else None
    if spec is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if key is not None and "key" not in spec.options:
        raise ValueError(f"{algorithm.value} does not take a key function")
    given = dict(seed=seed, pivot=pivot, key=key)
    counters = OpCounters()
    globals()[spec.sort](elements, order, counters, **{k: given[k] for k in spec.options})
    return elements, counters


_tagged_key = attrgetter("key")


def sort_fault(
    algorithm: AlgorithmId, keys: Sequence, order: SortOrder, seed: int, pivot: PivotRule
) -> str | None:
    """Sort tagged copies of ``keys`` and hold them against Python's stable sort.

    Returns None when every element lands exactly where ``sorted`` puts it,
    "unstable" when the output is a permutation of the input with the right
    keys in the right order but some equal keys changed places, and
    "missorted" for anything else.
    """
    arr = [TaggedElement(k, i) for i, k in enumerate(keys)]
    want = sorted(arr, key=_tagged_key, reverse=order is SortOrder.DESCENDING)
    key = _tagged_key if "key" in SPECS[algorithm].options else None
    counted_sort(algorithm, arr, order, seed=seed, pivot=pivot, key=key)
    if len(arr) == len(want) and all(map(is_, arr, want)):
        return None
    same_keys = [t.key for t in arr] == [t.key for t in want]
    if same_keys and sorted(t.origin for t in arr) == list(range(len(want))):
        return "unstable"
    return "missorted"


def stability_check(
    algorithm: AlgorithmId, trials: int = 10_000, seed: int = 0
) -> StabilityVerdict:
    """Search for a key sequence the algorithm reorders among equal keys.

    Phase one exhausts every duplicate-bearing sequence over three key values
    up to length six, so an unstable algorithm yields a minimal witness.
    Phase two hammers a stable one with ``trials`` seeded random
    duplicate-heavy arrays of up to 64 elements. Quicksort runs with the
    last-element pivot. Any witness found is re-run before being reported.
    """
    floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT

    def candidates():  # (raw int keys, span that maps them into [0, 1))
        for n in range(2, 7):
            for combo in product(range(3), repeat=n):
                if len(set(combo)) < n:  # all-distinct keys cannot witness anything
                    yield combo, 4
        rng = random.Random(seed)
        for _ in range(trials):
            size = rng.randint(2, 64)
            top = max(1, size // 4)
            yield [rng.randint(0, top) for _ in range(size)], top + 1

    examined = 0
    for raw, span in candidates():
        keys = [r / span for r in raw] if floats else list(raw)
        examined += 1
        fault = sort_fault(algorithm, keys, SortOrder.ASCENDING, seed, PivotRule.LAST_ELEMENT)
        if fault == "missorted":
            raise RuntimeError(f"{algorithm.value} missorted {keys!r}")
        if fault:
            again = sort_fault(algorithm, keys, SortOrder.ASCENDING, seed, PivotRule.LAST_ELEMENT)
            if again != fault:
                raise RuntimeError(f"witness {keys!r} did not reproduce")
            return StabilityVerdict(algorithm, False, examined, keys)
    return StabilityVerdict(algorithm, True, examined, None)


def build_cost_audit(n_values: Sequence[int], seed: int = 0) -> list[BuildCostRow]:
    """Measure bottom-up heap construction against the 2(n-1) comparison bound.

    Each size gets a seeded shuffle of 0..n-1; the resulting array must
    satisfy the heap property, and the row records how the comparison count
    sits against the linear bound.
    """
    rng = random.Random(seed)
    rows = []
    for n in n_values:
        arr = list(range(n))
        rng.shuffle(arr)
        counters = OpCounters()
        build(arr, counters=counters)
        if not is_heap(arr):
            raise RuntimeError(f"construction broke the heap property at n={n}")
        rows.append(BuildCostRow(n, counters.comparisons, 2 * (n - 1) if n > 1 else 0))
    return rows

"""Measurement harness: algorithm specs, counted dispatch, the sort oracle.

`SPECS` is the one table of what each algorithm claims. `counted_sort` is the
single entry point the benchmarks and the CLI use to run any algorithm with a
fresh operation ledger. `sort_fault` is the one payload-exact oracle: it sorts
int or float keys, each tagged by its identity, and names how the result
differs from Python's stable ``sorted``. `stability_check` drives it to hunt
for the smallest reordering witness an algorithm admits, and `verify`'s
differential check drives it in both orders. `build_cost_audit` confirms the
linear bound on bottom-up heap construction. `draws_below` draws seeded
integer keys in bulk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import is_
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
        "bucket_sort", True, _UNIT, (), "O(n)", lambda n: 2 * n),
    AlgorithmId.RADIX: AlgorithmSpec(
        "radix_sort", True, _NAT, (), "O(n+k)", lambda n: n + RADIX_BASE),
    AlgorithmId.BUBBLE: AlgorithmSpec("bubble_sort", True, _ANY, (), "O(1)", lambda n: 0),
    AlgorithmId.UHS: AlgorithmSpec("uhs_sort", False, _ANY, (), "O(1)", lambda n: 0),
}


def draws_below(rng: random.Random, span: int, count: int) -> list[int]:
    """The next ``count`` values of ``rng.randrange(span)``, value for value.

    It runs CPython's own rejection loop (``Random._randbelow``: draw
    ``span.bit_length()`` bits, redraw while the value is ``span`` or more)
    without ``randrange``'s per-call overhead, so it leaves ``rng`` exactly
    where that many ``randrange(span)`` calls would. ``randint(a, b)`` is
    ``a + randrange(b - a + 1)`` and ``choice(seq)`` is
    ``seq[randrange(len(seq))]``, so their streams are reproduced too.
    ``span`` must be positive.
    """
    k = span.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= span:
            r = bits(k)
        out.append(r)
    return out


@dataclass(frozen=True)
class StabilityVerdict:
    algorithm: AlgorithmId
    stable: bool
    trials: int
    witness: list | None = None

    @property
    def ok(self) -> bool:
        """Whether the measured verdict matches the algorithm's designed stability."""
        return self.stable == SPECS[self.algorithm].stable

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
) -> tuple[list, OpCounters]:
    """Sort ``elements`` in place with ``algorithm`` under a fresh counter set.

    Returns the (mutated) list and the counters. Only the keywords in the
    algorithm's ``SPECS`` options reach its sort, so ``seed`` and ``pivot``
    matter to quicksort alone.
    """
    spec = SPECS.get(algorithm) if isinstance(algorithm, AlgorithmId) else None
    if spec is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    given = dict(seed=seed, pivot=pivot)
    counters = OpCounters()
    globals()[spec.sort](elements, order, counters, **{k: given[k] for k in spec.options})
    return elements, counters


class _IntTag(int):
    """An int key that is its own tag: it compares in C and is told apart by identity."""

    __slots__ = ()


class _FloatTag(float):
    """A float key that is its own tag: it compares in C and is told apart by identity."""

    __slots__ = ()


_C_TAGS = {int: _IntTag, float: _FloatTag}


def sort_fault(
    algorithm: AlgorithmId, keys: Sequence, order: SortOrder, seed: int, pivot: PivotRule
) -> str | None:
    """Sort tagged copies of ``keys`` and hold them against Python's stable sort.

    Returns None when every element lands exactly where ``sorted`` puts it,
    "unstable" when the output is a permutation of the input with the right
    keys in the right order but some equal keys changed places, and
    "missorted" for anything else. The keys must be all plain ints or all
    plain floats (an empty list passes as ints); anything else, bools and
    mixed int and float keys included, raises TypeError. Each tag is a new
    instance of a subclass of the keys' type, so it compares in C, is its own
    sort key, and is known by its identity alone: an equal key written back
    in its place is not mistaken for it.
    """
    kinds = set(map(type, keys)) or {int}
    tag = _C_TAGS.get(kinds.pop()) if len(kinds) == 1 else None
    if tag is None:
        raise TypeError("sort_fault takes all-int or all-float keys")
    tags = list(map(tag, keys))
    want = sorted(tags, reverse=order is SortOrder.DESCENDING)
    arr = tags[:]
    counted_sort(algorithm, arr, order, seed=seed, pivot=pivot)
    if len(arr) == len(want) and all(map(is_, arr, want)):
        return None
    # every tag is alive in `tags`, so no foreign object in `arr` shares an id with one
    origin = {id(t): i for i, t in enumerate(tags)}
    got = [origin.get(id(t), -1) for t in arr]
    if sorted(got) == list(range(len(want))) and (
        [keys[i] for i in got] == [keys[origin[id(t)]] for t in want]
    ):
        return "unstable"
    return "missorted"


@lru_cache(maxsize=1)
def _stability_candidates(seed: int, trials: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """`stability_check`'s key sequences: (raw int keys, span that maps them into [0, 1)).

    Every algorithm checked with the same ``seed`` and ``trials`` shares one
    draw of them.
    """
    found = [
        (combo, 4)
        for n in range(2, 7)
        for combo in product(range(3), repeat=n)
        if len(set(combo)) < n  # all-distinct keys cannot witness anything
    ]
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randint(2, 64)
        top = max(1, size // 4)
        found.append((tuple(draws_below(rng, top + 1, size)), top + 1))  # randint(0, top)
    return tuple(found)


def stability_check(
    algorithm: AlgorithmId, trials: int = 10_000, seed: int = 0
) -> StabilityVerdict:
    """Search for a key sequence the algorithm reorders among equal keys.

    Phase one exhausts every duplicate-bearing sequence over three key values
    up to length six, so an unstable algorithm yields a minimal witness.
    Phase two hammers a stable one with ``trials`` seeded random
    duplicate-heavy arrays of up to 64 elements. Quicksort runs with the
    last-element pivot. Any witness found is re-run before being reported.
    Calls with the same ``seed`` and ``trials`` draw their candidates once.
    """
    floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
    candidates = _stability_candidates(seed, trials)
    for examined, (raw, span) in enumerate(candidates, 1):
        keys = [r / span for r in raw] if floats else list(raw)
        fault = sort_fault(algorithm, keys, SortOrder.ASCENDING, seed, PivotRule.LAST_ELEMENT)
        if fault == "missorted":
            raise RuntimeError(f"{algorithm.value} missorted {keys!r}")
        if fault:
            again = sort_fault(algorithm, keys, SortOrder.ASCENDING, seed, PivotRule.LAST_ELEMENT)
            if again != fault:
                raise RuntimeError(f"witness {keys!r} did not reproduce")
            return StabilityVerdict(algorithm, False, examined, keys)
    return StabilityVerdict(algorithm, True, len(candidates), None)


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

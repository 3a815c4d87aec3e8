"""Instrumented sorting algorithms and heap-backed priority queues.

Seven sorts (an in-place heapsort plus six familiar baselines) run under
deterministic operation counting -- comparisons, swaps, moves, peak scratch
slots, peak recursion -- so their complexity, space, and stability behavior
can be measured rather than taken on faith. The measurement side is imported
from ``sortlab.analysis`` and ``sortlab.instrumentation``.
"""

from .baseline_sorts import (
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
from .counting import OpCounters
from .heap_core import (
    EmptyHeapError,
    Heap,
    HeapIndexError,
    HeapOrder,
    build,
    is_heap,
)
from .instrumentation import counted_sort
from .uhs_sort import SortOrder, uhs_sort

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId",
    "EmptyHeapError",
    "Heap",
    "HeapIndexError",
    "HeapOrder",
    "KeyDomainError",
    "OpCounters",
    "PivotRule",
    "SortOrder",
    "bubble_sort",
    "bucket_sort",
    "build",
    "counted_sort",
    "insertion_sort",
    "is_heap",
    "merge_sort",
    "quicksort",
    "radix_sort",
    "uhs_sort",
]

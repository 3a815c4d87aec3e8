"""Instrumented sorting algorithms and heap-backed priority queues.

Seven sorts (an in-place heapsort plus six familiar baselines) run under
deterministic operation counting -- comparisons, swaps, moves, peak scratch
slots, peak recursion -- so their complexity, space, and stability behavior
can be measured rather than taken on faith.
"""

from .analysis import (
    BenchRecord,
    Complexity,
    DifferentialError,
    Distribution,
    DynamicReport,
    GrowthClass,
    InsufficientDataError,
    TableReport,
    dynamic_scenario,
    generate_input,
    growth_fit,
    make_workload,
    reproduce_tables,
    run_sweep,
    space_table,
    stability_table,
    time_table,
)
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
from .instrumentation import (
    BuildCostRow,
    StabilityVerdict,
    build_cost_audit,
    counted_sort,
    stability_check,
)
from .uhs_sort import SortOrder, uhs_sort

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId",
    "BenchRecord",
    "BuildCostRow",
    "Complexity",
    "DifferentialError",
    "Distribution",
    "DynamicReport",
    "EmptyHeapError",
    "GrowthClass",
    "Heap",
    "HeapIndexError",
    "HeapOrder",
    "InsufficientDataError",
    "KeyDomainError",
    "OpCounters",
    "PivotRule",
    "SortOrder",
    "StabilityVerdict",
    "TableReport",
    "bubble_sort",
    "bucket_sort",
    "build",
    "build_cost_audit",
    "counted_sort",
    "dynamic_scenario",
    "generate_input",
    "growth_fit",
    "insertion_sort",
    "is_heap",
    "make_workload",
    "merge_sort",
    "quicksort",
    "radix_sort",
    "reproduce_tables",
    "run_sweep",
    "space_table",
    "stability_check",
    "stability_table",
    "time_table",
    "uhs_sort",
]

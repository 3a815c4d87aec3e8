import importlib
import inspect

import sortlab
import sortlab.heap_core as heap_core

EXPECTED_ALL = {
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
}


def test_public_surface_is_pinned():
    assert len(sortlab.__all__) == len(set(sortlab.__all__)) == 40
    assert set(sortlab.__all__) == EXPECTED_ALL
    for name in sortlab.__all__:
        assert getattr(sortlab, name) is not None, name
    # no test-only hook is left in the library
    assert not [name for name in dir(heap_core) if name.startswith("_FAULT")]
    uhs_module = importlib.import_module("sortlab.uhs_sort")
    assert not hasattr(uhs_module, "sorted_region_invariant")
    # uhs_sort picks its heap direction itself
    assert not hasattr(uhs_module, "heap_order_for")
    # the sift-down kernel is reached only through `build` and `remove_at`
    assert not hasattr(sortlab.Heap, "sift_down")
    # a stability verdict meets its design in `StabilityVerdict.ok` alone, and
    # the one-job verify checks share one pass-through verdict, `cli._as_is`
    assert not hasattr(importlib.import_module("sortlab.analysis"), "StabilityRow")
    assert not hasattr(importlib.import_module("sortlab.cli"), "_only")
    # no option that only tests ever set
    removed = {
        sortlab.uhs_sort: {"checkpoint"},
        sortlab.counted_sort: {"bucket_count", "radix_plan", "key"},
        sortlab.bucket_sort: {"bucket_count", "key"},
        sortlab.radix_sort: {"plan", "key"},
        sortlab.stability_check: {"max_n", "pivot"},
        sortlab.dynamic_scenario: {"check_every"},
        sortlab.Heap.__init__: {"heap_size"},
        sortlab.space_table: {"n", "quick_trials"},
        sortlab.stability_table: {"trials"},
        sortlab.reproduce_tables: {"stability_trials"},
    }
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__

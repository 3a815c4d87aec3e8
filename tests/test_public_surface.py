import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import sortlab
import sortlab.analysis as analysis
import sortlab.heap_core as heap_core
import sortlab.instrumentation as instrumentation

EXPECTED_ALL = {
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
}

# the measurement side, public only in the module that defines it
MODULE_ONLY = {
    "sortlab.analysis": {
        "BenchRecord",
        "Complexity",
        "DifferentialError",
        "Distribution",
        "DynamicReport",
        "GrowthClass",
        "InsufficientDataError",
        "TableReport",
        "dynamic_scenario",
        "generate_input",
        "growth_fit",
        "make_workload",
        "reproduce_tables",
        "run_sweep",
        "space_table",
        "stability_table",
        "time_table",
    },
    "sortlab.instrumentation": {
        "BuildCostRow",
        "StabilityVerdict",
        "build_cost_audit",
        "stability_check",
    },
}


def test_public_surface_is_pinned():
    assert len(sortlab.__all__) == len(set(sortlab.__all__)) == 19
    assert set(sortlab.__all__) == EXPECTED_ALL
    for name in sortlab.__all__:
        obj = getattr(sortlab, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert not hasattr(sortlab, name), name
            assert getattr(importlib.import_module(module), name).__module__ == module, name
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
    assert not hasattr(analysis, "StabilityRow")
    assert not hasattr(importlib.import_module("sortlab.cli"), "_only")
    # no option that only tests ever set, and no **kwargs that would take one
    # silently: a removed keyword such as counted_sort's key= raises TypeError
    removed = {
        sortlab.uhs_sort: {"checkpoint"},
        sortlab.counted_sort: {"bucket_count", "radix_plan", "key"},
        sortlab.bucket_sort: {"bucket_count", "key"},
        sortlab.radix_sort: {"plan", "key"},
        instrumentation.stability_check: {"max_n", "pivot"},
        analysis.dynamic_scenario: {"check_every"},
        sortlab.Heap.__init__: {"heap_size"},
        analysis.space_table: {"n", "quick_trials"},
        analysis.stability_table: {"trials"},
        analysis.reproduce_tables: {"stability_trials"},
    }
    for fn, names in removed.items():
        parameters = inspect.signature(fn).parameters.values()
        assert not names & {p.name for p in parameters}, fn.__qualname__
        assert inspect.Parameter.VAR_KEYWORD not in {p.kind for p in parameters}, fn.__qualname__


def test_import_sortlab_leaves_the_measurement_side_and_cli_unloaded():
    code = "import sys, sortlab; print(*(m for m in sys.modules if m.startswith('sortlab')))"
    env = dict(os.environ, PYTHONPATH=str(Path(sortlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    loaded = set(done.stdout.split())
    assert "sortlab" in loaded
    assert not loaded & {"sortlab.analysis", "sortlab.cli"}, loaded

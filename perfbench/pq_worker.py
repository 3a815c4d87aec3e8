"""One pq-mixed request: fill a min-at-root Heap, then time the mixed phase.

Usage: python pq_worker.py FILL_FILE OPS_FILE RESULTS_FILE  (with PYTHONPATH=src)

Prints one JSON line: the mixed phase's wall time, the reference-kernel
reading around it, the operation counts per op kind, and whether the final
heap passes ``is_heap``. The values returned
by pop_root and remove_at, followed by the final live heap, are written to
RESULTS_FILE for the caller to check outside the timed region.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from reference import Probe
from sortlab import Heap, HeapOrder, OpCounters, is_heap

PUSH, POP = 0, 1


def fill_heap(fill: array) -> Heap:
    heap = Heap(order=HeapOrder.MIN_AT_ROOT)
    for v in fill:
        heap.push(v)
    return heap


def mixed_phase(heap: Heap, stream: array) -> tuple[float, array, dict[str, OpCounters]]:
    """Run every (kind, arg) pair of ``stream``; returns wall time, results, counters."""
    counters = {"push": OpCounters(), "pop_root": OpCounters(), "remove_at": OpCounters()}
    c_push, c_pop, c_remove = counters["push"], counters["pop_root"], counters["remove_at"]
    results = []
    record = results.append
    t0 = time.perf_counter()
    for i in range(0, len(stream), 2):
        kind = stream[i]
        if kind == PUSH:
            heap.push(stream[i + 1], c_push)
        elif kind == POP:
            record(heap.pop_root(c_pop))
        else:
            record(heap.remove_at(stream[i + 1], c_remove))
    wall = time.perf_counter() - t0
    return wall, array("q", results), counters


def phase_counts(counters: dict[str, OpCounters]) -> dict[str, int]:
    counts = {f"{op}_comparisons": c.comparisons for op, c in counters.items()}
    counts["swaps"] = sum(c.swaps for c in counters.values())
    counts["element_moves"] = sum(c.element_moves for c in counters.values())
    return counts


def main(fill_path: str, ops_path: str, results_path: str) -> int:
    fill, stream = array("q"), array("q")
    with open(fill_path, "rb") as fh:
        fill.frombytes(fh.read())
    with open(ops_path, "rb") as fh:
        stream.frombytes(fh.read())
    heap = fill_heap(fill)
    (wall, results, counters), reference_s = Probe().bracketed(lambda: mixed_phase(heap, stream))
    final = array("q", heap.elements[: heap.heap_size])
    with open(results_path, "wb") as fh:
        array("q", [len(results)]).tofile(fh)
        results.tofile(fh)
        final.tofile(fh)
    print(json.dumps({
        "wall_s": wall,
        "reference_s": reference_s,
        "ops": len(stream) // 2,
        "counts": phase_counts(counters),
        "is_heap": is_heap(heap.elements, heap.heap_size, HeapOrder.MIN_AT_ROOT),
    }))
    return 0


def read_results(path) -> tuple[array, list[int]]:
    data = array("q")
    with open(path, "rb") as fh:
        data.frombytes(fh.read())
    n = data[0]
    return data[1 : 1 + n], list(data[1 + n :])


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))

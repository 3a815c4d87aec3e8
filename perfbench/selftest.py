"""Self-test of the benchmark harness, at small input sizes (a few seconds).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that the harness can fail: a stand-in sort command that drops or
swaps one output line, a wrong pop_root result and a changed bench count
must each be caught and push failed_frac above 0. Also checks that one seed
always writes the same input bytes, that a traced and an untraced run report
identical counts, and that BENCHMARK.json lists exactly the metrics run.py
prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from run import OUT, ROOT, SRC, Run

sys.path.insert(0, str(SRC))

from inputs import Inputs, replay_pq  # noqa: E402
from lab_requests import Checker, InProcessRequests, ProcessRequests  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SMALL = {"sort_n": 4096, "pq_fill": 1024, "pq_ops": 4096}
WORK = OUT / "selftest"
PY = [sys.executable, "-c"]
STAND_INS = {
    "sorted": "import sys; v = sorted(int(x) for x in sys.stdin.read().split()); "
              "sys.stdout.write(''.join(f'{x}\\n' for x in v))",
    "drops a line": "import sys; v = sorted(int(x) for x in sys.stdin.read().split()); "
                    "del v[len(v) // 2]; sys.stdout.write(''.join(f'{x}\\n' for x in v))",
    "swaps two lines": "import sys; v = sorted(int(x) for x in sys.stdin.read().split()); "
                       "v[1], v[2] = v[2], v[1]; sys.stdout.write(''.join(f'{x}\\n' for x in v))",
}


def small_inputs(name: str, seed: int) -> Inputs:
    inputs = Inputs(WORK / name, seed, **SMALL)
    inputs.write()
    return inputs


def check_seeded_inputs() -> list[str]:
    a, b, c = small_inputs("a", 7), small_inputs("b", 7), small_inputs("c", 8)
    problems = []
    if a.digests() != b.digests():
        problems.append("one seed wrote different input bytes")
    if any(a.digests()[k] == c.digests()[k] for k in a.digests()):
        problems.append("two seeds wrote an identical input file")
    return problems


def check_stand_in_sorts() -> list[str]:
    inputs = small_inputs("sort", 7)
    checker = Checker(inputs, 7, None)
    problems = []
    for label, code in STAND_INS.items():
        reqs = ProcessRequests(ROOT, checker, inputs.workdir, time.monotonic() + 60,
                               sort_command=PY + [code])
        tally = Run()
        tally.tally(reqs.sort().problems)
        failed_frac = tally.failed / tally.attempted
        if (failed_frac > 0) != (label != "sorted"):
            problems.append(f"stand-in sort that {label}: failed_frac {failed_frac}")
    return problems


def check_pq_replay() -> list[str]:
    inputs = small_inputs("pq", 7)
    checker = Checker(inputs, 7, None)
    good = InProcessRequests(checker, inputs.workdir).pq()
    if not good.ok:
        return [f"correct pq phase flagged: {good.problems}"]
    from pq_worker import fill_heap, mixed_phase

    heap = fill_heap(checker.fill)
    _, results, _ = mixed_phase(heap, checker.stream)
    final = heap.elements[: heap.heap_size]
    results[len(results) // 2] += 1
    if not replay_pq(checker.fill, checker.stream, results, final):
        return ["a wrong pop_root/remove_at result passed the heapq replay"]
    return []


def check_bench_csv() -> list[str]:
    checker = Checker(small_inputs("csv", 7), 7, None)
    header = "algorithm,n,distribution,trial,comparisons,swaps,element_moves,aux_peak_slots,recursion_peak,wall_nanos\n"
    first = header + "uhs,256,random,0,3000,1500,0,0,0,123456\n"
    problems = [f"first bench CSV flagged: {p}" for p in checker.bench(0, first)]
    if checker.bench(0, first.replace("123456", "999")):
        problems.append("bench CSV check depends on wall_nanos")
    if not checker.bench(0, first.replace("3000", "3001")):
        problems.append("a changed bench count was not caught")
    return problems


def check_traced_counts() -> list[str]:
    """Untraced processes and a traced in-process run report identical counts."""
    inputs = small_inputs("counts", 7)
    checker = Checker(inputs, 7, None)
    reqs = ProcessRequests(ROOT, checker, inputs.workdir, time.monotonic() + 60)
    untraced = {"sort": reqs.sort(), "pq": reqs.pq()}
    tracer = Tracer()
    spanned = InProcessRequests(checker, inputs.workdir, around=lambda k: tracer.span(f"request.{k}"))
    with tracer.installed():
        traced = {"sort": spanned.sort(), "pq": spanned.pq()}
    problems = [p for o in [*untraced.values(), *traced.values()] for p in o.problems]
    for kind in untraced:
        if untraced[kind].counts != traced[kind].counts:
            problems.append(f"{kind}: traced {traced[kind].counts} != untraced {untraced[kind].counts}")
    layers = layer_metrics(tracer)
    sort_counts, pq_counts = untraced["sort"].counts, untraced["pq"].counts
    pairs = [
        (layers["uhs_sort.build_comparisons"] + layers["uhs_sort.extract_comparisons"],
         sort_counts.get("comparisons"), "uhs_sort comparisons"),
        (layers["uhs_sort.swaps"], sort_counts.get("swaps"), "uhs_sort swaps"),
        (layers["heap_core.swaps"], pq_counts.get("swaps"), "heap_core swaps"),
    ] + [(layers[f"heap_core.{op}_comparisons"], pq_counts.get(f"{op}_comparisons"), op)
         for op in ("push", "pop_root", "remove_at")]
    for got, want, what in pairs:
        if got != want:
            problems.append(f"span counts for {what}: {got}, program reported {want}")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {e2e} != run.py {run.END_TO_END}")
    names = ["cli.import_s", *layer_metrics(Tracer()), "trace.overhead_s"]
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != {n: run.per_layer_units(n) for n in names}:
        problems.append("per_layer in BENCHMARK.json differs from the metrics run.py prints")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.py")
    return problems


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    checks = [check_seeded_inputs, check_stand_in_sorts, check_pq_replay,
              check_bench_csv, check_traced_counts, check_benchmark_json]
    ok = True
    for check in checks:
        problems = check()
        print(f"{check.__name__}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

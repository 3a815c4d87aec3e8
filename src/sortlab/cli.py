"""Command-line front end: sort data, run benchmarks, probe stability, verify.

Exit codes: 0 success, 1 a check or verdict failed, 2 bad usage, bad input or
an output that cannot be written (a failed ``-o`` write or a closed stdout).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from pathlib import Path

from . import analysis
from .analysis import (
    Distribution,
    TableReport,
    cell_cost,
    dynamic_scenario,
    make_workload,
    reproduce_tables,  # noqa: F401 -- unused here, but perfbench/spans.py wraps it
    run_sweep,
    sweep_cells,
    write_csv,
)
from .baseline_sorts import AlgorithmId, KeyDomainError, PivotRule
from .heap_core import Heap, HeapOrder, build, is_heap
from .instrumentation import (
    SPECS,
    KeyDomain,
    build_cost_audit,
    counted_sort,
    sort_fault,
    stability_check,
)
from .uhs_sort import SortOrder, uhs_sort

_ORDERS = {"asc": SortOrder.ASCENDING, "desc": SortOrder.DESCENDING}
_ALGO_VALUES = [a.value for a in AlgorithmId]
_DIST_VALUES = [d.value for d in Distribution]
_PIVOT_VALUES = [p.value for p in PivotRule]


def _size_item(token: str) -> int:
    token = token.strip()
    if token.startswith("2^"):
        exponent = int(token[2:])
        if exponent < 0:
            raise ValueError(f"size {token!r} has a negative exponent")
        return 2**exponent
    n = int(token)
    if n < 0:
        raise ValueError(f"size {token!r} is negative")
    return n


def parse_sizes(text: str) -> list[int]:
    """Accept '2^8..2^11' (doubling ladder) or a comma list like '100,200,2^10'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = _size_item(lo_s), _size_item(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad size range {text!r}")
            sizes = []
            v = lo
            while v <= hi:
                sizes.append(v)
                v *= 2
            return sizes
        sizes = [_size_item(t) for t in text.split(",") if t.strip()]
        if not sizes:
            raise ValueError("no sizes given")
        return sizes
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _csv_list(valid: list[str], what: str):
    def parse(text: str) -> list[str]:
        items = [t.strip() for t in text.split(",") if t.strip()]
        if text.strip() == "all":
            return list(valid)
        for item in items:
            if item not in valid:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {item!r}; choose from {', '.join(valid)}"
                )
        if not items:
            raise argparse.ArgumentTypeError(f"no {what} given")
        return items

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortlab",
        description="Instrumented sorting algorithms and heap-backed priority queues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort values from a file or stdin")
    p_sort.add_argument("-a", "--algorithm", choices=_ALGO_VALUES, default="uhs")
    p_sort.add_argument("--order", choices=list(_ORDERS), default="asc")
    p_sort.add_argument("-i", "--input", help="input path, one value per line (default stdin)")
    p_sort.add_argument("-o", "--output", help="output path (default stdout)")
    p_sort.add_argument("--float", action="store_true", help="parse values as floats")
    p_sort.add_argument("--stats", action="store_true", help="print operation counts to stderr")
    p_sort.add_argument("--pivot", choices=_PIVOT_VALUES, default="random")
    p_sort.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="sweep algorithms and emit CSV")
    p_bench.add_argument(
        "--algorithms",
        type=_csv_list(_ALGO_VALUES, "algorithm"),
        default=list(_ALGO_VALUES),
        help="comma list or 'all' (default all)",
    )
    p_bench.add_argument(
        "--sizes", type=parse_sizes, default=parse_sizes("2^8..2^11"),
        help="'2^a..2^b' doubling ladder or comma list (default 2^8..2^11)",
    )
    p_bench.add_argument(
        "--distributions",
        type=_csv_list(_DIST_VALUES, "distribution"),
        default=["random"],
        help="comma list or 'all' (default random)",
    )
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--order", choices=list(_ORDERS), default="asc")
    p_bench.add_argument("--pivot", choices=_PIVOT_VALUES, default="random")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", help="write CSV here instead of stdout")

    p_stab = sub.add_parser("stability", help="report stability verdicts")
    p_stab.add_argument(
        "--algorithms",
        type=_csv_list(_ALGO_VALUES, "algorithm"),
        default=list(_ALGO_VALUES),
    )
    p_stab.add_argument("--trials", type=int, default=10_000)
    p_stab.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument(
        "--only",
        type=_csv_list(list(_CHECKS), "check"),
        default=None,
        help=f"comma list of checks (default all: {', '.join(_CHECKS)})",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def _read_values(args) -> list | int:
    """Parse input values; returns the list, or an exit code on failure."""
    if args.input:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as e:
            print(f"cannot read {args.input}: {e}", file=sys.stderr)
            return 2
    else:
        text = sys.stdin.read()
    parse = float if args.float else int
    lines = text.splitlines()
    try:
        values = list(map(parse, filter(str.strip, lines)))
    except ValueError:
        pass
    else:
        if not args.float or all(map(math.isfinite, values)):
            return values
    # Some line is bad: parse them again one by one to name the first.
    for ln, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s:
            continue
        try:
            value = parse(raw)
        except ValueError:
            print(f"input line {ln}: cannot parse {s!r}", file=sys.stderr)
            break
        if args.float and not math.isfinite(value):
            print(f"input line {ln}: NaN and infinities cannot be sorted", file=sys.stderr)
            break
    return 2


def _cmd_sort(args) -> int:
    algorithm = AlgorithmId(args.algorithm)
    domain = SPECS[algorithm].keys
    if domain is not KeyDomain.COMPARABLE and args.float != (domain is KeyDomain.UNIT_FLOAT):
        fix = "drop" if args.float else "pass"
        print(f"{algorithm.value} sort takes {domain.value}; {fix} --float", file=sys.stderr)
        return 2
    values = _read_values(args)
    if isinstance(values, int):
        return values
    try:
        _, counters = counted_sort(
            algorithm,
            values,
            _ORDERS[args.order],
            seed=args.seed,
            pivot=PivotRule(args.pivot),
        )
    except KeyDomainError as e:
        print(str(e), file=sys.stderr)
        return 2
    out = "\n".join(map(str, values)) + "\n" if values else ""
    if args.output:
        try:
            Path(args.output).write_text(out)
        except OSError as e:
            print(f"cannot write {args.output}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    if args.stats:
        for name, value in counters.as_dict().items():
            print(f"{name}={value}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    algorithms = [AlgorithmId(v) for v in args.algorithms]
    distributions = [Distribution(v) for v in args.distributions]
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    cells = sweep_cells(algorithms, args.sizes, distributions)
    if not cells:  # integer-key algorithms only, uniform01 only
        print(f"{algorithms[0].value} sort cannot take uniform01 (float) keys", file=sys.stderr)
        return 2
    int_only = [a for a in algorithms if SPECS[a].keys is KeyDomain.NONNEG_INT]
    if int_only and Distribution.UNIFORM01 in distributions:
        names = ",".join(a.value for a in int_only)
        print(f"note: skipping {names} x uniform01 (integer keys only)", file=sys.stderr)
    # The distinct cells, costliest first, dealt round-robin into at most 32
    # tasks: few pool round trips, and no task holds more than ceil(cells / 32).
    ranked = sorted(dict.fromkeys(cells), key=lambda c: cell_cost(c[0], c[1]), reverse=True)
    tasks = [ranked[i::32] for i in range(min(32, len(ranked)))]
    run = functools.partial(_sweep_task, options=dict(
        trials=args.trials, seed=args.seed, order=_ORDERS[args.order], pivot=PivotRule(args.pivot)
    ))
    done = {}
    for task, (ok, results) in zip(tasks, _job_results(run, tasks)):
        # a task that raised runs again here, to raise the same exception in this process
        done.update(zip(task, results if ok else run(task)))
    records = [record for cell in cells for record in done[cell]]
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                write_csv(records, fh)
        except OSError as e:
            print(f"cannot write {args.csv}: {e}", file=sys.stderr)
            return 2
    else:
        write_csv(records, sys.stdout)
    return 0


def _sweep_task(cells: list, options: dict) -> list:
    """Each cell's records, as `run_sweep` makes them for that cell alone."""
    return [run_sweep([a], [n], [d], **options) for a, n, d in cells]


def _cmd_stability(args) -> int:
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    ok = True
    for algorithm in map(AlgorithmId, args.algorithms):
        verdict = stability_check(algorithm, trials=args.trials, seed=args.seed)
        print(verdict.describe())
        ok &= verdict.ok
    return 0 if ok else 1


def _check_build_cost(seed: int) -> tuple[bool, list[str]]:
    rows = build_cost_audit([2**10, 2**12, 2**14, 2**16], seed)
    lines = [f"n={r.n} comparisons={r.comparisons} bound={r.bound}" for r in rows]
    return all(r.ok for r in rows), lines


def _check_heap_invariants(seed: int) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    for trial in range(150):
        n = rng.randint(0, 128)
        arr = [rng.randint(-999, 999) for _ in range(n)]
        ordered = sorted(arr)
        built = arr[:]
        build(built)
        if not is_heap(built):
            return False, [f"trial {trial}: construction broke the heap property"]
        h = Heap(order=HeapOrder.MIN_AT_ROOT)
        for v in arr:
            h.push(v)
        if not is_heap(h.elements, h.heap_size, HeapOrder.MIN_AT_ROOT):
            return False, [f"trial {trial}: pushes broke the heap property"]
        drained = [h.pop_root() for _ in range(len(h))]
        if drained != ordered:
            return False, [f"trial {trial}: drain order wrong for {arr!r}"]
        sorted_arr = arr[:]
        uhs_sort(sorted_arr)
        if sorted_arr != ordered:
            return False, [f"trial {trial}: sort disagreed with oracle on {arr!r}"]
    return True, ["150 randomized build/push/drain/sort trials"]


def _check_differential(seed: int) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    for trial in range(250):
        n = rng.randint(0, 100)
        ints = [rng.randint(0, max(1, 4 * n)) for _ in range(n)]
        floats = [rng.random() for _ in range(n)]
        order = SortOrder.DESCENDING if trial % 2 else SortOrder.ASCENDING
        for algorithm, spec in SPECS.items():
            keys = floats if spec.keys is KeyDomain.UNIT_FLOAT else ints
            fault = sort_fault(algorithm, keys, order, trial, PivotRule.RANDOM_SEEDED)
            if fault == "missorted" or (fault and spec.stable):
                return False, [f"trial {trial}: {algorithm.value} {order.value} {fault} {keys!r}"]
    return True, [f"250 randomized trials x {len(SPECS)} algorithms, alternating order, "
                  "against the stable sorted() oracle"]


def _check_dynamic(seed: int) -> tuple[bool, list[str]]:
    report = dynamic_scenario(make_workload(10_000, seed))
    line = (
        f"heap comparisons {report.heap_counters.comparisons} vs "
        f"oracle shifts {report.oracle_shifts} over {report.steps} ops"
    )
    return report.ok, [line]


def _table_rows(table: str, seed: int):
    """``analysis.<table>(seed)``, looked up when the job runs so that a wrapped table runs."""
    return getattr(analysis, table)(seed)


def _tables(time_rows, space_rows, stability_rows) -> tuple[bool, list[str]]:
    report = TableReport(time_rows, space_rows, stability_rows)
    return report.ok, report.as_text().splitlines()


# Each check: the independent jobs it runs, each called with the seed, and
# the function that makes the check's (ok, detail lines) from their results;
# a one-job check without one passes its job's (ok, detail lines) through.
_CHECKS = {
    "build-cost": ((_check_build_cost,), None),
    "heap-invariants": ((_check_heap_invariants,), None),
    "differential": ((_check_differential,), None),
    "dynamic": ((_check_dynamic,), None),
    "tables": (tuple(functools.partial(_table_rows, table)
                     for table in ("time_table", "space_table", "stability_table")), _tables),
}


def _run_job(job: tuple[str, int], seed: int):
    """Run job (check, index) of `_CHECKS` with the seed."""
    name, index = job
    return _CHECKS[name][0][index](seed)


def _attempt(run, job) -> tuple[bool, object]:
    """(True, run(job)), or (False, the message of what it raised): unlike an
    exception from outside sortlab, a message always survives the trip back from a worker."""
    try:
        return True, run(job)
    except Exception as e:
        return False, str(e)


def _job_results(run, jobs: list) -> list:
    """``[_attempt(run, job) for job in jobs]``, on every CPU this process may use.

    With more than one job and more than one CPU that this process may run
    on, the jobs run on a pool of forked workers, one per CPU, which starts
    them in the order given; otherwise they run here, one after another.
    Either way the results are the same. The pool's modules are imported
    only when a pool is used. Forked workers see the process as it is,
    patched functions included.
    """
    attempt = functools.partial(_attempt, run)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else 1, len(jobs))
    if workers > 1:
        import multiprocessing
        import threading

        # A fork copies only the calling thread, so it is unsafe while others run.
        if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        return list(map(attempt, jobs))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(attempt, jobs))


def _cmd_verify(args) -> int:
    names = args.only if args.only else list(_CHECKS)
    jobs = [(name, i) for name in dict.fromkeys(names) for i in range(len(_CHECKS[name][0]))]
    results = dict(zip(jobs, _job_results(functools.partial(_run_job, seed=args.seed), jobs)))
    all_ok = True
    for name in names:
        check_jobs, verdict = _CHECKS[name]
        ran = [results[name, i] for i in range(len(check_jobs))]
        raised = [value for done, value in ran if not done]
        if raised:
            ok, detail = False, raised
        elif verdict is None:
            ok, detail = ran[0][1]
        else:
            ok, detail = verdict(*(value for _, value in ran))
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            for line in detail:
                print(f"  {line}")
            all_ok = False
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "sort": _cmd_sort,
        "bench": _cmd_bench,
        "stability": _cmd_stability,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; aim it at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

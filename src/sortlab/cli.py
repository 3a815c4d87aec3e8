"""Command-line front end: sort data, run benchmarks, probe stability, verify.

Exit codes: 0 success, 1 a check or verdict failed, 2 bad usage, bad input or
an output that cannot be written (a failed ``-o`` write, a full or closed stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import random
import sys

from . import analysis
from .analysis import (
    Distribution,
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

_ALGO_VALUES = [a.value for a in AlgorithmId]
_DIST_VALUES = [d.value for d in Distribution]
_PIVOT_VALUES = [p.value for p in PivotRule]
_CHUNK = 65_536  # values `sortlab sort` formats per write: its output is never held whole


class _Rejected(Exception):
    """A request that `main` reports on stderr, ending with exit status 2."""


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
    """Accept '2^8..2^11' (doubling ladder) or a comma list like '100,200,2^10'.

    A size listed twice is kept once, in its first place.
    """
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
        return list(dict.fromkeys(sizes))
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
        return list(dict.fromkeys(items))  # an item named twice counts once

    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser that prints help through `_output`, so a failed write exits 2.

    argparse's own printer ignores an ``OSError`` from the write.
    """

    def print_help(self, file=None):  # only -h calls it, with no file: help goes to stdout
        with _output() as out:
            out.write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sortlab",
        description="Instrumented sorting algorithms and heap-backed priority queues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort values from a file or stdin")
    p_sort.add_argument("-a", "--algorithm", choices=_ALGO_VALUES, default="uhs")
    p_sort.add_argument("--order", choices=[o.value for o in SortOrder], default="asc")
    p_sort.add_argument("-i", "--input", help="input path, one value per line (default stdin)")
    p_sort.add_argument("-o", "--output", help="output path (default stdout)")
    p_sort.add_argument("--float", action="store_true", help="parse values as floats")
    p_sort.add_argument("--stats", action="store_true", help="print operation counts to stderr")
    p_sort.add_argument("--pivot", choices=_PIVOT_VALUES, default="random")
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.set_defaults(run=_cmd_sort)

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
    p_bench.add_argument("--order", choices=[o.value for o in SortOrder], default="asc")
    p_bench.add_argument("--pivot", choices=_PIVOT_VALUES, default="random")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", help="write CSV here instead of stdout")
    p_bench.set_defaults(run=_cmd_bench)

    p_stab = sub.add_parser("stability", help="report stability verdicts")
    p_stab.add_argument(
        "--algorithms",
        type=_csv_list(_ALGO_VALUES, "algorithm"),
        default=list(_ALGO_VALUES),
    )
    p_stab.add_argument("--trials", type=int, default=10_000)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.set_defaults(run=_cmd_stability)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument(
        "--only",
        type=_csv_list(list(_CHECKS), "check"),
        default=None,
        help=f"comma list of checks (default all: {', '.join(_CHECKS)})",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _read_values(args) -> list:
    """The input's values, one a line, read and parsed in one pass; blank lines are skipped.

    A line ends at ``\\n`` alone, in a file as on stdin; a ``\\r`` before it is whitespace.
    """
    parse = float if args.float else int
    values = []
    try:
        source = open(args.input, newline="\n") if args.input else contextlib.nullcontext(sys.stdin)
        with source as lines:
            for ln, raw in enumerate(lines, 1):
                try:
                    value = parse(raw)
                except ValueError:
                    if raw.isspace():
                        continue
                    raise _Rejected(f"input line {ln}: cannot parse {raw.strip()!r}") from None
                if args.float and not math.isfinite(value):
                    raise _Rejected(f"input line {ln}: NaN and infinities cannot be sorted")
                values.append(value)
    except (OSError, UnicodeDecodeError) as e:
        raise _Rejected(f"cannot read {args.input or 'stdin'}: {e}") from None
    return values


@contextlib.contextmanager
def _output(path: str | None = None):
    """The file at ``path`` opened for writing, or stdout when there is no path.

    Stdout is flushed at the end. A failed write is a rejection; a stdout that
    failed is then aimed at devnull, so that the flush at exit cannot raise again.
    """
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            yield fh
            fh.flush()
    except OSError as e:
        if path:
            raise _Rejected(f"cannot write {path}: {e}") from None
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(e, BrokenPipeError):
            raise _Rejected() from None  # a reader that closed stdout goes unreported
        raise _Rejected(f"cannot write stdout: {e}") from None


def _cmd_sort(args) -> int:
    algorithm = AlgorithmId(args.algorithm)
    domain = SPECS[algorithm].keys
    if domain is not KeyDomain.COMPARABLE and args.float != (domain is KeyDomain.UNIT_FLOAT):
        fix = "drop" if args.float else "pass"
        raise _Rejected(f"{algorithm.value} sort takes {domain.value}; {fix} --float")
    values = _read_values(args)
    try:
        _, counters = counted_sort(algorithm, values, SortOrder(args.order), seed=args.seed,
                                   pivot=PivotRule(args.pivot))
    except KeyDomainError as e:
        raise _Rejected(str(e)) from None
    with _output(args.output) as fh:
        for start in range(0, len(values), _CHUNK):
            chunk = tuple(values[start:start + _CHUNK])
            fh.write("%s\n" * len(chunk) % chunk)
    if args.stats:
        for name, value in counters.as_dict().items():
            print(f"{name}={value}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    algorithms = [AlgorithmId(v) for v in args.algorithms]
    distributions = [Distribution(v) for v in args.distributions]
    if args.trials < 1:
        raise _Rejected("--trials must be >= 1")
    cells = sweep_cells(algorithms, args.sizes, distributions)
    if not cells:  # integer-key algorithms only, uniform01 only
        raise _Rejected(f"{algorithms[0].value} sort cannot take uniform01 (float) keys")
    int_only = [a for a in algorithms if SPECS[a].keys is KeyDomain.NONNEG_INT]
    if int_only and Distribution.UNIFORM01 in distributions:
        names = ",".join(a.value for a in int_only)
        print(f"note: skipping {names} x uniform01 (integer keys only)", file=sys.stderr)
    # The cells, costliest first, dealt round-robin into at most 32 tasks:
    # few pool round trips, and no task holds more than ceil(cells / 32).
    ranked = sorted(cells, key=lambda c: cell_cost(c[0], c[1]), reverse=True)
    tasks = [ranked[i::32] for i in range(min(32, len(ranked)))]
    run = functools.partial(_sweep_task, options=dict(
        trials=args.trials, seed=args.seed, order=SortOrder(args.order), pivot=PivotRule(args.pivot)
    ))
    done = {}
    for task, (ok, results) in zip(tasks, _job_results(run, tasks)):
        # a task that raised runs again here, to raise the same exception in this process
        done.update(zip(task, results if ok else run(task)))
    records = [record for cell in cells for record in done[cell]]
    with _output(args.csv) as fh:
        write_csv(records, fh)
    return 0


def _sweep_task(cells: list, options: dict) -> list:
    """Each cell's records, as `run_sweep` makes them for that cell alone."""
    return [run_sweep([a], [n], [d], **options) for a, n, d in cells]


def _cmd_stability(args) -> int:
    if args.trials < 1:
        raise _Rejected("--trials must be >= 1")
    ok = True
    for algorithm in map(AlgorithmId, args.algorithms):
        verdict = stability_check(algorithm, trials=args.trials, seed=args.seed)
        with _output() as out:
            print(verdict.describe(), file=out)
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


def _as_is(result: tuple[bool, list[str]]) -> tuple[bool, list[str]]:
    """A one-job check's verdict: its job's (ok, detail lines)."""
    return result


def _tables(*results) -> tuple[bool, list[str]]:
    report = analysis.assemble_tables(results)
    return report.ok, report.as_text().splitlines()


# Each check: the independent jobs it runs, each called with the seed, and
# the function that makes the check's (ok, detail lines) from their results.
_CHECKS = {
    "build-cost": ((_check_build_cost,), _as_is),
    "heap-invariants": ((_check_heap_invariants,), _as_is),
    "differential": ((_check_differential,), _as_is),
    "dynamic": ((_check_dynamic,), _as_is),
    "tables": (analysis.TABLE_PARTS, _tables),
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
    jobs = [(name, i) for name in names for i in range(len(_CHECKS[name][0]))]
    results = iter(_job_results(functools.partial(_run_job, seed=args.seed), jobs))
    all_ok = True
    for name in names:
        check_jobs, verdict = _CHECKS[name]
        ran = [next(results) for _ in check_jobs]
        raised = [value for done, value in ran if not done]
        ok, detail = (False, raised) if raised else verdict(*(value for _, value in ran))
        with _output() as out:
            print(f"{name}: {'PASS' if ok else 'FAIL'}", file=out)
            if not ok:
                for line in detail:
                    print(f"  {line}", file=out)
                all_ok = False
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:  # after help, or a usage error argparse reported
            return int(e.code or 0)
        return args.run(args)
    except _Rejected as e:
        if e.args:
            print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

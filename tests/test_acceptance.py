"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines are
echoed in the terminal summary (see conftest). Every threshold here is
asserted at its stated tolerance -- nothing is loosened for convenience.
"""

import math
import random
import time

from conftest import record_criterion

from sortlab.analysis import (
    Distribution,
    dynamic_scenario,
    generate_input,
    growth_fit,
    make_workload,
    space_table,
    Complexity,
)
from sortlab.baseline_sorts import AlgorithmId, PivotRule
from sortlab.cli import main as cli_main
from sortlab.counting import OpCounters
from sortlab.instrumentation import (
    SPECS,
    build_cost_audit,
    sort_fault,
    stability_check,
)
from sortlab.uhs_sort import SortOrder, uhs_sort


def test_criterion_1_linear_heap_construction():
    """Bottom-up construction stays within 2(n-1) comparisons up to n=2^20."""
    sizes = [2**e for e in (10, 12, 14, 16, 18, 20)]
    t0 = time.perf_counter()
    rows = build_cost_audit(sizes, seed=0)
    elapsed = time.perf_counter() - t0
    bound_ok = all(r.ok for r in rows)
    ok = bound_ok and elapsed < 10.0
    worst = max(r.comparisons / r.bound for r in rows)
    record_criterion(1, ok, f"worst ratio {worst:.3f} of 2(n-1), {elapsed:.1f}s")
    assert ok, [tuple(r) for r in rows]


def test_criterion_2_heapsort_bound_and_growth():
    """Full-sort comparisons stay within 2(n-1)(ceil(log2 n)+1) and fit n log n."""
    sizes = [2**e for e in (10, 12, 14, 16, 18)]
    shapes = {
        "random": lambda n, s: generate_input(Distribution.RANDOM_SEEDED, n, s),
        "sorted": lambda n, s: list(range(n)),
        "reversed": lambda n, s: list(range(n, 0, -1)),
    }
    failures = []
    fits = {}
    for name, gen in shapes.items():
        points = []
        for n in sizes:
            arr = gen(n, 1000003 * n + 2)
            c = OpCounters()
            uhs_sort(arr, counters=c)
            bound = 2 * (n - 1) * math.ceil(math.log2(n)) + 2 * (n - 1)
            if c.comparisons > bound:
                failures.append(f"{name} n={n}: {c.comparisons} > {bound}")
            points.append((n, c.comparisons))
        fits[name] = growth_fit(points).kind
        if fits[name] is not Complexity.LINEARITHMIC:
            failures.append(f"{name} fitted {fits[name].value}")
    ok = not failures
    detail = "; ".join(f"{k}={v.value}" for k, v in fits.items())
    record_criterion(2, ok, detail if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_3_quicksort_worst_case():
    """Last-element pivot on sorted input: exact n(n-1)/2 and a quadratic fit."""
    from sortlab.baseline_sorts import quicksort

    a = list(range(1000))
    c = OpCounters()
    quicksort(a, counters=c, pivot=PivotRule.LAST_ELEMENT)
    exact_ok = c.comparisons == 1000 * 999 // 2

    points = []
    exact_ladder_ok = True
    for n in [2**e for e in range(8, 13)]:
        arr = list(range(n))
        cc = OpCounters()
        quicksort(arr, counters=cc, pivot=PivotRule.LAST_ELEMENT)
        exact_ladder_ok &= cc.comparisons == n * (n - 1) // 2
        points.append((n, cc.comparisons))
    fit = growth_fit(points)
    ok = exact_ok and exact_ladder_ok and fit.kind is Complexity.QUADRATIC
    record_criterion(
        3, ok, f"n=1000 comparisons {c.comparisons}, fit {fit.kind.value}"
    )
    assert ok


def test_criterion_4_auxiliary_space_accounting():
    """Aux peaks at n=4096 match each design; quicksort's claim-vs-depth gap is declared."""
    rows = {r.algorithm: r for r in space_table(seed=0)}
    A = AlgorithmId
    checks = {
        "uhs=0": rows[A.UHS].measured == 0,
        "insertion=0": rows[A.INSERTION].measured == 0,
        "bubble=0": rows[A.BUBBLE].measured == 0,
        "merge=n": rows[A.MERGE].measured == 4096,
        "radix<=n+k": rows[A.RADIX].measured <= 4096 + 256,
        "bucket<=2n": rows[A.BUCKET].measured <= 2 * 4096,
        "quick depth<=2log2n": rows[A.QUICK].measured <= 2 * 12,
        "quick discrepancy declared": rows[A.QUICK].note is not None
        and rows[A.QUICK].claimed == "O(n log n)",
    }
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    record_criterion(
        4, ok,
        f"quick max depth {rows[A.QUICK].measured} vs budget 24" if ok else "; ".join(bad),
    )
    assert ok, bad


def test_criterion_5_stability_verdicts(capsys):
    """Short witnesses for the unstable pair; 10^4 clean trials for the stable five."""
    failures = []
    for algorithm in (AlgorithmId.QUICK, AlgorithmId.UHS):
        verdict = stability_check(algorithm, trials=100)
        if verdict.stable or verdict.witness is None or len(verdict.witness) > 6:
            failures.append(f"{algorithm.value}: no short witness ({verdict})")
    for algorithm in [a for a in AlgorithmId if SPECS[a].stable]:
        verdict = stability_check(algorithm, trials=10_000)
        if not verdict.stable:
            failures.append(f"{algorithm.value}: violation {verdict.witness}")
    exit_code = cli_main(["stability", "--trials", "2000"])
    capsys.readouterr()
    if exit_code != 0:
        failures.append(f"stability command exited {exit_code}")
    ok = not failures
    record_criterion(5, ok, "witnesses <= 6, 10^4 trials clean, exit 0" if ok else "; ".join(failures))
    assert ok, failures


def _differential_case(algorithm: AlgorithmId, keys: list, seed: int) -> bool:
    # every element exactly where the stable sorted() puts it; an unstable
    # algorithm may reorder equal keys, but nothing else
    fault = sort_fault(algorithm, keys, SortOrder.ASCENDING, seed, PivotRule.RANDOM_SEEDED)
    return fault is None or (fault == "unstable" and not SPECS[algorithm].stable)


def _keys_for(algorithm: AlgorithmId, n: int, rng: random.Random) -> list:
    if algorithm is AlgorithmId.BUCKET:
        return [rng.random() for _ in range(n)]
    if algorithm is AlgorithmId.RADIX:
        return [rng.randrange(max(4 * n, 1)) for _ in range(n)]
    return [rng.randint(-n, n) for _ in range(n)]


def _adversarial_keys(algorithm: AlgorithmId, shape: str, n: int, rng: random.Random) -> list:
    as_floats = algorithm is AlgorithmId.BUCKET
    if shape == "sorted":
        return [i / n for i in range(n)] if as_floats else list(range(n))
    if shape == "reversed":
        if as_floats:
            return [(n - 1 - i) / n for i in range(n)]
        return list(range(n - 1, -1, -1))
    if shape == "all-equal":
        return [0.5] * n if as_floats else [7] * n
    palette = (0.125, 0.375, 0.625, 0.875) if as_floats else (5, 13, 89, 144)
    return [rng.choice(palette) for _ in range(n)]


def test_criterion_6_differential_against_sorted_oracle():
    """10^4 random arrays round-robin plus adversarial shapes, payload-exact when stable."""
    rng = random.Random(0xC6)
    algorithms = list(AlgorithmId)
    failures = []
    for t in range(10_000):
        algorithm = algorithms[t % len(algorithms)]
        if rng.random() < 0.02:
            n = 0
        else:
            n = min(512, int(2 ** rng.uniform(0, 9.005)))
        keys = _keys_for(algorithm, n, rng)
        if not _differential_case(algorithm, keys, seed=t):
            failures.append(f"trial {t} {algorithm.value} n={n}")
            if len(failures) > 5:
                break
    for algorithm in algorithms:
        for shape in ("sorted", "reversed", "all-equal", "few-unique"):
            for n in (256, 509):
                keys = _adversarial_keys(algorithm, shape, n, rng)
                if not _differential_case(algorithm, keys, seed=n):
                    failures.append(f"adversarial {algorithm.value}/{shape}/{n}")
    ok = not failures
    record_criterion(
        6, ok,
        "10056 arrays, zero mismatches" if ok else "; ".join(failures[:6]),
    )
    assert ok, failures


def test_criterion_7_dynamic_workload_differential():
    """10^4 mixed ops agree with the sorted-list oracle step for step, and cost less."""
    report = dynamic_scenario(make_workload(10_000, seed=0))
    cmp = report.heap_counters.comparisons
    shifts = report.oracle_shifts
    ok = report.steps == 10_000 and cmp < shifts
    record_criterion(7, ok, f"heap {cmp} comparisons vs oracle {shifts} shifts")
    assert ok


def test_criterion_8_bench_reproducibility(tmp_path, capsys):
    """Two identical bench invocations emit byte-identical CSV modulo wall_nanos."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    argv_tail = [
        "--algorithms", "all", "--sizes", "2^8..2^10",
        "--distributions", "random,sorted", "--trials", "2", "--seed", "7",
    ]
    codes = [cli_main(["bench", "--csv", str(p)] + argv_tail) for p in paths]
    capsys.readouterr()

    def strip_wall(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    ok = codes == [0, 0] and strip_wall(paths[0]) == strip_wall(paths[1])
    rows = len(strip_wall(paths[0])) - 1
    record_criterion(8, ok, f"{rows} rows identical modulo wall_nanos")
    assert ok

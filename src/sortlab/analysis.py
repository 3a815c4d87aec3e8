"""Empirical growth analysis: sweeps, curve fitting, and summary tables.

Three summary tables -- complexity growth, auxiliary space, stability --
check each algorithm against the class it is supposed to exhibit. ``sortlab
verify`` runs their parts, `TABLE_PARTS`, as jobs and puts the results
together with `assemble_tables`; `reproduce_tables` does the same serially.
`dynamic_scenario` runs a mixed push/pop/remove workload against a sorted-list
oracle to show where a heap earns its keep.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from .baseline_sorts import AlgorithmId, PivotRule
from .counting import OpCounters
from .heap_core import Heap, HeapOrder, is_heap
from .instrumentation import (
    SPECS,
    KeyDomain,
    StabilityVerdict,
    counted_sort,
    draws_below,
    stability_check,
)
from .uhs_sort import SortOrder

CSV_HEADER = f"algorithm,n,distribution,trial,{','.join(OpCounters().as_dict())},wall_nanos"

# Size ladders: linear/linearithmic rows can afford large n, quadratic rows
# are capped where n^2 operation counts stay affordable in pure Python.
FAST_SIZES = [2**e for e in range(10, 17)]
QUAD_SIZES = [2**e for e in range(8, 12)]


class Distribution(Enum):
    RANDOM_SEEDED = "random"
    SORTED = "sorted"
    REVERSED = "reversed"
    FEW_UNIQUE = "few-unique"
    UNIFORM01 = "uniform01"


_DIST_INDEX = {d: i for i, d in enumerate(Distribution)}

_FEW_UNIQUE_INTS = (5, 13, 89, 144)
_FEW_UNIQUE_FLOATS = (0.125, 0.375, 0.625, 0.875)


class Complexity(Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    LINEARITHMIC = "linearithmic"
    QUADRATIC = "quadratic"


class InsufficientDataError(ValueError):
    """The measured series cannot support a growth-class decision."""


@dataclass(frozen=True)
class GrowthClass:
    kind: Complexity
    residual: float


# Candidate shapes ordered fastest to slowest; a residual tie goes to the
# slower class so a fit never flatters the measurement.
_MODELS: list[tuple[Complexity, Callable[[int], float]]] = [
    (Complexity.CONSTANT, lambda n: 1.0),
    (Complexity.LINEAR, lambda n: float(n)),
    (Complexity.LINEARITHMIC, lambda n: n * math.log2(n)),
    (Complexity.QUADRATIC, lambda n: float(n) * n),
]


def growth_fit(points: Iterable[tuple[int, float]]) -> GrowthClass:
    """Classify a (n, cost) series as constant/linear/linearithmic/quadratic.

    For each candidate g the fit minimizes the log-space residual of
    cost = c * g(n) (closed form: center the logs). Requires at least four
    points, n >= 4 throughout, a max/min span of 8x or more, and strictly
    positive costs; anything less raises InsufficientDataError.
    """
    pts = sorted(points)
    if len(pts) < 4:
        raise InsufficientDataError(f"need >= 4 points, got {len(pts)}")
    if any(n < 4 for n, _ in pts):
        raise InsufficientDataError("all sizes must be >= 4")
    if pts[-1][0] < 8 * pts[0][0]:
        raise InsufficientDataError(
            f"size span {pts[0][0]}..{pts[-1][0]} too narrow to separate classes"
        )
    if any(c <= 0 for _, c in pts):
        raise InsufficientDataError("costs must be strictly positive")

    best: GrowthClass | None = None
    for kind, g in _MODELS:
        logs = [math.log(c) - math.log(g(n)) for n, c in pts]
        mean = sum(logs) / len(logs)
        ss = sum((e - mean) ** 2 for e in logs)
        if best is None or ss <= best.residual:
            best = GrowthClass(kind, ss)
    assert best is not None
    return best


def generate_input(
    distribution: Distribution, n: int, seed: int, floats: bool = False
) -> list:
    """Deterministic input array for one (distribution, size, seed) cell.

    ``floats`` switches the integer distributions to equivalents inside
    [0, 1) so bucket sort can consume any distribution; uniform01 is floats
    by definition. Integer draws match ``random.Random(seed)``'s
    ``randrange`` and ``choice`` value for value (see `draws_below`).
    """
    rng = random.Random(seed)
    if distribution is Distribution.UNIFORM01:
        return [rng.random() for _ in range(n)]
    if distribution is Distribution.SORTED:
        return [i / n for i in range(n)] if floats else list(range(n))
    if distribution is Distribution.REVERSED:
        if floats:
            return [(n - 1 - i) / n for i in range(n)]
        return list(range(n - 1, -1, -1))
    if distribution is Distribution.FEW_UNIQUE:
        palette = _FEW_UNIQUE_FLOATS if floats else _FEW_UNIQUE_INTS
        return [palette[i] for i in draws_below(rng, len(palette), n)]
    if distribution is Distribution.RANDOM_SEEDED:
        if floats:
            return [rng.random() for _ in range(n)]
        return draws_below(rng, max(4 * n, 1), n)
    raise ValueError(f"unknown distribution {distribution!r}")


def _subseed(seed: int, n: int, distribution: Distribution, trial: int) -> int:
    # Pure arithmetic so CSV output is byte-stable across interpreter runs
    # (str hashing is salted by PYTHONHASHSEED and must not leak in here).
    return ((seed * 1000003 + n) * 1000003 + _DIST_INDEX[distribution]) * 1000003 + trial


@dataclass(frozen=True)
class BenchRecord:
    algorithm: AlgorithmId
    n: int
    distribution: Distribution
    trial: int
    counters: OpCounters
    wall_nanos: int

    def csv_row(self) -> str:
        counts = ",".join(map(str, self.counters.as_dict().values()))
        return (
            f"{self.algorithm.value},{self.n},{self.distribution.value},"
            f"{self.trial},{counts},{self.wall_nanos}"
        )


def write_csv(records: Iterable[BenchRecord], stream: TextIO) -> None:
    stream.write(CSV_HEADER + "\n")
    for rec in records:
        stream.write(rec.csv_row() + "\n")


def run_sweep(
    algorithms: Sequence[AlgorithmId],
    sizes: Sequence[int],
    distributions: Sequence[Distribution],
    trials: int = 1,
    seed: int = 0,
    order: SortOrder = SortOrder.ASCENDING,
    pivot: PivotRule = PivotRule.RANDOM_SEEDED,
) -> list[BenchRecord]:
    """Measure every (algorithm, size, distribution, trial) cell.

    The input array for a cell depends only on (seed, size, distribution,
    trial), so every algorithm sees identical data and repeated sweeps are
    reproducible except for wall-clock nanos. An algorithm whose key domain is
    [0, 1) receives the float rendition of integer distributions; one that
    takes only integer keys skips the uniform01 cells.
    """
    records = []
    for algorithm, n, dist in sweep_cells(algorithms, sizes, distributions):
        wants_floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
        for trial in range(trials):
            sub = _subseed(seed, n, dist, trial)
            arr = generate_input(dist, n, sub, floats=wants_floats)
            t0 = time.perf_counter_ns()
            _, c = counted_sort(algorithm, arr, order, seed=sub, pivot=pivot)
            wall = time.perf_counter_ns() - t0
            records.append(BenchRecord(algorithm, n, dist, trial, c, wall))
    return records


def sweep_cells(
    algorithms: Sequence[AlgorithmId],
    sizes: Sequence[int],
    distributions: Sequence[Distribution],
) -> list[tuple[AlgorithmId, int, Distribution]]:
    """A sweep's (algorithm, size, distribution) cells, in `run_sweep`'s order.

    An algorithm that takes only integer keys has no uniform01 cells.
    """
    return [
        (algorithm, n, dist)
        for algorithm in algorithms
        for n in sizes
        for dist in distributions
        if not (SPECS[algorithm].keys is KeyDomain.NONNEG_INT and dist is Distribution.UNIFORM01)
    ]


@dataclass(frozen=True)
class TimeRow:
    algorithm: AlgorithmId
    case: str
    inputs: str
    expected: Complexity
    fitted: GrowthClass

    @property
    def ok(self) -> bool:
        return self.fitted.kind is self.expected


@dataclass(frozen=True)
class SpaceRow:
    algorithm: AlgorithmId
    claimed: str
    metric: str
    measured: int
    budget: int
    ok: bool
    note: str | None = None


def _clustered(n: int, seed: int) -> list[float]:
    # every key inside [0, 1/n): the whole array lands in one bucket
    rng = random.Random(seed)
    return [rng.random() / n for _ in range(n)]


class _TimeCase(NamedTuple):
    """One fit of `time_table`: an algorithm's counts on one kind of input."""

    algorithm: AlgorithmId
    cases: tuple[str, ...]  # one table row per name, all sharing this fit
    inputs: str
    expected: Complexity
    source: Callable[[int, int], list]  # (n, seed) -> the keys to sort
    cost: tuple[str, ...] = ("comparisons",)  # the counters summed into the fitted cost
    pivot: PivotRule = PivotRule.RANDOM_SEEDED


# (n, seed) sources that call `generate_input` by name on every draw
_rnd, _rev, _srt, _uni = (
    lambda n, s, d=d: generate_input(d, n, s)
    for d in (Distribution.RANDOM_SEEDED, Distribution.REVERSED,
              Distribution.SORTED, Distribution.UNIFORM01)
)
_A, _C = AlgorithmId, Complexity
_MIXED = ("comparisons", "element_moves")

# A case's 1-based position seeds its inputs, so a new case goes at the end.
_TIME_CASES = (
    _TimeCase(_A.INSERTION, ("worst",), "reversed", _C.QUADRATIC, _rev),
    _TimeCase(_A.INSERTION, ("average",), "random", _C.QUADRATIC, _rnd),
    _TimeCase(_A.MERGE, ("worst", "average"), "random", _C.LINEARITHMIC, _rnd),
    _TimeCase(_A.QUICK, ("worst",), "sorted, last-element pivot", _C.QUADRATIC, _srt,
              pivot=PivotRule.LAST_ELEMENT),
    _TimeCase(_A.QUICK, ("expected",), "random, seeded pivot", _C.LINEARITHMIC, _rnd),
    _TimeCase(_A.BUCKET, ("worst",), "single-bucket cluster", _C.QUADRATIC, _clustered, _MIXED),
    _TimeCase(_A.BUCKET, ("average",), "uniform01", _C.LINEAR, _uni, _MIXED),
    _TimeCase(_A.RADIX, ("all",), "random keys < 2^16", _C.LINEAR,
              lambda n, s: draws_below(random.Random(s), 65536, n), ("element_moves",)),
    _TimeCase(_A.BUBBLE, ("worst",), "reversed", _C.QUADRATIC, _rev),
    _TimeCase(_A.BUBBLE, ("average",), "random", _C.QUADRATIC, _rnd),
    _TimeCase(_A.UHS, ("worst", "average"), "random", _C.LINEARITHMIC, _rnd),
)


def cell_cost(algorithm: AlgorithmId, n: int) -> float:
    """An estimate of what one sort of n keys costs ``algorithm``, to order work by.

    It is g(n) for the fastest growth class that `_TIME_CASES` expects of
    the algorithm: the class of its typical input, not of its adversarial one.
    Sizes below 2 count as 2, where every g is positive.
    """
    expected = {case.expected for case in _TIME_CASES if case.algorithm is algorithm}
    return next(g for kind, g in _MODELS if kind in expected)(max(n, 2))


def _time_rows(index: int, seed: int) -> list[TimeRow]:
    """The rows of ``_TIME_CASES[index]``, which share one fit."""
    case = _TIME_CASES[index]
    pts = []
    for n in QUAD_SIZES if case.expected is Complexity.QUADRATIC else FAST_SIZES:
        sub = (seed * 1000003 + index + 1) * 1000003 + n
        _, c = counted_sort(case.algorithm, case.source(n, sub), seed=sub, pivot=case.pivot)
        pts.append((n, sum(getattr(c, name) for name in case.cost)))
    fitted = growth_fit(pts)
    return [TimeRow(case.algorithm, name, case.inputs, case.expected, fitted)
            for name in case.cases]


def time_table(seed: int = 0) -> list[TimeRow]:
    """Fit each algorithm's operation counts to a growth class.

    Quadratic cases run on the small size ladder, everything else on the
    large one. Radix keys stay below 2^16 so the digit count is pinned at
    two and the move total is exactly 2n -- linear once d and k are fixed.
    """
    return _table("time", seed)


_SPACE_N, _QUICK_TRIALS = 4096, 100
_QUICK_SPACE_NOTE = (
    "claimed figure budgets stack words across the whole recursion tree; "
    "recursing into the smaller side first keeps the live depth logarithmic, "
    "so the measured peak sits far below that envelope"
)


def _quick_peaks(trials: range, seed: int) -> tuple[int, int]:
    """Quicksort's peak recursion depth and auxiliary slots over some of its space trials."""
    R, depth, aux = Distribution.RANDOM_SEEDED, 0, 0
    for t in trials:
        sub = _subseed(seed, _SPACE_N, R, t)
        _, c = counted_sort(AlgorithmId.QUICK, generate_input(R, _SPACE_N, sub), seed=sub,
                            pivot=PivotRule.RANDOM_SEEDED)
        depth, aux = max(depth, c.recursion_peak), max(aux, c.aux_peak_slots)
    return depth, aux


def _slot_rows() -> list[SpaceRow]:
    """The space rows of every algorithm but quicksort, metered on the witness."""
    n = _SPACE_N
    witness = [n - 1, *range(n - 1)]
    rows = []
    for algorithm, spec in SPECS.items():
        if algorithm is not AlgorithmId.QUICK:
            keys = [k / n for k in witness] if spec.keys is KeyDomain.UNIT_FLOAT else witness[:]
            m, budget = counted_sort(algorithm, keys)[1].aux_peak_slots, spec.aux_budget(n)
            rows.append(SpaceRow(algorithm, spec.space, "aux slots", m, budget, m == budget))
    return rows


def _space_rows(results: Sequence) -> list[SpaceRow]:
    """The space table from its parts: quicksort's trial chunks, then `_slot_rows`."""
    *chunks, rows = results
    depth, aux = map(max, zip(*chunks))
    log2n, spec = int(math.log2(_SPACE_N)), SPECS[AlgorithmId.QUICK]
    ok = depth <= 2 * log2n and aux == spec.aux_budget(_SPACE_N)
    metric = f"recursion depth, max of {_QUICK_TRIALS} runs"
    quick = SpaceRow(AlgorithmId.QUICK, spec.space, metric, depth, 2 * log2n, ok,
                     note=_QUICK_SPACE_NOTE)
    at = list(SPECS).index(AlgorithmId.QUICK)
    return [*rows[:at], quick, *rows[at:]]


def space_table(seed: int = 0) -> list[SpaceRow]:
    """Peak auxiliary usage per algorithm at n = 4096.

    Every row but quicksort's meters scratch slots on the witness input
    ``[n-1, *range(n-1)]`` (scaled by 1/n for bucket sort's [0, 1) keys), and
    must hit its ``SPECS`` budget exactly. A sort reports the same peak for
    any n keys -- merge n, bucket 2n, radix n + 256, the in-place sorts none
    -- so this input loses nothing, and bubble and insertion sort finish it
    in two passes; random keys still run through every sort in `time_table`.
    Quicksort allocates no buffers, so its row tracks peak recursion depth
    over 100 seeded runs against a 2*log2(n) budget -- deliberately tighter
    than the claimed linearithmic envelope; the note explains the gap.
    """
    return _table("space", seed)


def stability_table(seed: int = 0) -> list[StabilityVerdict]:
    """`stability_check` with 2,000 random trials per algorithm; ``ok`` is against ``SPECS``."""
    return _table("stability", seed)


@dataclass(frozen=True)
class TableReport:
    time_rows: list[TimeRow]
    space_rows: list[SpaceRow]
    stability_rows: list[StabilityVerdict]

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.time_rows)
            and all(r.ok for r in self.space_rows)
            and all(r.ok for r in self.stability_rows)
        )

    def as_text(self) -> str:
        lines = ["complexity growth (operation counts vs n)"]
        for r in self.time_rows:
            lines.append(
                f"  {r.algorithm.value:<10} {r.case:<8} {r.inputs:<28} "
                f"expected {r.expected.value:<13} fitted {r.fitted.kind.value:<13} "
                f"{'OK' if r.ok else 'MISMATCH'}"
            )
        lines.append("auxiliary space")
        for r in self.space_rows:
            lines.append(
                f"  {r.algorithm.value:<10} claimed {r.claimed:<11} "
                f"{r.metric:<34} measured {r.measured:<6} budget {r.budget:<6} "
                f"{'OK' if r.ok else 'OVER'}"
            )
            if r.note:
                lines.append(f"             note: {r.note}")
        lines.append("stability")
        for r in self.stability_rows:
            want = "stable" if SPECS[r.algorithm].stable else "unstable"
            lines.append(
                f"  {r.describe():<60} expected {want:<9} "
                f"{'OK' if r.ok else 'MISMATCH'}"
            )
        lines.append(f"overall: {'OK' if self.ok else 'MISMATCH'}")
        return "\n".join(lines)


# Each table's independent parts, and the function that makes its rows from
# their results in order. A part is a function of the seed alone that looks
# its work up by name when it runs, so a patched or wrapped function runs.
_TABLES: dict[str, tuple[list[Callable[[int], object]], Callable]] = {
    "time": ([lambda seed, i=i: _time_rows(i, seed) for i in range(len(_TIME_CASES))],
             lambda results: [row for rows in results for row in rows]),
    "space": ([*(lambda seed, t=t: _quick_peaks(range(t, t + 25), seed)
                 for t in range(0, _QUICK_TRIALS, 25)), lambda seed: _slot_rows()],
              _space_rows),
    "stability": ([lambda seed, a=a: stability_check(a, trials=2000, seed=seed) for a in SPECS],
                  list),
}
# verify's `tables` jobs: the tables' parts in report order, the short stability parts last.
TABLE_PARTS = tuple(part for parts, _ in _TABLES.values() for part in parts)


def _table(name: str, seed: int) -> list:
    """One table's rows, from its parts run here one after another."""
    parts, rows = _TABLES[name]
    return rows([part(seed) for part in parts])


def assemble_tables(results: Iterable) -> TableReport:
    """The `TableReport` that the results of `TABLE_PARTS`, in their order, make up."""
    results = iter(results)
    return TableReport(*(rows([next(results) for _ in parts]) for parts, rows in _TABLES.values()))


def reproduce_tables(seed: int = 0) -> TableReport:
    """Measure everything and assemble the three summary tables: verify's ``tables`` check."""
    return assemble_tables([part(seed) for part in TABLE_PARTS])


class DifferentialError(Exception):
    """Heap and oracle disagreed; carries the shortest failing prefix."""

    def __init__(self, step: int, prefix: list, message: str):
        super().__init__(step, prefix, message)  # what pickle rebuilds it from
        self.step = step
        self.prefix = prefix

    def __str__(self) -> str:
        return f"step {self.step}: {self.args[2]}"


@dataclass(frozen=True)
class DynamicReport:
    """``ok`` weighs two currencies: the heap's comparisons (the removal scan's
    equality probes among them) against the oracle's element shifts, whose
    ``bisect`` comparisons go uncounted."""

    steps: int
    heap_counters: OpCounters
    oracle_shifts: int

    @property
    def ok(self) -> bool:
        return self.heap_counters.comparisons < self.oracle_shifts


def make_workload(length: int, seed: int = 0) -> list[tuple]:
    """Seeded op sequence: ("push", v) | ("pop",) | ("remove", rank).

    Pushes outnumber removals so the live set grows; pops and rank removals
    never target an empty structure. A remove's rank indexes the sorted live
    values at the moment it executes.
    """
    rng = random.Random(seed)
    ops: list[tuple] = []
    live = 0
    for _ in range(length):
        roll = rng.random()
        if live == 0 or roll < 0.6:
            ops.append(("push", rng.randrange(1_000_000)))
            live += 1
        elif roll < 0.85:
            ops.append(("pop",))
            live -= 1
        else:
            ops.append(("remove", rng.randrange(live)))
            live -= 1
    return ops


def dynamic_scenario(ops: Sequence[tuple]) -> DynamicReport:
    """Run ops against a max-heap and a sorted-list oracle in lockstep.

    After every op the maximum and the live size must agree, and every
    1,000th op the whole heap is checked; any divergence raises
    DifferentialError with the failing prefix. The oracle pays
    element shifts for keeping a flat sorted list; the heap pays comparisons,
    counting each equality probe of the scan that finds a removal target.
    """
    heap = Heap(order=HeapOrder.MAX_AT_ROOT)
    counters = OpCounters()
    oracle: list = []
    shifts = 0

    def fail(message: str):  # at the loop's current step
        return DifferentialError(step, list(ops[: step + 1]), message)

    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "push":
            v = op[1]
            heap.push(v, counters)
            pos = bisect.bisect_right(oracle, v)
            shifts += len(oracle) - pos
            oracle.insert(pos, v)
        elif kind == "pop":
            if not oracle:
                raise fail("pop on empty structure")
            want = oracle.pop()
            got = heap.pop_root(counters)
            if got != want:
                raise fail(f"pop returned {got}, oracle max was {want}")
        elif kind == "remove":
            rank = op[1]
            if not 0 <= rank < len(oracle):
                raise fail(f"remove rank {rank} out of range")
            value = oracle.pop(rank)
            shifts += len(oracle) - rank
            idx = heap.elements.index(value, 0, heap.heap_size)
            counters.add(comparisons=idx + 1)  # the scan's equality probes
            heap.remove_at(idx, counters)
        else:
            raise fail(f"unknown op {op!r}")

        if len(heap) != len(oracle):
            raise fail(f"size diverged: heap {len(heap)}, oracle {len(oracle)}")
        if oracle and heap.peek() != oracle[-1]:
            raise fail(f"max diverged: heap {heap.peek()}, oracle {oracle[-1]}")
        if step % 1000 == 0 and not is_heap(heap.elements, heap.heap_size):
            raise fail("heap property violated")

    if sorted(heap.elements[: heap.heap_size]) != oracle:
        raise DifferentialError(len(ops), list(ops), "final contents diverged")
    return DynamicReport(steps=len(ops), heap_counters=counters, oracle_shifts=shifts)

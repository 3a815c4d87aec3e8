import math
import pickle
import random

import pytest

from fingerprints import digest, pinned

import sortlab.analysis as analysis
from sortlab.analysis import (
    CSV_HEADER,
    FAST_SIZES,
    QUAD_SIZES,
    Complexity,
    DifferentialError,
    Distribution,
    DynamicReport,
    InsufficientDataError,
    dynamic_scenario,
    generate_input,
    growth_fit,
    make_workload,
    run_sweep,
    write_csv,
)
from sortlab.baseline_sorts import AlgorithmId
from sortlab.heap_core import Heap
from sortlab.instrumentation import SPECS, counted_sort


class TestGrowthFit:
    SIZES = [2**e for e in range(8, 15)]

    @pytest.mark.parametrize("c", [1, 3, 17])
    def test_recovers_exact_shapes(self, c):
        assert growth_fit([(n, c) for n in self.SIZES]).kind is Complexity.CONSTANT
        assert growth_fit([(n, c * n) for n in self.SIZES]).kind is Complexity.LINEAR
        assert (
            growth_fit([(n, c * n * math.log2(n)) for n in self.SIZES]).kind
            is Complexity.LINEARITHMIC
        )
        assert growth_fit([(n, c * n * n) for n in self.SIZES]).kind is Complexity.QUADRATIC

    def test_tolerates_multiplicative_noise(self):
        rng = random.Random(0)
        pts = [(n, 5 * n * math.log2(n) * rng.uniform(0.95, 1.05)) for n in self.SIZES]
        fit = growth_fit(pts)
        assert fit.kind is Complexity.LINEARITHMIC
        assert fit.residual < 0.1

    def test_exact_fit_has_zero_residual(self):
        fit = growth_fit([(n, 7 * n) for n in self.SIZES])
        assert fit.residual == pytest.approx(0, abs=1e-18)

    def test_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            growth_fit([(8, 1), (16, 2), (32, 3)])

    def test_needs_eightfold_span(self):
        with pytest.raises(InsufficientDataError):
            growth_fit([(8, 1), (16, 2), (24, 3), (32, 4)])

    def test_rejects_tiny_sizes(self):
        with pytest.raises(InsufficientDataError):
            growth_fit([(2, 1), (8, 2), (16, 3), (64, 4)])

    def test_rejects_non_positive_costs(self):
        with pytest.raises(InsufficientDataError):
            growth_fit([(8, 0), (16, 2), (32, 3), (64, 4)])


class TestGenerateInput:
    def test_deterministic_per_seed(self):
        a = generate_input(Distribution.RANDOM_SEEDED, 64, 5)
        b = generate_input(Distribution.RANDOM_SEEDED, 64, 5)
        c = generate_input(Distribution.RANDOM_SEEDED, 64, 6)
        assert a == b and a != c

    @pytest.mark.parametrize("dist", list(Distribution))
    @pytest.mark.parametrize("floats", [False, True])
    def test_lengths_and_domains(self, dist, floats):
        out = generate_input(dist, 50, 1, floats=floats)
        assert len(out) == 50
        if floats or dist is Distribution.UNIFORM01:
            assert all(0 <= x < 1 for x in out)

    def test_sorted_and_reversed_shapes(self):
        assert generate_input(Distribution.SORTED, 5, 0) == [0, 1, 2, 3, 4]
        assert generate_input(Distribution.REVERSED, 5, 0) == [4, 3, 2, 1, 0]
        fs = generate_input(Distribution.SORTED, 5, 0, floats=True)
        assert fs == sorted(fs)
        fr = generate_input(Distribution.REVERSED, 5, 0, floats=True)
        assert fr == sorted(fr, reverse=True)

    def test_few_unique_uses_small_palette(self):
        ints = generate_input(Distribution.FEW_UNIQUE, 300, 2)
        assert set(ints) <= {5, 13, 89, 144}
        floats = generate_input(Distribution.FEW_UNIQUE, 300, 2, floats=True)
        assert set(floats) <= {0.125, 0.375, 0.625, 0.875}

    @pytest.mark.parametrize("n", [0, 1, 3, 64, 1000])
    def test_integer_draws_are_random_randoms(self, n):
        # the integer cells draw in bulk, value for value what randrange and
        # choice on random.Random(seed) give, so seeded CSVs never move
        for seed in (0, 7, 1000003):
            ref = random.Random(seed)
            assert generate_input(Distribution.RANDOM_SEEDED, n, seed) == [
                ref.randrange(4 * n) for _ in range(n)]
            ref = random.Random(seed)
            assert generate_input(Distribution.FEW_UNIQUE, n, seed) == [
                ref.choice((5, 13, 89, 144)) for _ in range(n)]


class TestRunSweep:
    def test_record_count_and_csv_shape(self):
        recs = run_sweep(
            [AlgorithmId.UHS, AlgorithmId.MERGE],
            [64, 128],
            [Distribution.RANDOM_SEEDED, Distribution.SORTED],
            trials=2,
        )
        assert len(recs) == 2 * 2 * 2 * 2
        assert CSV_HEADER.count(",") == 9
        for rec in recs:
            row = rec.csv_row().split(",")
            assert len(row) == 10
            assert row[0] in ("uhs", "merge")
        assert recs[0].csv_row().startswith("uhs,64,random,0,")

    def test_same_cell_data_regardless_of_algorithm_mix(self):
        solo = run_sweep([AlgorithmId.UHS], [128], [Distribution.RANDOM_SEEDED], trials=2)
        mixed = run_sweep(
            [AlgorithmId.MERGE, AlgorithmId.UHS], [128], [Distribution.RANDOM_SEEDED], trials=2
        )
        strip = lambda r: r.csv_row().rsplit(",", 1)[0]
        assert [strip(r) for r in solo] == [strip(r) for r in mixed if r.algorithm is AlgorithmId.UHS]

    def test_write_csv_layout(self, tmp_path):
        recs = run_sweep([AlgorithmId.RADIX], [64], [Distribution.RANDOM_SEEDED])
        path = tmp_path / "out.csv"
        with open(path, "w") as fh:
            write_csv(recs, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        # radix makes no comparisons and exactly digits*n moves
        fields = lines[1].split(",")
        assert fields[4] == "0" and int(fields[6]) % 64 == 0


@pytest.fixture(scope="module")
def tables(reproduced_tables):
    """The seed-0 tables, and the keys their space rows sort with each algorithm but quick."""
    keys = {}

    def spy(algorithm, elements, *args, **kw):
        keys.setdefault(algorithm, list(elements))
        return counted_sort(algorithm, elements, *args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "counted_sort", spy)
        analysis._slot_rows()
    return reproduced_tables, keys


@pytest.fixture(scope="module")
def report(tables):
    return tables[0]


class TestTables:
    def test_overall_ok(self, report):
        assert report.ok

    def test_time_rows_cover_every_algorithm(self, report):
        assert {r.algorithm for r in report.time_rows} == set(AlgorithmId)
        assert all(r.ok for r in report.time_rows)
        by_case = {(r.algorithm, r.case): r for r in report.time_rows}
        assert by_case[(AlgorithmId.QUICK, "worst")].expected is Complexity.QUADRATIC
        assert by_case[(AlgorithmId.QUICK, "expected")].expected is Complexity.LINEARITHMIC
        assert by_case[(AlgorithmId.BUCKET, "average")].expected is Complexity.LINEAR

    def test_space_rows(self, report):
        rows = {r.algorithm: r for r in report.space_rows}
        assert rows[AlgorithmId.MERGE].measured == 4096
        assert rows[AlgorithmId.UHS].measured == 0
        assert rows[AlgorithmId.RADIX].measured <= 4096 + 256
        quick = rows[AlgorithmId.QUICK]
        assert quick.note is not None  # the declared claim/measurement gap
        assert quick.measured <= quick.budget == 2 * 12
        assert all(r.ok for r in report.space_rows)

    def test_stability_rows(self, report):
        assert all(r.ok for r in report.stability_rows)
        verdicts = {r.algorithm: r.stable for r in report.stability_rows}
        assert verdicts[AlgorithmId.QUICK] is False
        assert verdicts[AlgorithmId.MERGE] is True

    def test_as_text_sections(self, report):
        text = report.as_text()
        for heading in ("complexity growth", "auxiliary space", "stability", "overall: OK"):
            assert heading in text
        assert "MISMATCH" not in text

    def test_as_text_is_pinned(self, report):
        # every row of the seed-0 tables in order, byte for byte: each time
        # case's expected and fitted class, each space row's measured value,
        # budget and note, and each stability verdict with its witness
        assert digest(report.as_text()) == pinned()["tables/seed=0"]

    def test_size_ladders(self):
        assert FAST_SIZES[0] == 1024 and FAST_SIZES[-1] == 65536
        assert QUAD_SIZES == [256, 512, 1024, 2048]


class TestDynamic:
    def test_workload_is_deterministic_and_well_formed(self):
        ops = make_workload(500, seed=9)
        assert ops == make_workload(500, seed=9)
        assert ops != make_workload(500, seed=10)
        assert len(ops) == 500
        live = 0
        for op in ops:
            if op[0] == "push":
                live += 1
            elif op[0] == "pop":
                assert live > 0
                live -= 1
            else:
                assert 0 <= op[1] < live
                live -= 1

    def test_scenario_agrees_and_heap_wins(self):
        report = dynamic_scenario(make_workload(3000, seed=0))
        assert isinstance(report, DynamicReport)
        assert report.steps == 3000 and report.ok
        assert report.heap_counters.comparisons < report.oracle_shifts

    def test_removal_scan_probes_are_counted(self):
        # push 5 (free), push 3 (one climb comparison), then remove 3: the
        # scan probes slots 0 and 1, and removing the last slot compares nothing
        report = dynamic_scenario([("push", 5), ("push", 3), ("remove", 0)])
        assert report.heap_counters.comparisons == 3
        assert report.oracle_shifts == 2

    def test_error_survives_pickling(self):
        # verify's forked workers never pickle it (each sends back only the
        # message), but DifferentialError is a public name, and an exception
        # that pickle cannot rebuild breaks any process pool a caller runs it in
        e = pickle.loads(pickle.dumps(DifferentialError(3, [("push", 1)], "boom")))
        assert type(e) is DifferentialError
        assert (e.step, e.prefix, str(e)) == (3, [("push", 1)], "step 3: boom")


def _breaks_a_subtree_at_1001(heap, x, counters):
    Heap.push(heap, x, counters)
    if len(heap) == 1001:  # slot 1 takes the smallest key; the root stays the largest
        a = heap.elements
        a[1], a[1000] = a[1000], a[1]


@pytest.mark.parametrize("methods, ops, step, message", [
    ({}, [("push", 5), ("pop",), ("pop",)], 2, "pop on empty structure"),
    ({}, [("frobnicate",)], 0, "unknown op ('frobnicate',)"),
    ({"pop_root": lambda heap, counters: Heap.pop_root(heap, counters) - 1},
     [("push", 5), ("pop",)], 1, "pop returned 4, oracle max was 5"),
    ({}, [("push", 5), ("remove", 1)], 1, "remove rank 1 out of range"),
    ({"push": lambda heap, x, counters: None}, [("push", 5)], 0,
     "size diverged: heap 0, oracle 1"),
    ({"peek": lambda heap: Heap.peek(heap) - 1}, [("push", 5)], 0,
     "max diverged: heap 4, oracle 5"),
    # descending pushes each land in a new last slot
    ({"push": _breaks_a_subtree_at_1001}, [("push", v) for v in range(1001, 0, -1)], 1000,
     "heap property violated"),
    # the second push lands as 2: sizes and maxima agree, the contents do not
    ({"push": lambda heap, x, counters: Heap.push(heap, x - 1 if len(heap) else x, counters)},
     [("push", 5), ("push", 3)], 2, "final contents diverged"),
], ids=["empty-pop", "unknown-op", "pop", "remove-rank", "size", "max", "heap-property",
         "final-contents"])
def test_each_divergence_names_its_step_and_prefix(monkeypatch, methods, ops, step, message):
    # a heap with one operation broken, patched in where dynamic_scenario makes its heap
    monkeypatch.setattr(analysis, "Heap", type("Diverging", (Heap,), methods))
    with pytest.raises(DifferentialError) as exc:
        dynamic_scenario(ops)
    assert (exc.value.step, exc.value.prefix) == (step, ops[: step + 1])
    assert str(exc.value) == f"step {step}: {message}"


def test_space_and_stability_rows_follow_specs_order(report):
    # one row per algorithm, in SPECS order
    assert [r.algorithm for r in report.space_rows] == list(SPECS)
    assert [r.algorithm for r in report.stability_rows] == list(SPECS)


def test_space_rows_meet_budgets_exactly_on_domain_keys(tables):
    report, keys = tables
    aux_rows = [r for r in report.space_rows if r.metric == "aux slots"]
    assert len(aux_rows) == len(AlgorithmId) - 1
    assert all(r.measured == r.budget and r.ok for r in aux_rows)
    # the radix row sorts the witness, n distinct 16-bit keys, not n copies of one key
    radix_keys = keys[AlgorithmId.RADIX]
    assert len(radix_keys) == 4096
    assert len(set(radix_keys)) > 1 and max(radix_keys) < 65536
    assert all(0 <= k < 1 for k in keys[AlgorithmId.BUCKET])

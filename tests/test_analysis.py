import hashlib
import io
import math
import random

import pytest

import sortlab.analysis as analysis
from sortlab.analysis import (
    CSV_HEADER,
    FAST_SIZES,
    QUAD_SIZES,
    BenchRecord,
    Complexity,
    DifferentialError,
    Distribution,
    DynamicReport,
    InsufficientDataError,
    dynamic_scenario,
    generate_input,
    growth_fit,
    make_workload,
    reproduce_tables,
    run_sweep,
    space_table,
    stability_table,
    time_table,
    write_csv,
)
from sortlab.baseline_sorts import AlgorithmId, PivotRule
from sortlab.uhs_sort import SortOrder


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

    def test_empty(self):
        assert generate_input(Distribution.RANDOM_SEEDED, 0, 0) == []


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

    # SHA-256 of `bench --algorithms all --sizes 2^4..2^9 --distributions all
    # --trials 2 --seed 3 --order O --pivot P | cut -d, -f1-9`: every count
    # of every cell, with the wall-clock column dropped
    @pytest.mark.parametrize("order,pivot,digest", [
        (SortOrder.ASCENDING, PivotRule.RANDOM_SEEDED,
         "217c24582caaaf62991e8d5c1b1ceded8ca83f969ff79b0cb644820c452b9c76"),
        (SortOrder.DESCENDING, PivotRule.MEDIAN_OF_THREE,
         "b4ab45dc0d46332f62141e2caa9663e3fdfed5c54ded8ffaa1e36b8407ff8b74"),
        (SortOrder.ASCENDING, PivotRule.LAST_ELEMENT,
         "f116bb6cfa13c7a43d31a73c3137ab66a2bd75877b1ebab4440c9bbcdf2bbaba"),
    ], ids=["asc-random", "desc-median3", "asc-last"])
    def test_golden_counts(self, order, pivot, digest):
        recs = run_sweep(
            list(AlgorithmId), [2**e for e in range(4, 10)], list(Distribution),
            trials=2, seed=3, order=order, pivot=pivot,
        )
        out = io.StringIO()
        write_csv(recs, out)
        counts = "".join(
            ",".join(line.split(",")[:9]) + "\n" for line in out.getvalue().splitlines()
        )
        assert hashlib.sha256(counts.encode()).hexdigest() == digest



@pytest.fixture(scope="module")
def report():
    return reproduce_tables(seed=0, stability_trials=500)


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
        verdicts = {r.verdict.algorithm: r.verdict.stable for r in report.stability_rows}
        assert verdicts[AlgorithmId.QUICK] is False
        assert verdicts[AlgorithmId.MERGE] is True

    def test_as_text_sections(self, report):
        text = report.as_text()
        assert "complexity growth" in text
        assert "auxiliary space" in text
        assert "stability" in text
        assert "overall: OK" in text
        assert "MISMATCH" not in text

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
        assert report.steps == 3000
        assert report.ok
        assert report.heap_counters.comparisons < report.oracle_shifts

    def test_curves_are_cumulative(self):
        report = dynamic_scenario(make_workload(400, seed=2))
        assert len(report.heap_curve) == len(report.oracle_curve) == 400
        assert report.heap_curve == sorted(report.heap_curve)
        assert report.oracle_curve == sorted(report.oracle_curve)
        assert report.heap_curve[-1] == report.heap_counters.comparisons
        assert report.oracle_curve[-1] == report.oracle_shifts

    def test_bad_op_sequence_reports_failing_prefix(self):
        with pytest.raises(DifferentialError) as exc:
            dynamic_scenario([("push", 5), ("pop",), ("pop",)])
        assert exc.value.step == 2
        assert exc.value.prefix == [("push", 5), ("pop",), ("pop",)]

    def test_removal_scan_probes_are_counted(self):
        # push 5 (free), push 3 (one climb comparison), then remove 3: the
        # scan probes slots 0 and 1, and removing the last slot compares nothing
        report = dynamic_scenario([("push", 5), ("push", 3), ("remove", 0)])
        assert report.heap_counters.comparisons == 3
        assert report.heap_curve == [0, 1, 3]
        assert report.oracle_curve == [0, 1, 2]

    def test_unknown_op_rejected(self):
        with pytest.raises(DifferentialError):
            dynamic_scenario([("frobnicate",)])


def test_standalone_tables_agree_with_bundle():
    # spot-check the pieces reproduce_tables composes
    space = space_table(seed=0, n=256, quick_trials=5)
    assert {r.algorithm for r in space} == set(AlgorithmId)
    stab = stability_table(seed=0, trials=100)
    assert all(r.ok for r in stab)


def test_space_rows_meet_budgets_exactly_on_domain_keys(monkeypatch):
    inputs = {}
    real = analysis.counted_sort

    def spy(algorithm, elements, *args, **kw):
        inputs.setdefault(algorithm, list(elements))
        return real(algorithm, elements, *args, **kw)

    monkeypatch.setattr(analysis, "counted_sort", spy)
    rows = space_table(seed=0, n=256, quick_trials=5)
    aux_rows = [r for r in rows if r.metric == "aux slots"]
    assert len(aux_rows) == len(AlgorithmId) - 1
    assert all(r.measured == r.budget and r.ok for r in aux_rows)
    # the radix row sorts n random 16-bit keys, not n copies of one key
    radix_keys = inputs[AlgorithmId.RADIX]
    assert len(set(radix_keys)) > 1 and max(radix_keys) < 65536
    assert all(0 <= k < 1 for k in inputs[AlgorithmId.BUCKET])

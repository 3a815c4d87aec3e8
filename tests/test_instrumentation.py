import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import key_type
from fingerprints import tie_census

import sortlab.instrumentation as instrumentation
from sortlab.analysis import _TIME_CASES, Complexity
from sortlab.baseline_sorts import RADIX_BASE, AlgorithmId, PivotRule, bucket_sort, quicksort
from sortlab.heap_core import HeapOrder, build
from sortlab.instrumentation import (
    SPECS,
    BuildCostRow,
    KeyDomain,
    OpCounters,
    StabilityVerdict,
    build_cost_audit,
    counted_sort,
    draws_below,
    sort_fault,
    stability_check,
)
from sortlab.uhs_sort import SortOrder


class TestReportsEqualTallies:
    """Each report against the comparisons its keys counted themselves."""

    # the domain scans of bucket (0 <= v < 1) and radix (v < 0, v > top),
    # which their docstrings say go uncounted
    UNCOUNTED_PER_KEY = {AlgorithmId.BUCKET: 2, AlgorithmId.RADIX: 2}

    @pytest.mark.parametrize("order", list(SortOrder))
    @pytest.mark.parametrize("algorithm,pivot", [
        (a, p) for a, s in SPECS.items()
        for p in (PivotRule if "pivot" in s.options else [PivotRule.RANDOM_SEEDED])])
    def test_sort(self, algorithm, pivot, order):
        # uhs_sort's case is counted_sort calling it, build included
        rng = random.Random(300)
        raw = [rng.randrange(100) for _ in range(300)]  # ties
        floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
        Key = key_type(float if floats else int)
        keys = [Key(r / 100 if floats else r) for r in raw]
        _, counters = counted_sort(algorithm, keys, order, seed=0, pivot=pivot)
        uncounted = self.UNCOUNTED_PER_KEY.get(algorithm, 0) * len(keys)
        assert Key.made == counters.comparisons + uncounted

    @pytest.mark.parametrize("order", list(HeapOrder))
    def test_build_and_each_heap_operation(self, order):
        rng = random.Random(5)
        counters = OpCounters()
        Key = key_type()
        heap = build([Key(rng.randrange(50)) for _ in range(200)], order, counters)
        assert Key.made == counters.comparisons
        ops = {
            "push": lambda: heap.push(Key(rng.randrange(50)), counters),
            "pop_root": lambda: heap.pop_root(counters),
            "remove_at": lambda: heap.remove_at(rng.randrange(len(heap)), counters),
        }
        for step in range(300):
            op = rng.choice(list(ops) if len(heap) else ["push"])
            ops[op]()
            assert Key.made == counters.comparisons, (step, op)


class TestOpCounters:
    def test_add_accumulates(self):
        c = OpCounters()
        c.add(comparisons=3, swaps=1)
        c.add(comparisons=2, element_moves=7)
        assert (c.comparisons, c.swaps, c.element_moves) == (5, 1, 7)

    def test_note_peaks_keeps_max(self):
        c = OpCounters()
        c.note_peaks(aux_slots=5, recursion=3)
        c.note_peaks(aux_slots=8)
        c.note_peaks(aux_slots=2, recursion=1)
        assert (c.aux_peak_slots, c.recursion_peak) == (8, 3)

    def test_as_dict_matches_csv_columns(self):
        columns = ["comparisons", "swaps", "element_moves", "aux_peak_slots", "recursion_peak"]
        assert [f.name for f in fields(OpCounters)] == columns
        assert list(OpCounters().as_dict()) == columns

    def test_two_sorts_into_one_ledger_add_counts_and_keep_larger_peaks(self):
        # each sort reports once, so only a shared ledger adds one report to
        # another: bucket reports moves and an aux peak, quick swaps and a
        # recursion peak, and both report comparisons
        small = [0.5, 0.25, 0.75]
        large = [r / 64 for r in (37, 3, 60, 12, 12, 41, 0, 29)]
        separate = [counted_sort(AlgorithmId.BUCKET, k[:])[1] for k in (small, large)]
        quick = counted_sort(AlgorithmId.QUICK, large[:])[1]
        shared = OpCounters()
        bucket_sort(large[:], counters=shared)  # the largest aux peak comes first
        quicksort(large[:], counters=shared)
        bucket_sort(small[:], counters=shared)
        for name in ("comparisons", "swaps", "element_moves"):
            want = getattr(separate[0], name) + getattr(separate[1], name) + getattr(quick, name)
            assert getattr(shared, name) == want > 0, name
        assert shared.aux_peak_slots == 2 * len(large)
        assert shared.recursion_peak == quick.recursion_peak > 0


class TestSpecs:
    def test_one_row_per_algorithm_in_enum_order(self):
        assert list(SPECS) == list(AlgorithmId)

    def test_sort_names_are_module_callables(self):
        for spec in SPECS.values():
            assert callable(getattr(instrumentation, spec.sort, None)), spec.sort

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            counted_sort("uhs", [1])

    def test_dispatch_goes_through_the_module_attribute(self, monkeypatch):
        calls = []
        real = instrumentation.merge_sort

        def wrapper(elements, order, counters, **kw):
            calls.append(len(elements))
            return real(elements, order, counters, **kw)

        monkeypatch.setattr(instrumentation, "merge_sort", wrapper)
        out, counters = counted_sort(AlgorithmId.MERGE, [3, 1, 2])
        assert calls == [3]
        assert out == [1, 2, 3] and counters.comparisons > 0

    def test_readme_table_matches_specs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)`\s*\|([^|]*)\|([^|]*)\|\s*(yes|no)\s*\|$", readme,
                          re.MULTILINE)
        assert sorted(name for name, *_ in rows) == sorted(a.value for a in AlgorithmId)
        classes = {"n²": Complexity.QUADRATIC, "n log n": Complexity.LINEARITHMIC,
                   "n": Complexity.LINEAR}
        # the aux-space cells, footnote marks dropped, as slots on n keys
        slots = {"0 slots": lambda n: 0, "at most n": lambda n: n, "≤ 2n": lambda n: 2 * n,
                 "n + k": lambda n: n + RADIX_BASE}
        for name, time, space, stable in rows:
            assert (stable == "yes") == SPECS[AlgorithmId(name)].stable, name
            budget = SPECS[AlgorithmId(name)].aux_budget
            assert slots[space.strip(" ¹†")](1000) == budget(1000), name
            # "worst / average", each side a class with an optional note in parentheses
            if time.strip() == "d·(n+k) always":
                shown = [Complexity.LINEAR, Complexity.LINEAR]
            else:
                shown = [classes[side.split("(")[0].strip()] for side in time.split("/")]
            fits = {case_name: case.expected for case in _TIME_CASES
                    if case.algorithm is AlgorithmId(name) for case_name in case.cases}
            expected = [{fits[c] for c in cases if c in fits}
                        for cases in (("worst", "all"), ("average", "expected", "all"))]
            assert expected == [{kind} for kind in shown], name


class TestCountedSort:
    def test_sorts_in_place_and_returns_same_list(self):
        a = [3, 1, 2]
        out, counters = counted_sort(AlgorithmId.MERGE, a)
        assert out is a and a == [1, 2, 3]
        assert counters.comparisons > 0

    @pytest.mark.parametrize("algorithm", [
        a for a, s in SPECS.items() if s.keys is KeyDomain.COMPARABLE])
    def test_key_rejected_for_comparison_sorts(self, algorithm):
        a = [2, 1]
        with pytest.raises(TypeError):
            counted_sort(algorithm, a, key=lambda x: x)
        assert a == [2, 1]

    @pytest.mark.parametrize("algorithm", [
        a for a, s in SPECS.items() if s.keys is not KeyDomain.COMPARABLE])
    def test_key_rejected_for_distribution_sorts(self, algorithm):
        # the distribution sorts read each element as its own key
        a = [0.5, 0.25] if SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT else [2, 1]
        before = a[:]
        with pytest.raises(TypeError):
            counted_sort(algorithm, a, key=lambda x: x)
        assert a == before


class TestStabilityCheck:
    @pytest.mark.parametrize("algorithm", list(AlgorithmId))
    def test_verdicts_match_design(self, algorithm):
        verdict = stability_check(algorithm, trials=400)
        assert verdict.stable == SPECS[algorithm].stable
        assert verdict.trials > 0

    @pytest.mark.parametrize("algorithm", [a for a, s in SPECS.items() if not s.stable])
    def test_unstable_witnesses_are_short(self, algorithm):
        verdict = stability_check(algorithm, trials=50)
        assert not verdict.stable
        assert verdict.witness is not None and len(verdict.witness) <= 6

    def test_witness_reproduces_when_rerun(self):
        verdict = stability_check(AlgorithmId.UHS, trials=50)
        Key = key_type()
        arr = [Key(k, i) for i, k in enumerate(verdict.witness)]
        counted_sort(AlgorithmId.UHS, arr)
        breached = any(
            arr[i - 1] == arr[i] and arr[i - 1].label > arr[i].label
            for i in range(1, len(arr))
        )
        assert breached

    @pytest.mark.parametrize("faults, message", [
        (["missorted"], r"merge missorted \[.+\]"),
        (["unstable", None], r"witness \[.+\] did not reproduce"),
    ], ids=["missorted", "unreproduced"])
    def test_a_fault_it_cannot_report_raises(self, monkeypatch, faults, message):
        # sort_fault's answers, one a call: a missorted run, or a witness
        # that sorts stably when it is run again
        answers = iter(faults)
        monkeypatch.setattr(instrumentation, "sort_fault", lambda *args: next(answers))
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            stability_check(AlgorithmId.MERGE, trials=10)

    def test_stable_verdict_has_no_witness(self):
        verdict = stability_check(AlgorithmId.MERGE, trials=200)
        assert verdict.stable and verdict.witness is None

    def test_deterministic_across_runs(self):
        assert stability_check(AlgorithmId.QUICK, trials=100) == stability_check(
            AlgorithmId.QUICK, trials=100)

    def test_describe_formats(self):
        stable = StabilityVerdict(AlgorithmId.MERGE, True, 123)
        unstable = StabilityVerdict(AlgorithmId.UHS, False, 9, [0, 0])
        assert stable.describe() == "merge: STABLE(trials=123)"
        assert unstable.describe() == "uhs: UNSTABLE witness=[0, 0]"

    def test_ok_holds_the_verdict_against_the_design(self):
        assert StabilityVerdict(AlgorithmId.MERGE, True, 123).ok
        assert not StabilityVerdict(AlgorithmId.MERGE, False, 9, [0, 0]).ok
        assert StabilityVerdict(AlgorithmId.UHS, False, 9, [0, 0]).ok
        assert not StabilityVerdict(AlgorithmId.UHS, True, 123).ok


class TestSortFault:
    @pytest.mark.parametrize("order", list(SortOrder))
    @pytest.mark.parametrize("algorithm", list(AlgorithmId))
    def test_exact_match_is_no_fault(self, algorithm, order):
        floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
        keys = [0.5, 0.25, 0.5, 0.75, 0.25] if floats else [2, 1, 2, 3, 1]
        if not SPECS[algorithm].stable:
            keys = sorted(set(keys))[::-1]  # distinct keys leave nothing to reorder
        assert sort_fault(algorithm, keys, order, 0, PivotRule.LAST_ELEMENT) is None

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_reordered_equal_keys_are_unstable(self, order):
        # uhs moves the root past the last element, swapping two equal keys
        assert sort_fault(AlgorithmId.UHS, [1, 1], order, 0, PivotRule.LAST_ELEMENT) == "unstable"

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_lost_element_is_missorted(self, order, monkeypatch):
        # every key right and in order, but one element written over another
        real = instrumentation.merge_sort

        def duplicating(elements, order, counters, **kw):
            real(elements, order, counters, **kw)
            elements[1] = elements[0]

        monkeypatch.setattr(instrumentation, "merge_sort", duplicating)
        fault = sort_fault(AlgorithmId.MERGE, [3, 3, 3], order, 0, PivotRule.LAST_ELEMENT)
        assert fault == "missorted"

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_wrong_key_order_is_missorted(self, order, monkeypatch):
        def backwards(elements, order, counters, **kw):
            elements.sort(reverse=order is SortOrder.ASCENDING)

        monkeypatch.setattr(instrumentation, "merge_sort", backwards)
        fault = sort_fault(AlgorithmId.MERGE, [2, 0, 1], order, 0, PivotRule.LAST_ELEMENT)
        assert fault == "missorted"

    @pytest.mark.parametrize("keys", [["c", "a"], [1, 0.5], [True, False]],
                             ids=["str", "int-and-float", "bool"])
    def test_keys_other_than_all_int_or_all_float_are_rejected(self, keys):
        with pytest.raises(TypeError):
            sort_fault(AlgorithmId.MERGE, keys, SortOrder.ASCENDING, 0, PivotRule.LAST_ELEMENT)

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_empty_keys_are_no_fault(self, order):
        assert sort_fault(AlgorithmId.MERGE, [], order, 0, PivotRule.LAST_ELEMENT) is None

    def test_every_tie_pattern_of_six_keys(self):
        # no sort missorts any of them, and no stable sort moves a tie
        lines = tie_census(6)
        assert len(lines) == len(AlgorithmId) * len(SortOrder)
        stable = {a.value for a, spec in SPECS.items() if spec.stable}
        for line in lines:
            name, _, unstable, missorted = line.split()
            assert missorted == "missorted=0", line
            assert name not in stable or unstable == "unstable=0", line


class TestCTags:
    # one key list per kind of tag, each holding a pair of equal keys, and a
    # plain value-equal copy of a tag
    KINDS = {
        "int": ([3, 1, 3, 2], int),
        "float": ([0.75, 0.25, 0.75, 0.5], float),
    }

    @pytest.fixture(params=list(KINDS))
    def kind(self, request):
        return self.KINDS[request.param]

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_plain_copy_in_place_of_a_tag_is_missorted(self, kind, order, monkeypatch):
        keys, copy = kind
        real = instrumentation.merge_sort

        def copying(elements, order, counters, **kw):
            real(elements, order, counters, **kw)
            elements[1] = copy(elements[1])

        monkeypatch.setattr(instrumentation, "merge_sort", copying)
        fault = sort_fault(AlgorithmId.MERGE, keys, order, 0, PivotRule.LAST_ELEMENT)
        assert fault == "missorted"

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_swapped_equal_tags_are_unstable(self, kind, order, monkeypatch):
        keys, _ = kind
        real = instrumentation.merge_sort

        def swapping(elements, order, counters, **kw):
            real(elements, order, counters, **kw)
            i = next(i for i in range(len(elements) - 1) if elements[i] == elements[i + 1])
            elements[i], elements[i + 1] = elements[i + 1], elements[i]

        monkeypatch.setattr(instrumentation, "merge_sort", swapping)
        fault = sort_fault(AlgorithmId.MERGE, keys, order, 0, PivotRule.LAST_ELEMENT)
        assert fault == "unstable"

    def test_int_and_float_keys_compare_in_c(self, monkeypatch):
        seen = []
        real = instrumentation.merge_sort

        def spying(elements, order, counters, **kw):
            seen.append({type(e) for e in elements})
            real(elements, order, counters, **kw)

        monkeypatch.setattr(instrumentation, "merge_sort", spying)
        for keys, _ in self.KINDS.values():
            assert sort_fault(AlgorithmId.MERGE, keys, SortOrder.ASCENDING, 0,
                              PivotRule.LAST_ELEMENT) is None
        ints, floats = (kinds.pop() for kinds in seen)
        assert issubclass(ints, int) and ints is not int
        assert issubclass(floats, float) and floats is not float


class TestDrawsBelow:
    @pytest.mark.parametrize("span", [1, 2, 3, 4, 63, 2**16, 4 * 4096, 2**32])
    def test_randrange_value_for_value(self, span):
        for seed in (0, 1, 99):
            rng, ref = random.Random(seed), random.Random(seed)
            for count in (0, 1, 2, 300):
                assert draws_below(rng, span, count) == [ref.randrange(span) for _ in range(count)]
            assert rng.getstate() == ref.getstate()  # same bits consumed, too

    def test_randint_and_choice_reduce_to_it(self):
        rng, ref = random.Random(5), random.Random(5)
        assert [-999 + r for r in draws_below(rng, 1999, 500)] == [
            ref.randint(-999, 999) for _ in range(500)]
        palette = (5, 13, 89, 144)
        assert [palette[i] for i in draws_below(rng, len(palette), 500)] == [
            ref.choice(palette) for _ in range(500)]
        assert rng.getstate() == ref.getstate()


class TestBuildCostAudit:
    def test_rows_within_linear_bound(self):
        # (n, comparisons, bound): the bound is 2(n - 1), and 0 below two keys,
        # where a row that compares nothing is ok; the comparisons are those of
        # seed 3's shuffles, which seeds 0 and 4 do not give
        rows = build_cost_audit([0, 1, 2, 2**10, 2**12], seed=3)
        assert rows == [(0, 0, 0), (1, 0, 0), (2, 1, 2), (1024, 1671, 2046), (4096, 6768, 8190)]
        assert all(row.ok for row in rows)

    def test_row_ok_property(self):
        assert BuildCostRow(4, 6, 6).ok
        assert not BuildCostRow(4, 7, 6).ok

    def test_deterministic_for_seed(self):
        assert build_cost_audit([512], seed=3) == build_cost_audit([512], seed=3)
        assert build_cost_audit([512], seed=3) != build_cost_audit([512], seed=4)

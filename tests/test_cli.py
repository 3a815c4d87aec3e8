import functools
import io
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sortlab
import sortlab.analysis as analysis
import sortlab.cli as cli
import sortlab.heap_core as heap_core
import sortlab.instrumentation as instrumentation
from sortlab import AlgorithmId
from sortlab.analysis import Complexity, GrowthClass, SpaceRow, TimeRow
from sortlab.cli import main, parse_sizes
from sortlab.instrumentation import StabilityVerdict
from sortlab.uhs_sort import SortOrder

from fingerprints import run_in_process


def _sorts_without_counting(a, order, counters=None):
    a.sort(reverse=order is SortOrder.DESCENDING)


class Unrebuildable(Exception):
    """An exception that pickle cannot rebuild from its ``args``."""

    def __init__(self, n, what):
        super().__init__(f"merge {what} {n} keys")


def run_on(cpus, monkeypatch, argv, forks=None):
    """Run the CLI as if this process may use ``cpus`` CPUs; also count forks.

    Pass a list as ``forks`` to read the count when the run raises.
    """
    forks = [] if forks is None else forks
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", fork)
        code, out, err = run_in_process(argv)
    return code, out, err, len(forks)


def _merge_time_rows_only(index, seed, time_rows=analysis._time_rows):
    """Merge sort's time rows as measured, and none for any other algorithm."""
    merge = analysis._TIME_CASES[index].algorithm is AlgorithmId.MERGE
    return time_rows(index, seed) if merge else []


def _without_wall_nanos(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def _appends_without_climbing(heap, x):
    heap.elements.append(x)
    heap.heap_size += 1


def _cli_env():
    """This environment, with PYTHONPATH at this sortlab, for a ``python -m sortlab.cli`` child."""
    return dict(os.environ, PYTHONPATH=str(Path(sortlab.__file__).resolve().parents[1]))


class _Discard(io.TextIOBase):
    """A text stream that takes every write and keeps none of it."""

    def write(self, text):
        return len(text)


_BAD_TOKENS = ["x", "1.5", "1__0", "_1", "1_", "--3", "+-3", "0x10", "1 2", "1e3", "nan"]


@st.composite
def _line_files(draw):
    """A line file for `sortlab sort`, the values of its good lines, and its first bad line's
    number and token (or None): signed ints with underscores and padding, blank and
    whitespace-only lines, a few bad tokens, each line ended by \\n or \\r\\n."""
    lines, values, first_bad = [], [], None
    for ln in range(1, draw(st.integers(0, 12)) + 1):
        pad = st.sampled_from(["", " ", "  ", "\t"])
        kind = draw(st.sampled_from(["int", "int", "int", "blank", "bad"]))
        if kind == "blank":
            text = draw(pad) + draw(pad)
        elif kind == "bad":
            token = draw(st.sampled_from(_BAD_TOKENS))
            text = draw(pad) + token + draw(pad)
            first_bad = first_bad or (ln, token)
        else:
            n = draw(st.integers(-10**12, 10**12))
            sign = "-" if n < 0 else draw(st.sampled_from(["", "+", "-"] if n == 0 else ["", "+"]))
            digits = str(abs(n))  # with an underscore or none after each digit but the last
            digits = "".join(d + draw(st.sampled_from(["", "_"])) for d in digits[:-1]) + digits[-1]
            text = draw(pad) + sign + digits + draw(pad)
            values.append(n)
        lines.append(text + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines), values, first_bad


class TestParseSizes:
    def test_doubling_ladder(self):
        assert parse_sizes("2^8..2^11") == [256, 512, 1024, 2048]
        assert parse_sizes("4..32") == [4, 8, 16, 32]

    def test_comma_list(self):
        assert parse_sizes("100,200,2^10") == [100, 200, 1024]
        assert parse_sizes("7") == [7]

    def test_a_size_listed_twice_is_kept_once_in_its_first_place(self):
        assert parse_sizes("2^10,8,1024,8") == [1024, 8]

    def test_rejects_garbage(self):
        import argparse

        for bad in ("", "abc", "2^", "10..2", "-4", "2^-1", "2^-1..2^3", "8,2^-2"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_sizes(bad)


class TestSortCommand:
    def test_stdin_to_stdout(self):
        code, out, err = run_in_process(["sort"], "5\n3\n9\n1\n")
        assert code == 0
        assert out == "1\n3\n5\n9\n"
        assert err == ""

    def test_blank_lines_skipped(self):
        code, out, _ = run_in_process(["sort"], "2\n\n1\n  \n")
        assert code == 0 and out == "1\n2\n"

    def test_descending_with_stats(self):
        code, out, err = run_in_process(
            ["sort", "-a", "merge", "--order", "desc", "--stats"], "1\n3\n2\n")
        assert code == 0
        assert out == "3\n2\n1\n"
        assert "comparisons=" in err and "aux_peak_slots=3" in err

    def test_file_roundtrip(self, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("4\n-2\n10\n")
        code, out, _ = run_in_process(["sort", "-i", str(src), "-o", str(dst)])
        assert code == 0 and out == ""
        assert dst.read_text() == "-2\n4\n10\n"

    def test_every_algorithm_available(self):
        for algorithm in ("insertion", "merge", "quick", "radix", "bubble", "uhs"):
            code, out, _ = run_in_process(["sort", "-a", algorithm], "3\n1\n2\n")
            assert code == 0, algorithm
            assert out == "1\n2\n3\n"

    def test_bucket_sorts_floats(self):
        code, out, _ = run_in_process(["sort", "-a", "bucket", "--float"], "0.5\n0.25\n0.75\n")
        assert code == 0 and out == "0.25\n0.5\n0.75\n"

    def test_input_file_that_is_not_utf8_is_rejected(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"3\n\xff\n1\n")
        code, out, err = run_in_process(["sort", "-i", str(src)])
        assert code == 2 and out == ""
        assert err.startswith(f"cannot read {src}: ")

    def test_empty_input_is_fine(self, tmp_path):
        for text in ("", "\n  \n"):
            code, out, _ = run_in_process(["sort"], text)
            assert code == 0 and out == ""
        dst = tmp_path / "out.txt"
        code, out, _ = run_in_process(["sort", "-o", str(dst)], "")
        assert code == 0 and out == "" and dst.read_bytes() == b""

    def test_float_output_bytes(self):
        code, out, _ = run_in_process(["sort", "--float"], "3\n1e-7\n-2.50\n1e16\n0.1\n")
        assert code == 0 and out == "-2.5\n1e-07\n0.1\n3.0\n1e+16\n"

    def test_values_are_what_python_int_accepts_printed_canonically(self):
        code, out, err = run_in_process(["sort"], "1_000\n\u0663\n +7 \n-0\n")
        assert (code, out, err) == (0, "0\n3\n7\n1000\n", "")

    @pytest.mark.parametrize("via", ["stdin", "file"])
    def test_crlf_sorts_and_only_newline_ends_a_line(self, tmp_path, via):
        def sort(text):
            if via == "stdin":
                return run_in_process(["sort"], text)
            src = tmp_path / "in.txt"
            src.write_bytes(text.encode())
            return run_in_process(["sort", "-i", str(src)])

        assert sort("3\r\n1\r\n\r\n2\r\n") == (0, "1\n2\n3\n", "")
        # a lone \r or a form feed, which str.splitlines would end a line at, does not
        assert sort("3\r1\r2\r") == (2, "", "input line 1: cannot parse '3\\r1\\r2'\n")
        assert sort("3\x0c1\n2\n") == (2, "", "input line 1: cannot parse '3\\x0c1'\n")

    def test_undecodable_stdin_is_rejected(self, capsys, monkeypatch):
        # as under a strict UTF-8 locale, which a str stdin cannot stand in for
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"3\n\xff\n1\n"),
                                                          encoding="utf-8", errors="strict"))
        assert main(["sort"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cannot read stdin: ")

    def test_a_file_sorts_onto_itself(self, tmp_path):
        # the input is read in full before the output is opened, which truncates it
        path = tmp_path / "data.txt"
        path.write_text("4\n-2\n10\n")
        code, out, err = run_in_process(["sort", "-i", str(path), "-o", str(path)])
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == "-2\n4\n10\n"

    def test_memory_holds_the_values_and_one_output_chunk(self, monkeypatch):
        # Guards the one-pass reader and the chunked writer: the traced peak
        # holds the values list and its ints, one output chunk and a fixed
        # slack, but no copy of the input text, its lines or the whole output
        # (holding those took about 110 B a key, against about 56 here). Only
        # memory is asserted, never wall time. uhs sorts in place; a stand-in
        # that sorts without counting spares tracemalloc the counters' ints.
        n = 2**18
        rng = random.Random(1)
        monkeypatch.setattr(instrumentation, "uhs_sort", _sorts_without_counting)
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{rng.randrange(10**9)}\n"
                                                             for _ in range(n))))
        monkeypatch.setattr("sys.stdout", _Discard())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["sort"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        per_key = sys.getsizeof(10**8) + 8 * 9 / 8  # an int below 10^9, its list slot grown by 1/8
        per_chunk_value = sys.getsizeof("123456789") + 8 + 2 * 10  # its str and slot, joined twice
        bound = n * per_key + cli._CHUNK * per_chunk_value + 2**20
        assert peak <= bound, f"{peak / n:.1f} B a key, over {bound / n:.1f}"


@given(_line_files(), st.sampled_from(["asc", "desc"]), st.sampled_from(["uhs", "merge"]))
@settings(max_examples=150)
def test_sort_grammar_rejects_the_first_bad_line_or_prints_canonical_sorted_ints(
        drawn, order, algorithm):
    text, values, first_bad = drawn
    code, out, err = run_in_process(["sort", "-a", algorithm, "--order", order], text)
    if first_bad:
        ln, token = first_bad
        assert (code, out, err) == (2, "", f"input line {ln}: cannot parse {token!r}\n")
    else:
        expected = "".join(f"{v}\n" for v in sorted(values, reverse=order == "desc"))
        assert (code, out, err) == (0, expected, "")


class TestBenchCommand:
    def test_default_sweep_shape(self):
        code, out, _ = run_in_process(
            ["bench", "--algorithms", "uhs,merge,radix", "--sizes", "2^5..2^7"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "algorithm,n,distribution,trial,comparisons,swaps,"
            "element_moves,aux_peak_slots,recursion_peak,wall_nanos"
        )
        assert len(lines) == 1 + 3 * 3 * 1 * 1
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_deterministic_modulo_wall_nanos(self):
        argv = ["bench", "--algorithms", "uhs,quick", "--sizes", "2^6..2^8",
                "--distributions", "random,few-unique", "--trials", "2"]
        _, out1, _ = run_in_process(argv)
        _, out2, _ = run_in_process(argv)
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.strip().split("\n")]
        assert strip(out1) == strip(out2)
        assert out1.strip() != ""

    def test_csv_file_output(self, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run_in_process(
            ["bench", "--algorithms", "bubble", "--sizes", "64", "--csv", str(path)])
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("bubble,64,random,0,")

    def test_bucket_gets_float_rendition(self):
        code, out, _ = run_in_process(
            ["bench", "--algorithms", "bucket", "--sizes", "128",
             "--distributions", "sorted,few-unique"])
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_radix_with_uniform01_still_runs_the_other_algorithms(self):
        code, out, err = run_in_process(
            ["bench", "--algorithms", "radix,uhs", "--distributions", "uniform01", "--sizes", "16"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows and all(r.startswith("uhs,16,uniform01,") for r in rows)
        assert "radix" in err and "uniform01" in err and len(err.splitlines()) == 1

    def test_all_distributions_skip_radix_uniform01(self):
        code, out, err = run_in_process(
            ["bench", "--algorithms", "all", "--distributions", "all", "--sizes", "16"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 7 * 5 - 1
        assert not [r for r in rows if r.startswith("radix,16,uniform01,")]
        assert "radix" in err and "uniform01" in err and len(err.splitlines()) == 1

    def test_an_algorithm_or_size_named_twice_is_one_row(self):
        # two rows for one cell would share one measurement's wall_nanos
        code, out, _ = run_in_process(["bench", "--algorithms", "uhs,merge,uhs",
                                       "--sizes", "8,16,8"])
        assert code == 0
        cells = [",".join(line.split(",")[:2]) for line in out.splitlines()[1:]]
        assert cells == ["uhs,8", "uhs,16", "merge,8", "merge,16"]

    @pytest.mark.parametrize("order", ["asc", "desc"])
    def test_serial_and_pooled_runs_write_the_same_csv(self, monkeypatch, order):
        argv = ["bench", "--algorithms", "all", "--distributions", "all", "--trials", "2",
                "--sizes", "2^4..2^7", "--seed", "3", "--order", order]
        serial = run_on(1, monkeypatch, argv)
        pooled = run_on(2, monkeypatch, argv)
        assert serial[3] == 0 and pooled[3] == 2  # one worker per CPU
        assert serial[0] == pooled[0] == 0 and serial[2] == pooled[2] != ""
        rows = _without_wall_nanos(serial[1])
        assert rows == _without_wall_nanos(pooled[1])
        assert len(rows) == 1 + (7 * 5 - 1) * 4 * 2

    @pytest.mark.parametrize("error", [
        lambda n: ValueError(f"merge cannot sort {n} keys"),
        lambda n: Unrebuildable(n, "cannot sort"),
    ], ids=["picklable", "unrebuildable"])
    def test_a_sort_that_raises_in_a_cell_raises_the_same_serial_or_pooled(
        self, monkeypatch, error
    ):
        # two cells raise; both runs report the same one, and a pooled run
        # raises it in this process, even when it could not come back from a worker
        def merge_sort(a, order, counters=None):
            if len(a) in (32, 128):
                raise error(len(a))
            a.sort(reverse=order is SortOrder.DESCENDING)

        argv = ["bench", "--algorithms", "all", "--sizes", "2^4..2^7"]
        raised = []
        for cpus in (1, 2):
            forks = []
            with monkeypatch.context() as m:
                m.setattr(instrumentation, "merge_sort", merge_sort)
                with pytest.raises(Exception) as e:
                    run_on(cpus, monkeypatch, argv, forks)
            raised.append((type(e.value), str(e.value), len(forks)))
        assert raised[0][:2] == raised[1][:2]
        assert raised[0][0] is type(error(0))
        assert raised[0][1] in ("merge cannot sort 32 keys", "merge cannot sort 128 keys")
        assert [forks for _, _, forks in raised] == [0, 2]

    def test_many_tiny_cells_take_at_most_32_tasks(self, monkeypatch):
        # 340 cells of up to 512 keys: each task is one job for a worker to take
        # and send back, so the cells are dealt into 32 tasks, none of more than
        # ceil(340 / 32)
        sweep_task, tasks = cli._sweep_task, []

        def counting(cells, options):
            tasks.append(len(cells))
            return sweep_task(cells, options)

        monkeypatch.setattr(cli, "_sweep_task", counting)
        argv = ["bench", "--algorithms", "all", "--sizes", "1..2^9", "--distributions", "all",
                "--seed", "3"]
        code, out, _, forks = run_on(1, monkeypatch, argv)
        assert code == 0 and forks == 0
        assert len(tasks) <= 32 and max(tasks) <= math.ceil(340 / 32) and sum(tasks) == 340
        algorithms = ["insertion", "merge", "quick", "bucket", "radix", "bubble", "uhs"]
        distributions = ["random", "sorted", "reversed", "few-unique", "uniform01"]
        expected = [
            f"{a},{2**k},{d},0" for a, k, d in product(algorithms, range(10), distributions)
            if (a, d) != ("radix", "uniform01")
        ]
        assert [",".join(line.split(",")[:4]) for line in out.splitlines()[1:]] == expected


class TestStabilityCommand:
    def test_verdict_lines_and_exit_zero(self):
        code, out, _ = run_in_process(["stability", "--trials", "150"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        by_alg = dict(line.split(": ", 1) for line in lines)
        assert by_alg["merge"].startswith("STABLE(trials=")
        assert by_alg["quick"].startswith("UNSTABLE witness=")
        assert by_alg["uhs"].startswith("UNSTABLE witness=")

    def test_algorithm_filter(self):
        code, out, _ = run_in_process(["stability", "--algorithms", "merge,uhs",
                                       "--trials", "100"])
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_an_algorithm_named_twice_runs_once(self):
        code, out, _ = run_in_process(["stability", "--algorithms", "uhs,merge,uhs",
                                       "--trials", "10"])
        assert code == 0
        assert out == "uhs: UNSTABLE witness=[0, 0]\nmerge: STABLE(trials=1087)\n"

    def test_readme_example_is_what_the_command_prints(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code, out, _ = run_in_process(["stability", "--algorithms", "merge,uhs"])
        assert code == 0
        example = "".join(f"# {line}\n" for line in out.splitlines())
        assert "sortlab stability --algorithms merge,uhs\n" + example in readme, out

    def test_verdict_against_the_design_sets_exit_one(self, monkeypatch):
        # uhs sorts in order but reorders equal keys, so a merge that is uhs
        # is found unstable, which its design says it is not
        monkeypatch.setattr(instrumentation, "merge_sort", instrumentation.uhs_sort)
        code, out, _ = run_in_process(["stability", "--algorithms", "merge", "--trials", "10"])
        assert code == 1
        assert out == "merge: UNSTABLE witness=[0, 0]\n"

class TestVerifyCommand:
    def test_injected_fault_is_caught(self, monkeypatch):
        # A sift kernel that never moves anything must fail the heap check;
        # every heap entry point looks the kernel up at call time.
        with monkeypatch.context() as m:
            m.setattr(heap_core, "_sift_down", lambda a, n, holes, mx: (0, 0))
            code, out, _ = run_in_process(["verify", "--only", "heap-invariants"])
        assert code == 1
        assert "heap-invariants: FAIL" in out
        assert "construction broke the heap property" in out
        code, out, _ = run_in_process(["verify", "--only", "heap-invariants"])
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("name, stand_in, detail", [
        ("Heap", type("Unclimbing", (heap_core.Heap,), {"push": _appends_without_climbing}),
         "pushes broke the heap property"),
        ("Heap", type("OffByOne", (heap_core.Heap,),
                      {"pop_root": lambda heap: heap_core.Heap.pop_root(heap) + 1}),
         "drain order wrong for {keys}"),
        ("uhs_sort", lambda a: None, "sort disagreed with oracle on {keys}"),
    ], ids=["push", "drain", "sort"])
    def test_each_heap_invariants_failure_prints_its_line(self, monkeypatch, name, stand_in,
                                                           detail):
        rng = random.Random(0)  # the keys of seed 0's first trial
        keys = [rng.randint(-999, 999) for _ in range(rng.randint(0, 128))]
        monkeypatch.setattr(cli, name, stand_in)
        expected = f"heap-invariants: FAIL\n  trial 0: {detail.format(keys=keys)}\n"
        assert run_in_process(["verify", "--only", "heap-invariants", "--seed", "0"]) == (
            1, expected, "")

    def test_unstable_stand_in_for_a_stable_sort_fails_differential(self, monkeypatch):
        # uhs returns every key in order but reorders equal ones, so only a
        # payload-exact check can tell it from merge sort
        monkeypatch.setattr(instrumentation, "merge_sort", instrumentation.uhs_sort)
        code, out, _ = run_in_process(["verify", "--only", "differential"])
        assert code == 1
        assert "differential: FAIL" in out
        assert any(": merge " in line and "unstable" in line for line in out.splitlines())

    def test_serial_and_parallel_runs_print_the_same(self, monkeypatch):
        argv = ["verify", "--only", "build-cost,heap-invariants,differential,dynamic"]
        serial = run_on(1, monkeypatch, argv)
        parallel = run_on(2, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2  # one worker per CPU
        assert serial[:3] == parallel[:3] == (0, serial[1], "")
        assert serial[1].splitlines() == [
            f"{name}: PASS" for name in ("build-cost", "heap-invariants", "differential", "dynamic")
        ]

    def test_a_check_named_twice_runs_and_prints_once(self, monkeypatch):
        dynamic_scenario, calls = cli.dynamic_scenario, []

        def counting(ops):
            calls.append(1)
            return dynamic_scenario(ops)

        argv = ["verify", "--only", "dynamic,build-cost,dynamic"]
        with monkeypatch.context() as m:
            m.setattr(cli, "dynamic_scenario", counting)
            serial = run_on(1, monkeypatch, argv)
        parallel = run_on(2, monkeypatch, argv)
        assert len(calls) == 1
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3] == (
            0, "dynamic: PASS\nbuild-cost: PASS\n", "")

    def test_fault_in_a_worker_is_reported_like_a_serial_one(self, monkeypatch):
        # forked workers inherit the broken kernel, and their failure comes
        # back with the same verdict and detail lines
        argv = ["verify", "--only", "heap-invariants,differential"]
        with monkeypatch.context() as m:
            m.setattr(heap_core, "_sift_down", lambda a, n, holes, mx: (0, 0))
            serial = run_on(1, monkeypatch, argv)
            parallel = run_on(2, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3]
        code, out, _, _ = parallel
        assert code == 1
        assert "heap-invariants: FAIL\n  trial 0: construction broke the heap property\n" in out

    def test_tables_print_reproduce_tables_for_the_seed(self, monkeypatch):
        # fast stand-ins for the work of the parts take the seed, and the
        # space rows fail: verify prints exactly reproduce_tables(seed)
        fit = GrowthClass(Complexity.LINEAR, 0.0)
        stubs = {
            "_time_rows": lambda index, seed: [
                TimeRow(AlgorithmId.RADIX, "all", f"seed {seed} case {index}",
                        Complexity.LINEAR, fit)],
            "_quick_peaks": lambda trials, seed: (trials.start + seed, 0),
            "_slot_rows": lambda: [
                SpaceRow(AlgorithmId.UHS, "O(1)", "aux slots", 1, 0, False)],
            "stability_check": lambda algorithm, trials, seed: StabilityVerdict(
                algorithm, True, seed),
        }
        argv = ["verify", "--only", "tables", "--seed", "3"]
        with monkeypatch.context() as m:
            for name, stub in stubs.items():
                m.setattr(analysis, name, stub)
            text = analysis.reproduce_tables(3).as_text()
            serial = run_on(1, monkeypatch, argv)
            pooled = run_on(2, monkeypatch, argv)
        expected = "tables: FAIL\n" + "".join(f"  {line}\n" for line in text.splitlines())
        assert "seed 3" in text and "OVER" in text
        assert serial == (1, expected, "", 0)
        assert pooled == (1, expected, "", 2)

    @pytest.mark.parametrize("patches,checks,expected", [
        ([(heap_core, "_sift_down", lambda a, n, holes, mx: (0, 0))],
         "build-cost,heap-invariants,differential",
         "build-cost: FAIL\n  construction broke the heap property at n=1024\n"
         "heap-invariants: FAIL\n  trial 0: construction broke the heap property\n"
         "differential: FAIL\n  trial 0: uhs asc missorted "),
        # only merge's time part raises, and only what it raised is printed,
        # so fast stand-ins take the other parts' place
        ([(instrumentation, "merge_sort", _sorts_without_counting),
          (analysis, "_time_rows", _merge_time_rows_only),
          (analysis, "_quick_peaks", lambda trials, seed: (0, 0)),
          (analysis, "_slot_rows", lambda: []),
          (analysis, "stability_check", lambda algorithm, trials, seed: None)],
         "tables", "tables: FAIL\n  costs must be strictly positive\n"),
    ], ids=["build-cost-raises", "tables-raises"])
    def test_a_raising_check_fails_with_its_message(self, monkeypatch, patches, checks, expected):
        # build_cost_audit and growth_fit raise; verify reports what they
        # raised as the check's detail, on one CPU and on two alike
        argv = ["verify", "--only", checks]
        with monkeypatch.context() as m:
            for patch in patches:
                m.setattr(*patch)
            serial = run_on(1, monkeypatch, argv)
            parallel = run_on(2, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3]
        code, out, err, _ = serial
        assert code == 1 and err == ""
        assert out.startswith(expected)
        assert "Traceback" not in out


def test_verify_assembles_reproduce_tables_from_the_parts(monkeypatch, reproduced_tables):
    # the pooled tables check runs the parts as jobs and puts together the
    # very report reproduce_tables(0) makes: every fit and residual, budget,
    # witness and trial count. A serial run is reproduce_tables(seed) itself,
    # and the seed's way through both runs is checked on stubs in
    # test_tables_print_reproduce_tables_for_the_seed
    assemble, reports = analysis.assemble_tables, []

    def spy(results):
        reports.append(assemble(results))
        return reports[-1]

    monkeypatch.setattr(analysis, "assemble_tables", spy)
    argv = ["verify", "--only", "tables", "--seed", "0"]
    assert run_on(2, monkeypatch, argv) == (0, "tables: PASS\n", "", 2)
    assert reports == [reproduced_tables]


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_gives_each_verdict_its_own_results_in_job_order(monkeypatch, cpus):
    # checks of several jobs, asked for out of _CHECKS' order: each verdict
    # gets its own jobs' results, in the order of its jobs, serially and pooled
    def jobs(name, count):
        return tuple(lambda seed, i=i: f"{name} {i} seed {seed}" for i in range(count))

    monkeypatch.setitem(cli._CHECKS, "dynamic", (jobs("dynamic", 3), lambda *v: (False, v)))
    monkeypatch.setitem(cli._CHECKS, "build-cost", (jobs("build-cost", 2), lambda *v: (False, v)))
    monkeypatch.setitem(cli._CHECKS, "heap-invariants",
                        ((lambda seed: (True, ["unprinted"]),), cli._as_is))
    argv = ["verify", "--only", "dynamic,heap-invariants,build-cost", "--seed", "5"]
    expected = ("dynamic: FAIL\n  dynamic 0 seed 5\n  dynamic 1 seed 5\n  dynamic 2 seed 5\n"
                "heap-invariants: PASS\n"
                "build-cost: FAIL\n  build-cost 0 seed 5\n  build-cost 1 seed 5\n")
    assert run_on(cpus, monkeypatch, argv) == (1, expected, "", 0 if cpus == 1 else 2)


def test_every_verify_check_has_a_job_and_a_verdict():
    # _CHECKS is the one table of verify's jobs: a check with no job would
    # print nothing true, and every check's results go through its verdict,
    # one shared by all the one-job checks
    for jobs, verdict in cli._CHECKS.values():
        assert len(jobs) >= 1
        assert callable(verdict)
    assert {verdict for jobs, verdict in cli._CHECKS.values() if len(jobs) == 1} == {cli._as_is}


_VERIFY_ARGV = ["verify", "--only", "build-cost,heap-invariants,dynamic"]
_BENCH_ARGV = ["bench", "--algorithms", "all", "--sizes", "2^4..2^6", "--seed", "3"]


class TestForkedWorkers:
    def test_three_cpus_give_the_serial_outputs_with_three_forks(self, monkeypatch):
        for argv in (_BENCH_ARGV, _VERIFY_ARGV):
            serial = run_on(1, monkeypatch, argv)
            three = run_on(3, monkeypatch, argv)
            assert (serial[3], three[3]) == (0, 3)
            assert serial[0] == three[0] == 0 and serial[2] == three[2]
            assert _without_wall_nanos(serial[1]) == _without_wall_nanos(three[1])

    @pytest.mark.parametrize("argv", [
        ["bench", "--algorithms", "uhs", "--sizes", "16"], ["verify", "--only", "dynamic"],
    ], ids=["bench", "verify"])
    def test_one_job_runs_here(self, monkeypatch, argv):
        code, _, _, forks = run_on(4, monkeypatch, argv)
        assert (code, forks) == (0, 0)

    @pytest.mark.parametrize("argv, lines", [
        (["bench", "--algorithms", "uhs,merge", "--sizes", "16,32"], 1 + 2 * 2),
        (["verify", "--only", "build-cost,dynamic"], 2),
    ], ids=["bench", "verify"])
    def test_no_fork_while_another_thread_runs(self, monkeypatch, argv, lines):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _, forks = run_on(2, monkeypatch, argv)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert (forks, code, len(out.splitlines())) == (0, 0, lines)

    def test_no_fork_on_a_platform_without_it(self, monkeypatch):
        serial = run_on(1, monkeypatch, _BENCH_ARGV)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code, out, _ = run_in_process(_BENCH_ARGV)
        assert code == 0 and _without_wall_nanos(out) == _without_wall_nanos(serial[1])

    @pytest.mark.parametrize("command", ["bench", "verify"])
    def test_a_worker_that_ends_raises_its_exit_status_and_is_reaped(self, monkeypatch, command):
        # one job ends its worker; the other workers run on, and every
        # worker is waited for before the error is raised
        pid, sweep_task = os.getpid(), cli._sweep_task

        def ends_at_32_keys(cells, options):
            if os.getpid() != pid and any(n == 32 for _, n, _ in cells):
                os._exit(3)
            return sweep_task(cells, options)

        if command == "bench":
            monkeypatch.setattr(cli, "_sweep_task", ends_at_32_keys)
            argv = _BENCH_ARGV
        else:
            ends = (lambda seed: os._exit(3) if os.getpid() != pid else (True, []),)
            monkeypatch.setitem(cli._CHECKS, "dynamic", (ends, cli._as_is))
            argv = _VERIFY_ARGV
        forks = []
        with pytest.raises(RuntimeError, match=r"^worker process \d+ ended with exit status 3$"):
            run_on(2, monkeypatch, argv, forks)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_fork_raises_as_itself_and_the_worker_forked_is_reaped(
        self, monkeypatch, tmp_path
    ):
        # the second fork fails: that OSError is what bench raises, not a
        # failed write to --csv, and the first worker stops and is waited for
        real_fork, forks = os.fork, []

        def fork():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(BlockingIOError, match="Resource temporarily unavailable"):
            run_in_process([*_BENCH_ARGV, "--csv", str(tmp_path / "out.csv")])
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
    def test_a_pooled_run_leaves_no_descriptor_open(self, monkeypatch, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        for argv in ([*_BENCH_ARGV, "--csv", str(tmp_path / "out.csv")], _VERIFY_ARGV):
            code, _, _, forks = run_on(2, monkeypatch, argv)
            assert (code, forks) == (0, 2)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_job_list_too_long_for_one_write_runs_here(self, monkeypatch):
        # a job's index goes to the workers as one byte, so 256 jobs fork
        # and 257 run serially, with the same results
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for jobs, fork_count in ((256, 2), (257, 0)):
            forks.clear()
            results = cli._job_results([functools.partial(str, i) for i in range(jobs)])
            assert results == [(True, str(i)) for i in range(jobs)]
            assert len(forks) == fork_count


def test_importing_the_cli_loads_no_process_pool():
    # every `sortlab sort` process pays for what `import sortlab.cli` loads,
    # and the forked workers of bench and verify need none of these modules
    code = """if True:
        import os, sys
        import sortlab.cli as cli
        loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        os.sched_getaffinity = lambda pid: {0, 1}
        cli.main(['bench', '--sizes', '2^4..2^5', '--algorithms', 'uhs'])
        cli.main(['verify', '--only', 'build-cost,dynamic'])
        print(loaded, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules],
              len(forks))
    """
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[] [] 4"


_WRITERS = pytest.mark.parametrize("argv", [
    ["sort"],
    ["bench", "--sizes", "2^4..2^5", "--algorithms", "uhs"],
    ["stability", "--algorithms", "merge", "--trials", "10"],
    ["--help"],
    ["sort", "--help"],
], ids=["sort", "bench", "stability", "help", "sort-help"])


@_WRITERS
def test_a_closed_stdout_exits_2_without_a_traceback(argv):
    # as in `sortlab bench | head -n 1`, but the reader is gone before the
    # first write, so every write fails, buffered or not
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "sortlab.cli", *argv], input="3\n1\n2\n",
                              stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(), text=True,
                              timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@_WRITERS
def test_a_full_stdout_exits_2_with_one_line(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC: at the first write when
    # stdout is unbuffered, at the first flush when it is buffered
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "sortlab.cli", *argv], input="3\n1\n2\n",
                              stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("cannot write stdout: ")
    assert done.stderr.count("\n") == 1, done.stderr


def _raises_if_called(*args, **kwargs):
    raise AssertionError("a sort ran")


@pytest.mark.parametrize("argv", [
    ["sort", "-o"],
    ["bench", "--sizes", "16", "--algorithms", "uhs", "--csv"],
], ids=["sort", "bench"])
def test_an_output_in_a_missing_directory_exits_2_with_one_line(monkeypatch, tmp_path, argv):
    # bench opens --csv before its sweep, so no sort runs; sort opens -o
    # after sorting, so that a file can sort onto itself
    monkeypatch.setattr(analysis, "counted_sort", _raises_if_called)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_in_process([*argv, str(path)], "3\n1\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1, err


def _missing(verb, path):
    return f"cannot {verb} {path}: [Errno 2] No such file or directory: {path!r}"


_NAN = "NaN and infinities cannot be sorted"
_TRIALS = "--trials must be >= 1"


# each request sortlab refuses: its argv, its stdin and the error line it prints
_REJECTED = [
    (["sort", "-a", "bucket"], "0.5\n", "bucket sort takes float keys in [0, 1); pass --float"),
    (["sort", "-a", "radix", "--float"], "1\n",
     "radix sort takes non-negative integer keys; drop --float"),
    (["sort", "-a", "radix"], "5\n-3\n", "radix keys must be non-negative, got -3"),
    (["sort"], "5\nxyz\n1\n", "input line 2: cannot parse 'xyz'"),
    (["sort"], "5\n\n\nxyz\n", "input line 4: cannot parse 'xyz'"),
    *((["sort", "-a", a, "--float"], "2.5\n1\nnan\n0.5\n", f"input line 3: {_NAN}")
      for a in ("uhs", "merge", "quick", "insertion")),
    *((["sort", "--float"], f"2\n{v}\n0.5\n", f"input line 2: {_NAN}")
      for v in ("1e400", "-1e400", "inf")),
    (["sort", "-i", "/nonexistent/path.txt"], "", _missing("read", "/nonexistent/path.txt")),
    (["sort", "-i", ""], "3\n", _missing("read", "")),
    (["sort", "-o", ""], "3\n", _missing("write", "")),
    (["bench", "--csv", ""], "", _missing("write", "")),
    (["bench", "--algorithms", "radix", "--distributions", "uniform01"], "",
     "radix sort cannot take uniform01 (float) keys"),
    (["bench", "--trials", "0", "--algorithms", "uhs", "--sizes", "16"], "", _TRIALS),
    (["stability", "--trials", "0", "--algorithms", "merge"], "", _TRIALS),
    (["stability", "--trials", "-5", "--algorithms", "merge"], "", _TRIALS),
    (["sort", "-a", "nosuch"], "", "sortlab sort: error: argument -a/--algorithm: "),
    (["bench", "--sizes", "banana"], "",
     "sortlab bench: error: argument --sizes: invalid literal for int() with base 10: 'banana'"),
    (["bench", "--sizes", "2^-1"], "",
     "sortlab bench: error: argument --sizes: size '2^-1' has a negative exponent"),
    (["bench", "--algorithms", "uhs,warp"], "", "sortlab bench: error: argument --algorithms: "
     "unknown algorithm 'warp'; choose from insertion, merge, quick, bucket, radix, bubble, uhs"),
    (["verify", "--only", "nosuch"], "", "sortlab verify: error: argument --only: "
     "unknown check 'nosuch'; choose from build-cost, heap-invariants, differential, dynamic, "
     "tables"),
    *(([command, flag, ","], "", f"sortlab {command}: error: argument {flag}: no {what} given")
      for command, flag, what in [("bench", "--algorithms", "algorithm"),
                                  ("stability", "--algorithms", "algorithm"),
                                  ("bench", "--distributions", "distribution"),
                                  ("verify", "--only", "check")]),
    ([], "", "sortlab: error: the following arguments are required: command"),
]


@pytest.mark.parametrize("argv, stdin, line", _REJECTED,
                         ids=[shlex.join(argv) or "no command" for argv, _, _ in _REJECTED])
def test_a_rejected_request_exits_2_with_its_one_error_line(argv, stdin, line):
    code, out, err = run_in_process(argv, stdin)
    assert (code, out) == (2, "")
    if not line.startswith("sortlab"):  # sortlab's own line, alone
        assert err == f"{line}\n"
    elif line.endswith(": "):  # argparse's wording past the flag differs across Pythons
        assert err.startswith("usage: ") and err.splitlines()[-1].startswith(line), err
    else:  # argparse's usage, then its error line with sortlab's message
        assert err.startswith("usage: ") and err.endswith(f"\n{line}\n"), err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_a_failed_stdout_write_leaves_no_descriptor_open(monkeypatch, capsys):
    # stdout is aimed at devnull after a failed write; the devnull descriptor
    # opened for that is closed again, run after run
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr("sys.stdout", full)
            assert main(["stability", "--algorithms", "merge", "--trials", "10"]) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("cannot write stdout: ") == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sort" in capsys.readouterr().out

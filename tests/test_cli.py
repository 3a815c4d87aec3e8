import io
import math
import os
import subprocess
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

import sortlab
import sortlab.analysis as analysis
import sortlab.cli as cli
import sortlab.heap_core as heap_core
import sortlab.instrumentation as instrumentation
from sortlab import AlgorithmId, Complexity, GrowthClass, StabilityVerdict
from sortlab.analysis import SpaceRow, TimeRow
from sortlab.cli import main, parse_sizes
from sortlab.uhs_sort import SortOrder


def _sorts_without_counting(a, order, counters=None):
    a.sort(reverse=order is SortOrder.DESCENDING)


class Unrebuildable(Exception):
    """An exception that pickle cannot rebuild from its ``args``."""

    def __init__(self, n, what):
        super().__init__(f"merge {what} {n} keys")


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on(cpus, capsys, monkeypatch, argv, forks=None):
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
        code, out, err = run_cli(capsys, argv)
    return code, out, err, len(forks)


def _without_wall_nanos(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


class TestParseSizes:
    def test_doubling_ladder(self):
        assert parse_sizes("2^8..2^11") == [256, 512, 1024, 2048]
        assert parse_sizes("4..32") == [4, 8, 16, 32]

    def test_comma_list(self):
        assert parse_sizes("100,200,2^10") == [100, 200, 1024]
        assert parse_sizes("7") == [7]

    def test_rejects_garbage(self):
        import argparse

        for bad in ("", "abc", "2^", "10..2", "-4"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_sizes(bad)


class TestSortCommand:
    def test_stdin_to_stdout(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["sort"], "5\n3\n9\n1\n", monkeypatch)
        assert code == 0
        assert out == "1\n3\n5\n9\n"
        assert err == ""

    def test_blank_lines_skipped(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["sort"], "2\n\n1\n  \n", monkeypatch)
        assert code == 0 and out == "1\n2\n"

    def test_descending_with_stats(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, ["sort", "-a", "merge", "--order", "desc", "--stats"],
            "1\n3\n2\n", monkeypatch,
        )
        assert code == 0
        assert out == "3\n2\n1\n"
        assert "comparisons=" in err and "aux_peak_slots=3" in err

    def test_file_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("4\n-2\n10\n")
        code, out, _ = run_cli(capsys, ["sort", "-i", str(src), "-o", str(dst)])
        assert code == 0 and out == ""
        assert dst.read_text() == "-2\n4\n10\n"

    def test_every_algorithm_available(self, capsys, monkeypatch):
        for algorithm in ("insertion", "merge", "quick", "radix", "bubble", "uhs"):
            code, out, _ = run_cli(capsys, ["sort", "-a", algorithm], "3\n1\n2\n", monkeypatch)
            assert code == 0, algorithm
            assert out == "1\n2\n3\n"

    def test_bucket_requires_float_flag(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["sort", "-a", "bucket"], "0.5\n", monkeypatch)
        assert code == 2
        assert "--float" in err

    def test_bucket_sorts_floats(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["sort", "-a", "bucket", "--float"], "0.5\n0.25\n0.75\n", monkeypatch
        )
        assert code == 0 and out == "0.25\n0.5\n0.75\n"

    def test_radix_rejects_float_flag(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["sort", "-a", "radix", "--float"], "1\n", monkeypatch)
        assert code == 2 and "integer" in err

    def test_radix_rejects_negative_keys(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["sort", "-a", "radix"], "5\n-3\n", monkeypatch)
        assert code == 2 and "-3" in err

    def test_parse_error_names_line(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["sort"], "5\nxyz\n1\n", monkeypatch)
        assert code == 2
        assert "line 2" in err and "xyz" in err
        code, _, err = run_cli(capsys, ["sort"], "5\n\n\nxyz\n", monkeypatch)
        assert code == 2
        assert "line 4" in err and "xyz" in err

    def test_float_nan_rejected_with_line(self, capsys, monkeypatch):
        for algorithm in ("uhs", "merge", "quick", "insertion"):
            code, out, err = run_cli(
                capsys, ["sort", "-a", algorithm, "--float"], "2.5\n1\nnan\n0.5\n", monkeypatch
            )
            assert code == 2, algorithm
            assert out == ""
            assert "line 3" in err and "NaN" in err

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "inf"])
    def test_float_infinity_rejected_with_line(self, capsys, monkeypatch, literal):
        code, out, err = run_cli(capsys, ["sort", "--float"], f"2\n{literal}\n0.5\n", monkeypatch)
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, ["sort", "-i", "/nonexistent/path.txt"])
        assert code == 2 and "cannot read" in err

    def test_input_file_that_is_not_utf8_is_rejected(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"3\n\xff\n1\n")
        code, out, err = run_cli(capsys, ["sort", "-i", str(src)])
        assert code == 2 and out == ""
        assert err.startswith(f"cannot read {src}: ")

    def test_unknown_algorithm_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["sort", "-a", "nosuch"])
        assert code == 2

    def test_empty_input_is_fine(self, capsys, monkeypatch, tmp_path):
        for text in ("", "\n  \n"):
            code, out, _ = run_cli(capsys, ["sort"], text, monkeypatch)
            assert code == 0 and out == ""
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, ["sort", "-o", str(dst)], "", monkeypatch)
        assert code == 0 and out == "" and dst.read_bytes() == b""

    def test_float_output_bytes(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["sort", "--float"], "3\n1e-7\n-2.50\n1e16\n0.1\n", monkeypatch
        )
        assert code == 0 and out == "-2.5\n1e-07\n0.1\n3.0\n1e+16\n"


class TestBenchCommand:
    def test_default_sweep_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bench", "--algorithms", "uhs,merge,radix", "--sizes", "2^5..2^7"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "algorithm,n,distribution,trial,comparisons,swaps,"
            "element_moves,aux_peak_slots,recursion_peak,wall_nanos"
        )
        assert len(lines) == 1 + 3 * 3 * 1 * 1
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_deterministic_modulo_wall_nanos(self, capsys):
        argv = ["bench", "--algorithms", "uhs,quick", "--sizes", "2^6..2^8",
                "--distributions", "random,few-unique", "--trials", "2"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.strip().split("\n")]
        assert strip(out1) == strip(out2)
        assert out1.strip() != ""

    def test_csv_file_output(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, ["bench", "--algorithms", "bubble", "--sizes", "64", "--csv", str(path)]
        )
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("bubble,64,random,0,")

    def test_bucket_gets_float_rendition(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bench", "--algorithms", "bucket", "--sizes", "128",
                     "--distributions", "sorted,few-unique"]
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_radix_with_uniform01_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["bench", "--algorithms", "radix", "--distributions", "uniform01"]
        )
        assert code == 2 and "uniform01" in err

    def test_radix_with_uniform01_still_runs_the_other_algorithms(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["bench", "--algorithms", "radix,uhs", "--distributions", "uniform01", "--sizes", "16"],
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows and all(r.startswith("uhs,16,uniform01,") for r in rows)
        assert "radix" in err and "uniform01" in err and len(err.splitlines()) == 1

    def test_all_distributions_skip_radix_uniform01(self, capsys):
        code, out, err = run_cli(
            capsys, ["bench", "--algorithms", "all", "--distributions", "all", "--sizes", "16"]
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 7 * 5 - 1
        assert not [r for r in rows if r.startswith("radix,16,uniform01,")]
        assert "radix" in err and "uniform01" in err and len(err.splitlines()) == 1

    def test_bad_sizes_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["bench", "--sizes", "banana"])
        assert code == 2

    def test_negative_exponent_is_usage_error(self, capsys):
        import argparse

        for bad in ("2^-1", "2^-1..2^3", "8,2^-2"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_sizes(bad)
        code, out, err = run_cli(capsys, ["bench", "--sizes", "2^-1"])
        assert code == 2 and out == ""
        assert "negative exponent" in err

    def test_unknown_algorithm_in_list(self, capsys):
        code, _, _ = run_cli(capsys, ["bench", "--algorithms", "uhs,warp"])
        assert code == 2

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--trials", "0", "--algorithms", "uhs",
                                        "--sizes", "16"])
        assert code == 2 and "--trials" in err

    @pytest.mark.parametrize("order", ["asc", "desc"])
    def test_serial_and_pooled_runs_write_the_same_csv(self, capsys, monkeypatch, order):
        argv = ["bench", "--algorithms", "all", "--distributions", "all", "--trials", "2",
                "--sizes", "2^4..2^7", "--seed", "3", "--order", order]
        serial = run_on(1, capsys, monkeypatch, argv)
        pooled = run_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and pooled[3] == 2  # one worker per CPU
        assert serial[0] == pooled[0] == 0 and serial[2] == pooled[2] != ""
        rows = _without_wall_nanos(serial[1])
        assert rows == _without_wall_nanos(pooled[1])
        assert len(rows) == 1 + (7 * 5 - 1) * 4 * 2

    def test_no_fork_while_another_thread_runs(self, capsys, monkeypatch):
        argv = ["bench", "--algorithms", "uhs,merge", "--sizes", "16,32"]
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _, forks = run_on(2, capsys, monkeypatch, argv)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == 0 and code == 0 and len(out.splitlines()) == 1 + 2 * 2

    @pytest.mark.parametrize("error", [
        lambda n: ValueError(f"merge cannot sort {n} keys"),
        lambda n: Unrebuildable(n, "cannot sort"),
    ], ids=["picklable", "unrebuildable"])
    def test_a_sort_that_raises_in_a_cell_raises_the_same_serial_or_pooled(
        self, capsys, monkeypatch, error
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
                    run_on(cpus, capsys, monkeypatch, argv, forks)
            raised.append((type(e.value), str(e.value), len(forks)))
        assert raised[0][:2] == raised[1][:2]
        assert raised[0][0] is type(error(0))
        assert raised[0][1] in ("merge cannot sort 32 keys", "merge cannot sort 128 keys")
        assert [forks for _, _, forks in raised] == [0, 2]

    def test_many_tiny_cells_take_at_most_32_tasks(self, capsys, monkeypatch):
        # 340 cells of up to 512 keys: each task costs a pool round trip, so
        # the cells are dealt into 32 tasks, none of more than ceil(340 / 32)
        sweep_task, tasks = cli._sweep_task, []

        def counting(cells, options):
            tasks.append(len(cells))
            return sweep_task(cells, options)

        monkeypatch.setattr(cli, "_sweep_task", counting)
        argv = ["bench", "--algorithms", "all", "--sizes", "1..2^9", "--distributions", "all",
                "--seed", "3"]
        code, out, _, forks = run_on(1, capsys, monkeypatch, argv)
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
    def test_verdict_lines_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["stability", "--trials", "150"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        by_alg = dict(line.split(": ", 1) for line in lines)
        assert by_alg["merge"].startswith("STABLE(trials=")
        assert by_alg["quick"].startswith("UNSTABLE witness=")
        assert by_alg["uhs"].startswith("UNSTABLE witness=")

    def test_algorithm_filter(self, capsys):
        code, out, _ = run_cli(capsys, ["stability", "--algorithms", "merge,uhs",
                                        "--trials", "100"])
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_readme_example_is_what_the_command_prints(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code, out, _ = run_cli(capsys, ["stability", "--algorithms", "merge,uhs"])
        assert code == 0
        example = "".join(f"# {line}\n" for line in out.splitlines())
        assert "sortlab stability --algorithms merge,uhs\n" + example in readme, out

    def test_verdict_against_the_design_sets_exit_one(self, capsys, monkeypatch):
        # uhs sorts in order but reorders equal keys, so a merge that is uhs
        # is found unstable, which its design says it is not
        monkeypatch.setattr(instrumentation, "merge_sort", instrumentation.uhs_sort)
        code, out, _ = run_cli(capsys, ["stability", "--algorithms", "merge", "--trials", "10"])
        assert code == 1
        assert out == "merge: UNSTABLE witness=[0, 0]\n"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(
            capsys, ["stability", "--trials", trials, "--algorithms", "merge"]
        )
        assert code == 2
        assert out == ""
        assert "--trials must be >= 1" in err


class TestVerifyCommand:
    def test_fast_checks_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--only", "build-cost,heap-invariants,differential,dynamic"]
        )
        assert code == 0
        for name in ("build-cost", "heap-invariants", "differential", "dynamic"):
            assert f"{name}: PASS" in out
        assert "FAIL" not in out

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        # A sift kernel that never moves anything must fail the heap check;
        # every heap entry point looks the kernel up at call time.
        with monkeypatch.context() as m:
            m.setattr(heap_core, "_sift_down", lambda a, n, hole, mx: (0, 0))
            code, out, _ = run_cli(capsys, ["verify", "--only", "heap-invariants"])
        assert code == 1
        assert "heap-invariants: FAIL" in out
        assert "construction broke the heap property" in out
        code, out, _ = run_cli(capsys, ["verify", "--only", "heap-invariants"])
        assert code == 0 and "PASS" in out

    def test_unstable_stand_in_for_a_stable_sort_fails_differential(self, capsys, monkeypatch):
        # uhs returns every key in order but reorders equal ones, so only a
        # payload-exact check can tell it from merge sort
        monkeypatch.setattr(instrumentation, "merge_sort", instrumentation.uhs_sort)
        code, out, _ = run_cli(capsys, ["verify", "--only", "differential"])
        assert code == 1
        assert "differential: FAIL" in out
        assert any(": merge " in line and "unstable" in line for line in out.splitlines())

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--only", "nosuch"])
        assert code == 2

    def test_serial_and_parallel_runs_print_the_same(self, capsys, monkeypatch):
        argv = ["verify", "--only", "build-cost,heap-invariants,differential,dynamic"]
        serial = run_on(1, capsys, monkeypatch, argv)
        parallel = run_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2  # one worker per CPU
        assert serial[:3] == parallel[:3] == (0, serial[1], "")
        assert serial[1].splitlines() == [
            f"{name}: PASS" for name in ("build-cost", "heap-invariants", "differential", "dynamic")
        ]

    def test_a_check_named_twice_runs_once_and_prints_twice(self, capsys, monkeypatch):
        dynamic_scenario, calls = cli.dynamic_scenario, []

        def counting(ops):
            calls.append(1)
            return dynamic_scenario(ops)

        argv = ["verify", "--only", "dynamic,build-cost,dynamic"]
        with monkeypatch.context() as m:
            m.setattr(cli, "dynamic_scenario", counting)
            serial = run_on(1, capsys, monkeypatch, argv)
        parallel = run_on(2, capsys, monkeypatch, argv)
        assert len(calls) == 1
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3] == (
            0, "dynamic: PASS\nbuild-cost: PASS\ndynamic: PASS\n", "")

    def test_no_fork_while_another_thread_runs(self, capsys, monkeypatch):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _, forks = run_on(
                2, capsys, monkeypatch, ["verify", "--only", "build-cost,dynamic"])
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == 0 and code == 0 and out == "build-cost: PASS\ndynamic: PASS\n"

    def test_fault_in_a_worker_is_reported_like_a_serial_one(self, capsys, monkeypatch):
        # forked workers inherit the broken kernel, and their failure comes
        # back with the same verdict and detail lines
        argv = ["verify", "--only", "heap-invariants,differential"]
        with monkeypatch.context() as m:
            m.setattr(heap_core, "_sift_down", lambda a, n, hole, mx: (0, 0))
            serial = run_on(1, capsys, monkeypatch, argv)
            parallel = run_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3]
        code, out, _, _ = parallel
        assert code == 1
        assert "heap-invariants: FAIL\n  trial 0: construction broke the heap property\n" in out

    def test_tables_print_reproduce_tables_for_the_seed(self, capsys, monkeypatch):
        # fast stand-ins for the three parts take the seed alone, and the
        # space part fails: verify prints exactly reproduce_tables(seed)
        fit = GrowthClass(Complexity.LINEAR, 0.0)
        stubs = {
            "time_table": lambda seed: [
                TimeRow(AlgorithmId.RADIX, "all", f"seed {seed}", Complexity.LINEAR, fit)],
            "space_table": lambda seed: [
                SpaceRow(AlgorithmId.UHS, "O(1)", "aux slots", seed, 0, False)],
            "stability_table": lambda seed: [StabilityVerdict(AlgorithmId.MERGE, True, seed)],
        }
        argv = ["verify", "--only", "tables", "--seed", "3"]
        with monkeypatch.context() as m:
            for name, stub in stubs.items():
                m.setattr(analysis, name, stub)
            text = analysis.reproduce_tables(3).as_text()
            serial = run_on(1, capsys, monkeypatch, argv)
            pooled = run_on(2, capsys, monkeypatch, argv)
        expected = "tables: FAIL\n" + "".join(f"  {line}\n" for line in text.splitlines())
        assert "seed 3" in text and "OVER" in text
        assert serial == (1, expected, "", 0)
        assert pooled == (1, expected, "", 2)

    @pytest.mark.parametrize("patches,checks,expected", [
        ([(heap_core, "_sift_down", lambda a, n, hole, mx: (0, 0))],
         "build-cost,heap-invariants,differential",
         "build-cost: FAIL\n  construction broke the heap property at n=1024\n"
         "heap-invariants: FAIL\n  trial 0: construction broke the heap property\n"
         "differential: FAIL\n  trial 0: uhs asc missorted "),
        # only the time part raises, and only what it raised is printed, so
        # fast stand-ins take the space and stability parts' place
        ([(instrumentation, "merge_sort", _sorts_without_counting),
          (analysis, "space_table", lambda seed: []),
          (analysis, "stability_table", lambda seed: [])],
         "tables", "tables: FAIL\n  costs must be strictly positive\n"),
    ], ids=["build-cost-raises", "tables-raises"])
    def test_a_raising_check_fails_with_its_message(self, capsys, monkeypatch, patches, checks,
                                                    expected):
        # build_cost_audit and growth_fit raise; verify reports what they
        # raised as the check's detail, on one CPU and on two alike
        argv = ["verify", "--only", checks]
        with monkeypatch.context() as m:
            for patch in patches:
                m.setattr(*patch)
            serial = run_on(1, capsys, monkeypatch, argv)
            parallel = run_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3]
        code, out, err, _ = serial
        assert code == 1 and err == ""
        assert out.startswith(expected)
        assert "Traceback" not in out


def test_every_verify_check_has_a_job_and_a_verdict_for_several():
    # _CHECKS is the one table of verify's jobs: a check with no job would
    # print nothing true, and several results need a verdict to combine them
    for jobs, verdict in cli._CHECKS.values():
        assert len(jobs) >= 1
        assert len(jobs) == 1 or verdict is not None


def test_importing_the_cli_loads_no_process_pool():
    # every `sortlab sort` process pays for what `import sortlab.cli` loads;
    # only verify's pool needs these modules
    code = (
        "import sys, sortlab.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sortlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "2^4..2^5", "--algorithms", "uhs"],
    ["stability", "--algorithms", "merge", "--trials", "10"],
], ids=["bench", "stability"])
def test_a_closed_stdout_exits_2_without_a_traceback(argv):
    # as in `sortlab bench | head -n 1`, but the reader is gone before the
    # first write, so every write fails, buffered or not
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(sortlab.__file__).resolve().parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "sortlab.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2, done.stderr


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sort" in capsys.readouterr().out

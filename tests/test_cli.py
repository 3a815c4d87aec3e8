import contextlib
import functools
import io
import math
import os
import pickle
import random
import select
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
from sortlab import AlgorithmId, OpCounters
from sortlab.analysis import Complexity, DynamicReport, GrowthClass, SpaceRow, TimeRow
from sortlab.cli import main, parse_sizes
from sortlab.instrumentation import BuildCostRow, StabilityVerdict
from sortlab.uhs_sort import SortOrder

from fingerprints import run_in_process


def _sorts_without_counting(a, order, counters=None):
    a.sort(reverse=order is SortOrder.DESCENDING)


class Unrebuildable(Exception):
    """An exception that pickle cannot rebuild from its ``args``."""

    def __init__(self, n, what):
        super().__init__(f"merge {what} {n} keys")


def _raises_unrebuildable():
    raise Unrebuildable(8, "cannot sort")


@contextlib.contextmanager
def on_cpus(cpus, monkeypatch):
    """As if this process may use ``cpus`` CPUs; yields the list that each fork appends to."""
    forks, real_fork = [], os.fork
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        yield forks


def run_on(cpus, monkeypatch, argv):
    """Run the CLI on ``cpus`` CPUs (`on_cpus`): (exit status, stdout, stderr, forks)."""
    with on_cpus(cpus, monkeypatch) as forks:
        return (*run_in_process(argv), len(forks))


def _merge_time_rows_only(index, seed, time_rows=analysis._time_rows):
    """Merge sort's time rows as measured, and none for any other algorithm."""
    merge = analysis._TIME_CASES[index].algorithm is AlgorithmId.MERGE
    return time_rows(index, seed) if merge else []


def _without_wall_nanos(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def _bench_cells(csv_text):
    """bench's CSV with each row after the header cut to algorithm,n,distribution,trial;
    a row without the header's ten columns is kept whole."""
    header, *rows = csv_text.splitlines(keepends=True)
    return header + "".join(",".join(row.split(",")[:4]) + "\n" if row.count(",") == 9 else row
                            for row in rows)


_ALL_ALGORITHMS = "insertion,merge,quick,bucket,radix,bubble,uhs"
_ALL_DISTRIBUTIONS = "random,sorted,reversed,few-unique,uniform01"


def _cells(algorithms, sizes, distributions="random"):
    """bench's header, then algorithm,n,distribution,trial of each row it prints for one
    trial, in its order: by algorithm, then size, then distribution, and no radix x uniform01."""
    cells = product(algorithms.split(","), sizes, distributions.split(","))
    return ("algorithm,n,distribution,trial,comparisons,swaps,element_moves,aux_peak_slots,"
            "recursion_peak,wall_nanos\n") + "".join(
        f"{a},{n},{d},0\n" for a, n, d in cells if (a, d) != ("radix", "uniform01"))


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
    def test_file_roundtrip(self, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("4\n-2\n10\n")
        code, out, _ = run_in_process(["sort", "-i", str(src), "-o", str(dst)])
        assert code == 0 and out == ""
        assert dst.read_text() == "-2\n4\n10\n"

    def test_input_file_that_is_not_utf8_is_rejected(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"3\n\xff\n1\n")
        code, out, err = run_in_process(["sort", "-i", str(src)])
        assert code == 2 and out == ""
        assert err.startswith(f"cannot read {src}: ")

    def test_empty_input_is_fine(self, tmp_path):
        dst = tmp_path / "out.txt"
        code, out, _ = run_in_process(["sort", "-o", str(dst)], "")
        assert code == 0 and out == "" and dst.read_bytes() == b""

    def test_crlf_sorts_and_only_newline_ends_a_line(self, tmp_path):
        # in a file as on stdin, where `_ACCEPTED` and `_REJECTED` hold the same inputs
        def sort(text):
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
    def test_csv_file_output(self, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run_in_process(
            ["bench", "--algorithms", "bubble", "--sizes", "64", "--csv", str(path)])
        assert code == 0 and out == ""
        assert _bench_cells(path.read_text()) == _cells("bubble", [64])

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
        monkeypatch.setattr(instrumentation, "merge_sort", merge_sort)
        for cpus in (1, 2):
            with on_cpus(cpus, monkeypatch) as forks, pytest.raises(Exception) as e:
                run_in_process(argv)
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
        sizes = [2**k for k in range(10)]
        assert _bench_cells(out) == _cells(_ALL_ALGORITHMS, sizes, _ALL_DISTRIBUTIONS)


class TestStabilityCommand:
    def test_readme_example_is_what_the_command_prints(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code, out, _ = run_in_process(["stability", "--algorithms", "merge,uhs"])
        assert code == 0
        example = "".join(f"# {line}\n" for line in out.splitlines())
        assert "sortlab stability --algorithms merge,uhs\n" + example in readme, out


class TestVerifyCommand:
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


def test_every_table_row_survives_the_trip_back_from_a_worker(reproduced_tables):
    # a pooled tables check gets each part's rows back pickled, and every row
    # type of the seed-0 report must come back equal
    assert pickle.loads(pickle.dumps(reproduced_tables)) == reproduced_tables


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


_BENCH_ARGV = ["bench", "--algorithms", "all", "--sizes", "2^4..2^6", "--seed", "3"]
_JOBS = [functools.partial(str, i) for i in range(3)]
_RESULTS = [(True, str(i)) for i in range(3)]


class TestForkedWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_results_are_the_serial_attempts_with_one_fork_a_worker(self, monkeypatch, cpus):
        # every kind of job comes back as it runs here: results, the message of
        # an exception pickle can rebuild and of one it cannot, a module attribute
        # as patched here, and a result larger than a pipe's 64 KiB buffer. With
        # more CPUs than jobs, there is one worker a job. In a worker, job 0 waits until job 1 has started and job 1 until job 2 has,
        # so two workers run jobs 0 and 2 on one and job 1 on the other: results
        # kept in the order they came back would be out of the jobs' order
        pid, started = os.getpid(), [os.pipe(), os.pipe()]  # by jobs 1 and 2

        def handoff(i):
            def job():
                if os.getpid() != pid:
                    if i > 0:
                        os.write(started[i - 1][1], b".")
                    if i < 2:  # at most 10 s, should no other worker take the next job
                        select.select([started[i][0]], [], [], 10)
                return f"job {i}"
            return job

        monkeypatch.setattr(cli, "_CHUNK", "patched")
        jobs = [*map(handoff, range(3)), functools.partial(int, "x"), _raises_unrebuildable,
                lambda: cli._CHUNK, lambda: "k" * 2**17]
        with on_cpus(cpus, monkeypatch) as forks:
            results = cli._job_results(jobs)
        for fd in (*started[0], *started[1]):
            os.close(fd)
        assert results == [cli._attempt(job) for job in jobs]
        assert len(forks) == (0 if cpus == 1 else min(cpus, len(jobs)))

    def test_one_job_runs_here(self, monkeypatch):
        with on_cpus(4, monkeypatch) as forks:
            assert cli._job_results(_JOBS[:1]) == _RESULTS[:1]
        assert forks == []

    def test_no_jobs_give_no_results_and_no_fork(self, monkeypatch):
        with on_cpus(4, monkeypatch) as forks:
            assert cli._job_results([]) == []
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        other = threading.Timer(30, lambda: None)  # a thread that waits until cancelled
        other.start()
        try:
            with on_cpus(2, monkeypatch) as forks:
                assert cli._job_results(_JOBS) == _RESULTS
        finally:
            other.cancel()
            other.join(30)
        assert (other.is_alive(), forks) == (False, [])

    def test_no_fork_on_a_platform_without_it(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli._job_results(_JOBS) == _RESULTS

    def test_no_fork_on_a_platform_without_sched_getaffinity(self, monkeypatch):
        # as on macOS: os.fork is there, but not the CPUs this process may use
        with on_cpus(2, monkeypatch) as forks, monkeypatch.context() as m:
            m.delattr(os, "sched_getaffinity")
            assert cli._job_results(_JOBS) == _RESULTS
        assert forks == []

    def test_a_worker_that_ends_raises_its_exit_status_and_is_reaped(self, monkeypatch):
        # each job ends its worker, so the first worker's status is known
        # while the second is not yet waited for; both are waited for before
        # the error is raised
        pid = os.getpid()
        ends = lambda: os._exit(3) if os.getpid() != pid else None
        with (on_cpus(2, monkeypatch) as forks,
              pytest.raises(RuntimeError, match=r"^worker process \d+ ended with exit status 3$")):
            cli._job_results([ends, ends])
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
    def test_a_forked_run_leaves_no_descriptor_open(self, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        with on_cpus(2, monkeypatch) as forks:
            assert cli._job_results(_JOBS) == _RESULTS
        assert (len(forks), len(os.listdir("/proc/self/fd"))) == (2, before)

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

    def test_a_job_list_too_long_for_one_write_runs_here(self, monkeypatch):
        # a job's index goes to the workers as one byte, so 256 jobs fork
        # and 257 run serially, with the same results
        for jobs, fork_count in ((256, 2), (257, 0)):
            with on_cpus(2, monkeypatch) as forks:
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


def _each_row(names, table):
    """Parametrize over ``table``, whose rows are ``(id, *values)``; the ids are unique, so
    a row inserted or removed renames no other row."""
    ids = [row[0] for row in table]
    assert len(set(ids)) == len(ids), ids
    return pytest.mark.parametrize(names, [row[1:] for row in table], ids=ids)


_NOTE = "note: skipping radix x uniform01 (integer keys only)\n"
_STATS = "comparisons=3\nswaps=0\nelement_moves=6\naux_peak_slots=3\nrecursion_peak=3\n"


# each request sortlab carries out: its id, argv and stdin, and all it prints to stdout and
# to stderr; a bench row's stdout is its header and each row's cell and trial (`_bench_cells`),
# since its counts are pinned in fingerprints.txt and its wall_nanos vary
_ACCEPTED = [
    ("sort", ["sort"], "5\n3\n9\n1\n", "1\n3\n5\n9\n", ""),
    ("sort-blank-lines", ["sort"], "2\n\n1\n  \n", "1\n2\n", ""),
    ("sort-empty", ["sort"], "", "", ""),
    ("sort-blank-only", ["sort"], "\n  \n", "", ""),
    ("sort-crlf", ["sort"], "3\r\n1\r\n\r\n2\r\n", "1\n2\n3\n", ""),
    ("sort-int-syntax", ["sort"], "1_000\n\u0663\n +7 \n-0\n", "0\n3\n7\n1000\n", ""),
    ("sort-float", ["sort", "--float"], "3\n1e-7\n-2.50\n1e16\n0.1\n",
     "-2.5\n1e-07\n0.1\n3.0\n1e+16\n", ""),
    ("sort-bucket", ["sort", "-a", "bucket", "--float"], "0.5\n0.25\n0.75\n", "0.25\n0.5\n0.75\n",
     ""),
    *((f"sort-{a}", ["sort", "-a", a], "3\n1\n2\n", "1\n2\n3\n", "")
      for a in ("insertion", "merge", "quick", "radix", "bubble", "uhs")),
    ("sort-stats", ["sort", "-a", "merge", "--order", "desc", "--stats"], "1\n3\n2\n",
     "3\n2\n1\n", _STATS),
    ("bench", ["bench", "--algorithms", "uhs,merge,radix", "--sizes", "2^5..2^7"], "",
     _cells("uhs,merge,radix", [32, 64, 128]), ""),
    ("bench-bucket", ["bench", "--algorithms", "bucket", "--sizes", "128", "--distributions",
                      "sorted,few-unique"], "", _cells("bucket", [128], "sorted,few-unique"), ""),
    ("bench-radix-uniform01", ["bench", "--algorithms", "radix,uhs", "--distributions",
                               "uniform01", "--sizes", "16"], "", _cells("uhs", [16], "uniform01"),
     _NOTE),
    ("bench-all", ["bench", "--algorithms", "all", "--distributions", "all", "--sizes", "16"], "",
     _cells(_ALL_ALGORITHMS, [16], _ALL_DISTRIBUTIONS), _NOTE),
    ("bench-named-twice", ["bench", "--algorithms", "uhs,merge,uhs", "--sizes", "8,16,8"], "",
     _cells("uhs,merge", [8, 16]), ""),  # two rows for one cell would share one measurement
    ("stability", ["stability", "--trials", "150"], "",
     "insertion: STABLE(trials=1227)\nmerge: STABLE(trials=1227)\n"
     "quick: UNSTABLE witness=[1, 1, 0]\nbucket: STABLE(trials=1227)\n"
     "radix: STABLE(trials=1227)\nbubble: STABLE(trials=1227)\nuhs: UNSTABLE witness=[0, 0]\n", ""),
    ("stability-merge-uhs", ["stability", "--algorithms", "merge,uhs", "--trials", "100"], "",
     "merge: STABLE(trials=1177)\nuhs: UNSTABLE witness=[0, 0]\n", ""),
    ("stability-named-twice", ["stability", "--algorithms", "uhs,merge,uhs", "--trials", "10"], "",
     "uhs: UNSTABLE witness=[0, 0]\nmerge: STABLE(trials=1087)\n", ""),
]


@_each_row("argv, stdin, stdout, stderr", _ACCEPTED)
def test_an_accepted_request_exits_0_with_its_output(argv, stdin, stdout, stderr):
    code, out, err = run_in_process(argv, stdin)
    assert (code, _bench_cells(out) if argv[0] == "bench" else out, err) == (0, stdout, stderr)


def _heap_invariants_keys():
    """The keys of heap-invariants' trial 0 at seed 0, drawn as the check draws them."""
    rng = random.Random(0)
    return [rng.randint(-999, 999) for _ in range(rng.randint(0, 128))]


def _differential_keys():
    """The int keys of differential's trial 0 at seed 0, drawn as the check draws them."""
    rng = random.Random(0)
    n = rng.randint(0, 100)
    return [rng.randint(0, max(1, 4 * n)) for _ in range(n)]


# uhs sorts in order but reorders equal keys, so a merge that is uhs is found unstable,
# which its design says it is not, and only a payload-exact check tells it from merge sort
_MERGE_IS_UHS = [(instrumentation, "merge_sort", instrumentation.uhs_sort)]
# a sift kernel that never moves anything; every heap entry point looks it up at call time
_NO_SIFT = [(heap_core, "_sift_down", lambda a, n, holes, mx: (0, 0))]
_UNCLIMBING = type("Unclimbing", (heap_core.Heap,), {"push": _appends_without_climbing})
_OFF_BY_ONE = type("OffByOne", (heap_core.Heap,),
                   {"pop_root": lambda heap: heap_core.Heap.pop_root(heap) + 1})
# only merge's time part raises, and only what it raised is printed, so fast stand-ins
# take the other parts' place
_MERGE_TIMES_RAISE = [(instrumentation, "merge_sort", _sorts_without_counting),
                      (analysis, "_time_rows", _merge_time_rows_only),
                      (analysis, "_quick_peaks", lambda trials, seed: (0, 0)),
                      (analysis, "_slot_rows", lambda: []),
                      (analysis, "stability_check", lambda algorithm, trials, seed: None)]
_HEAP_FAIL = "heap-invariants: FAIL\n  trial 0: "

# each request whose check or verdict fails: its id, the patches that make it fail, its argv
# and all it prints to stdout; a raising check's detail is what it raised
_FAILED = [
    ("stability", _MERGE_IS_UHS, ["stability", "--algorithms", "merge", "--trials", "10"],
     "merge: UNSTABLE witness=[0, 0]\n"),
    ("differential", _MERGE_IS_UHS, ["verify", "--only", "differential"],
     f"differential: FAIL\n  trial 0: merge asc unstable {_differential_keys()}\n"),
    ("heap-invariants-build", _NO_SIFT, ["verify", "--only", "heap-invariants"],
     f"{_HEAP_FAIL}construction broke the heap property\n"),
    ("heap-invariants-push", [(cli, "Heap", _UNCLIMBING)], ["verify", "--only", "heap-invariants"],
     f"{_HEAP_FAIL}pushes broke the heap property\n"),
    ("heap-invariants-drain", [(cli, "Heap", _OFF_BY_ONE)], ["verify", "--only", "heap-invariants"],
     f"{_HEAP_FAIL}drain order wrong for {_heap_invariants_keys()}\n"),
    ("heap-invariants-sort", [(cli, "uhs_sort", lambda a: None)],
     ["verify", "--only", "heap-invariants"],
     f"{_HEAP_FAIL}sort disagreed with oracle on {_heap_invariants_keys()}\n"),
    ("build-cost-raises", _NO_SIFT, ["verify", "--only", "build-cost,heap-invariants,differential"],
     "build-cost: FAIL\n  construction broke the heap property at n=1024\n"
     f"{_HEAP_FAIL}construction broke the heap property\n"
     f"differential: FAIL\n  trial 0: uhs asc missorted {_differential_keys()}\n"),
    ("tables-raises", _MERGE_TIMES_RAISE, ["verify", "--only", "tables"],
     "tables: FAIL\n  costs must be strictly positive\n"),
    ("build-cost", [(cli, "build_cost_audit", lambda sizes, seed: [BuildCostRow(4, 7, 6)])],
     ["verify", "--only", "build-cost"], "build-cost: FAIL\n  n=4 comparisons=7 bound=6\n"),
    ("dynamic",
     [(cli, "dynamic_scenario", lambda ops: DynamicReport(10, OpCounters(comparisons=5), 3))],
     ["verify", "--only", "dynamic"],
     "dynamic: FAIL\n  heap comparisons 5 vs oracle shifts 3 over 10 ops\n"),
]


@_each_row("patches, argv, stdout", _FAILED)
def test_a_failed_check_or_verdict_exits_1_alike_on_one_cpu_and_two(monkeypatch, patches, argv,
                                                                      stdout):
    for patch in patches:
        monkeypatch.setattr(*patch)
    jobs = []  # the size of each job list the runner gets: two jobs or more fork at 2 CPUs
    job_results = cli._job_results
    monkeypatch.setattr(cli, "_job_results", lambda js: jobs.append(len(js)) or job_results(js))
    serial, pooled = run_on(1, monkeypatch, argv), run_on(2, monkeypatch, argv)
    assert serial[:3] == pooled[:3] == (1, stdout, "")
    assert (serial[3], pooled[3]) == (0, 2 if max(jobs, default=0) > 1 else 0)


def _missing(verb, path):
    return f"cannot {verb} {path}: [Errno 2] No such file or directory: {path!r}"


_NAN = "NaN and infinities cannot be sorted"
_TRIALS = "--trials must be >= 1"


# each request sortlab refuses: its id, argv and stdin, and the error line it prints
_REJECTED = [
    ("sort-bucket-int", ["sort", "-a", "bucket"], "0.5\n",
     "bucket sort takes float keys in [0, 1); pass --float"),
    ("sort-radix-float", ["sort", "-a", "radix", "--float"], "1\n",
     "radix sort takes non-negative integer keys; drop --float"),
    ("sort-radix-negative", ["sort", "-a", "radix"], "5\n-3\n",
     "radix keys must be non-negative, got -3"),
    ("sort-bad-line", ["sort"], "5\nxyz\n1\n", "input line 2: cannot parse 'xyz'"),
    ("sort-bad-line-after-blanks", ["sort"], "5\n\n\nxyz\n", "input line 4: cannot parse 'xyz'"),
    # a lone \r or a form feed, which str.splitlines would end a line at, does not
    ("sort-lone-cr", ["sort"], "3\r1\r2\r", "input line 1: cannot parse '3\\r1\\r2'"),
    ("sort-form-feed", ["sort"], "3\x0c1\n2\n", "input line 1: cannot parse '3\\x0c1'"),
    *((f"sort-{a}-nan", ["sort", "-a", a, "--float"], "2.5\n1\nnan\n0.5\n",
       f"input line 3: {_NAN}") for a in ("uhs", "merge", "quick", "insertion")),
    *((f"sort-float-{v}", ["sort", "--float"], f"2\n{v}\n0.5\n", f"input line 2: {_NAN}")
      for v in ("1e400", "-1e400", "inf")),
    ("sort-missing-input", ["sort", "-i", "/nonexistent/path.txt"], "",
     _missing("read", "/nonexistent/path.txt")),
    ("sort-empty-input-path", ["sort", "-i", ""], "3\n", _missing("read", "")),
    ("sort-empty-output-path", ["sort", "-o", ""], "3\n", _missing("write", "")),
    ("bench-empty-csv-path", ["bench", "--csv", ""], "", _missing("write", "")),
    ("bench-radix-uniform01", ["bench", "--algorithms", "radix", "--distributions", "uniform01"],
     "", "radix sort cannot take uniform01 (float) keys"),
    ("bench-zero-trials", ["bench", "--trials", "0", "--algorithms", "uhs", "--sizes", "16"], "",
     _TRIALS),
    ("stability-zero-trials", ["stability", "--trials", "0", "--algorithms", "merge"], "", _TRIALS),
    ("stability-negative-trials", ["stability", "--trials", "-5", "--algorithms", "merge"], "",
     _TRIALS),
    ("sort-unknown-algorithm", ["sort", "-a", "nosuch"], "",
     "sortlab sort: error: argument -a/--algorithm: "),
    ("bench-size-not-a-number", ["bench", "--sizes", "banana"], "",
     "sortlab bench: error: argument --sizes: invalid literal for int() with base 10: 'banana'"),
    ("bench-size-negative-exponent", ["bench", "--sizes", "2^-1"], "",
     "sortlab bench: error: argument --sizes: size '2^-1' has a negative exponent"),
    ("bench-unknown-algorithm", ["bench", "--algorithms", "uhs,warp"], "",
     "sortlab bench: error: argument --algorithms: "
     "unknown algorithm 'warp'; choose from insertion, merge, quick, bucket, radix, bubble, uhs"),
    ("verify-unknown-check", ["verify", "--only", "nosuch"], "",
     "sortlab verify: error: argument --only: "
     "unknown check 'nosuch'; choose from build-cost, heap-invariants, differential, dynamic, "
     "tables"),
    *((f"{command}-no-{what}", [command, flag, ","], "",
       f"sortlab {command}: error: argument {flag}: no {what} given")
      for command, flag, what in [("bench", "--algorithms", "algorithm"),
                                  ("stability", "--algorithms", "algorithm"),
                                  ("bench", "--distributions", "distribution"),
                                  ("verify", "--only", "check")]),
    ("no-command", [], "", "sortlab: error: the following arguments are required: command"),
]


@_each_row("argv, stdin, line", _REJECTED)
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

import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sortlab
import sortlab.heap_core as heap_core
import sortlab.instrumentation as instrumentation
from sortlab.cli import main, parse_sizes


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @staticmethod
    def _verify_on(cpus, capsys, monkeypatch, argv):
        """Run verify as if this process may use ``cpus`` CPUs; also count forks."""
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            m.setattr(os, "fork", fork)
            code, out, err = run_cli(capsys, argv)
        return code, out, err, len(forks)

    def test_serial_and_parallel_runs_print_the_same(self, capsys, monkeypatch):
        argv = ["verify", "--only", "build-cost,heap-invariants,differential,dynamic"]
        serial = self._verify_on(1, capsys, monkeypatch, argv)
        parallel = self._verify_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2  # one worker per CPU
        assert serial[:3] == parallel[:3] == (0, serial[1], "")
        assert serial[1].splitlines() == [
            f"{name}: PASS" for name in ("build-cost", "heap-invariants", "differential", "dynamic")
        ]

    def test_no_fork_while_another_thread_runs(self, capsys, monkeypatch):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _, forks = self._verify_on(
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
            serial = self._verify_on(1, capsys, monkeypatch, argv)
            parallel = self._verify_on(2, capsys, monkeypatch, argv)
        assert serial[3] == 0 and parallel[3] == 2
        assert serial[:3] == parallel[:3]
        code, out, _, _ = parallel
        assert code == 1
        assert "heap-invariants: FAIL\n  trial 0: construction broke the heap property\n" in out


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


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sort" in capsys.readouterr().out

"""The four request kinds a lab user sends, and the checks on their outputs.

Each request runs either as its own process (untraced runs: wall time from
spawn to exit, peak RSS from ``wait4``) or in this process through
``sortlab.cli.main`` and direct ``Heap`` calls (traced runs and their
untraced mirror). Both paths feed the same :class:`Checker`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import BENCH_ARGS, Inputs, csv_without_wall, replay_pq
from reference import Probe, rescaled

VERIFY_CHECKS = ("build-cost", "heap-invariants", "differential", "dynamic", "tables")
SORT_ARGV = ["sort", "--stats"]


@dataclass
class Outcome:
    """One request: its timing, memory, operation counts and check results."""

    kind: str
    wall_s: float
    rss_mib: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    reference_s: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scaled_s(self) -> float:
        """The wall time rescaled to the reference machine speed."""
        return rescaled(self.wall_s, self.reference_s)


def parse_stats(stderr: str) -> dict[str, int]:
    counts = {}
    for line in stderr.splitlines():
        name, sep, value = line.partition("=")
        if sep and value.strip().isdigit():
            counts[name.strip()] = int(value)
    return counts


class Checker:
    """Expected outputs for one seed, computed outside every timed region."""

    def __init__(self, inputs: Inputs, seed: int, reference_csv: Path | None):
        self.inputs = inputs
        self.seed = seed
        self.expected_sort = inputs.expected_sort_output()
        self.fill, self.stream = inputs.pq_arrays()
        self.reference_csv = reference_csv
        self._csv: str | None = None
        self._pq_verdicts: dict[str, list[str]] = {}

    def sort(self, rc: int, stdout: bytes) -> list[str]:
        problems = [] if rc == 0 else [f"sort exited {rc}"]
        if stdout != self.expected_sort:
            got, want = stdout.splitlines(), self.expected_sort.splitlines()
            problems.append(f"sort output differs from sorted(input): {len(got)} lines, want {len(want)}")
        return problems

    def pq(self, results, final: list[int], heap_ok: bool) -> list[str]:
        problems = [] if heap_ok else ["final heap fails is_heap"]
        h = hashlib.sha256(results.tobytes())
        h.update(repr(final).encode())
        key = h.hexdigest()
        if key not in self._pq_verdicts:
            self._pq_verdicts[key] = replay_pq(self.fill, self.stream, results, final)
        return problems + self._pq_verdicts[key]

    def verify(self, rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"verify exited {rc}"]
        want = [f"{name}: PASS" for name in VERIFY_CHECKS]
        got = [line for line in stdout.splitlines() if not line.startswith(" ")]
        if got != want:
            problems.append(f"verify printed {got!r}, want all five checks PASS")
        return problems

    def bench(self, rc: int, csv_text: str) -> list[str]:
        """Exit 0, and the CSV minus wall_nanos equals the previous run's."""
        problems = [] if rc == 0 else [f"bench exited {rc}"]
        table = csv_without_wall(csv_text)
        if not table.startswith("algorithm,n,distribution"):
            return problems + ["bench CSV has no header"]
        if self._csv is None:
            self._csv = table
            if self.reference_csv is not None:
                if self.reference_csv.exists():
                    if self.reference_csv.read_text() != table:
                        problems.append(f"bench CSV differs from {self.reference_csv.name}")
                else:
                    self.reference_csv.write_text(table)
        elif table != self._csv:
            problems.append("bench CSV differs from this run's first bench CSV")
        return problems


def spawn(argv: list[str], env: dict, stdin: bytes | None, timeout: float):
    """Run ``argv`` to completion; returns (rc, stdout, stderr, wall_s, peak_rss_mib).

    The wall time runs from spawn to exit with stdin piped in and stdout
    captured. The child is reaped with ``wait4`` so its own peak RSS is known.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err: list[bytes] = []
    helpers = [threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    if stdin is not None:
        def feed():
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.write(stdin)
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
        helpers.append(threading.Thread(target=feed))
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    for t in helpers:
        t.start()
    killer.start()
    try:
        out = proc.stdout.read()
        for t in helpers:
            t.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, b"".join(err).decode(errors="replace"), wall, usage.ru_maxrss / 1024


def child_env(root: Path) -> dict:
    """This environment with ``root/src`` first on PYTHONPATH (sortlab is not installed)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ProcessRequests:
    """Untraced requests, each in a fresh ``python`` process."""

    def __init__(self, root: Path, checker: Checker, workdir: Path, deadline: float,
                 sort_command: list[str] | None = None):
        self.root = root
        self.checker = checker
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(root)
        self.py = [sys.executable]
        self.sort_command = sort_command or self.py + ["-m", "sortlab.cli"] + SORT_ARGV
        self._sort_input = checker.inputs.sort_bytes()
        self._probe = Probe()

    def _run(self, argv, stdin=None):
        """Spawn ``argv`` between two reference-kernel readings; checks come after."""
        return self._probe.bracketed(lambda: spawn(argv, self.env, stdin, self.deadline - time.monotonic()))

    def sort(self) -> Outcome:
        (rc, out, err, wall, rss), ref = self._run(self.sort_command, self._sort_input)
        return Outcome("sort", wall, rss, parse_stats(err), self.checker.sort(rc, out), ref)

    def pq(self) -> Outcome:
        from pq_worker import read_results

        inputs = self.checker.inputs
        results_path = self.workdir / "pq_results.bin"
        worker = str(Path(__file__).with_name("pq_worker.py"))
        argv = self.py + [worker, str(inputs.fill_path), str(inputs.ops_path), str(results_path)]
        (rc, out, err, wall, rss), ref = self._run(argv)
        if rc != 0:
            return Outcome("pq", wall, rss, problems=[f"pq worker exited {rc}: {err.strip()[-300:]}"],
                           reference_s=ref)
        report = json.loads(out.decode().strip().splitlines()[-1])
        results, final = read_results(results_path)
        problems = self.checker.pq(results, final, report["is_heap"])
        return Outcome("pq", report["wall_s"], rss, report["counts"], problems, report["reference_s"])

    def verify(self) -> Outcome:
        argv = self.py + ["-m", "sortlab.cli", "verify", "--seed", str(self.checker.seed)]
        (rc, out, err, wall, rss), ref = self._run(argv)
        return Outcome("verify", wall, rss, problems=self.checker.verify(rc, out.decode()), reference_s=ref)

    def bench(self) -> Outcome:
        csv_path = self.workdir / "bench.csv"
        csv_path.unlink(missing_ok=True)
        argv = self.py + ["-m", "sortlab.cli", "bench", *BENCH_ARGS,
                          "--seed", str(self.checker.seed), "--csv", str(csv_path)]
        (rc, out, err, wall, rss), ref = self._run(argv)
        text = csv_path.read_text() if csv_path.exists() else ""
        return Outcome("bench", wall, rss, problems=self.checker.bench(rc, text), reference_s=ref)


@contextlib.contextmanager
def captured_stdio(stdin_text: str = ""):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        yield sys.stdout, sys.stderr
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


class InProcessRequests:
    """The same requests run through ``sortlab.cli.main`` and ``Heap`` in this process.

    ``around(kind)`` is a context manager entered around each request's
    timed part; the traced run uses it to open the request's root span.
    """

    def __init__(self, checker: Checker, workdir: Path, around=None):
        import sortlab.cli

        self.cli = sortlab.cli
        self.checker = checker
        self.workdir = workdir
        self.around = around or (lambda kind: contextlib.nullcontext())
        self._sort_text = checker.inputs.sort_bytes().decode()

    def _main(self, kind: str, argv: list[str], stdin_text: str = ""):
        with captured_stdio(stdin_text) as (out, err):
            t0 = time.perf_counter()
            with self.around(kind):
                rc = self.cli.main(argv)
            wall = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), wall

    def sort(self) -> Outcome:
        rc, out, err, wall = self._main("sort", SORT_ARGV, self._sort_text)
        return Outcome("sort", wall, counts=parse_stats(err), problems=self.checker.sort(rc, out.encode()))

    def pq(self) -> Outcome:
        from pq_worker import fill_heap, mixed_phase, phase_counts

        from sortlab import HeapOrder, is_heap

        heap = fill_heap(self.checker.fill)
        with self.around("pq"):
            wall, results, counters = mixed_phase(heap, self.checker.stream)
        final = heap.elements[: heap.heap_size]
        heap_ok = is_heap(heap.elements, heap.heap_size, HeapOrder.MIN_AT_ROOT)
        return Outcome("pq", wall, counts=phase_counts(counters),
                       problems=self.checker.pq(results, final, heap_ok))

    def verify(self) -> Outcome:
        rc, out, _, wall = self._main("verify", ["verify", "--seed", str(self.checker.seed)])
        return Outcome("verify", wall, problems=self.checker.verify(rc, out))

    def bench(self) -> Outcome:
        csv_path = self.workdir / "bench.csv"
        csv_path.unlink(missing_ok=True)
        argv = ["bench", *BENCH_ARGS, "--seed", str(self.checker.seed), "--csv", str(csv_path)]
        rc, _, _, wall = self._main("bench", argv)
        text = csv_path.read_text() if csv_path.exists() else ""
        return Outcome("bench", wall, problems=self.checker.bench(rc, text))

"""SHA-256 fingerprints of the outputs every change to sortlab must keep.

Run from the root of a checkout, it prints one ``name sha256`` line per
output, in a fixed order, and ``tests/fingerprints.txt`` holds those lines
as committed:

    PYTHONPATH=src python tests/fingerprints.py | diff tests/fingerprints.txt -

Most outputs are a ``sortlab`` command run in this process (bench still
forks its workers): ``sort --stats`` stdout and stderr on seeded keys and the
count columns of ``bench`` (``cut -d, -f1-9``) with its stderr, each with its
exit status. Two are not commands: the text of verify's seed-0 tables, and
the stability census of every tie pattern of six keys (`tie_census`).
``verify`` itself is left out: when every check passes it prints only
``name: PASS`` lines, which its own tests assert. ``CHEAP`` is the part that
``tests/test_fingerprints.py`` recomputes in tier-1, and ``TestTables``
checks the tables line against the fixture it already holds; CI runs every
output, on one CPU and on all. The digest file is data. A change that alters
an output on purpose re-pins every line with one command, and names the
change in CHANGES.md:

    PYTHONPATH=src python tests/fingerprints.py > tests/fingerprints.txt

It is never regenerated to make a test pass.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path

from sortlab.analysis import reproduce_tables
from sortlab.baseline_sorts import AlgorithmId, PivotRule
from sortlab.cli import main
from sortlab.instrumentation import SPECS, KeyDomain, sort_fault
from sortlab.uhs_sort import SortOrder

PINNED = Path(__file__).with_name("fingerprints.txt")
_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _bench_args() -> list[str]:
    """perfbench's ``BENCH_ARGS``, the default sweep its ``bench`` requests run."""
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", _INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCH_ARGS


def run_in_process(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """``sortlab *argv`` in this process: (exit status, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _keys(n: int, floats: bool) -> str:
    """``n`` seeded keys, one a line: ints below 2^20, or floats in [0, 1)."""
    r = random.Random(n)
    keys = (r.random() if floats else r.randrange(2**20) for _ in range(n))
    return "".join(f"{k!r}\n" for k in keys)


def _sort_stats(algorithm: str, pivot: str, order: str, n: int) -> str:
    floats = algorithm == "bucket"
    argv = ["sort", "-a", algorithm, "--pivot", pivot, "--order", order, "--stats"]
    code, out, err = run_in_process(argv + ["--float"] * floats, _keys(n, floats))
    return f"exit {code}\n{out}\0{err}"


def _bench(seed: int, *sweep: str) -> str:
    """``bench`` over ``sweep``, or over perfbench's ``BENCH_ARGS`` when none is given."""
    code, out, err = run_in_process(["bench", *(sweep or _bench_args()), "--seed", str(seed)])
    counts = "".join(",".join(line.split(",")[:9]) + "\n" for line in out.splitlines())
    return f"exit {code}\n{counts}\0{err}"


def _sorts(variants: str, n: int) -> dict:
    """``sort --stats`` on ``n`` keys, in both orders; a variant is an algorithm or quick-PIVOT."""
    outputs = {}
    for variant in variants.split():
        algorithm, _, pivot = variant.partition("-")
        for order in ("asc", "desc"):
            outputs[f"sort-stats/n={n}/{variant}/{order}"] = functools.partial(
                _sort_stats, algorithm, pivot or "random", order, n)
    return outputs


@functools.lru_cache(maxsize=None)
def tie_census(n: int) -> tuple[str, ...]:
    """`sort_fault` over every tie pattern of ``n`` keys: one line a sort and order.

    A tie pattern is a sequence whose distinct keys are exactly 0..k-1 (4,683
    of them at n = 6); bucket sort gets each key divided by ``n``. Every sort
    runs with seed 0 and the seeded pivot, and its line reads
    ``<alg> <order> unstable=<u> missorted=<m>``.
    """
    patterns = [p for p in product(range(n), repeat=n) if len(set(p)) == max(p) + 1]
    lines = []
    for algorithm in AlgorithmId:
        floats = SPECS[algorithm].keys is KeyDomain.UNIT_FLOAT
        for order in SortOrder:
            faults = Counter(
                sort_fault(algorithm, [k / n if floats else k for k in p], order, 0,
                           PivotRule.RANDOM_SEEDED)
                for p in patterns)
            lines.append(f"{algorithm.value} {order.value} "
                         f"unstable={faults['unstable']} missorted={faults['missorted']}")
    return tuple(lines)


_TINY_SWEEP = ["--algorithms", "all", "--sizes", "1..2^9", "--distributions", "all"]
_GOLDEN_SWEEP = [
    "--algorithms", "all", "--sizes", "2^4..2^9", "--distributions", "all", "--trials", "2"]
_QUICKS = "quick-random quick-last quick-median3"

CHEAP = {
    **_sorts(f"insertion merge {_QUICKS} bucket radix bubble uhs", 2**11),
    "bench/BENCH_ARGS/seed=1": functools.partial(_bench, 1),
    **{
        f"bench/2^4..2^9-all-trials=2/{order}-{pivot}/seed=3": functools.partial(
            _bench, 3, *_GOLDEN_SWEEP, "--order", order, "--pivot", pivot)
        for order, pivot in (("asc", "random"), ("desc", "median3"), ("asc", "last"))
    },
    "stability/tie-patterns/n=6": lambda: "".join(f"{line}\n" for line in tie_census(6)),
}
OUTPUTS = {
    **CHEAP,
    "bench/BENCH_ARGS/seed=2": functools.partial(_bench, 2),
    "bench/BENCH_ARGS/seed=3": functools.partial(_bench, 3),
    "bench/1..2^9-all/seed=3": functools.partial(_bench, 3, *_TINY_SWEEP),
    **_sorts(f"merge {_QUICKS} radix bucket uhs", 2**18),
    "tables/seed=0": lambda: reproduce_tables(0).as_text(),
}


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def pinned() -> dict[str, str]:
    """The committed digests, by output name."""
    return dict(line.split() for line in PINNED.read_text().splitlines())


if __name__ == "__main__":
    for name, output in OUTPUTS.items():
        print(name, digest(output()), flush=True)

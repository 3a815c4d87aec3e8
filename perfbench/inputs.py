"""Seeded inputs for every request kind, and the oracles that check outputs.

Everything here depends only on the seed, so one seed always yields the
same bytes. The program under test never sees the seed for the sort and
priority-queue requests: it receives only the files written here.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from array import array
from collections import Counter
from pathlib import Path

SORT_N = 2**18
SORT_KEY_SPAN = 2**20
PQ_FILL = 2**16
PQ_OPS = 2**18
PQ_VALUE_BITS = 30

PUSH, POP, REMOVE = 0, 1, 2

BENCH_ARGS = [
    "--algorithms", "all",
    "--sizes", "2^8..2^11",
    "--distributions", "random,sorted,reversed,few-unique",
]


def sort_keys(seed: int, n: int = SORT_N) -> list[int]:
    rng = random.Random(f"sort-cli/{seed}")
    return [rng.randrange(SORT_KEY_SPAN) for _ in range(n)]


def pq_stream(seed: int, fill: int = PQ_FILL, ops: int = PQ_OPS) -> tuple[array, array]:
    """Fill values, then (kind, arg) pairs: 50% push, 35% pop_root, 15% remove_at.

    A remove_at index is drawn uniformly from the live prefix at the moment the
    op runs, so the heap never has to search for its target.
    """
    rng = random.Random(f"pq-mixed/{seed}")
    fill_values = array("q", (rng.getrandbits(PQ_VALUE_BITS) for _ in range(fill)))
    stream = array("q")
    live = fill
    for _ in range(ops):
        roll = rng.random()
        if live == 0 or roll < 0.50:
            stream.extend((PUSH, rng.getrandbits(PQ_VALUE_BITS)))
            live += 1
        elif roll < 0.85:
            stream.extend((POP, 0))
            live -= 1
        else:
            stream.extend((REMOVE, rng.randrange(live)))
            live -= 1
    return fill_values, stream


class Inputs:
    """The files one run feeds to the program, plus their expected outputs."""

    def __init__(self, workdir: Path, seed: int, sort_n: int = SORT_N,
                 pq_fill: int = PQ_FILL, pq_ops: int = PQ_OPS):
        self.workdir = workdir
        self.seed = seed
        self.sort_n = sort_n
        self.pq_fill = pq_fill
        self.pq_ops = pq_ops
        self.sort_path = workdir / "sort_input.txt"
        self.fill_path = workdir / "pq_fill.bin"
        self.ops_path = workdir / "pq_ops.bin"

    def write(self) -> None:
        """Generate and write every input file (the timed part of set-up)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        keys = sort_keys(self.seed, self.sort_n)
        self.sort_path.write_text("".join(f"{k}\n" for k in keys))
        fill, stream = pq_stream(self.seed, self.pq_fill, self.pq_ops)
        with open(self.fill_path, "wb") as fh:
            fill.tofile(fh)
        with open(self.ops_path, "wb") as fh:
            stream.tofile(fh)

    def digests(self) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (self.sort_path, self.fill_path, self.ops_path)
        }

    def sort_bytes(self) -> bytes:
        return self.sort_path.read_bytes()

    def expected_sort_output(self) -> bytes:
        keys = sorted(int(line) for line in self.sort_bytes().split())
        return "".join(f"{k}\n" for k in keys).encode()

    def pq_arrays(self) -> tuple[array, array]:
        fill, stream = array("q"), array("q")
        fill.frombytes(self.fill_path.read_bytes())
        stream.frombytes(self.ops_path.read_bytes())
        return fill, stream


def replay_pq(fill: array, stream: array, results: array, final: list) -> list[str]:
    """Check a mixed phase against a heapq replay; returns the mismatches found.

    ``results`` holds what each pop_root and remove_at returned, in order.
    Every pop_root must return the replay's minimum. A remove_at result must be
    a live value (which slot holds which value is the heap's own business);
    the replay then deletes that value lazily. Finally the heap's live
    contents must equal the replay's, as multisets.
    """
    h = list(fill)
    heapq.heapify(h)
    live = Counter(fill)
    dead: Counter = Counter()
    problems: list[str] = []
    j = 0
    for i in range(0, len(stream), 2):
        kind = stream[i]
        if kind == PUSH:
            v = stream[i + 1]
            heapq.heappush(h, v)
            live[v] += 1
            continue
        if j >= len(results):
            problems.append(f"op {i // 2}: no result recorded")
            return problems
        got = results[j]
        j += 1
        if kind == POP:
            while dead[h[0]]:
                dead[heapq.heappop(h)] -= 1
            want = heapq.heappop(h)
            live[want] -= 1
            if got != want:
                problems.append(f"op {i // 2}: pop_root returned {got}, replay min is {want}")
                return problems
        else:
            if live[got] <= 0:
                problems.append(f"op {i // 2}: remove_at returned {got}, which is not live")
                return problems
            live[got] -= 1
            dead[got] += 1
    if j != len(results):
        problems.append(f"{len(results) - j} results beyond the op stream")
    if Counter(final) != +live:
        problems.append("final heap contents differ from the replay")
    return problems


def csv_without_wall(text: str) -> str:
    """A bench CSV with its last column (wall_nanos) dropped from every row."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())

"""A fixed reference kernel that tells how fast the machine runs right now.

The speed of a shared machine drifts by a fifth or more within seconds,
which would swamp any change to sortlab. So every timed sample is bracketed
by readings of ``reference_kernel`` and its time is rescaled to what it would
have been on a machine where the kernel takes ``REFERENCE_S``. A change to
sortlab moves the sample but not the kernel.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.035


def reference_kernel(n: int = 12_000) -> list[int]:
    """A fixed pure-Python heapsort that shares no code with sortlab."""
    a = [(i * 2654435761) % 1000003 for i in range(n)]

    def sift(i: int, end: int) -> None:
        while True:
            left = 2 * i + 1
            if left >= end:
                return
            c = left + 1 if left + 1 < end and a[left + 1] > a[left] else left
            if a[c] <= a[i]:
                return
            a[i], a[c] = a[c], a[i]
            i = c

    for i in range(n // 2 - 1, -1, -1):
        sift(i, n)
    for end in range(n - 1, 0, -1):
        a[0], a[end] = a[end], a[0]
        sift(0, end)
    return a


def reference_seconds() -> float:
    """One reading: the median of three timed kernel runs."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Probe:
    """Readings around consecutive samples: one sample's after-reading is the next one's before."""

    def __init__(self):
        self._last: float | None = None

    def bracketed(self, fn):
        """Call ``fn``; returns its result and the mean reading just before and after."""
        before = self._last if self._last is not None else reference_seconds()
        result = fn()
        self._last = reference_seconds()
        return result, (before + self._last) / 2


def rescaled(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s

"""Operation counters threaded through every sort and heap operation.

Counts are the machine-independent currency for all complexity claims:
wall-clock time is recorded elsewhere for information only and never
asserted on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpCounters:
    """Monotone tallies for one measured run.

    ``swaps`` counts pairwise exchanges and ``element_moves`` single element
    writes. The heap code (``heap_core`` and ``uhs_sort``) moves a hole
    instead of exchanging pairs, so it reports no swaps: every write of an
    element into its backing list is one ``element_moves``.
    ``aux_peak_slots`` counts element-sized scratch allocations requested
    through :meth:`scratch`; fixed-size locals are deliberately not counted.
    ``recursion_peak`` is the deepest nested call level an algorithm reported.
    """

    comparisons: int = 0
    swaps: int = 0
    element_moves: int = 0
    aux_peak_slots: int = 0
    recursion_peak: int = 0
    _aux_live: int = field(default=0, repr=False, compare=False)

    @contextmanager
    def scratch(self, slots: int):
        """Meter ``slots`` auxiliary element slots for the duration of the block."""
        self._aux_live += slots
        if self._aux_live > self.aux_peak_slots:
            self.aux_peak_slots = self._aux_live
        try:
            yield
        finally:
            self._aux_live -= slots

    def note_recursion(self, depth: int) -> None:
        if depth > self.recursion_peak:
            self.recursion_peak = depth

    def add(self, comparisons: int = 0, swaps: int = 0, element_moves: int = 0) -> None:
        """Fold locally accumulated tallies into the counters."""
        self.comparisons += comparisons
        self.swaps += swaps
        self.element_moves += element_moves

    def as_dict(self) -> dict[str, int]:
        return {
            "comparisons": self.comparisons,
            "swaps": self.swaps,
            "element_moves": self.element_moves,
            "aux_peak_slots": self.aux_peak_slots,
            "recursion_peak": self.recursion_peak,
        }

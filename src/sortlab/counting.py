"""Operation counters threaded through every sort and heap operation.

Counts are the machine-independent currency for all complexity claims:
wall-clock time is recorded elsewhere for information only and never
asserted on.

Every counted function (each sort, ``build`` and the ``Heap`` operations)
takes an optional ``counters``. It tallies its work in local variables and,
if it was given an :class:`OpCounters`, reports once when it ends: counts
through :meth:`OpCounters.add` or by adding to the fields, and peaks through
:meth:`OpCounters.note_peaks`. Without one it counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class OpCounters:
    """Tallies for one measured run; the fields are the CSV count columns, in order.

    ``swaps`` counts pairwise exchanges and ``element_moves`` single element
    writes. The heap code (``heap_core`` and ``uhs_sort``) moves a hole
    instead of exchanging pairs, so it reports no swaps: every write of an
    element into its backing list is one ``element_moves``.
    ``aux_peak_slots`` is the most element-sized scratch slots any reported
    run held at once; fixed-size locals are deliberately not counted.
    ``recursion_peak`` is the deepest nested call level any run reported.
    Several runs into one ledger add up their counts and keep the larger peaks.
    """

    comparisons: int = 0
    swaps: int = 0
    element_moves: int = 0
    aux_peak_slots: int = 0
    recursion_peak: int = 0

    def add(self, comparisons: int = 0, swaps: int = 0, element_moves: int = 0) -> None:
        """Fold locally accumulated tallies into the counters."""
        self.comparisons += comparisons
        self.swaps += swaps
        self.element_moves += element_moves

    def note_peaks(self, aux_slots: int = 0, recursion: int = 0) -> None:
        """Keep the larger of each recorded peak and the one given."""
        self.aux_peak_slots = max(self.aux_peak_slots, aux_slots)
        self.recursion_peak = max(self.recursion_peak, recursion)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

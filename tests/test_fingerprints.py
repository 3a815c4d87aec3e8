"""Tier-1's share of the committed fingerprints: the cheap outputs, recomputed.

``tests/fingerprints.py`` says what each output is; CI recomputes every one.
"""

from fingerprints import CHEAP, OUTPUTS, digest, pinned


def test_cheap_outputs_match_the_committed_fingerprints():
    expected = pinned()
    assert list(expected) == list(OUTPUTS)
    changed = [name for name, output in CHEAP.items() if digest(output()) != expected[name]]
    assert changed == []

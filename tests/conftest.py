"""Shared test plumbing.

The acceptance tests funnel their verdicts through `record_criterion` so a
plain `pytest` run ends with one visible PASS/FAIL line per criterion even
under output capture. The kernel tests follow equal keys through
`TaggedElement` and compare comparison logs through `Recorded`. The
`reproduced_tables` fixture measures the seed-0 tables once per session.
"""

import operator

import pytest

from sortlab.analysis import reproduce_tables

_criterion_lines: list[str] = []


def record_criterion(number: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion-{number}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" {detail}"
    _criterion_lines.append(line)
    print(line)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reproduced_tables():
    """`reproduce_tables(0)`, measured once a session."""
    return reproduce_tables(0)


class Recorded:
    """Orders by key alone, and logs each comparison it makes as
    (operator, left operand's origin, right operand's origin)."""

    __slots__ = ("key", "origin", "log")

    def __init__(self, key, origin, log):
        self.key = key
        self.origin = origin
        self.log = log

    def _compare(self, op, other):
        self.log.append((op.__name__, self.origin, other.origin))
        return op(self.key, other.key)

    def __lt__(self, other):
        return self._compare(operator.lt, other)

    def __le__(self, other):
        return self._compare(operator.le, other)

    def __gt__(self, other):
        return self._compare(operator.gt, other)

    def __ge__(self, other):
        return self._compare(operator.ge, other)


class TaggedElement:
    """A sort key plus the index it started at; orders by key alone.

    Sorting a list of these reveals whether equal keys kept their original
    relative order -- the payload rides along without influencing any
    comparison.
    """

    __slots__ = ("key", "origin")

    def __init__(self, key, origin: int):
        self.key = key
        self.origin = origin

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __eq__(self, other):
        return self.key == other.key

    def __repr__(self):
        return f"<{self.key}:{self.origin}>"

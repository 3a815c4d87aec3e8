"""Shared test plumbing.

The acceptance tests funnel their verdicts through `record_criterion` so a
plain `pytest` run ends with one visible PASS/FAIL line per criterion even
under output capture. Every test that watches comparisons uses one key,
made by `key_type`: a real int or float, so the distribution sorts take it
too. A key may carry a label to follow equal keys by; its batch counts each
of its comparisons, and may log them or raise once a budget is spent. Each
batch is a class of its own, so no count, log or budget leaks between tests.
The `reproduced_tables` fixture measures the seed-0 tables once per session.
"""

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


class _Key:
    """The comparisons of a `key_type` key, counted, logged and budgeted per batch."""

    def __new__(cls, value, label=None):
        self = super().__new__(cls, value)
        self.label = label
        return self

    def _compare(self, op, other):
        batch = type(self)
        if batch.made == batch.budget:
            raise RuntimeError("comparison budget spent")
        batch.made += 1
        if batch.log is not None:
            batch.log.append((op, self.label, other.label))
        return getattr(super(), op)(other)

    def __lt__(self, other):
        return self._compare("__lt__", other)

    def __le__(self, other):
        return self._compare("__le__", other)

    def __gt__(self, other):
        return self._compare("__gt__", other)

    def __ge__(self, other):
        return self._compare("__ge__", other)


def key_type(kind=int, budget=None, log=None):
    """A fresh class of keys for one batch: each is a ``kind`` (int or float)
    of the value it is made from and orders by that value alone.

    ``Key(value, label)`` carries ``label``, which no comparison reads. The
    class's ``made`` counts every ``<``, ``<=``, ``>`` and ``>=`` its keys
    make; with a ``log``, each is appended to it as (operator, own label,
    other's label); with a ``budget``, the comparison after ``budget`` of them
    raises RuntimeError and is not counted.
    """
    return type(f"{kind.__name__.title()}Key", (_Key, kind),
                {"made": 0, "budget": budget, "log": log})

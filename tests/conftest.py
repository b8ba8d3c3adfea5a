"""Shared pytest plumbing: the acceptance verdict board, and the search
that folds nothing.

Gate checks record one line each; the lines are replayed after the run so
they stay visible even though pytest captures test output.
"""

import contextlib
from unittest import mock

from fifth import search

_verdicts = []


def record_verdict(line):
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in _verdicts:
            terminalreporter.line(line)


@contextlib.contextmanager
def no_folding():
    """Search as if no frame ever finished: `search.collect_garbage` folds
    nothing. Folding is checked against this reference."""
    def fold_nothing(inst):
        return search.SummarizationReport((), 0)

    with mock.patch.object(search, "collect_garbage", fold_nothing):
        yield

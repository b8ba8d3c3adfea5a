"""The brute-force oracles agree with the plainest enumeration of what they
define, so a faster oracle cannot drift from its definition."""

import itertools

import pytest

import oracles


def _queens_by_every_row_tuple(n):
    return [qs for qs in itertools.product(range(1, n + 1), repeat=n)
            if all(qs[i] != qs[j] and abs(qs[i] - qs[j]) != j - i
                   for i in range(n) for j in range(i + 1, n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_queens_solutions_match_every_row_tuple(n):
    assert oracles.queens_solutions(n) == _queens_by_every_row_tuple(n)

"""Random-instance generators for perfbench and tests.

Everything takes an explicit random.Random so runs are reproducible;
entries are small integers, which keeps the exact arithmetic fast while
still exercising degenerate configurations reasonably often.
"""
from __future__ import annotations

import random

from .errors import RankDeficientError
from .exact import Q, Vec
from .subspace import SubspaceBasis, validate_basis


def random_vector(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> Vec:
    return tuple(Q(rng.randint(lo, hi)) for _ in range(n))


def random_basis(
    rng: random.Random,
    n: int,
    m: int,
    lo: int = -5,
    hi: int = 5,
    zero_rows: int = 0,
) -> SubspaceBasis:
    """A full-column-rank n x m matrix with exactly `zero_rows` zero rows.

    Resamples until both the rank condition and the zero-row count hold
    (integer rows vanish by accident now and then); the forced rows are
    chosen at random among the n coordinates.
    """
    if zero_rows > n - m:
        raise ValueError("too many zero rows for a rank-m basis")
    while True:
        zeros = set(rng.sample(range(n), zero_rows)) if zero_rows else set()
        matrix = tuple(
            tuple(Q(0) for _ in range(m))
            if i in zeros
            else tuple(Q(rng.randint(lo, hi)) for _ in range(m))
            for i in range(n)
        )
        if sum(1 for row in matrix if all(x == 0 for x in row)) == zero_rows:
            try:
                return validate_basis(matrix)
            except RankDeficientError:  # validate_basis ranks the draw
                continue

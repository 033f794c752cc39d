from __future__ import annotations

import pytest

from coapprox import lp
from coapprox.exact import bareiss_pivot
from tests.reference import column_basis


@pytest.fixture
def lp_pivots(monkeypatch):
    """The (r, c) arguments of every bareiss_pivot called through `lp`.
    The simplex keeps its tableau by columns, so each is its (column, row);
    tests/test_lp.py's row_major_lp_min records (row, column)."""
    pivots = []

    def counted(*args):
        pivots.append(args[1:3])
        return bareiss_pivot(*args)

    monkeypatch.setattr(lp, "bareiss_pivot", counted)
    return pivots


@pytest.fixture
def span3_l16():
    """Three-dimensional subspace of l1^6 used as the worked fixture."""
    return column_basis(
        (4, 2, 1, -1, -4, 4),
        (-1, 3, 5, 2, 1, 6),
        (1, 4, 2, 1, -1, 8),
    )


@pytest.fixture
def pair_l17_coproximinal():
    return column_basis((1, 1, 2, 0, 4, -2, 0), (1, 2, 2, 0, 4, -4, 0))


@pytest.fixture
def pair_l17_not_coproximinal():
    return column_basis((1, 0, 2, 3, -1, -2, 0), (-1, 0, 1, 0, 1, -1, 0))


@pytest.fixture
def pair_l15_cochebyshev():
    return column_basis((1, 1, 2, 4, -2), (1, 2, 2, 4, -4))

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from coapprox import mat, validate_basis
from coapprox.lp import LpResult, LpStatus, lp_min

# The status of an LP that no x satisfies; lp_min, which starts at the
# feasible origin, never returns it.
INFEASIBLE = "infeasible"


def dot(c, x):
    return sum((a * b for a, b in zip(c, x)), Q(0))


def general_lp_min(cost, a_ub, b_ub, then=()):
    """lp_min on any rhs, as an LpResult whose status is INFEASIBLE where
    no x satisfies a_ub . x <= b_ub.

    Phase 1 is an auxiliary LP: minimize s subject to a . x - s <= b and
    -s <= 0, posed at its feasible point x = 0, s = top = max(0, -b) by
    the shift s = top + s', so lp_min takes it.  From the x0 it finds,
    the LP itself is solved in y = x - x0, where every rhs b - a . x0 is
    >= 0.
    """
    n = len(cost)
    top = max((0, *(-b for b in b_ub)))
    aux = lp_min(
        (0,) * n + (1,),
        tuple((*r, -1) for r in a_ub) + ((0,) * n + (-1,),),
        tuple(b + top for b in b_ub) + (top,),
    )
    if top + aux.value > 0:
        return LpResult(INFEASIBLE, None, None)
    x0 = aux.x[:n]
    res = lp_min(cost, a_ub, tuple(b - dot(r, x0) for r, b in zip(a_ub, b_ub)), then)
    if res.status is not LpStatus.OPTIMAL:
        return res
    x = tuple(a + y for a, y in zip(x0, res.x))
    return LpResult(LpStatus.OPTIMAL, x, dot(cost, x))


def column_basis(*columns):
    """Basis from spanning vectors (each a full ambient-length tuple)."""
    return validate_basis(mat(zip(*columns)))


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

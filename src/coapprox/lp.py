"""Small exact linear programming kernel (two-phase simplex, Bland's rule).

Variables are free rationals; every constraint is `a . x <= b`.  Free
variables are split into positive parts internally.  Bland's pivoting
rule guarantees termination, and all arithmetic is over Fraction, so the
reported optimum and optimizer are exact.  Intended for the desk-scale
problems this package produces (tens of rows, < ~20 columns).
`solve_minimax_lp` poses the exact l-infinity fit of a linear system on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q

from .errors import CapacityError, ValidationError

Vec = tuple[Q, ...]

MINIMAX_MAX_ROWS = 64


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    x: Vec | None
    value: Q | None


def lp_min(cost, a_ub, b_ub, a_eq=(), b_eq=()) -> LpResult:
    """Minimize cost . x subject to a_ub . x <= b_ub and a_eq . x == b_eq."""
    rows = [list(r) for r in a_ub]
    rhs = list(b_ub)
    for r, b in zip(a_eq, b_eq):
        rows.append(list(r))
        rhs.append(b)
        rows.append([-x for x in r])
        rhs.append(-b)
    n = len(cost)
    if not rows:
        if all(c == 0 for c in cost):
            return LpResult(LpStatus.OPTIMAL, (Q(0),) * n, Q(0))
        return LpResult(LpStatus.UNBOUNDED, None, None)

    nrows = len(rows)
    # Columns: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), slack per row,
    # then one artificial per negative-rhs row.
    nsplit = 2 * n
    nslack = nrows
    neg_rows = [i for i in range(nrows) if rhs[i] < 0]
    nart = len(neg_rows)
    ncols = nsplit + nslack + nart
    art_col = {}
    for k, i in enumerate(neg_rows):
        art_col[i] = nsplit + nslack + k

    tableau: list[list[Q]] = []
    basis: list[int] = []
    for i in range(nrows):
        sign = Q(-1) if i in art_col else Q(1)
        row = [Q(0)] * (ncols + 1)
        for j in range(n):
            row[j] = sign * rows[i][j]
            row[n + j] = -sign * rows[i][j]
        row[nsplit + i] = sign
        if i in art_col:
            row[art_col[i]] = Q(1)
            basis.append(art_col[i])
        else:
            basis.append(nsplit + i)
        row[ncols] = sign * rhs[i]
        tableau.append(row)

    def reduced_costs(costvec):
        obj = list(costvec) + [Q(0)]
        for i, bcol in enumerate(basis):
            cb = costvec[bcol]
            if cb != 0:
                row = tableau[i]
                for j in range(ncols + 1):
                    if row[j] != 0:
                        obj[j] -= cb * row[j]
        return obj

    def pivot(r, c):
        row = tableau[r]
        pv = row[c]
        tableau[r] = [x / pv for x in row]
        prow = tableau[r]
        for i in range(nrows):
            if i != r:
                f = tableau[i][c]
                if f != 0:
                    tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
        basis[r] = c

    def run_simplex(obj, allowed_cols):
        while True:
            enter = -1
            for j in allowed_cols:
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return True
            leave = -1
            best = None
            for i in range(nrows):
                coef = tableau[i][enter]
                if coef > 0:
                    ratio = tableau[i][ncols] / coef
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return False
            f = obj[enter]
            pivot(leave, enter)
            prow = tableau[leave]
            for j in range(ncols + 1):
                if prow[j] != 0:
                    obj[j] -= f * prow[j]

    if nart:
        phase1_cost = [Q(0)] * ncols
        for i in neg_rows:
            phase1_cost[art_col[i]] = Q(1)
        obj = reduced_costs(phase1_cost)
        run_simplex(obj, range(ncols))
        if -obj[ncols] != 0:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # Pivot any artificial still basic (at zero) out on a structural
        # column; a row with none is redundant and can stay as-is.
        art_cols = set(art_col.values())
        for i in range(nrows):
            if basis[i] in art_cols:
                c = next(
                    (j for j in range(nsplit + nslack) if tableau[i][j] != 0),
                    None,
                )
                if c is not None:
                    pivot(i, c)

    structural = range(nsplit + nslack)
    phase2_cost = [Q(0)] * ncols
    for j in range(n):
        phase2_cost[j] = cost[j]
        phase2_cost[n + j] = -cost[j]
    obj = reduced_costs(phase2_cost)
    if not run_simplex(obj, structural):
        return LpResult(LpStatus.UNBOUNDED, None, None)

    values = [Q(0)] * ncols
    for i, bcol in enumerate(basis):
        values[bcol] = tableau[i][ncols]
    x = tuple(values[j] - values[n + j] for j in range(n))
    opt = sum((c * v for c, v in zip(cost, x)), Q(0))
    return LpResult(LpStatus.OPTIMAL, x, opt)


def lp_max(cost, a_ub, b_ub, a_eq=(), b_eq=()) -> LpResult:
    res = lp_min(tuple(-c for c in cost), a_ub, b_ub, a_eq, b_eq)
    if res.status is not LpStatus.OPTIMAL:
        return res
    return LpResult(LpStatus.OPTIMAL, res.x, -res.value)


def solve_minimax_lp(rows: tuple[Vec, ...], rhs: Vec) -> tuple[Q, Vec]:
    """min over x of max_p |rhs_p - rows_p . x|, exactly.

    Returns (t_star, x_star) with x_star attaining t_star.  The problem
    is always feasible and bounded below by 0.  Guarded at
    MINIMAX_MAX_ROWS rows; this is a desk-scale kernel.
    """
    nrows = len(rows)
    if nrows == 0 or not rows[0]:
        raise ValidationError("minimax needs at least one row and one column")
    if nrows > MINIMAX_MAX_ROWS:
        raise CapacityError(f"minimax kernel capped at {MINIMAX_MAX_ROWS} rows, got {nrows}")
    m = len(rows[0])
    if len(rhs) != nrows:
        raise ValidationError("minimax rhs length does not match row count")
    # Variables (x, t); minimize t subject to +-(rows.x - rhs) <= t.
    cost = (Q(0),) * m + (Q(1),)
    a_ub = []
    b_ub = []
    for row, b in zip(rows, rhs):
        a_ub.append(tuple(row) + (Q(-1),))
        b_ub.append(b)
        a_ub.append(tuple(-x for x in row) + (Q(-1),))
        b_ub.append(-b)
    res = lp_min(cost, tuple(a_ub), tuple(b_ub))
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise ValidationError(f"minimax LP unexpectedly {res.status.value}")
    return res.value, res.x[:m]

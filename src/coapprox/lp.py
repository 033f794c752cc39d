"""Small exact linear programming kernel (two-phase simplex, Bland's rule).

Variables are free rationals; every constraint is `a . x <= b`.  Free
variables are split into positive parts internally.  Bland's pivoting
rule guarantees termination.  The tableau is fraction-free: each row is
Python ints up to a positive scale, every pivot is the row operation
`exact.eliminate` that Gauss-Jordan elimination also uses, every pivot
decision is a sign test or a cross-multiplied comparison, and Fractions
are built only for the reported optimum and optimizer, which are exact.
Intended for the desk-scale problems this package produces (tens of
rows, < ~20 columns).
`solve_minimax_lp` poses the exact l-infinity fit of a linear system on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q

from .errors import CapacityError, ValidationError
from .exact import eliminate, primitive_ints

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
    # Each row is scaled to coprime ints; a leading 1 makes entry 0 the scale.
    rows = [primitive_ints((1, *r, b)) for r, b in zip(a_ub, b_ub)]
    for r, b in zip(a_eq, b_eq):
        row = primitive_ints((1, *r, b))
        rows.append(row)
        rows.append([row[0]] + [-k for k in row[1:]])
    n = len(cost)
    if not rows:
        if all(c == 0 for c in cost):
            return LpResult(LpStatus.OPTIMAL, (Q(0),) * n, Q(0))
        return LpResult(LpStatus.UNBOUNDED, None, None)

    nrows = len(rows)
    # Columns: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), slack per row,
    # then one artificial per negative-rhs row, then the rhs.  Row i of
    # the tableau is ints whose true value is tableau[i] / tableau[i][basis[i]]
    # (a positive scale); row nrows is the objective, up to a positive scale.
    nsplit = 2 * n
    nstruct = nsplit + nrows
    neg_rows = [i for i in range(nrows) if rows[i][-1] < 0]
    ncols = nstruct + len(neg_rows)
    art_col = {i: nstruct + k for k, i in enumerate(neg_rows)}

    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (scale, *ints, rhs) in enumerate(rows):
        sign = -1 if i in art_col else 1
        row = [0] * (ncols + 1)
        for j in range(n):
            row[j] = sign * ints[j]
            row[n + j] = -sign * ints[j]
        row[nsplit + i] = sign * scale
        if i in art_col:
            row[art_col[i]] = scale
            basis.append(art_col[i])
        else:
            basis.append(nsplit + i)
        row[ncols] = sign * rhs
        tableau.append(row)

    def set_objective(costvec):
        obj = costvec + [0]
        for i, bcol in enumerate(basis):
            if obj[bcol]:
                obj = eliminate(obj, tableau[i], bcol)
        tableau[nrows:] = [obj]

    def pivot(r, c):
        if tableau[r][c] < 0:  # only when pivoting an artificial out
            tableau[r] = [-a for a in tableau[r]]
        prow = tableau[r]
        for i, row in enumerate(tableau):
            if i != r and row[c]:
                tableau[i] = eliminate(row, prow, c)
        basis[r] = c

    def run_simplex(allowed_cols):
        while True:
            obj = tableau[nrows]
            enter = next((j for j in allowed_cols if obj[j] < 0), -1)
            if enter < 0:
                return True
            leave = -1
            for i in range(nrows):
                row = tableau[i]
                coef = row[enter]
                if coef > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # rhs/coef against the best ratio, cross-multiplied.
                    best = tableau[leave]
                    diff = row[ncols] * best[enter] - best[ncols] * coef
                    if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return False
            pivot(leave, enter)

    if neg_rows:
        phase1_cost = [0] * ncols
        for col in art_col.values():
            phase1_cost[col] = 1
        set_objective(phase1_cost)
        run_simplex(range(ncols))
        if tableau[nrows][ncols] != 0:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # Pivot any artificial still basic (at zero) out on a structural
        # column; a row with none is redundant and can stay as-is.
        for i in range(nrows):
            if basis[i] >= nstruct:
                c = next((j for j in range(nstruct) if tableau[i][j] != 0), None)
                if c is not None:
                    pivot(i, c)

    cost_ints = primitive_ints(cost)
    set_objective(cost_ints + [-k for k in cost_ints] + [0] * (ncols - nsplit))
    if not run_simplex(range(nstruct)):
        return LpResult(LpStatus.UNBOUNDED, None, None)

    values = [Q(0)] * ncols
    for i, bcol in enumerate(basis):
        values[bcol] = Q(tableau[i][ncols], tableau[i][bcol])
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

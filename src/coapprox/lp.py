"""Small exact linear programming kernel (one-phase simplex, Bland's rule).

Variables are free rationals, split into positive parts u - v; every
constraint is `a . x <= b` with `b >= 0`, so the origin is feasible and
the slacks are a starting basis: there is no phase 1, and a negative rhs
is refused before any pivot.  Each caller poses its LP at a feasible
point it knows (the minimax LP at alpha = 0 with t = max|rhs|, a lex LP
at the minimax optimizer, a margin LP at the origin).  The tableau is
fraction-free, ints over one common denominator (each row times the lcm
of its denominators), and condensed: a basic variable's column is the
denominator times a unit vector, so only the nonbasic columns are kept,
at first one column per free variable (Edmonds 1967; Avis, lrs, 2000):
while u_j and v_j are both nonbasic one holds it and the other's is its
negative; once one is basic the other's is -den e_i with reduced cost
0 under every cost, so it never enters and needs no column.  Every
pivot is `exact.bareiss_pivot`, the full tableau's pivot restricted to
those columns, so every division stays exact; the entering column then
takes the leaving variable's.  Pivot decisions are sign tests and
cross-multiplied comparisons, which no positive scaling of rows or
variables changes; Bland's rule on the variable labels guarantees
termination.  Fractions are built only for the reported optimum and
optimizer.  The row duals are the final objective row's slack entries,
read with no extra pivot.  `lp_min` also minimizes a sequence of costs
lexicographically, face by face, in one tableau (Isermann 1982).
`solve_minimax_lp` poses the exact l-infinity fit of a linear system on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import mul

from .errors import CapacityError, ValidationError
from .exact import Q, Vec, bareiss_pivot, primitive_ints, scaled_ints

# The cell-pair cap, shared with norming: a minimax LP has one row per pair.
MAX_CELL_PAIRS = 256


class LpStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    x: Vec | None
    value: Q | None
    # Ints y >= 0 with, for one d > 0, sum y_i a_i = -d cost and
    # sum y_i b_i = -d value: the row duals times d.  None with `then`
    # and from lp_max.
    duals: tuple[int, ...] | None = None


def lp_min(cost, a_ub, b_ub, then=()) -> LpResult:
    """Minimize cost . x subject to a_ub . x <= b_ub, then each cost in
    `then` over the optimal face of those before it; value is cost . x.
    Every b_ub must be >= 0: the simplex starts at x = 0.

    A later cost enters only columns whose reduced cost was zero at the
    previous optimum: one with a positive reduced cost is zero at every
    optimal point, so the rest describe exactly the optimal face.
    """
    if any(b < 0 for b in b_ub):
        raise ValidationError("lp_min needs every b_ub >= 0, so that x = 0 is feasible")
    n = len(cost)
    nrows = len(a_ub)
    # Labels: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), a slack per row.  Column
    # k holds variable nonbasic[k], the last one the rhs; the true tableau
    # is tableau / den, and row nrows holds the reduced costs.
    nsplit = 2 * n
    tableau: list[list[int]] = []
    scales = []  # each row's lcm, which its dual is read in
    for r, b in zip(a_ub, b_ub):
        lcm, u = scaled_ints((*r, b))
        scales.append(lcm)
        tableau.append(u)
    nonbasic = list(range(n))
    basis = list(range(nsplit, nsplit + nrows))
    den = 1

    def run_simplex(allowed):
        nonlocal den
        while True:
            obj = tableau[nrows]
            enter, label = -1, nsplit + nrows
            for k, j in enumerate(nonbasic):
                c = obj[k] if allowed[j] else 0
                if c > 0 and j < nsplit:  # the pair's other member, column negated
                    c, j = -c, (j + n) % nsplit
                if c < 0 and j < label:
                    enter, label = k, j
            if enter < 0:
                return True
            if label != nonbasic[enter]:
                for row in tableau:
                    row[enter] = -row[enter]
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
                    diff = row[n] * best[enter] - best[n] * coef
                    if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return False
            # The leaving variable's column: -old column, old den in row leave.
            col = [-row[enter] for row in tableau]
            col[leave] = den
            den = bareiss_pivot(tableau, leave, enter, den)
            for row, a in zip(tableau, col):
                row[enter] = a
            nonbasic[enter], basis[leave] = basis[leave], label

    allowed = [True] * (nsplit + nrows)
    for c in (cost, *then):
        c_ints = primitive_ints(c)
        costvec = c_ints + [-a for a in c_ints] + [0] * nrows
        obj = [den * costvec[j] for j in nonbasic] + [0]
        for i, bcol in enumerate(basis):
            f = costvec[bcol]
            if f:
                obj = [a - f * b for a, b in zip(obj, tableau[i])]
        tableau[nrows:] = [obj]
        if not run_simplex(allowed):
            return LpResult(LpStatus.UNBOUNDED, None, None)
        for j, a in zip(nonbasic, tableau[nrows]):
            if a:
                allowed[j] = False

    basic = dict(zip(basis, (row[n] for row in tableau)))
    diffs = [basic.get(j, 0) - basic.get(n + j, 0) for j in range(n)]
    cden, c_ints = scaled_ints(cost)
    value = Q(sum(map(mul, c_ints, diffs)), cden * den)
    duals = None
    if not then:  # a basic slack's dual is 0
        reduced = dict(zip(nonbasic, tableau[nrows]))
        duals = tuple(reduced.get(nsplit + i, 0) * s for i, s in enumerate(scales))
    return LpResult(LpStatus.OPTIMAL, tuple(Q(d, den) for d in diffs), value, duals)


def lp_max(cost, a_ub, b_ub) -> LpResult:
    res = lp_min(tuple(-c for c in cost), a_ub, b_ub)
    if res.status is not LpStatus.OPTIMAL:
        return res
    return LpResult(LpStatus.OPTIMAL, res.x, -res.value)


def solve_minimax_lp(rows: tuple[Vec, ...], rhs: Vec, multipliers: bool = False) -> tuple:
    """min over x of max_p |rhs_p - rows_p . x|, exactly.

    Returns (t_star, x_star) with x_star attaining t_star.  The problem
    is always feasible and bounded below by 0.  Guarded at
    MAX_CELL_PAIRS rows: every caller passes one row per cell pair.

    With `multipliers`, also the ints lam_p = q_p - p_p, the duals of the
    rows +-(rows_p . x - rhs_p) <= t times one d > 0: sum lam_p rows_p = 0
    and -sum lam_p rhs_p = d t_star >= t_star sum |lam_p|.
    """
    nrows = len(rows)
    if nrows == 0 or not rows[0]:
        raise ValidationError("minimax needs at least one row and one column")
    if nrows > MAX_CELL_PAIRS:
        raise CapacityError(f"minimax kernel capped at {MAX_CELL_PAIRS} rows, got {nrows}")
    m = len(rows[0])
    if len(rhs) != nrows:
        raise ValidationError("minimax rhs length does not match row count")
    # Variables (x, t') with t = top + t', top = max|rhs|; minimize t'
    # subject to +-(rows.x - rhs) <= top + t'.  Every rhs top +- b is >= 0,
    # so x = 0, t' = 0 is the feasible start.  The program's rows come as
    # ints; lp_min scales a library caller's rational row by its own lcm.
    top = max(map(abs, rhs))
    cost, a_ub, b_ub = (0,) * m + (1,), [], []
    for row, b in zip(rows, rhs):
        a_ub += [(*row, -1), (*(-x for x in row), -1)]
        b_ub += [top + b, top - b]
    res = lp_min(cost, tuple(a_ub), tuple(b_ub))
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise ValidationError(f"minimax LP unexpectedly {res.status.value}")
    y, opt = res.duals, (top + res.value, res.x[:m])
    return (*opt, tuple(q - p for q, p in zip(y[::2], y[1::2]))) if multipliers else opt

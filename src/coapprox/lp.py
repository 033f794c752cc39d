"""Small exact linear programming kernel (one-phase simplex, Bland's rule).

Variables are free rationals, split into positive parts u - v; every
constraint is `a . x <= b` with `b >= 0`, so the origin is feasible and
the slacks are a starting basis: there is no phase 1, and a negative rhs
or a row or later cost not of len(cost) is refused before any pivot.
Each caller poses its LP at a feasible point it knows (the minimax LP,
and each lex search on it, at x = 0 with t = max|rhs|, a margin LP at
the origin).

The tableau is fraction-free, ints over one common denominator
(int rows as given, others each times its lcm), and condensed: a basic
variable's column is the denominator times a unit vector, so only the
nonbasic columns are kept, at first one per free variable (Edmonds 1967;
Avis, lrs, 2000): while u_j and v_j are both nonbasic one holds it and
the other's is its negative; once one is basic the other's is -den e_i
with reduced cost 0 under every cost, so it never enters.  Every LP
posed is tall and thin, so the tableau is kept by columns: an int list
per nonbasic column and one for the rhs, each ending with its objective
entry.  Every pivot is `exact.bareiss_pivot` with the columns as its
rows, which keeps the leaving row's entries; the entering column then
takes the leaving variable's.  Pivot decisions are sign tests and
cross-multiplied comparisons, which no positive scaling of rows or
variables changes; Bland's rule on the variable labels guarantees
termination.  The first objective row is the cost itself, as the
starting basis is all slacks, of cost 0; the row duals are the slacks'
final objective entries.  `lp_min` also minimizes a sequence of costs
lexicographically, face by face, in one tableau (Isermann 1982), and
`minimax_rows` poses the exact l-infinity fit of a system on it.
"""
from __future__ import annotations

from enum import Enum
from itertools import chain
from operator import mul, neg, sub
from typing import NamedTuple

from .errors import CapacityError, ValidationError
from .exact import Q, Vec, bareiss_pivot, primitive_ints, scaled_ints

# The cell-pair cap, shared with norming: a minimax LP has one row per pair.
MAX_CELL_PAIRS = 256


class LpStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


class LpResult(NamedTuple):
    status: LpStatus
    x: Vec | None
    value: Q | None
    # Ints y >= 0 with, for one d > 0, sum y_i a_i = -d cost and
    # sum y_i b_i = -d value: the row duals times d.  None with `then`
    # and from lp_max.
    duals: tuple[int, ...] | None = None


def lp_min(cost, a_ub, b_ub, then=()) -> LpResult:
    """Minimize cost . x subject to a_ub . x <= b_ub, then each cost of the
    sequence `then` over the optimal face of those before it; value is cost . x.
    One b_ub >= 0 per row, each row and each later cost of len(cost): the
    simplex starts at x = 0.

    A later cost enters only columns whose reduced cost was zero at the
    previous optimum: one with a positive reduced cost is zero at every
    optimal point, so the rest describe exactly the optimal face.
    """
    n = len(cost)
    nrows = len(a_ub)
    if min(b_ub, default=0) < 0:
        raise ValidationError("lp_min needs every b_ub >= 0, so that x = 0 is feasible")
    if len(b_ub) != nrows or {*map(len, a_ub), *map(len, then)} - {n}:
        raise ValidationError(
            "lp_min needs one b_ub per row and len(cost) entries in each row and later cost")
    scales = None  # each row's lcm, which its dual is read in; None for int rows
    if type(sum(chain(b_ub, *a_ub))) is not int:  # one Fraction entry makes the sum one
        scales, a_ub = zip(*(scaled_ints((*r, b)) for r, b in zip(a_ub, b_ub)))
        b_ub = [row.pop() for row in a_ub]
    # Labels: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), a slack per row.  Column
    # k holds variable nonbasic[k], the last one the rhs; the true tableau
    # is cols / den, and entry nrows of each column is its reduced cost:
    # at first the cost's ints, as every basic variable is a slack, of cost 0.
    cols = [[*c] for c in zip(*a_ub, primitive_ints(cost))] + [[*b_ub, 0]]
    nsplit = 2 * n
    nonbasic = list(range(n))
    basis = list(range(nsplit, nsplit + nrows))
    den = 1
    barred = set()  # columns that left the optimal face of an earlier cost
    for later in (None, *then):
        if later is not None:  # bar what left the face; reduce the cost at the basis
            barred.update(j for j, col in zip(nonbasic, cols) if col[nrows])
            c_ints = primitive_ints(later)
            costvec = c_ints + [-a for a in c_ints] + [0] * nrows
            fb = [costvec[j] for j in basis]
            for col, a in zip(cols, [den * costvec[j] for j in nonbasic] + [0]):
                col[nrows] = a - sum(map(mul, fb, col))
        while True:
            enter, label = -1, nsplit + nrows
            for k, j in enumerate(nonbasic):
                c = cols[k][nrows]
                if c and j not in barred:
                    if c > 0 and j < nsplit:  # the pair's other member, column negated
                        c, j = -c, (j + n) % nsplit
                    if c < 0 and j < label:
                        enter, label = k, j
            if enter < 0:
                break
            col = [-a for a in cols[enter]]  # the leaving variable's, once den is in row leave
            if label != nonbasic[enter]:
                cols[enter], col = col, cols[enter]
            ecol = cols[enter]
            rhs = cols[n]
            leave = -1
            for i, coef in enumerate(ecol):  # its last entry, a reduced cost, is < 0
                if coef > 0:
                    r = rhs[i]
                    if leave >= 0:  # r/coef against the best ratio, cross-multiplied
                        diff = r * best_coef - best_rhs * coef
                        if diff > 0 or not diff and basis[i] > basis[leave]:
                            continue
                    leave = i
                    best_coef, best_rhs = coef, r
            if leave < 0:
                return LpResult(LpStatus.UNBOUNDED, None, None)
            col[leave] = den
            den = bareiss_pivot(cols, enter, leave, den)
            cols[enter] = col
            nonbasic[enter], basis[leave] = basis[leave], label
    diffs = [0] * n  # x * den, from the basic u_j and v_j
    for j, v in zip(basis, cols[n]):
        if j < nsplit:
            diffs[j % n] = v if j < n else -v
    duals = None
    if not then:  # a slack's dual is its reduced cost, 0 where it is basic
        duals = [0] * nrows
        for j, col in zip(nonbasic, cols):
            if j >= nsplit:
                duals[j - nsplit] = col[nrows]
        duals = tuple(duals if scales is None else map(mul, duals, scales))
    cden, c_ints = scaled_ints(cost)
    return LpResult(LpStatus.OPTIMAL, tuple(Q(d, den) for d in diffs),
                    Q(sum(map(mul, c_ints, diffs)), cden * den), duals)


def lp_max(cost, a_ub, b_ub) -> LpResult:
    res = lp_min(tuple(-c for c in cost), a_ub, b_ub)
    if res.status is not LpStatus.OPTIMAL:
        return res
    return LpResult(LpStatus.OPTIMAL, res.x, -res.value)


def minimax_rows(rows: tuple[Vec, ...], rhs: Vec) -> tuple:
    """(cost, a_ub, b_ub, top): min over x of max_p |rhs_p - rows_p . x| as
    an lp_min LP in (x, t'), t = top + t', top = max|rhs|: minimize t'
    subject to +-(rows.x - rhs) <= top + t'.  Every rhs top +- b is >= 0,
    so x = 0, t' = 0 is the feasible start.  Guarded at MAX_CELL_PAIRS
    rows: every caller passes one row per cell pair.
    """
    nrows = len(rows)
    if nrows == 0 or not rows[0]:
        raise ValidationError("minimax needs at least one row and one column")
    if nrows > MAX_CELL_PAIRS:
        raise CapacityError(f"minimax kernel capped at {MAX_CELL_PAIRS} rows, got {nrows}")
    if len(rhs) != nrows:
        raise ValidationError("minimax rhs length does not match row count")
    top = max(map(abs, rhs))
    return ((0,) * len(rows[0]) + (1,),
            [r for row in rows for r in ((*row, -1), (*map(neg, row), -1))],
            [r for b in rhs for r in (top + b, top - b)], top)


def solve_minimax_lp(rows: tuple[Vec, ...], rhs: Vec, multipliers: bool = False) -> tuple:
    """min over x of max_p |rhs_p - rows_p . x|, exactly: (t_star, x_star)
    with x_star attaining t_star.  The program's rows come as ints;
    lp_min scales a library caller's rational row by its own lcm.

    With `multipliers`, also the ints lam_p = q_p - p_p, the duals of the
    rows +-(rows_p . x - rhs_p) <= t times one d > 0: sum lam_p rows_p = 0
    and -sum lam_p rhs_p = d t_star >= t_star sum |lam_p|.
    """
    cost, a_ub, b_ub, top = minimax_rows(rows, rhs)
    res = lp_min(cost, a_ub, b_ub)
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise ValidationError(f"minimax LP unexpectedly {res.status.value}")
    y, opt = res.duals, (top + res.value, res.x[:-1])
    return (*opt, tuple(map(sub, y[::2], y[1::2]))) if multipliers else opt

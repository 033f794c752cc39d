"""Small exact linear programming kernel (one-phase simplex, Bland's rule).

Variables are free rationals, split into positive parts u - v; every
constraint is `a . x <= b` with `b >= 0`, so the origin is feasible and
the slacks are a starting basis: there is no phase 1, and a negative rhs
or a row or later cost not of len(cost) is refused before any pivot.
Every LP is posed by `lp_columns` at a feasible point its caller knows and
run by the one pivot loop `simplex`: in `lp_min` the minimax LP and each lex
search at x = 0, t = max|rhs|; in norming each cell's margin LP at the origin.

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
`minimax_rows` poses the exact l-infinity fit of a system on it, whose
dual vertices `minimax_circuits` lists once per row set, a circuit of
m + 1 rows with the int inverse of m of them: a new rhs then needs no pivot.
"""
from __future__ import annotations

import math
from enum import Enum
from itertools import chain, combinations
from operator import itemgetter, mul, neg, sub
from typing import NamedTuple

from .errors import CapacityError, ValidationError
from .exact import Q, Vec, bareiss_pivot, kernel_vectors, primitive_ints, scaled_ints

# The cell-pair cap, shared with norming: a minimax LP has one row per pair.
MAX_CELL_PAIRS = 256
MAX_CIRCUIT_SUBSETS = 64  # subsets of m + 1 rows; one LP wins past ~200 circuits


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


def lp_columns(cost, a_ub, b_ub, then=()) -> tuple:
    """(cols, scales, cden, cost_ints): lp_min's input checked and posed for
    `simplex` at the all-slack basis, a column per variable and the rhs, each
    ending with its objective entry; cost_ints / cden is the cost."""
    if min(b_ub, default=0) < 0:
        raise ValidationError("lp_min needs every b_ub >= 0, so that x = 0 is feasible")
    if len(b_ub) != len(a_ub) or {*map(len, a_ub), *map(len, then)} - {len(cost)}:
        raise ValidationError(
            "lp_min needs one b_ub per row and len(cost) entries in each row and later cost")
    scales = None  # the Fraction rows' lcms, which their duals are read in
    if type(sum(chain(b_ub, *a_ub))) is not int:  # one Fraction entry makes the sum one
        scales, a_ub = zip(*(scaled_ints((*r, b)) for r, b in zip(a_ub, b_ub)))
        b_ub = [row.pop() for row in a_ub]
    cden, cost_ints = scaled_ints(cost)  # once, for the objective row and the value
    # The cost's coprime ints, a positive multiple of it: the same pivots.
    cols = [[*c] for c in zip(*a_ub, primitive_ints(cost_ints))] + [[*b_ub, 0]]
    return cols, scales, cden, cost_ints


def simplex(cols, nonbasic, basis, den=1, barred=()) -> tuple:
    """The one pivot loop of every LP: Bland's rule, in place, until no column
    may enter.  (den, x * den), or (0, None) if unbounded.  cols[k] holds
    label nonbasic[k], the last column the rhs, basis[i] row i's; u_j, v_j
    of the n free variables are labels j, n + j, the slacks from 2n on."""
    n, nrows, nsplit = len(nonbasic), len(basis), 2 * len(nonbasic)
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
            x = [0] * n  # the basic u_j minus the basic v_j
            for j, v in zip(basis, cols[n]):
                if j < nsplit:
                    x[j % n] = v if j < n else -v
            return den, x
        col = [-a for a in cols[enter]]  # the leaving variable's, once den is in row leave
        if label != nonbasic[enter]:
            cols[enter], col = col, cols[enter]
        ecol, rhs, leave = cols[enter], cols[n], -1
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
            return 0, None
        col[leave] = den
        den = bareiss_pivot(cols, enter, leave, den)
        cols[enter] = col
        nonbasic[enter], basis[leave] = basis[leave], label


def lp_min(cost, a_ub, b_ub, then=()) -> LpResult:
    """Minimize cost . x subject to a_ub . x <= b_ub, then each cost of the
    sequence `then` over the optimal face of those before it; value is cost . x.
    One b_ub >= 0 per row, each row and each later cost of len(cost): the
    simplex starts at x = 0.

    A later cost enters only columns whose reduced cost was zero at the
    previous optimum: one with a positive reduced cost is zero at every
    optimal point, so the rest describe exactly the optimal face.
    """
    cols, scales, cden, cost_ints = lp_columns(cost, a_ub, b_ub, then)
    n, nrows, nsplit = len(cost), len(a_ub), 2 * len(cost)
    nonbasic, basis = list(range(n)), list(range(nsplit, nsplit + nrows))
    den, barred = 1, set()  # barred: columns that left the optimal face of an earlier cost
    for later in (None, *then):
        if later is not None:  # bar what left the face; reduce the cost at the basis
            barred.update(j for j, col in zip(nonbasic, cols) if col[nrows])
            c_ints = primitive_ints(later)
            costvec = c_ints + [-a for a in c_ints] + [0] * nrows
            fb = [costvec[j] for j in basis]
            for col, a in zip(cols, [den * costvec[j] for j in nonbasic] + [0]):
                col[nrows] = a - sum(map(mul, fb, col))
        den, diffs = simplex(cols, nonbasic, basis, den, barred)
        if not den:
            return LpResult(LpStatus.UNBOUNDED, None, None)
    duals = None
    if not then:  # a slack's dual is its reduced cost, 0 where it is basic
        duals = [0] * nrows
        for j, col in zip(nonbasic, cols):
            if j >= nsplit:
                duals[j - nsplit] = col[nrows]
        duals = tuple(duals if scales is None else map(mul, duals, scales))
    return LpResult(LpStatus.OPTIMAL, tuple([Q(d, den) for d in diffs]),
                    Q(sum(map(mul, cost_ints, diffs)), cden * den), duals)


def lp_max(cost, a_ub, b_ub) -> LpResult:
    res = lp_min(tuple(-c for c in cost), a_ub, b_ub)
    if res.status is not LpStatus.OPTIMAL:
        return res
    return LpResult(LpStatus.OPTIMAL, res.x, -res.value)


def minimax_rows(rows: tuple[Vec, ...], rhs: Vec) -> tuple:
    """(cost, a_ub, b_ub, top): min over x of max_p |rhs_p - rows_p . x| as
    an lp_min LP in (x, t'), t = top + t', top = max|rhs|: minimize t'
    subject to +-(rows.x - rhs) <= top + t'.  Every rhs top +- b is >= 0,
    so x = 0, t' = 0 is the feasible start.  solve_minimax_lp checks the input."""
    top = max(map(abs, rhs))
    return ((0,) * len(rows[0]) + (1,),
            [r for row in rows for r in ((*row, -1), (*map(neg, row), -1))],
            [r for b in rhs for r in (top + b, top - b)], top)


class _Circuits(tuple):
    """minimax_circuits' (rows, circuits), the one pair solve_minimax_lp reads."""


def minimax_circuits(rows) -> tuple | None:
    """(rows, circuits): (support, lam, sum |lam|, table, get) per circuit of
    the int rows, lam primitive, sum lam_p rows_p = 0: the minimax LP's dual
    vertices (Rockafellar 1969), each the left null vector of some m + 1 rows
    of rank m: the one kernel vector of a Gauss-Jordan pass per subset, on its
    transpose with the identity appended.  On m + 1 rows the pivots are the first
    m, B, any m being independent, and the appended block ends as den (B^-1)^T,
    den the final pivot, so table = (B's (row, sign of lam), den, den B^-1); None
    on fewer rows.  Refuses empty, ragged or non-int rows; None over MAX_CIRCUIT_SUBSETS."""
    m = len(rows[0]) if rows else 0
    if not m or {*map(len, rows)} != {m} or type(sum(chain(*rows))) is not int:
        raise ValidationError("minimax_circuits needs int rows, all of one nonzero length")
    if math.comb(len(rows), m + 1) > MAX_CIRCUIT_SUBSETS:
        return None
    found = {}  # a circuit is fixed, up to scale, by its support
    for subset in combinations(range(len(rows)), m + 1):
        work = [[rows[p][j] for p in subset] + [int(i == j) for i in range(m)] for j in range(m)]
        if len(kernel := kernel_vectors(work, m + 1)) == 1:  # rank m
            lam = kernel[0]  # with no 0 in it, the non-pivot column is m: lam[m] = den
            table = None if 0 in lam else (
                tuple([(p, 1 if a > 0 else -1) for p, a in zip(subset, lam[:m])]),
                lam[m], tuple(zip(*[w[m + 1:] for w in work])))
            found.setdefault(tuple([p for p, a in zip(subset, lam) if a]),
                             (tuple([a for a in primitive_ints(lam) if a]), table))
    # get(rhs) is rhs on the support, then rhs[0] past lam's end: a tuple even on one row.
    return _Circuits((rows, tuple((s, y, sum(map(abs, y)), tb, itemgetter(*s, 0))
                                  for s, (y, tb) in found.items())))


def solve_minimax_lp(rows: tuple[Vec, ...], rhs: Vec, circuits=None) -> tuple:
    """min over x of max_p |rhs_p - rows_p . x|, exactly: (t_star, x_star, lam),
    x_star attaining t_star and lam the ints q_p - p_p, the duals of the rows
    +-(rows_p . x - rhs_p) <= t times one d > 0: sum lam_p rows_p = 0 and
    -sum lam_p rhs_p = d t_star >= t_star sum |lam_p|.  lp_min scales a
    rational row by its own lcm.  Refused before any arithmetic: no row or
    column, over MAX_CELL_PAIRS rows (one per cell pair), an rhs of another
    length or with an inexact entry, circuits not minimax_circuits(rows),
    and, before the LP, rows with an inexact entry.
    `circuits` go first: t_star is the top |lam . rhs| / sum |lam| (Stiefel,
    Numer. Math. 1, 1959).  On a top circuit of m + 1 rows, their slabs are
    tight at every optimum (all slabs are at t_star = 0), and the table's m
    pin x_star: rows_p . x = rhs_p - sign(lam_p) (lam . rhs) / sum |lam|, one
    int product with their inverse, exact for a rational rhs too; lam is then
    -sign(lam . rhs) lam, or lam itself where lam . rhs = 0.
    """
    if not rows or not rows[0]:
        raise ValidationError("minimax needs at least one row and one column")
    if len(rows) > MAX_CELL_PAIRS:
        raise CapacityError(f"minimax kernel capped at {MAX_CELL_PAIRS} rows, got {len(rows)}")
    if len(rhs) != len(rows):
        raise ValidationError("minimax rhs length does not match row count")
    scaled_ints(rhs)  # names an inexact entry
    if circuits is not None and (type(circuits) is not _Circuits or circuits[0] is not rows
                                 and circuits[0] != rows):
        raise ValidationError("minimax circuits must be minimax_circuits(rows) of these rows")
    t, best = (0, 1), ((), (), 0, None)
    for support, lam, size, table, get in circuits[1] if circuits else ():
        v = sum(map(mul, lam, get(rhs)))
        d = abs(v) * t[1] - t[0] * size  # cross-multiplied; a tie goes to more rows
        if d > 0 or not d and len(support) > len(best[0]):
            t, best = (abs(v), size), (support, lam, v, table)
    if best[3]:
        (support, lam, v, (picks, den, inv)), size = best, t[1]
        w = [size * rhs[p] - s * v for p, s in picks]
        y, sign = dict(zip(support, lam)), -1 if v > 0 else 1
        return (Q(*t), tuple([Q(sum(map(mul, row, w)), den * size) for row in inv]),
                tuple([sign * y.get(p, 0) for p in range(len(rhs))]))
    scaled_ints([*chain(*rows)])  # names an inexact row entry; circuits' rows are ints
    cost, a_ub, b_ub, top = minimax_rows(rows, rhs)
    res = lp_min(cost, a_ub, b_ub)
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise ValidationError(f"minimax LP unexpectedly {res.status.value}")
    y = res.duals
    return top + res.value, res.x[:-1], tuple(map(sub, y[::2], y[1::2]))

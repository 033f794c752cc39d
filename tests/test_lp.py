import operator
import random
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

import pytest
from scipy.optimize import linprog

from coapprox import (
    OutcomeKind,
    brute_force_existence,
    existence_threshold,
    lp,
    mat,
    prepare,
    solve_general,
    validate_basis,
)
from coapprox.cli import load_problem
from coapprox.errors import ValidationError
from coapprox.exact import bareiss_pivot, primitive_ints, rank, scaled_ints
from coapprox.instances import random_basis, random_vector
from coapprox.lp import MAX_CELL_PAIRS, LpResult, LpStatus, lp_max, lp_min, solve_minimax_lp
from coapprox.norming import Arrangement, enumerate_cells, margin_witness
from tests.reference import FACE_POLYTOPES, INFEASIBLE, dot, general_lp_min

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_box_maximum():
    res = lp_max(
        (Q(1), Q(1)),
        ((Q(1), Q(0)), (Q(0), Q(1))),
        (Q(1), Q(2)),
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 3
    assert res.x == (Q(1), Q(2))


def test_infeasible():
    res = general_lp_min((Q(1),), ((Q(1),), (Q(-1),)), (Q(-1), Q(-1)))
    assert res.status is INFEASIBLE


def test_unbounded():
    res = lp_min((Q(1),), ((Q(1),),), (Q(0),))
    assert res.status is LpStatus.UNBOUNDED


def test_equality_constraints():
    # x0 + x1 == 3 as the pair x0 + x1 <= 3, -x0 - x1 <= -3.
    res = general_lp_min(
        (Q(1), Q(0)),
        ((Q(-1), Q(0)), (Q(1), Q(1)), (Q(-1), Q(-1))),
        (Q(5), Q(3), Q(-3)),
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -5
    assert res.x[0] + res.x[1] == 3


def test_degenerate_negative_rhs():
    # x >= 2 and x >= 1 expressed as -x <= -2, -x <= -1; minimize x.
    res = general_lp_min((Q(1),), ((Q(-1),), (Q(-1),)), (Q(-2), Q(-1)))
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 2


def test_matches_scipy_on_random_bounded_problems():
    rng = random.Random(42)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        q = rng.randint(1, 6)
        a_ub = [
            tuple(Q(rng.randint(-4, 4)) for _ in range(n)) for _ in range(q)
        ]
        b_ub = [Q(rng.randint(-3, 6)) for _ in range(q)]
        # Box constraints keep everything bounded and usually feasible.
        for j in range(n):
            unit = [Q(0)] * n
            unit[j] = Q(1)
            a_ub.append(tuple(unit))
            b_ub.append(Q(5))
            unit[j] = Q(-1)
            a_ub.append(tuple(unit))
            b_ub.append(Q(5))
        cost = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        res = general_lp_min(cost, tuple(a_ub), tuple(b_ub))
        ref = linprog(
            [float(c) for c in cost],
            A_ub=[[float(x) for x in row] for row in a_ub],
            b_ub=[float(b) for b in b_ub],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if res.status is INFEASIBLE:
            assert ref.status == 2
            continue
        assert res.status is LpStatus.OPTIMAL
        assert ref.status == 0
        assert abs(float(res.value) - ref.fun) < 1e-7
        # Reported point is feasible exactly.
        for row, b in zip(a_ub, b_ub):
            assert sum(r * x for r, x in zip(row, res.x)) <= b
        checked += 1
    assert checked > 60


def reference_lp_min(cost, a_ub, b_ub, a_eq=(), b_eq=(), pivots=None):
    """The Fraction-tableau two-phase simplex (Bland's rule) that the
    integer tableau replaced, kept verbatim as the reference: on an LP
    with every rhs >= 0 it runs no phase 1, so it makes lp_min's pivots
    and gives the same (status, x, value).  Each pivot (row, column) is
    appended to the list `pivots`, if one is given."""
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
    nsplit = 2 * n
    nslack = nrows
    neg_rows = [i for i in range(nrows) if rhs[i] < 0]
    nart = len(neg_rows)
    ncols = nsplit + nslack + nart
    art_col = {}
    for k, i in enumerate(neg_rows):
        art_col[i] = nsplit + nslack + k

    tableau = []
    basis = []
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
        if pivots is not None:
            pivots.append((r, c))
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
            return LpResult(INFEASIBLE, None, None)
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


def _random_lp(rng):
    """A small LP with rational data, negative rhs, repeated and scaled
    rows (ratio-test ties) and, half the time, a box that bounds it."""
    n = rng.randint(1, 5)
    dens = rng.choice(((1,), (1, 2), (1, 2, 3, 5)))

    def entry():
        return Q(rng.randint(-4, 4), rng.choice(dens))

    a_ub = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 10))]
    b_ub = [entry() + 1 for _ in a_ub]
    if a_ub and rng.random() < 0.4:
        k = rng.randrange(len(a_ub))
        f = Q(rng.randint(1, 3), rng.choice(dens))
        a_ub.append(tuple(f * x for x in a_ub[k]))
        b_ub.append(f * b_ub[k])
    a_eq = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 2))]
    b_eq = [entry() for _ in a_eq]
    if rng.random() < 0.5:  # x_j <= u_j and -sum(x) <= u bound the LP
        for j in range(n):
            a_ub.append(tuple(Q(int(i == j)) for i in range(n)))
            b_ub.append(Q(rng.randint(0, 3)))
        a_ub.append((Q(-1),) * n)
        b_ub.append(Q(rng.randint(0, 3)))
    cost = tuple(entry() for _ in range(n))
    return cost, tuple(a_ub), tuple(b_ub), tuple(a_eq), tuple(b_eq)


def _as_ints(data):
    """The same LP with int entries, or None if some entry is not integral."""
    cost, a_ub, b_ub, a_eq, b_eq = data
    if any(x.denominator != 1 for x in [*cost, *b_ub, *b_eq, *sum(a_ub + a_eq, ())]):
        return None

    def ints(v):
        return tuple(int(x) for x in v)

    return ints(cost), tuple(map(ints, a_ub)), ints(b_ub), tuple(map(ints, a_eq)), ints(b_eq)


def _folded(data):
    """The kernel's arguments for `data`: each equality r . x == b becomes
    the rows (r, b) and (-r, -b), after the inequality rows and in order,
    as the kernel appended them when it took equalities itself."""
    cost, a_ub, b_ub, a_eq, b_eq = data
    a_pairs = tuple(tuple(s * x for x in r) for r in a_eq for s in (1, -1))
    b_pairs = tuple(s * b for b in b_eq for s in (1, -1))
    return cost, a_ub + a_pairs, b_ub + b_pairs


@pytest.fixture
def lp_pivots(monkeypatch):
    """The (r, c) arguments of every bareiss_pivot called through `lp`.
    lp_min keeps its tableau by columns, so each is its (column, row);
    row_major_lp_min records (row, column)."""
    pivots = []

    def counted(*args):
        pivots.append(args[1:3])
        return bareiss_pivot(*args)

    monkeypatch.setattr(lp, "bareiss_pivot", counted)
    return pivots


def _matches_reference(cost, a_ub, b_ub, want, want_pivots, lp_pivots):
    """lp_min against the reference's `want`.  Where every rhs is >= 0,
    pivot for pivot: the same (status, x, value) after as many pivots as
    the reference made (`want_pivots`; `lp_pivots` counts lp_min's), and
    True.  Elsewhere lp_min refuses the LP, and general_lp_min, by two
    one-phase LPs, finds the reference's status and optimum at a feasible
    point (not always the reference's vertex, where the optimal face is
    not one)."""
    if all(b >= 0 for b in b_ub):
        lp_pivots.clear()
        got = lp_min(cost, a_ub, b_ub)
        assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
        assert len(lp_pivots) == want_pivots
        return True
    with pytest.raises(ValidationError):
        lp_min(cost, a_ub, b_ub)
    got = general_lp_min(cost, a_ub, b_ub)
    assert (got.status, got.value) == (want.status, want.value)
    if got.status is LpStatus.OPTIMAL:
        assert all(dot(r, got.x) <= b for r, b in zip(a_ub, b_ub))
    return False


def test_integer_tableau_matches_fraction_reference(lp_pivots):
    rng = random.Random(20261018)
    statuses = {s: 0 for s in (*LpStatus, INFEASIBLE)}
    int_runs = exact_runs = 0
    for _ in range(2000):
        data = _random_lp(rng)
        pivots = []
        want = reference_lp_min(*data, pivots=pivots)
        exact_runs += _matches_reference(*_folded(data), want, len(pivots), lp_pivots)
        statuses[want.status] += 1
        ints = _as_ints(data)
        if ints is not None:
            _matches_reference(*_folded(ints), want, len(pivots), lp_pivots)
            int_runs += 1
    assert min(statuses.values()) >= 200, statuses
    assert int_runs >= 200 and exact_runs >= 200


def reference_lex_min(costs, a_ub, b_ub, solve=general_lp_min):
    """Lexicographic minimum by one LP per cost (`solve`), each stage's
    optimum pinned as two inequality rows for the next: (status, x)."""
    a_ub, b_ub = list(a_ub), list(b_ub)
    for c in costs:
        res = solve(c, tuple(a_ub), tuple(b_ub))
        if res.status is not LpStatus.OPTIMAL:
            return res.status, None
        v = dot(c, res.x)
        a_ub += [c, tuple(-a for a in c)]
        b_ub += [v, -v]
    return LpStatus.OPTIMAL, res.x


def _random_lex_lp(rng):
    """A small LP and 1-3 costs: zero and proportional costs, tied and
    degenerate rows, row-free and infeasible LPs, and boxes on a subset
    of the coordinates, so a later cost may be unbounded on a bounded
    first face."""
    n = rng.randint(1, 4)

    def entry():
        return Q(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    a_ub, b_ub = [], []
    if rng.random() >= 0.08:
        for _ in range(rng.randint(1, 6)):
            a_ub.append(tuple(entry() for _ in range(n)))
            b_ub.append(Q(0) if rng.random() < 0.3 else entry() + 1)  # rhs 0: degenerate
        if rng.random() < 0.3:  # a scaled copy: ratio-test ties
            k = rng.randrange(len(a_ub))
            f = Q(rng.randint(1, 3), rng.choice((1, 2)))
            a_ub.append(tuple(f * a for a in a_ub[k]))
            b_ub.append(f * b_ub[k])
        boxed = [j for j in range(n) if rng.random() < 0.7]
        for j in boxed:
            for s in (1, -1):
                a_ub.append(tuple(Q(s * (i == j)) for i in range(n)))
                b_ub.append(Q(rng.randint(0, 2)))
    else:
        boxed = []
    costs = []
    for _ in range(rng.randint(1, 3)):
        u = rng.random()
        if u < 0.15:
            costs.append((Q(0),) * n)
        elif u < 0.3 and costs:
            f = Q(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            costs.append(tuple(f * a for a in rng.choice(costs)))
        elif u < 0.6 and boxed:  # bounded along the box
            costs.append(tuple(entry() if i in boxed else Q(0) for i in range(n)))
        else:
            costs.append(tuple(entry() for _ in range(n)))
    return costs, tuple(a_ub), tuple(b_ub)


def test_lexicographic_costs_match_sequential_pinned_reference():
    rng = random.Random(9)
    statuses = {s: 0 for s in (*LpStatus, INFEASIBLE)}
    cases = {"moved": 0, "spanning": 0, "row_free": 0, "later_unbounded": 0}
    for _ in range(1200):
        costs, a_ub, b_ub = _random_lex_lp(rng)
        want_status, want_x = reference_lex_min(costs, a_ub, b_ub)
        got = general_lp_min(costs[0], a_ub, b_ub, costs[1:])
        data = (costs, a_ub, b_ub)
        assert got.status is want_status, data
        statuses[want_status] += 1
        cases["row_free"] += not a_ub
        first = general_lp_min(costs[0], a_ub, b_ub)
        if want_status is LpStatus.UNBOUNDED and first.status is LpStatus.OPTIMAL:
            cases["later_unbounded"] += 1
        if want_status is not LpStatus.OPTIMAL:
            assert got.x is None and got.value is None
            continue
        assert got.value == dot(costs[0], got.x)
        assert [dot(c, got.x) for c in costs] == [dot(c, want_x) for c in costs], data
        assert all(dot(r, got.x) <= b for r, b in zip(a_ub, b_ub)), data
        if rank(costs) == len(costs[0]):
            assert got.x == want_x, data
            cases["spanning"] += 1
        cases["moved"] += got.x != first.x
    assert min(statuses.values()) >= 100, statuses
    assert min(cases.values()) >= 30, cases


def _large(rng):
    """A rational with a 10-13 digit numerator and an 11 digit denominator."""
    return Q(rng.randint(-10**12, 10**12), rng.randint(10**10, 10**11))


def _pairs(rows, rhs, *last):
    """Rows (row, *last) and (-row, *last) with rhs b and -b: |row . x - b|."""
    a_ub = tuple((*(s * x for x in row), *last) for row in rows for s in (1, -1))
    return a_ub, tuple(s * b for b in rhs for s in (1, -1))


def test_integer_tableau_matches_fraction_reference_at_the_caps(lp_pivots):
    # Large entries up to 64 minimax rows: the Bareiss minors reach
    # hundreds of digits, so a division that were not exact would floor
    # silently and move the optimum.  The draw stops at 64 rows, below the
    # cell-pair cap on minimax rows, because the Fraction reference takes
    # seconds at 64 rows and minutes at 256; test_duals_certify_the_optimum
    # runs the integer kernel alone at the cap.  Minimax LPs (min t subject to
    # |row . x - b| <= t) have a negative rhs in every pair, so the
    # reference runs phase 1 and general_lp_min its auxiliary LP; posed
    # as solve_minimax_lp poses them, at t = top + t', every rhs is >= 0
    # and lp_min makes the reference's pivots.  Lex LPs (|row . x - b| <=
    # slack, spanning costs) also take `then` costs, against the stages
    # pinned one by one on the reference.
    rng = random.Random(6401)
    for p, m in ((64, 1), (16, 3), (12, 2), (8, 3), (6, 2), (4, 1)):
        rows = [tuple(_large(rng) for _ in range(m)) for _ in range(p)]
        rhs = [_large(rng) for _ in range(p)]
        cost = (Q(0),) * m + (Q(1),)
        a_ub, b_ub = _pairs(rows, rhs, Q(-1))
        want = reference_lp_min(cost, a_ub, b_ub)
        got = general_lp_min(cost, a_ub, b_ub)
        assert (got.status, got.x, got.value) == (want.status, want.x, want.value), (p, m)
        assert solve_minimax_lp(rows, rhs) == (want.value, want.x[:m])
        top = max(map(abs, rhs))
        shifted = tuple(top + b for b in b_ub)
        pivots = []
        ref = reference_lp_min(cost, a_ub, shifted, pivots=pivots)
        lp_pivots.clear()
        got = lp_min(cost, a_ub, shifted)
        assert (got.status, got.x, got.value) == (ref.status, ref.x, ref.value), (p, m)
        assert len(lp_pivots) == len(pivots) > 0, (p, m)
        assert top + got.value == want.value
        if p > 16:
            continue
        a_ub, b_ub = _pairs(rows, rhs)
        # Between delta0 and the largest |b|: full-dimensional, and the
        # rhs slack - |b| of some row is negative.
        slack = (want.value + max(map(abs, rhs))) / 2
        b_ub = tuple(b + slack for b in b_ub)
        costs = [tuple(_large(rng) for _ in range(m)) for _ in range(m)]
        assert rank(costs) == m
        assert any(b < 0 for b in b_ub)
        got = general_lp_min(costs[0], a_ub, b_ub, costs[1:])
        assert got.status is LpStatus.OPTIMAL
        assert got.x == reference_lex_min(costs, a_ub, b_ub, solve=reference_lp_min)[1], (p, m)


def test_lp_min_refuses_a_negative_rhs_before_any_pivot(lp_pivots):
    assert lp_min((1,), ((-1,), (1,)), (2, 3)).value == -2
    assert lp_pivots
    lp_pivots.clear()
    for b_ub in ((-2, 3), (2, Q(-1, 3)), (-1, -1)):
        with pytest.raises(ValidationError, match="b_ub >= 0"):
            lp_min((1,), ((-1,), (1,)), b_ub, [(-1,)])
    assert lp_pivots == []


def _face_is_a_point(rows, rhs, t_star, alpha):
    """True iff alpha is the only x with |row . x - b| <= t_star: every
    coordinate of y = x - alpha has min and max 0 on the face, posed at
    y = 0 (every rhs >= 0 as alpha attains t_star)."""
    a_ub, b_ub = [], []
    for row, b in zip(rows, rhs):
        gap = b - dot(row, alpha)
        a_ub += [row, tuple(-x for x in row)]
        b_ub += [t_star + gap, t_star - gap]
    m = len(alpha)
    for j in range(m):
        for s in (1, -1):
            res = lp_min(tuple(s * (i == j) for i in range(m)), tuple(a_ub), tuple(b_ub))
            if res.status is not LpStatus.OPTIMAL or res.value != 0:
                return False
    return True


def test_minimax_matches_two_phase_reference_on_the_unshifted_lp():
    # solve_minimax_lp starts at t = max|rhs|; the reference solves
    # min t subject to |row . x - b| <= t as posed, by phase 1 from
    # artificials.  delta0 is unique, so it agrees; the optimizers agree
    # wherever the optimal face is one point.  A zero column or fewer
    # rows than columns makes a face that is not one.  The reference
    # takes about 2 s at 33 rows and 10 s at 64, so the draws stop at 33
    # rows; 64 rows is the first case of the test at the caps above.
    rng = random.Random(6464)
    faces = {"point": 0, "not_a_point": 0}
    for p in [rng.choice((1, 2, 3, 5, 9, 17)) for _ in range(30)] + [33]:
        m = rng.randint(1, 3)
        rows = [[_large(rng) for _ in range(m)] for _ in range(p)]
        if m > 1 and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in rows:
                row[j] = Q(0)
        rows = [tuple(row) for row in rows]
        rhs = [_large(rng) for _ in range(p)]
        a_ub, b_ub = _pairs(rows, rhs, Q(-1))
        want = reference_lp_min((Q(0),) * m + (Q(1),), a_ub, b_ub)
        t_star, alpha = solve_minimax_lp(rows, rhs)
        assert t_star == want.value, (p, m)
        assert max(abs(b - dot(row, alpha)) for row, b in zip(rows, rhs)) == t_star
        if _face_is_a_point(rows, rhs, t_star, want.x[:m]):
            assert alpha == want.x[:m], (p, m)
            faces["point"] += 1
        else:
            faces["not_a_point"] += 1
    assert min(faces.values()) >= 8, faces


def _check_duals(cost, a_ub, b_ub, res):
    """res.duals prove res.value optimal, exactly: y >= 0, y_i = 0 on a
    row with slack at res.x, and for one d > 0, sum y_i a_i = -d cost and
    sum y_i b_i = -d value.  True if some row is tight at res.x with a
    zero dual (a degenerate vertex)."""
    y = res.duals
    assert len(y) == len(a_ub) and all(type(v) is int and v >= 0 for v in y)
    gaps = [b - dot(r, res.x) for r, b in zip(a_ub, b_ub)]
    assert all(v == 0 for v, gap in zip(y, gaps) if gap > 0)
    combo = [sum(v * r[j] for v, r in zip(y, a_ub)) for j in range(len(cost))]
    lead = next((j for j, c in enumerate(cost) if c), None)
    d = Q(0) if lead is None else -Q(combo[lead]) / cost[lead]
    assert lead is None or d > 0
    assert combo == [-d * c for c in cost]
    assert sum(v * b for v, b in zip(y, b_ub)) == -d * res.value
    return any(v == 0 and gap == 0 for v, gap in zip(y, gaps))


def test_duals_certify_the_optimum():
    # The draws of the Fraction-reference tests above: the 2000 small LPs
    # (ratio-test ties and, as ints, the same LPs) and the LPs at the caps,
    # 64 minimax rows among them, then one minimax LP of MAX_CELL_PAIRS
    # rows, the kernel's cap.  The duals are read in the rows as given,
    # each row's lcm scaling undone by lp_min.
    rng = random.Random(20261018)
    optimal = degenerate = 0
    for _ in range(2000):
        data = _random_lp(rng)
        ints = _as_ints(data)
        for cost, a_ub, b_ub in [_folded(data)] + ([_folded(ints)] if ints else []):
            if any(b < 0 for b in b_ub):
                continue
            res = lp_min(cost, a_ub, b_ub)
            if res.status is LpStatus.OPTIMAL:
                optimal += 1
                degenerate += _check_duals(cost, a_ub, b_ub, res)
    assert optimal >= 200 and degenerate >= 50, (optimal, degenerate)
    rng = random.Random(6401)
    for p, m in ((64, 1), (16, 3), (12, 2), (8, 3), (6, 2), (4, 1), (MAX_CELL_PAIRS, 3)):
        rows = [tuple(_large(rng) for _ in range(m)) for _ in range(p)]
        rhs = [_large(rng) for _ in range(p)]
        cost = (Q(0),) * m + (Q(1),)
        a_ub, b_ub = _pairs(rows, rhs, Q(-1))
        top = max(map(abs, rhs))
        shifted = tuple(top + b for b in b_ub)
        _check_duals(cost, a_ub, shifted, lp_min(cost, a_ub, shifted))
        # The minimax multipliers: sum lam_p rows_p = 0 and, as t_star is
        # attained, -sum lam_p rhs_p = t_star * sum |lam_p| exactly.
        t_star, alpha, lam = solve_minimax_lp(rows, rhs, multipliers=True)
        assert (t_star, alpha) == solve_minimax_lp(rows, rhs)
        assert all(sum(x * row[j] for x, row in zip(lam, rows)) == 0 for j in range(m))
        assert -sum(map(operator.mul, lam, rhs)) == t_star * sum(map(abs, lam)) > 0
        if p <= 16:  # the draws of the lex stage, kept in step
            [_large(rng) for _ in range(m * m)]
    assert lp_min((1, 1), ((1, 0), (0, 1)), (1, 1), [(1, 0)]).duals is None


# The row-major lp_min that the column-major tableau replaced, copied as
# it stood, as a reference and no code path: only its name, its pivot
# looked up as `lp.bareiss_pivot`, so that `lp_pivots` records its
# pivots, differ.  It reads no entry that bareiss_pivot leaves in the
# pivot column, as it overwrites that column after each pivot.
def row_major_lp_min(cost, a_ub, b_ub, then=()) -> LpResult:
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
            den = lp.bareiss_pivot(tableau, leave, enter, den)
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


def _margin_lps(rng):
    """Each cell's margin LP over random arrangements in R^2 and R^3,
    posed row by row from the normals and checked against the witness
    that margin_witness reads off the cached rows."""
    for _ in range(40):
        m = rng.choice((2, 3))
        normals = {}
        for _ in range(rng.randint(1, 7)):
            v = tuple(primitive_ints([rng.randint(-4, 4) for _ in range(m)]))
            if any(v):
                normals[max(v, tuple(-x for x in v))] = None
        r = len(normals)
        arr = Arrangement(tuple(normals), tuple(range(r)), (1,) * r, m)
        for cell in enumerate_cells(arr):
            a_ub = [(*(-s * x for x in nu), 1) for s, nu in zip(cell.signs, arr.normals)]
            a_ub += [tuple(s * (i == j) for i in range(m + 1)) for j in range(m) for s in (1, -1)]

            def check(got, arr=arr, cell=cell):
                return margin_witness(arr, cell) == got.x[:arr.m]

            yield ((0,) * m + (-1,), tuple(a_ub), (0,) * r + (1,) * (2 * m)), check


def _minimax_lps(rng):
    """Minimax LPs on int rows, posed at t = top + t' as solve_minimax_lp
    poses them, a zero column now and then, checked against its
    multipliers."""
    for _ in range(150):
        p, m = rng.randint(1, 12), rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(p)]
        if m > 1 and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in rows:
                row[j] = 0
        rows = tuple(map(tuple, rows))
        rhs = tuple(rng.randint(-6, 6) for _ in range(p))
        a_ub, b_ub = _pairs(rows, rhs, -1)
        top = max(map(abs, rhs))

        def check(got, rows=rows, rhs=rhs, top=top, m=m):
            y = got.duals
            lam = tuple(q - p for q, p in zip(y[::2], y[1::2]))
            return solve_minimax_lp(rows, rhs, multipliers=True) == (top + got.value, got.x[:m], lam)

        yield ((0,) * m + (1,), a_ub, tuple(top + b for b in b_ub)), check


def _lex_lps(rng):
    """Lex LPs with `then` costs, half of them scaled to int rows and
    costs; each negative rhs is flipped so that the origin is feasible."""
    for _ in range(400):
        costs, a_ub, b_ub = _random_lex_lp(rng)
        b_ub = tuple(map(abs, b_ub))
        if rng.random() < 0.5:
            rows = [primitive_ints((*r, b)) for r, b in zip(a_ub, b_ub)]
            a_ub, b_ub = tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows)
            costs = [tuple(primitive_ints(c)) for c in costs]
        yield (costs[0], a_ub, b_ub, tuple(costs[1:])), None


def _fraction_lps(rng):
    """The small rational LPs of the Fraction-reference test, each
    negative rhs flipped, a third of them with one row of ints among the
    Fraction rows."""
    for _ in range(400):
        cost, a_ub, b_ub = _folded(_random_lp(rng))
        if a_ub and rng.random() < 0.3:
            a_ub = (tuple(map(int, a_ub[0])), *a_ub[1:])
        yield (cost, a_ub, tuple(map(abs, b_ub))), None


def _row_free_lps(rng):
    """LPs with no rows, optimal at 0 under zero costs, else unbounded."""
    for _ in range(100):
        n = rng.randint(1, 4)
        costs = [tuple(rng.choice((0, 1, -2, Q(1, 3))) if rng.random() < 0.4 else 0
                       for _ in range(n)) for _ in range(rng.randint(1, 3))]
        yield (costs[0], (), (), tuple(costs[1:])), None


@pytest.mark.parametrize(
    "draw, unbounded",
    [(_margin_lps, False), (_minimax_lps, False), (_lex_lps, True),
     (_fraction_lps, True), (_row_free_lps, True)],
    ids=["margin", "minimax", "lex", "fraction", "row_free"],
)
def test_column_major_tableau_pivots_as_the_row_major_one(lp_pivots, draw, unbounded):
    # Every LP shape the program poses, and those of library callers:
    # the same pivots, in (column, row) against the reference's (row,
    # column), and an equal LpResult (status, x, value, duals).
    rng = random.Random(2029)
    statuses = {s: 0 for s in LpStatus}
    for args, check in draw(rng):
        lp_pivots.clear()
        want = row_major_lp_min(*args)
        want_pivots = [p[::-1] for p in lp_pivots]
        lp_pivots.clear()
        got = lp_min(*args)
        assert (got, lp_pivots) == (want, want_pivots), args
        assert check is None or check(got), args
        statuses[got.status] += 1
    assert statuses[LpStatus.OPTIMAL] >= 20, statuses
    assert (statuses[LpStatus.UNBOUNDED] >= 5) is unbounded, statuses


@pytest.mark.parametrize(
    "solve, args",
    [
        (lp_max, ((1,), ((1, 5),), (3,))),
        (solve_minimax_lp, (((1,), (3, 4)), (1, 1))),
        (solve_minimax_lp, (((1, 2), (3,)), (1, 1))),
        (lp_min, ((1,), ((1,), (-1,)), (1,))),
        (lp_min, ((1, 0), ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 1, 1), [(0, -1, 7)])),
        (lp_min, ((1, 0), ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 1, 1), [(1,)])),
    ],
    ids=["long_row", "minimax_long_row", "minimax_short_row", "rhs_short",
         "then_long", "then_short"],
)
def test_malformed_lp_input_is_refused_before_any_pivot(lp_pivots, solve, args):
    with pytest.raises(ValidationError, match="len"):
        solve(*args)
    assert lp_pivots == []


def _criterion_5_stream(count):
    """The first `count` (basis, target) pairs of criterion 5's seeded
    stream, drawn as tests/test_acceptance.py draws them."""
    rng = random.Random(505)
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        yield basis, random_vector(rng, n)


# Pivots are the LP kernel's work count: a change to the kernel's
# per-call work keeps each total, and one that moves a total changes
# which vertices the simplex visits.  Each "lex" search counts its
# minimax stage too.
LP_PIVOT_PINS = {"margin": 122, "criterion_5": 674, "lex": 31}


def test_lp_pivot_totals_are_pinned(lp_pivots):
    totals = {}
    # Every cell witness of every sample problem (norming-set's margin LPs).
    for path in sorted(PROBLEMS.glob("*.json")):
        pb = prepare(load_problem(str(path)).basis)
        for cell in pb.cells:
            margin_witness(pb.arrangement, cell)
    totals["margin"] = len(lp_pivots)
    # Criterion 5's first 500 instances: the solve, the threshold on a
    # zero-set basis and the grid on not-exists (its certificate LPs).
    lp_pivots.clear()
    for basis, b in _criterion_5_stream(500):
        pb = prepare(basis)
        out = solve_general(basis, None, b, prepared=pb)
        if pb.profile.zero_set:
            existence_threshold(basis, None, b, prepared=pb)
        if out.kind is OutcomeKind.NOT_EXISTS:
            brute_force_existence(basis, b, Q(5), Q(1, 2))
    totals["criterion_5"] = len(lp_pivots)
    # Both lex searches of each fiber whose optimal face is not one point;
    # each is the minimax LP again, then its `then` costs.
    lex_pivots = 0
    for rows, b in FACE_POLYTOPES:
        fiber = prepare(validate_basis(mat(rows))).fiber(b)
        lp_pivots.clear()
        assert fiber.lex(+1) != fiber.lex(-1)
        lex_pivots += len(lp_pivots)
    totals["lex"] = lex_pivots
    assert totals == LP_PIVOT_PINS

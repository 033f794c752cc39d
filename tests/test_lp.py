import random
from fractions import Fraction as Q

from scipy.optimize import linprog

from coapprox.lp import LpResult, LpStatus, lp_max, lp_min


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
    res = lp_min((Q(1),), ((Q(1),), (Q(-1),)), (Q(-1), Q(-1)))
    assert res.status is LpStatus.INFEASIBLE


def test_unbounded():
    res = lp_min((Q(1),), ((Q(1),),), (Q(0),))
    assert res.status is LpStatus.UNBOUNDED


def test_equality_constraints():
    res = lp_min(
        (Q(1), Q(0)),
        ((Q(-1), Q(0)),),
        (Q(5),),
        a_eq=((Q(1), Q(1)),),
        b_eq=(Q(3),),
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -5
    assert res.x[0] + res.x[1] == 3


def test_degenerate_negative_rhs():
    # x >= 2 and x >= 1 expressed as -x <= -2, -x <= -1; minimize x.
    res = lp_min((Q(1),), ((Q(-1),), (Q(-1),)), (Q(-2), Q(-1)))
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
        res = lp_min(cost, tuple(a_ub), tuple(b_ub))
        ref = linprog(
            [float(c) for c in cost],
            A_ub=[[float(x) for x in row] for row in a_ub],
            b_ub=[float(b) for b in b_ub],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if res.status is LpStatus.INFEASIBLE:
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


def reference_lp_min(cost, a_ub, b_ub, a_eq=(), b_eq=()):
    """The Fraction-tableau two-phase simplex (Bland's rule) that the
    integer tableau replaced, kept verbatim as the reference: same
    pivots, so the same (status, x, value) on every input."""
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


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(20261018)
    statuses = {s: 0 for s in LpStatus}
    int_runs = 0
    for _ in range(2000):
        data = _random_lp(rng)
        want = reference_lp_min(*data)
        got = lp_min(*data)
        assert (got.status, got.x, got.value) == (want.status, want.x, want.value), data
        statuses[want.status] += 1
        ints = _as_ints(data)
        if ints is not None:
            got = lp_min(*ints)
            assert (got.status, got.x, got.value) == (want.status, want.x, want.value), ints
            int_runs += 1
    assert min(statuses.values()) >= 200, statuses
    assert int_runs >= 200

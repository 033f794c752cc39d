import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from coapprox import (
    CapacityError,
    DimensionError,
    EmptyZeroSetError,
    NoCoapproximationError,
    OutcomeKind,
    SystemStatus,
    build_profile,
    existence_threshold,
    l1_norm,
    mat,
    prepare,
    projection_map,
    solve_empty_zero_set,
    solve_general,
    solve_linear,
    validate_basis,
    vec,
)
from coapprox import solver
from coapprox.exact import is_zero, rank, vec_sub
from coapprox.instances import random_basis, random_invertible, random_vector, recombine
from coapprox.lp import LpStatus, lp_min, solve_minimax_lp
from coapprox.solver import PolytopeConstraints, lex_extreme_alpha
from tests.conftest import column_basis

B1 = vec((1, 2, 3, 4, 5, 6))
B2 = vec((5, 4, 0, 0, 1, 5))


class TestEmptyZeroSet:
    def test_assembled_system(self, span3_l16):
        pb = prepare(span3_l16)
        assert pb.system_rows == (
            (Q(14), Q(14), Q(17)),
            (Q(16), Q(10), Q(15)),
            (Q(14), Q(0), Q(11)),
            (Q(2), Q(-18), Q(-13)),
        )
        assert pb.system_rhs(B1) == (Q(11), Q(3), Q(-3), Q(-19))
        assert pb.system_rhs(B2) == (Q(13), Q(13), Q(13), Q(-5))

    def test_unique_solution(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_empty_zero_set(pb, B2)
        assert out.kind is OutcomeKind.UNIQUE
        assert out.coefficients == (Q(1, 7), Q(-3, 7), Q(1))
        assert out.vector == vec((2, 3, 0, 0, -2, 6))

    def test_not_exists(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_empty_zero_set(pb, B1)
        assert out.kind is OutcomeKind.NOT_EXISTS

    def test_subspace_member(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_empty_zero_set(pb, span3_l16.columns[0])
        assert out.kind is OutcomeKind.UNIQUE
        assert out.coefficients == (Q(1), Q(0), Q(0))

    def test_rejects_zero_rows(self, pair_l17_coproximinal):
        pb = prepare(pair_l17_coproximinal)
        with pytest.raises(DimensionError):
            solve_empty_zero_set(pb, vec([1] * 7))

    def test_class_sum_rows_match_assembled_system(self):
        # The class-sum solve against the paper's assembled norming system
        # as reference: same status and same solution.  Targets per
        # basis: random, in the subspace, and off it by a vector whose
        # signed class sums vanish (unique whenever a class has two rows).
        rng = random.Random(1085)
        statuses = Counter()
        for _ in range(260):
            n = rng.randint(1, 8)
            m = rng.randint(1, min(4, n))
            basis = random_basis(rng, n, m, lo=-2, hi=2)
            pb = prepare(basis)
            member = basis.combine(random_vector(rng, m))
            off = list(member)
            for cls in pb.profile.classes:
                if len(cls.members) > 1:
                    (i, ci), (j, cj) = cls.members[:2]
                    t = Q(rng.randint(1, 5))
                    off[i] += t if ci > 0 else -t
                    off[j] -= t if cj > 0 else -t
            targets = (random_vector(rng, n), random_vector(rng, n), member, tuple(off))
            for b in targets:
                ref = solve_linear(pb.system_rows, pb.system_rhs(b))
                out = solve_empty_zero_set(pb, b)
                statuses[ref.status] += 1
                if ref.status is SystemStatus.UNIQUE:
                    assert out.kind is OutcomeKind.UNIQUE
                    assert out.coefficients == ref.solution
                else:
                    assert ref.status is SystemStatus.NO_SOLUTION
                    assert out.kind is OutcomeKind.NOT_EXISTS
        assert sum(statuses.values()) >= 1000
        assert statuses[SystemStatus.UNIQUE] >= 200
        assert statuses[SystemStatus.NO_SOLUTION] >= 200

    def test_keeps_the_cell_enumeration_caps(self):
        # 21 lines in the plane exceed MAX_HYPERPLANES: the class-sum solve
        # enumerates nothing but applies the same caps as enumeration.
        basis = validate_basis(mat([(1, k) for k in range(21)]))
        with pytest.raises(CapacityError, match="21"):
            solve_general(basis, None, (Q(1),) + (Q(0),) * 20)

    def test_class_sum_rows(self, span3_l16):
        # Class c's row is (sum of |constants|) times its representative's
        # row: coordinates 1 and 5 form a class with constants 1 and -1,
        # coordinates 2 and 6 one with constants 1 and 2.
        pb = prepare(span3_l16)
        assert pb.class_rows == ((8, -2, 2), (6, 9, 12), (1, 5, 2), (-1, 2, 1))
        assert pb.class_rhs(B1) == (Q(-4), Q(8), Q(3), Q(4))


class TestSolveGeneral:
    def test_delegates_when_zero_set_empty(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 6)
            m = rng.randint(1, min(3, n - 1))
            basis = random_basis(rng, n, m)
            pb = prepare(basis)
            b = random_vector(rng, n)
            direct = solve_empty_zero_set(pb, b)
            general = solve_general(basis, pb.profile, b, prepared=pb)
            assert direct == general

    def test_line_polytope(self):
        basis = column_basis((1, 0))
        out = solve_general(basis, None, vec((3, 1)))
        assert out.kind is OutcomeKind.POLYTOPE
        assert out.constraints.rows == ((Q(1),),)
        assert out.constraints.rhs == (Q(3),)
        assert out.constraints.slack == 1
        assert out.witness == (Q(3),)
        # Feasible set is alpha in [2, 4], exactly.
        assert out.constraints.satisfied_by((Q(2),))
        assert out.constraints.satisfied_by((Q(4),))
        assert not out.constraints.satisfied_by((Q(2) - Q(1, 100),))

    def test_zero_reduced_target_polytope(self):
        basis = column_basis((1, 1, 0))
        b = vec((0, 0, 5))
        out = solve_general(basis, None, b)
        assert out.kind is OutcomeKind.POLYTOPE
        assert out.witness == (Q(0),)
        # All alpha with ||A alpha||_1 <= ||b||_1 are feasible; others not.
        rng = random.Random(3)
        for _ in range(50):
            alpha = (Q(rng.randint(-80, 80), 16),)
            inside = 2 * abs(alpha[0]) <= 5
            assert out.constraints.satisfied_by(alpha) == inside

    def test_member_short_circuit(self, pair_l17_coproximinal):
        target = pair_l17_coproximinal.combine((Q(2), Q(-1, 3)))
        out = solve_general(pair_l17_coproximinal, None, target)
        assert out.kind is OutcomeKind.UNIQUE
        assert out.coefficients == (Q(2), Q(-1, 3))

    def test_length_mismatch(self, span3_l16):
        with pytest.raises(DimensionError):
            solve_general(span3_l16, None, vec((1, 2)))

    def test_best_coapprox_inequality(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_general(span3_l16, pb.profile, B2, prepared=pb)
        alpha = out.chosen_alpha
        rng = random.Random(9)
        for _ in range(200):
            beta = tuple(Q(rng.randint(-50, 50), 10) for _ in range(3))
            lhs = l1_norm(vec_sub(span3_l16.combine(beta), span3_l16.combine(alpha)))
            rhs = l1_norm(vec_sub(span3_l16.combine(beta), B2))
            assert lhs <= rhs

    def test_sufficiency_of_reduced_solution(self):
        rng = random.Random(44)
        found = 0
        while found < 15:
            n = rng.randint(3, 6)
            m = rng.randint(1, min(3, n - 2))
            basis = random_basis(rng, n, m, zero_rows=rng.randint(1, n - m - 1))
            profile = build_profile(basis)
            from coapprox import reduce_sigma

            reduced = reduce_sigma(basis, profile)
            b = random_vector(rng, n)
            reduced_out = solve_general(reduced.basis, None, reduced.sigma(b))
            if reduced_out.kind is not OutcomeKind.UNIQUE:
                continue
            alpha = reduced_out.coefficients
            full = solve_general(basis, profile, b)
            assert full.kind is not OutcomeKind.NOT_EXISTS
            if full.kind is OutcomeKind.UNIQUE:
                assert full.coefficients == alpha
            else:
                assert full.constraints.satisfied_by(alpha)
            found += 1


THRESHOLD_BASIS_COLUMNS = (
    (4, 2, 1, -1, -4, 4, 0),
    (-1, 3, 5, 2, 1, 6, 0),
    (1, 4, 2, 1, -1, 8, 0),
)


class TestExistenceThreshold:
    def test_zero_when_reduced_solvable(self):
        basis = column_basis((1, 1, 0))
        th = existence_threshold(basis, None, vec((0, 2, 7)))
        assert th.delta0 == 0

    def test_hand_single_representative(self):
        # Reduced norming set of span{(1,1)} is {(1,1)}; target (0,2)
        # gives min over a of |2 - 2a| = 0.
        basis = column_basis((1, 1, 0))
        th = existence_threshold(basis, None, vec((0, 2, 100)))
        assert th.delta0 == 0
        alpha = th.minimizing_alpha
        assert abs(2 - 2 * alpha[0]) == 0

    def test_requires_zero_set(self, span3_l16):
        with pytest.raises(EmptyZeroSetError):
            existence_threshold(span3_l16, None, B1)

    def test_extended_fixture_value_and_dichotomy(self):
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        pb = prepare(basis)
        b = vec((1, 2, 3, 4, 5, 6, 0))
        th = existence_threshold(basis, pb.profile, b, prepared=pb)
        # Frozen from an alpha-grid cross-check (below) plus the solver
        # dichotomy; the minimax runs over all seven norming pairs.
        assert th.delta0 == Q(41, 21)
        assert th.delta0 <= l1_norm(b)
        rows = pb.feasibility_rows
        rhs = pb.feasibility_rhs(pb.reduced.sigma(b))

        def worst(alpha):
            return max(
                abs(r - sum(row[j] * alpha[j] for j in range(3)))
                for row, r in zip(rows, rhs)
            )

        assert worst(th.minimizing_alpha) == th.delta0
        rng = random.Random(8)
        for _ in range(400):
            alpha = tuple(Q(rng.randint(-30, 30), 8) for _ in range(3))
            assert worst(alpha) >= th.delta0
        for mass, kinds in (
            (th.delta0 - Q(1, 100), {OutcomeKind.NOT_EXISTS}),
            (th.delta0, {OutcomeKind.UNIQUE, OutcomeKind.POLYTOPE}),
            (th.delta0 + Q(1, 100), {OutcomeKind.UNIQUE, OutcomeKind.POLYTOPE}),
        ):
            y = b[:6] + (mass,)
            out = solve_general(basis, pb.profile, y, prepared=pb)
            assert out.kind in kinds

    @pytest.mark.parametrize("offset, kind, lex_searches", [
        (Q(-1, 100), OutcomeKind.NOT_EXISTS, 0),
        (Q(0), OutcomeKind.UNIQUE, 2),
        (Q(1, 100), OutcomeKind.POLYTOPE, 1),
    ])
    def test_lex_searches_per_target(self, monkeypatch, offset, kind, lex_searches):
        # None below delta0; at delta0 one each way tells a point from a
        # polytope; above it the polytope is full-dimensional, and only
        # the witness is searched for.
        calls = []
        monkeypatch.setattr(solver, "lex_extreme_alpha",
                            lambda *args: calls.append(args) or lex_extreme_alpha(*args))
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        out = solve_general(basis, None, vec((1, 2, 3, 4, 5, 6)) + (Q(41, 21) + offset,))
        assert (out.kind, len(calls)) == (kind, lex_searches)


class TestProjection:
    def test_worked_fixture(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_general(span3_l16, pb.profile, B2, prepared=pb)
        proj = projection_map(span3_l16, B2, out)
        assert proj.image_of_target == vec((2, 3, 0, 0, -2, 6))
        # P fixes the subspace (gamma = 0).
        coeffs = (Q(3), Q(-2), Q(1, 2))
        assert proj.apply(coeffs, Q(0)) == span3_l16.combine(coeffs)
        # P(b2) itself.
        assert proj.apply((Q(0), Q(0), Q(0)), Q(1)) == vec((2, 3, 0, 0, -2, 6))

    def test_member_projection_is_identity(self, span3_l16):
        b = span3_l16.combine((Q(1), Q(1), Q(1)))
        out = solve_general(span3_l16, None, b)
        proj = projection_map(span3_l16, b, out)
        rng = random.Random(2)
        for _ in range(20):
            coeffs = tuple(Q(rng.randint(-5, 5)) for _ in range(3))
            gamma = Q(rng.randint(-3, 3))
            assert proj.apply(coeffs, gamma) == proj.input_vector(coeffs, gamma)

    def test_not_exists_raises(self, span3_l16):
        out = solve_general(span3_l16, None, B1)
        with pytest.raises(NoCoapproximationError):
            projection_map(span3_l16, B1, out)

    def test_norm_one_property(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_general(span3_l16, pb.profile, B2, prepared=pb)
        proj = projection_map(span3_l16, B2, out)
        rng = random.Random(21)
        for _ in range(200):
            coeffs = tuple(Q(rng.randint(-40, 40), 8) for _ in range(3))
            gamma = Q(rng.randint(-40, 40), 8)
            image = proj.apply(coeffs, gamma)
            original = proj.input_vector(coeffs, gamma)
            assert l1_norm(image) <= l1_norm(original)


def test_lex_extreme_points_bound_the_polytope():
    basis = column_basis((1, 0))
    out = solve_general(basis, None, vec((3, 1)))
    lo = lex_extreme_alpha(basis, out.constraints, +1)
    hi = lex_extreme_alpha(basis, out.constraints, -1)
    assert (lo, hi) == ((Q(2),), (Q(4),))


def test_membership_solver_consistency(span3_l16):
    res = solve_linear(span3_l16.matrix, B2)
    assert res.status is SystemStatus.NO_SOLUTION


def _reference_lex_extreme_alpha(basis, constraints, direction):
    """The lex search before pinned rows came from one elimination: a
    rank test per row of A, then a closing solve on the pinned rows."""
    a_ub, b_ub = [], []
    for row, rv in zip(constraints.rows, constraints.rhs):
        a_ub += [row, tuple(-x for x in row)]
        b_ub += [rv + constraints.slack, constraints.slack - rv]
    pinned, values = [], []
    for arow in basis.matrix:
        if is_zero(arow) or rank(pinned + [arow]) == len(pinned):
            continue
        cost = tuple(Q(direction) * x for x in arow)
        # Each pinned row r . alpha == v as the pair r . alpha <= v, -r . alpha <= -v.
        pin_a = [tuple(s * x for x in r) for r in pinned for s in (1, -1)]
        pin_b = [s * v for v in values for s in (1, -1)]
        res = lp_min(cost, tuple(a_ub + pin_a), tuple(b_ub + pin_b))
        assert res.status is LpStatus.OPTIMAL
        pinned.append(arow)
        values.append(sum((ar * x for ar, x in zip(arow, res.x)), Q(0)))
        if len(pinned) == basis.m:
            break
    res = solve_linear(tuple(pinned), tuple(values))
    assert res.status is SystemStatus.UNIQUE
    return res.solution


def _reference_solve(pb, b):
    """The zero-set solve before it read delta0: lex-smallest and
    lex-largest points at the slack, and a third lex search for the
    witness on the optimal face.  Returns the outcome's fields."""
    basis = pb.basis
    membership = solve_linear(basis.matrix, b)
    if membership.status is SystemStatus.UNIQUE:
        alpha = membership.solution
        return ("unique", alpha, None, basis.combine(alpha), None)
    slack = sum((abs(b[i]) for i in pb.profile.zero_set), Q(0))
    rows = pb.feasibility_rows
    rhs = pb.feasibility_rhs(pb.reduced.sigma(b))
    t_star, _ = solve_minimax_lp(rows, rhs)
    if t_star > slack:
        return ("not-exists", None, None, None, None)
    constraints = PolytopeConstraints(rows=rows, rhs=rhs, slack=slack)
    lo = _reference_lex_extreme_alpha(basis, constraints, +1)
    hi = _reference_lex_extreme_alpha(basis, constraints, -1)
    if lo == hi:
        return ("unique", lo, None, basis.combine(lo), None)
    tight = PolytopeConstraints(rows=rows, rhs=rhs, slack=t_star)
    witness = _reference_lex_extreme_alpha(basis, tight, +1)
    return ("polytope", None, witness, basis.combine(witness), (rows, rhs, slack))


def _fields(out):
    # Fields, not outcomes: dataclass == is false across module copies.
    c = out.constraints
    return (out.kind.value, out.coefficients, out.witness, out.vector,
            None if c is None else (c.rows, c.rhs, c.slack))


# Zero-set instances (basis rows, target) whose optimal face at slack =
# delta0 is a polytope.  Random draws rarely give one (about 1 in 200
# with entries in [-1, 1]), so transformed copies of these seed the case.
FACE_POLYTOPES = (
    (((1, -1, 0), (0, -1, 0), (0, 0, 0), (0, 1, -1), (-1, -1, -1)),
     (0, -1, Q(2, 3), 1, 0)),
    (((0, 0, 0), (0, 0, 0), (0, 1, -1), (1, -1, -1), (-1, 0, 1), (1, -1, -1), (1, 1, 0)),
     (Q(2, 3), 0, -1, 0, -1, 1, 1)),
)


def _zero_set_instances(rng, count):
    """`count` (basis, target) pairs with a non-empty zero set: random
    bases with m = 1..4, every third with a row added proportional to
    another, then each FACE_POLYTOPES instance under a random coordinate
    permutation, change of basis, target scale and subspace shift."""
    out = []
    for k in range(count):
        # LP work grows fast with m and the reduced row count: keep both small.
        m = 4 if k % 80 == 0 else rng.choice((1, 1, 2, 2, 2, 3))
        kept = m + (1 if m > 2 else rng.randint(1, 2))
        n = kept + rng.randint(1, 2)
        basis = random_basis(rng, n, m, lo=-2, hi=2, zero_rows=n - kept)
        if k % 3 == 0:
            rows = list(basis.matrix)
            source = rng.choice([r for r in rows if not is_zero(r)])
            rows.insert(rng.randint(0, n), tuple(rng.choice((-2, -1, 1, 2)) * x for x in source))
            basis = validate_basis(rows)
        zero_target = rng.randrange(8) == 0
        out.append((basis, (Q(0),) * basis.n if zero_target else random_vector(rng, basis.n, -3, 3)))
    for rows, b in FACE_POLYTOPES:
        for _ in range(4):
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            basis = validate_basis(mat([rows[i] for i in perm]))
            basis = recombine(basis, random_invertible(rng, basis.m))
            shift = basis.combine(random_vector(rng, basis.m, -2, 2))
            scale = Q(rng.randint(1, 6), rng.randint(1, 3))
            out.append((basis, tuple(scale * b[i] + s for i, s in zip(perm, shift))))
    return out


def _with_slack(rng, pb, b, slack):
    """b with its zero-set coordinates replaced by a mass of `slack`,
    on one or two of them, with random signs."""
    out = list(b)
    zero_set = pb.profile.zero_set
    for i in zero_set:
        out[i] = Q(0)
    first = rng.choice(zero_set)
    part = slack * rng.choice((Q(0), Q(1, 3), Q(1))) if len(zero_set) > 1 else Q(0)
    out[first] = rng.choice((-1, 1)) * (slack - part)
    out[rng.choice([i for i in zero_set if i != first] or [first])] += part
    return tuple(out)


def _slack_cases(rng, pb, b):
    """(target, slack, delta0): slack in {0, delta0/2, delta0, 3/2 delta0}
    when delta0 > 0, else 0 and one positive mass."""
    t_star, _ = solve_minimax_lp(pb.feasibility_rows, pb.feasibility_rhs(pb.reduced.sigma(b)))
    if t_star:
        slacks = (Q(0), t_star / 2, t_star, 3 * t_star / 2)
    else:
        slacks = (Q(0), Q(rng.randint(1, 9), rng.randint(1, 3)))
    return [(_with_slack(rng, pb, b, slack), slack, t_star) for slack in slacks]


def test_zero_set_solve_matches_three_lex_reference(monkeypatch):
    # Against the solve that ignored delta0: equal fields on every
    # target, and the lex searches each case needs (none below delta0
    # or for a member, one above it, two at it).
    lex_calls = Counter()

    def counted(*args):
        lex_calls["calls"] += 1
        return lex_extreme_alpha(*args)

    monkeypatch.setattr(solver, "lex_extreme_alpha", counted)
    rng = random.Random(2240)
    cases = Counter()
    for basis, b in _zero_set_instances(rng, 400):
        pb = prepare(basis)
        zero_reduced = is_zero(pb.reduced.sigma(b))
        for target, slack, t_star in _slack_cases(rng, pb, b):
            lex_calls.clear()
            out = solve_general(basis, None, target, prepared=pb)
            assert _fields(out) == _reference_solve(pb, target), (basis.matrix, target)
            member = solve_linear(basis.matrix, target).status is SystemStatus.UNIQUE
            where = "member" if member else ("below", "at", "above")[(slack > t_star) - (slack < t_star) + 1]
            cases[out.kind.value, where] += 1
            cases["zero reduced target"] += zero_reduced
            expected = {"member": 0, "below": 0, "at": 2, "above": 1}[where]
            assert lex_calls["calls"] == expected, (where, out.kind)
    assert sum(n for key, n in cases.items() if isinstance(key, tuple)) >= 1000
    assert set(cases) <= {("not-exists", "below"), ("unique", "at"), ("polytope", "at"),
                          ("polytope", "above"), ("unique", "member"), "zero reduced target"}
    assert cases["not-exists", "below"] >= 200
    assert cases["unique", "at"] >= 200
    assert cases["polytope", "at"] >= 5
    assert cases["polytope", "above"] >= 200
    assert cases["zero reduced target"] >= 20


@pytest.mark.parametrize("direction", [+1, -1])
def test_lex_extreme_alpha_matches_rank_loop_reference(direction):
    rng = random.Random(731 + direction)
    checked = 0
    for basis, b in _zero_set_instances(rng, 60):
        pb = prepare(basis)
        rhs = pb.feasibility_rhs(pb.reduced.sigma(b))
        t_star, _ = solve_minimax_lp(pb.feasibility_rows, rhs)
        for slack in (t_star, t_star + Q(rng.randint(1, 4), 3)):
            constraints = PolytopeConstraints(pb.feasibility_rows, rhs, slack)
            got = lex_extreme_alpha(basis, constraints, direction)
            assert got == _reference_lex_extreme_alpha(basis, constraints, direction)
            assert constraints.satisfied_by(got)
            checked += 1
    assert checked >= 130

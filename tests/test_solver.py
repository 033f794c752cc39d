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
from coapprox.exact import vec_sub
from coapprox.instances import random_basis, random_vector
from coapprox.solver import lex_extreme_alpha
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

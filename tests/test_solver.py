import math
import random
from collections import Counter
from fractions import Fraction as Q
from operator import mul

import pytest

from coapprox import (
    CapacityError,
    DimensionError,
    EmptyZeroSetError,
    NoCoapproximationError,
    OutcomeKind,
    SystemStatus,
    ValidationError,
    build_profile,
    classify,
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
from coapprox import lp, norming, solver
from coapprox.exact import first_basis, rank, scaled_ints, vec_sub
from coapprox.instances import random_basis, random_vector
from coapprox.lp import lp_min, minimax_circuits, simplex, solve_minimax_lp
from coapprox.solver import PolytopeConstraints, lex_extreme_alpha
from tests.reference import (
    FACE_POLYTOPES,
    apply_projection,
    class_sum_fiber,
    class_sums,
    column_basis,
    columns,
    criterion_5_stream,
    feasibility_rhs,
    independent_rows,
    independent_rows_lex_extreme_alpha,
    input_vector,
    norming_dot,
    random_invertible,
    recombine,
    reference_lex_extreme_alpha,
    satisfied_by,
    system_rhs,
    system_rows,
)

B1 = vec((1, 2, 3, 4, 5, 6))
B2 = vec((5, 4, 0, 0, 1, 5))


class TestEmptyZeroSet:
    def test_assembled_system(self, span3_l16):
        pb = prepare(span3_l16)
        assert system_rows(pb) == (
            (Q(14), Q(14), Q(17)),
            (Q(16), Q(10), Q(15)),
            (Q(14), Q(0), Q(11)),
            (Q(2), Q(-18), Q(-13)),
        )
        assert system_rhs(pb, B1) == (Q(11), Q(3), Q(-3), Q(-19))
        assert system_rhs(pb, B2) == (Q(13), Q(13), Q(13), Q(-5))

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
        out = solve_empty_zero_set(pb, columns(span3_l16)[0])
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
                ref = solve_linear(system_rows(pb), system_rhs(pb, b))
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
        # A member target is refused too: it has no path of its own.
        basis = validate_basis(mat([(1, k) for k in range(21)]))
        for b in ((Q(1),) + (Q(0),) * 20, basis.combine((1, 2))):
            with pytest.raises(CapacityError, match="21"):
                solve_general(basis, None, b)

    def test_class_sum_rows(self, span3_l16):
        # Class c's row is (sum of |constants|) times its representative's
        # row: coordinates 1 and 5 form a class with constants 1 and -1,
        # coordinates 2 and 6 one with constants 1 and 2.
        pb = prepare(span3_l16)
        den, rows = pb.class_ints
        assert all(type(x) is int for row in rows for x in row)
        assert _fraction_rows(den, rows) == _fraction_class_rows(pb) == (
            (8, -2, 2), (6, 9, 12), (1, 5, 2), (-1, 2, 1))
        bden, ints = scaled_ints(B1)
        sums = [sum(o * ints[i] for i, o in members) for members in pb.member_signs]
        assert tuple(Q(s, bden) for s in sums) == _fraction_class_rhs(pb, B1) == (
            Q(-4), Q(8), Q(3), Q(4))

    def test_int_class_sum_solve_matches_the_fraction_solve(self):
        # solve_empty_zero_set solves bden rows . alpha = den sums on the
        # int class rows; the reference is the Fraction solve it replaced,
        # solve_linear(class_rows, class_rhs(b)).  Bases carry rational
        # entries, rows proportional to others at rational constants and
        # zero rows; targets (no mass on the zero rows) are random with
        # rational entries, subspace members, and members moved off by a
        # vector whose signed class sums vanish.
        rng = random.Random(3030)
        statuses = Counter()
        for basis in _rational_bases(rng, 200):
            pb = prepare(basis)
            den, rows = pb.class_ints
            assert _fraction_rows(den, rows) == _fraction_class_rows(pb)
            zero = set(pb.profile.zero_set)
            member = basis.combine(tuple(Q(rng.randint(-4, 4), rng.randint(1, 5))
                                         for _ in range(basis.m)))
            off = list(member)
            for cls in pb.profile.classes:
                if len(cls.members) > 1:
                    (i, ci), (j, cj) = cls.members[:2]
                    t = Q(rng.randint(1, 5), rng.randint(1, 3))
                    off[i] += t if ci > 0 else -t
                    off[j] -= t if cj > 0 else -t
            noise = tuple(Q(0) if i in zero else Q(rng.randint(-5, 5), rng.randint(1, 6))
                          for i in range(basis.n))
            for b in (noise, member, tuple(off)):
                ref = solve_linear(_fraction_class_rows(pb), _fraction_class_rhs(pb, b))
                out = solve_empty_zero_set(pb, b)
                statuses[ref.status] += 1
                if ref.status is SystemStatus.UNIQUE:
                    assert out.kind is OutcomeKind.UNIQUE
                    assert out.coefficients == ref.solution
                else:
                    assert ref.status is SystemStatus.NO_SOLUTION
                    assert out.kind is OutcomeKind.NOT_EXISTS
        assert statuses[SystemStatus.UNIQUE] >= 400
        assert statuses[SystemStatus.NO_SOLUTION] >= 80


def _fraction_rows(den, rows):
    return tuple(tuple(Q(x, den) for x in row) for row in rows)


def _fraction_class_rows(pb):
    """The class-sum rows as Fractions, as the solver built them before it
    held them as ints: (sum of |constants|) times the representative's row."""
    return tuple(
        tuple(sum(abs(c) for _, c in cls.members) * x for x in pb.basis.matrix[cls.representative])
        for cls in pb.profile.classes
    )


def _fraction_class_rhs(pb, b):
    """sum_{i in c} o_i b_i per class, o_i the sign of const_i, in Fractions."""
    return tuple(sum((b[i] if c > 0 else -b[i] for i, c in cls.members), Q(0))
                 for cls in pb.profile.classes)


def _rational_bases(rng, count):
    """Seeded bases, m = 1..4, with rational entries, 0-2 zero rows and
    1-3 rows proportional to others at rational constants."""
    for _ in range(count):
        m = rng.randint(1, 4)
        zeros = rng.randint(0, 2)
        basis = random_basis(rng, m + zeros + rng.randint(0, 2), m, lo=-3, hi=3, zero_rows=zeros)
        rows = [tuple(Q(rng.randint(1, 5), rng.randint(1, 7)) * x for x in row)
                for row in basis.matrix]
        for _ in range(rng.randint(1, 3)):
            source = rng.choice([r for r in rows if any(r)])
            const = Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            rows.insert(rng.randint(0, len(rows)), tuple(const * x for x in source))
        yield validate_basis(tuple(rows))


def _repeated_row_bases(rng, count):
    """Seeded zero-set bases whose classes have several coordinates: the
    rows of a random m x (m..m+2) basis, m = 2 or 3, each repeated 1-5
    times at random nonzero rational constants, and 1-2 zero rows,
    shuffled."""
    for _ in range(count):
        m = rng.randint(2, 3)
        rows = [(Q(0),) * m] * rng.randint(1, 2)
        for row in random_basis(rng, m + rng.randint(0, 2), m, lo=-3, hi=3).matrix:
            for _ in range(rng.randint(1, 5)):
                const = Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                rows.append(tuple(const * x for x in row))
        rng.shuffle(rows)
        yield validate_basis(tuple(rows))


def test_fiber_rhs_over_classes_of_several_coordinates_matches_the_class_sum_route():
    # PreparedBasis.fiber takes each cell's right-hand side as one product
    # of the cell's sign vector over the n coordinates with b; the
    # reference sums b per class, then the class sums per cell.  Per new
    # fiber, the rhs, delta0, alpha and both lex points agree (the
    # reference searches every face, certified or not), and so do the
    # fiber's key (sigma(b)) and rho mass.  Targets: random rationals, and
    # subspace members (delta0 = 0), each with random mass on the zero set.
    rng = random.Random(4040)
    big_classes = fibers = 0
    for basis in _repeated_row_bases(rng, 40):
        pb = prepare(basis)
        zero = set(pb.profile.zero_set)
        big_classes += sum(len(cls.members) >= 3 for cls in pb.profile.classes)
        member = basis.combine(tuple(Q(rng.randint(-3, 3)) for _ in range(basis.m)))
        offs = [tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(basis.n))
                for _ in range(3)]
        for off in (member, *offs):
            b = tuple(Q(rng.randint(1, 5), rng.randint(1, 3)) if i in zero else x
                      for i, x in enumerate(off))
            fiber = pb.fiber(b)
            th = fiber.threshold
            rhs, delta0, alpha, lex = class_sum_fiber(pb, b)
            got = (fiber.rhs(pb), th.delta0, th.minimizing_alpha)
            assert got == (rhs, delta0, alpha), basis.matrix
            assert (fiber.lex(+1), fiber.lex(-1)) == (lex[1], lex[-1]), basis.matrix
            assert fiber.key == pb.reduced.sigma(b)
            assert th.rho_mass == sum(abs(x) for i, x in enumerate(b) if i not in zero)
            fibers += 1
    assert fibers == 160
    assert big_classes >= 60, big_classes


def test_feasibility_rows_are_cell_signs_times_class_sums():
    # The zero-set rows are built as signed sums of the class-sum rows.
    # Reference: the paper's construction, each norming sign vector x
    # paired with the reduced columns and with sigma(b), and the span
    # basis as greedy first_basis over the sign vectors, staircase first.
    # Bases: random ones with 1-2 zero rows and scaled copies of their
    # rows (classes of several members at non-unit constants), and the
    # m = 9 basis at the cell caps (256 pairs).
    rng = random.Random(2316)
    bases = []
    for _ in range(120):
        m = rng.randint(1, 4)
        zeros = rng.randint(1, 2)
        basis = random_basis(rng, m + zeros + rng.randint(0, 1), m, lo=-3, hi=3, zero_rows=zeros)
        rows = list(basis.matrix)
        for _ in range(rng.randint(1, 3)):
            source = rng.choice([r for r in basis.matrix if any(r)])
            const = Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            rows.insert(rng.randint(0, len(rows)), tuple(const * x for x in source))
        bases.append(validate_basis(tuple(rows)))
    n, m = 11, 9
    bases.append(validate_basis(tuple(
        tuple(Q(-3, 2) if i == n - 2 and j == 0 else Q(int(i == j)) for j in range(m))
        for i in range(n)
    )))
    seen = Counter()
    for basis in bases:
        pb = prepare(basis)
        reduced = pb.reduced
        reps = pb.norming.representatives
        class_of = {i: (c, const) for c, cls in enumerate(pb.profile.classes)
                    for i, const in cls.members}
        coords = [class_of[i] for i in reduced.kept_indices]
        assert reps == tuple(
            tuple(cell.signs[c] * (1 if const > 0 else -1) for c, const in coords)
            for cell in pb.cells
        )
        assert tuple(map(tuple, pb.sign_vectors)) == reps  # the fiber's rhs vectors
        cols = columns(reduced.basis)
        assert pb.feasibility_rows == tuple(
            tuple(norming_dot(x, col) for col in cols) for x in reps
        )
        for b in (random_vector(rng, basis.n), random_vector(rng, basis.n, -9, 9)):
            assert feasibility_rhs(pb, b) == tuple(
                norming_dot(x, reduced.sigma(b)) for x in reps
            )
        r = pb.arrangement.r
        by_signs = {cell.signs: k for k, cell in enumerate(pb.cells)}
        staircase = (tuple([1] * (r - j) + [-1] * j) for j in range(r))
        candidates = [by_signs[p] for p in staircase if p in by_signs] + list(range(len(reps)))
        picked = first_basis([reps[k] for k in candidates])
        assert pb.norming.system_basis == tuple(reps[candidates[p]] for p in picked)
        consts = [const for cls in pb.profile.classes for _, const in cls.members]
        seen["shared class"] += len(consts) > pb.profile.d
        seen["negative constant"] += any(c < 0 for c in consts)
        seen["non-unit constant"] += any(abs(c) != 1 for c in consts)
    assert len(bases) > 100 and min(seen.values()) >= 80, seen


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
        assert satisfied_by(out.constraints, (Q(2),))
        assert satisfied_by(out.constraints, (Q(4),))
        assert not satisfied_by(out.constraints, (Q(2) - Q(1, 100),))

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
            assert satisfied_by(out.constraints, alpha) == inside

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
                assert satisfied_by(full.constraints, alpha)
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
        rhs = feasibility_rhs(pb, b)

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
        (Q(0), OutcomeKind.UNIQUE, 0),
        (Q(1, 100), OutcomeKind.POLYTOPE, 0),
    ])
    def test_lex_searches_per_target(self, monkeypatch, offset, kind, lex_searches):
        # None below delta0; at and above it the minimax LP's m + 1
        # nonzero multipliers certify a one-point optimal face, so none
        # there either.
        calls = []
        monkeypatch.setattr(solver, "lex_extreme_alpha",
                            lambda *args: calls.append(args) or lex_extreme_alpha(*args))
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        out = solve_general(basis, None, vec((1, 2, 3, 4, 5, 6)) + (Q(41, 21) + offset,))
        assert (out.kind, len(calls)) == (kind, lex_searches)

    @pytest.mark.parametrize("offset, kind, lex_searches", [
        (Q(-1, 100), OutcomeKind.NOT_EXISTS, 0),
        (Q(0), OutcomeKind.POLYTOPE, 2),
        (Q(1, 100), OutcomeKind.POLYTOPE, 1),
    ])
    def test_lex_searches_per_target_on_a_segment_face(self, monkeypatch, offset, kind,
                                                       lex_searches):
        # A face that is a segment leaves m multipliers nonzero: none below
        # delta0; at it one search each way tells it from a point; above
        # it only the witness is searched for.
        calls = []
        monkeypatch.setattr(solver, "lex_extreme_alpha",
                            lambda *args: calls.append(args) or lex_extreme_alpha(*args))
        rows, b = FACE_POLYTOPES[0]  # delta0 = 2/3, the mass on coordinate 2, the zero row
        out = solve_general(validate_basis(mat(rows)), None,
                            b[:2] + (b[2] + offset,) + b[3:])
        assert (out.kind, len(calls)) == (kind, lex_searches)


def _count_minimax(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "solve_minimax_lp",
                        lambda *args, **kw: calls.append(args) or solve_minimax_lp(*args, **kw))
    return calls


def _poses_the_lp(pb, b):
    """Whether b's fiber, when new, poses the minimax LP: K . sigma(b) != 0
    for K = pb.class_kernel, so never on a coproximinal basis (K = ())."""
    ints = scaled_ints(pb.reduced.sigma(b))[1]
    return any(sum(map(mul, k, ints)) for k in pb.class_kernel)


class TestFiberMinimax:
    """One minimax LP per fiber: the prepared basis keeps the last
    fiber's delta0, optimizer and rhs, and only the last."""

    B = vec((1, 2, 3, 4, 5, 6))  # off the zero set; delta0 = 41/21

    def test_solve_then_threshold_run_one_lp(self, monkeypatch):
        calls = _count_minimax(monkeypatch)
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        pb = prepare(basis)
        b = self.B + (Q(41, 21),)
        out = solve_general(basis, None, b, prepared=pb)
        th = existence_threshold(basis, None, b, prepared=pb)
        assert (out.kind, th.delta0, len(calls)) == (OutcomeKind.UNIQUE, Q(41, 21), 1)

    def test_masses_on_one_fiber_run_one_lp(self, monkeypatch):
        calls = _count_minimax(monkeypatch)
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        pb = prepare(basis)
        kinds = []
        for offset in (Q(-1, 100), Q(0), Q(1, 100)):
            b = self.B + (Q(41, 21) + offset,)
            kinds.append(solve_general(basis, None, b, prepared=pb).kind)
            assert existence_threshold(basis, None, b, prepared=pb).delta0 == Q(41, 21)
        assert kinds == [OutcomeKind.NOT_EXISTS, OutcomeKind.UNIQUE, OutcomeKind.POLYTOPE]
        assert len(calls) == 1

    def test_a_new_fiber_replaces_the_slot(self, monkeypatch):
        calls = _count_minimax(monkeypatch)
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        pb = prepare(basis)
        fiber_a = self.B + (Q(3),)
        fiber_b = vec((1, 2, 3, 4, 5, 7)) + (Q(3),)
        deltas = [existence_threshold(basis, None, b, prepared=pb).delta0
                  for b in (fiber_a, fiber_b, fiber_a)]
        assert deltas[0] == deltas[2] == Q(41, 21) != deltas[1]
        assert len(calls) == 3

    def test_a_new_fiber_makes_one_minimax_call_and_one_kernel_call(self, monkeypatch):
        # The calls perfbench/tracer.py counts and sizes on `fiber`
        # (exact.solve_minimax_lp, lp.minimax, lp.tableau_entries): one
        # solver.solve_minimax_lp and one lp.lp_min per new fiber, the
        # latter on 2 rows of length m + 1 per cell; none for a repeat
        # target or another mass on the zero set of the same fiber, and
        # none at all where K . sigma(b) = 0 (here a coproximinal m = 1 basis).
        minimax, kernel = _count_minimax(monkeypatch), []
        monkeypatch.setattr(lp, "lp_min", lambda *args, **kw: kernel.append(args) or lp_min(*args, **kw))
        rng = random.Random(4141)
        bases = [column_basis(*THRESHOLD_BASIS_COLUMNS)]
        bases += [random_basis(rng, 6, m, lo=-3, hi=3, zero_rows=2) for m in (1, 2, 2, 3)]
        calls = []
        for basis in bases:
            pb = prepare(basis)
            zero = set(pb.profile.zero_set)
            b = tuple(Q(1) if i in zero else Q(rng.randint(-5, 5)) for i in range(basis.n))
            minimax.clear()
            kernel.clear()
            pb.fiber(b)
            calls.append((len(minimax), len(kernel)))
            if kernel:
                cost, a_ub, b_ub = kernel[0]
                assert len(cost) == basis.m + 1 and len(a_ub) == len(b_ub) == 2 * len(pb.cells)
                assert {len(row) for row in a_ub} == {basis.m + 1}
            assert calls[-1] == ((1, 1) if _poses_the_lp(pb, b) else (0, 0))
            other_mass = tuple(Q(3) if i in zero else x for i, x in enumerate(b))
            for repeat in (b, other_mass):
                solve_general(basis, None, repeat, prepared=pb)
                existence_threshold(basis, None, repeat, prepared=pb)
            assert (len(minimax), len(kernel)) == calls[-1]
        assert calls == [(1, 1), (0, 0), (1, 1), (1, 1), (1, 1)]

    def test_circuits_answer_new_fibers_once_the_slot_holds_one(self, monkeypatch):
        # The first new fiber on a basis runs the LP and builds no
        # circuits, so a basis that serves one fiber never pays for them;
        # a second, certified by a circuit of m + 1 = 3 rows, runs none.
        minimax, kernel = _count_minimax(monkeypatch), []
        monkeypatch.setattr(lp, "lp_min", lambda *args: kernel.append(args) or lp_min(*args))
        basis = validate_basis(mat([(1, 0), (0, 1), (1, 1), (0, 0)]))
        pb = prepare(basis)
        first = pb.fiber(vec((1, 0, 0, 1)))
        assert (len(minimax), len(kernel), "circuits" in vars(pb)) == (1, 1, False)
        second = pb.fiber(vec((2, 1, 0, 1)))
        assert (len(minimax), len(kernel), len(pb.circuits[1])) == (2, 1, 1)
        assert (first.threshold.delta0, *second.threshold[:2]) == (Q(1, 3), 1, (1, 0))

    def test_a_delta0_zero_fiber_runs_no_lp_and_enumerates_no_cell(self, monkeypatch):
        # A fiber whose target is a subspace member off the zero set has
        # delta0 = 0.  On a basis that is not coproximinal (d = 3 > m = 2),
        # class_kernel is one vector, orthogonal to sigma(b) there, so even
        # the basis's first fiber runs no minimax solve and no LP, builds no
        # circuits and enumerates no cell: alpha is the class-sum solve.
        kernel, cells = [], []
        monkeypatch.setattr(lp, "lp_min", lambda *args: kernel.append(args) or lp_min(*args))
        monkeypatch.setattr(solver, "enumerate_cells",
                            lambda arr: cells.append(arr) or norming.enumerate_cells(arr))
        minimax = _count_minimax(monkeypatch)
        pb = prepare(validate_basis(mat([(1, 0), (0, 1), (1, 1), (0, 0)])))
        assert len(pb.class_kernel) == pb.profile.d - pb.basis.m == 1
        fiber = pb.fiber(vec((1, 2, 3, 1)))
        assert (*fiber.threshold[:2], fiber.lex(+1), fiber.lex(-1)) == (0, (1, 2), (1, 2), (1, 2))
        assert (kernel, minimax, cells, "circuits" in vars(pb)) == ([], [], [], False)
        # A fiber off the rows' column space takes the minimax solve, here
        # off the circuits, as the slot is full; a member's after it, none.
        assert pb.fiber(vec((1, 0, 0, 1))).threshold.delta0 == Q(1, 3)
        assert (kernel, len(minimax), len(cells), len(pb.circuits[1])) == ([], 1, 1, 1)
        assert pb.fiber(vec((2, -1, 1, 5))).threshold[:2] == (0, (2, -1))
        assert (kernel, len(minimax), len(cells)) == ([], 1, 1)
        # On a coproximinal basis (d = m = 3) K = (): every fiber has delta0 = 0.
        del kernel[:], minimax[:], cells[:]
        pb = prepare(validate_basis(mat([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])))
        assert pb.class_kernel == ()
        for b, alpha in (((1, 2, 3, 1), (1, 2, 3)), ((2, -1, 5, 1), (2, -1, 5))):
            fiber = pb.fiber(vec(b))
            assert (*fiber.threshold[:2], fiber.lex(+1), fiber.lex(-1)) == (0, alpha, alpha, alpha)
        assert (kernel, minimax, cells, "circuits" in vars(pb)) == ([], [], [], False)

    def test_a_basis_over_the_circuit_cap_builds_none_and_runs_the_lp(self, monkeypatch):
        # Five generic planes in R^3 make 11 cell rows, and C(11, 4) = 330
        # subsets of m + 1 rows are over the cap: no Gauss-Jordan pass
        # runs (none reads a kernel vector), and every new fiber is one LP.
        kernel, eliminations = [], []
        monkeypatch.setattr(lp, "lp_min", lambda *args: kernel.append(args) or lp_min(*args))
        monkeypatch.setattr(lp, "kernel_vectors", lambda *args: eliminations.append(args))
        basis = validate_basis(mat([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4),
                                    (0, 0, 0)]))
        pb = prepare(basis)
        assert math.comb(len(pb.cells), basis.m + 1) > lp.MAX_CIRCUIT_SUBSETS
        for k in (3, 1, 2):
            existence_threshold(basis, None, vec((1, 2, 3, 4, k, 1)), prepared=pb)
        assert (len(kernel), pb.circuits, eliminations) == (3, None, [])

    @pytest.mark.parametrize("call", [solve_general, existence_threshold])
    def test_refuses_a_basis_prepared_for_another_subspace(self, call):
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        other = column_basis(*THRESHOLD_BASIS_COLUMNS[:2], (1, 4, 2, 1, -1, 9, 0))
        b = self.B + (Q(3),)
        with pytest.raises(DimensionError, match="prepared basis"):
            call(basis, None, b, prepared=prepare(other))
        # A plain tuple equals the record it copies, but is not a basis.
        with pytest.raises(ValidationError, match="SubspaceBasis") as raised:
            call((basis.n, basis.m, basis.matrix), None, b, prepared=prepare(basis))
        assert type(raised.value) is ValidationError
        # An equal basis built separately is the same subspace.
        same = column_basis(*THRESHOLD_BASIS_COLUMNS)
        assert call(basis, None, b, prepared=prepare(same)) == call(basis, None, b)

    @pytest.mark.parametrize("call", [solve_general, existence_threshold,
                                      lambda basis, _, b, **kw: classify(basis, **kw)])
    def test_refuses_arguments_of_the_wrong_type(self, call):
        # Each was a bare AttributeError: a matrix for the basis, with or
        # without a PreparedBasis, and any other object for `prepared`.
        basis = column_basis(*THRESHOLD_BASIS_COLUMNS)
        b = self.B + (Q(3),)
        for args, kw, what in (((basis.matrix, None, b), {}, "SubspaceBasis"),
                               ((((1, 0), (0, 1)), None, (1, 0)), {}, "SubspaceBasis"),
                               ((basis.matrix, None, b), {"prepared": prepare(basis)}, "SubspaceBasis"),
                               ((basis, None, b), {"prepared": object()}, "PreparedBasis")):
            with pytest.raises(ValidationError, match=what) as raised:
                call(*args, **kw)
            assert type(raised.value) is ValidationError


def test_delta0_is_zero_exactly_where_the_class_kernel_vanishes_on_sigma_b(monkeypatch):
    # delta0(b) = 0 iff b's class sums lie in the class rows' column space,
    # iff K . sigma(b) = 0 for K = class_kernel, d - m vectors lifted to the
    # reduced coordinates (Fredholm).  On the zero-set bases of criterion
    # 5's first 500 instances, each with its stream target, two subspace
    # members given zero-set mass and two random targets on one shared
    # prepare: K's test agrees with the minimax LP posed on
    # feasibility_ints without K, and a delta0 = 0 fiber calls neither
    # lp_min nor minimax_circuits, at the LP's one optimal point.
    rng = random.Random(5252)
    lps, built = [], []
    for module in (lp, solver):
        monkeypatch.setattr(module, "lp_min", lambda *args: lps.append(args) or lp_min(*args))
    monkeypatch.setattr(solver, "minimax_circuits",
                        lambda rows: built.append(rows) or minimax_circuits(rows))
    seen = Counter()
    for basis, b in criterion_5_stream(500):
        pb = prepare(basis)
        zero = pb.profile.zero_set
        if not zero:
            continue
        assert len(pb.class_kernel) == pb.profile.d - basis.m
        reduced = pb.reduced.basis.matrix
        assert all(sum(k[i] * row[j] for i, row in enumerate(reduced)) == 0
                   for k in pb.class_kernel for j in range(basis.m))
        members = [basis.combine(random_vector(rng, basis.m)) for _ in range(2)]
        targets = [b, *(tuple(Q(rng.randint(1, 3)) if i in zero else x for i, x in enumerate(v))
                        for v in members), *(random_vector(rng, basis.n) for _ in range(2))]
        for target in targets:
            den, rows = pb.feasibility_ints
            bden, by_class = class_sums(pb, target)
            t, x, _ = solve_minimax_lp(rows, [sum(map(mul, c.signs, by_class)) for c in pb.cells])
            before = (len(lps), len(built))
            fiber = pb.fiber(target)
            assert (t == 0) is (fiber.threshold.delta0 == 0) is (not _poses_the_lp(pb, target))
            if t:
                seen["delta0 > 0"] += 1
                continue
            assert fiber.lex(+1) == fiber.lex(-1) == fiber.threshold.minimizing_alpha
            assert fiber.threshold.minimizing_alpha == tuple(v * Q(den, bden) for v in x)
            assert (len(lps), len(built)) == before
            seen["delta0 = 0, d > m" if pb.profile.d > basis.m else "delta0 = 0, d = m"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 90, seen


def test_a_delta0_zero_threshold_leaves_the_cells_to_the_polytope_rhs(monkeypatch):
    # existence_threshold at delta0 = 0 enumerates no cell, on a
    # coproximinal basis and on a member's fiber of a d > m one: Fiber.rhs
    # forms the per-cell sums on first read, so a later polytope solve on
    # the same fiber, answered from the slot, gives a fresh prepare's
    # constraints, whose rhs is each cell's signed class sums.
    calls = []
    monkeypatch.setattr(solver, "enumerate_cells",
                        lambda arr: calls.append(arr) or norming.enumerate_cells(arr))
    coproximinal = [(1, 1), (1, 2), (2, 2), (0, 0), (4, 4), (-2, -4), (0, 0)]
    for rows, b in ((coproximinal, (1, 2, 3, 1, 5, -1, Q(1, 2))),
                    ([(1, 0), (0, 1), (1, 1), (0, 0)], (1, 2, 3, 1))):
        basis, b = validate_basis(mat(rows)), vec(b)
        pb = prepare(basis)
        assert existence_threshold(basis, None, b, prepared=pb).delta0 == 0
        assert (calls, "cells" in vars(pb)) == ([], False)
        out = solve_general(basis, None, b, prepared=pb)
        assert out.kind is OutcomeKind.POLYTOPE and len(calls) == 1
        assert out == solve_general(basis, None, b, prepared=prepare(basis))
        assert out.constraints.rhs == feasibility_rhs(pb, b)
        calls.clear()


class TestProjection:
    def test_worked_fixture(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_general(span3_l16, pb.profile, B2, prepared=pb)
        proj = projection_map(span3_l16, B2, out)
        assert proj.image_of_target == vec((2, 3, 0, 0, -2, 6))
        # P fixes the subspace (gamma = 0).
        coeffs = (Q(3), Q(-2), Q(1, 2))
        assert apply_projection(proj, coeffs, Q(0)) == span3_l16.combine(coeffs)
        # P(b2) itself.
        assert apply_projection(proj, (Q(0), Q(0), Q(0)), Q(1)) == vec((2, 3, 0, 0, -2, 6))

    def test_member_projection_is_identity(self, span3_l16):
        b = span3_l16.combine((Q(1), Q(1), Q(1)))
        out = solve_general(span3_l16, None, b)
        proj = projection_map(span3_l16, b, out)
        rng = random.Random(2)
        for _ in range(20):
            coeffs = tuple(Q(rng.randint(-5, 5)) for _ in range(3))
            gamma = Q(rng.randint(-3, 3))
            assert apply_projection(proj, coeffs, gamma) == input_vector(proj, coeffs, gamma)

    def test_not_exists_raises(self, span3_l16):
        out = solve_general(span3_l16, None, B1)
        with pytest.raises(NoCoapproximationError):
            projection_map(span3_l16, B1, out)

    def test_image_is_the_outcome_vector(self):
        # The solve's own A . alpha, unique or polytope witness, with no
        # second combine.
        basis = column_basis((1, 0))
        for b in (vec((1, 0)), vec((3, 1))):
            out = solve_general(basis, None, b)
            proj = projection_map(basis, b, out)
            assert proj.image_of_target is out.vector
            assert proj.image_of_target == basis.combine(out.chosen_alpha)

    def test_norm_one_property(self, span3_l16):
        pb = prepare(span3_l16)
        out = solve_general(span3_l16, pb.profile, B2, prepared=pb)
        proj = projection_map(span3_l16, B2, out)
        rng = random.Random(21)
        for _ in range(200):
            coeffs = tuple(Q(rng.randint(-40, 40), 8) for _ in range(3))
            gamma = Q(rng.randint(-40, 40), 8)
            image = apply_projection(proj, coeffs, gamma)
            original = input_vector(proj, coeffs, gamma)
            assert l1_norm(image) <= l1_norm(original)


def test_lex_extreme_points_bound_the_polytope():
    basis = column_basis((1, 0))
    out = solve_general(basis, None, vec((3, 1)))  # delta0 = 0 < slack 1
    lo = reference_lex_extreme_alpha(basis, out.constraints, +1)
    hi = reference_lex_extreme_alpha(basis, out.constraints, -1)
    assert (out.witness, lo, hi) == ((Q(3),), (Q(2),), (Q(4),))


def test_membership_solver_consistency(span3_l16):
    res = solve_linear(span3_l16.matrix, B2)
    assert res.status is SystemStatus.NO_SOLUTION


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
    rhs = feasibility_rhs(pb, b)
    t_star, _, _ = solve_minimax_lp(rows, rhs)
    if t_star > slack:
        return ("not-exists", None, None, None, None)
    constraints = PolytopeConstraints(rows=rows, rhs=rhs, slack=slack)
    lo = reference_lex_extreme_alpha(basis, constraints, +1)
    hi = reference_lex_extreme_alpha(basis, constraints, -1)
    if lo == hi:
        return ("unique", lo, None, basis.combine(lo), None)
    tight = PolytopeConstraints(rows=rows, rhs=rhs, slack=t_star)
    witness = reference_lex_extreme_alpha(basis, tight, +1)
    return ("polytope", None, witness, basis.combine(witness), (rows, rhs, slack))


def _fields(out):
    # A record equals any tuple of the same values, so the constraints
    # compare with the reference's bare (rows, rhs, slack) as they are;
    # the outcome itself does not, as the reference's tuple has the kind's
    # value and another field order.
    return (out.kind.value, out.coefficients, out.witness, out.vector, out.constraints)


def _zero_set_instances(rng, count, copies=4):
    """`count` (basis, target) pairs with a non-empty zero set: random
    bases with m = 1..4, every third with a row added proportional to
    another, then `copies` of each FACE_POLYTOPES instance under a random
    coordinate permutation, change of basis, target scale and subspace
    shift."""
    out = []
    for k in range(count):
        # LP work grows fast with m and the reduced row count: keep both small.
        m = 4 if k % 80 == 0 else rng.choice((1, 1, 2, 2, 2, 3))
        kept = m + (1 if m > 2 else rng.randint(1, 2))
        n = kept + rng.randint(1, 2)
        basis = random_basis(rng, n, m, lo=-2, hi=2, zero_rows=n - kept)
        if k % 3 == 0:
            rows = list(basis.matrix)
            source = rng.choice([r for r in rows if any(r)])
            rows.insert(rng.randint(0, n), tuple(rng.choice((-2, -1, 1, 2)) * x for x in source))
            basis = validate_basis(rows)
        zero_target = rng.randrange(8) == 0
        out.append((basis, (Q(0),) * basis.n if zero_target else random_vector(rng, basis.n, -3, 3)))
    for rows, b in FACE_POLYTOPES:
        for _ in range(copies):
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
    t_star, _, _ = solve_minimax_lp(pb.feasibility_rows, feasibility_rhs(pb, b))
    if t_star:
        slacks = (Q(0), t_star / 2, t_star, 3 * t_star / 2)
    else:
        slacks = (Q(0), Q(rng.randint(1, 9), rng.randint(1, 3)))
    return [(_with_slack(rng, pb, b, slack), slack, t_star) for slack in slacks]


def _certifies_one_point(pb, b):
    """Whether b's fiber skips its lex searches: the minimax LP, on the
    Fraction rows, has t* = 0 or m + 1 nonzero multipliers."""
    t_star, _, lam = solve_minimax_lp(pb.feasibility_rows, feasibility_rhs(pb, b))
    return not t_star or sum(map(bool, lam)) > pb.basis.m


def test_zero_set_solve_matches_three_lex_reference(monkeypatch):
    # Against the solve that ignored delta0: equal fields on every
    # target, and the lex searches each case needs (none below delta0 or
    # on a certified one-point face, else one above it and two at it),
    # each target on a fresh prepare, as a shared one answers a fiber's
    # later targets from its slot.  A target with no zero-set mass,
    # members included, goes to the class-sum system: no minimax LP, no
    # lex search, and no cell enumeration.
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "lex_extreme_alpha", counted("lex", lex_extreme_alpha))
    monkeypatch.setattr(solver, "solve_minimax_lp", counted("minimax", solve_minimax_lp))
    rng = random.Random(2240)
    cases = Counter()
    for basis, b in _zero_set_instances(rng, 400):
        pb = prepare(basis)
        zero_reduced = not any(pb.reduced.sigma(b))
        certified = _certifies_one_point(pb, b)
        for target, slack, t_star in _slack_cases(rng, pb, b):
            calls.clear()
            used = prepare(basis)
            out = solve_general(basis, None, target, prepared=used)
            assert _fields(out) == _reference_solve(pb, target), (basis.matrix, target)
            member = solve_linear(basis.matrix, target).status is SystemStatus.UNIQUE
            where = "member" if member else ("below", "at", "above")[(slack > t_star) - (slack < t_star) + 1]
            cases[out.kind.value, where] += 1
            cases["zero reduced target"] += zero_reduced
            expected = 0 if slack == 0 or certified else {"below": 0, "at": 2, "above": 1}[where]
            assert calls["lex"] == expected, (where, out.kind)
            cases["lex searched"] += bool(expected)
            if slack == 0:
                assert calls["minimax"] == 0, (where, out.kind)
                assert "cells" not in used.__dict__
    assert sum(n for key, n in cases.items() if isinstance(key, tuple)) >= 1000
    assert set(cases) <= {("not-exists", "below"), ("unique", "at"), ("polytope", "at"),
                          ("polytope", "above"), ("unique", "member"), "zero reduced target",
                          "lex searched"}
    assert cases["not-exists", "below"] >= 200
    assert cases["unique", "at"] >= 200
    assert cases["polytope", "at"] >= 5
    assert cases["polytope", "above"] >= 200
    assert cases["zero reduced target"] >= 20
    assert cases["lex searched"] >= 20


@pytest.mark.parametrize("direction", [+1, -1])
def test_lex_extreme_alpha_matches_rank_loop_reference(direction):
    # At slack = delta0 the polytope is the minimax LP's optimal face: the
    # search on the Fraction rows and the fiber's lex, on its int rows in
    # x = (bden/den) alpha, both reach the reference's point, whether or
    # not the fiber skips its search; FACE_POLYTOPES, as given (the first
    # is the segment-face problem) and in copies, are faces that are not
    # one point, where the fiber searches.
    rng = random.Random(731 + direction)
    checked = uncertified = 0
    faces = [(validate_basis(mat(rows)), b) for rows, b in FACE_POLYTOPES]
    for basis, b in _zero_set_instances(rng, 60) + faces:
        pb = prepare(basis)
        rhs = feasibility_rhs(pb, b)
        t_star, _, _ = solve_minimax_lp(pb.feasibility_rows, rhs)
        constraints = PolytopeConstraints(pb.feasibility_rows, rhs, t_star)
        want = reference_lex_extreme_alpha(basis, constraints, direction)
        assert lex_extreme_alpha(basis, pb.feasibility_rows, rhs, direction) == want
        assert pb.fiber(b).lex(direction) == want
        assert satisfied_by(constraints, want)
        checked += 1
        uncertified += not _certifies_one_point(pb, b)
    assert checked == 70 and uncertified >= 10


def _search_fiber(pb, b):
    """Both lex searches of b's fiber as alpha, run directly on int rows
    and sums, as the fiber poses them, whether or not the solver would
    skip them: x = (sden/den) alpha for rows / den and sums / sden."""
    den, rows = pb.feasibility_ints
    sden, sums = scaled_ints(feasibility_rhs(pb, b))
    return [tuple(den * v / sden for v in lex_extreme_alpha(pb.basis, rows, sums, direction))
            for direction in (+1, -1)]


def test_lex_lps_start_feasible_with_no_phase_1(monkeypatch):
    # lp_min has no phase 1 and refuses a negative rhs; posed as the
    # minimax LP, at x = 0 and t = max|rhs|, no lex LP has one.  Each
    # target gets a fresh prepare, so every lex search it needs runs, and
    # each fiber's two searches also run directly, as most fibers certify
    # a point and skip them.
    rhs_seen = []

    def recorded(cost, a_ub, b_ub, then=()):
        rhs_seen.append(b_ub)
        return lp_min(cost, a_ub, b_ub, then)

    monkeypatch.setattr(solver, "lp_min", recorded)
    rng = random.Random(3306)
    for basis, b in _zero_set_instances(rng, 500):
        pb = prepare(basis)
        for target, _, _ in _slack_cases(rng, pb, b):
            solve_general(basis, None, target, prepared=prepare(basis))
        _search_fiber(pb, b)
    assert len(rhs_seen) >= 1000
    assert all(v >= 0 for b_ub in rhs_seen for v in b_ub)


def test_lex_and_margin_lps_reach_the_kernel_in_ints(monkeypatch):
    # The lex LPs (each fiber's minimax LP on its int rows and sums, then
    # its `then` costs) and the margin LPs (from the int normals) are
    # built in ints: every entry of every cost, row, rhs and `then` cost
    # that lp_min receives, and of every column a margin LP hands the
    # pivot loop, is an int.  Each target gets a fresh prepare, so every
    # lex search it needs runs, and each fiber's two searches also run directly.
    seen = []

    def recorded(cost, a_ub, b_ub, *then):
        seen.append([*cost, *(x for row in a_ub for x in row), *b_ub,
                     *(x for c in (then[0] if then else ()) for x in c)])
        return lp_min(cost, a_ub, b_ub, *then)

    def posed(cols, *rest):
        seen.append([x for col in cols for x in col])
        return simplex(cols, *rest)

    monkeypatch.setattr(solver, "lp_min", recorded)
    monkeypatch.setattr(norming, "simplex", posed)
    rng = random.Random(4040)
    for basis, b in _zero_set_instances(rng, 150):
        pb = prepare(basis)
        for target, _, _ in _slack_cases(rng, pb, b):
            solve_general(basis, None, target, prepared=prepare(basis))
        _search_fiber(pb, b)
    lex_lps = len(seen)
    for _ in range(30):  # zero-set-free bases with rational rows: norming-set cells
        m = rng.randint(1, 3)
        basis = recombine(random_basis(rng, rng.randint(m + 1, 6), m, lo=-3, hi=3),
                          random_invertible(rng, m))
        scales = [Q(rng.randint(1, 5), rng.randint(1, 7)) for _ in basis.matrix]
        pb = prepare(validate_basis(tuple(tuple(s * x for x in row)
                                          for s, row in zip(scales, basis.matrix))))
        for cell in pb.cells:
            norming.margin_witness(pb.arrangement, cell)
    assert lex_lps >= 300 and len(seen) - lex_lps >= 100
    assert all(type(x) is int for entries in seen for x in entries)


def test_minimax_lps_reach_the_kernel_in_ints(monkeypatch):
    # solve_general and existence_threshold pose the minimax LP on
    # PreparedBasis.feasibility_ints and the target's int per-cell sums:
    # every cost, row and rhs entry lp_min receives from
    # solve_minimax_lp is an int.  A fiber with K . sigma(b) = 0 poses none.  The
    # slack cases are drawn first, as their own reference minimax LPs run
    # on Fraction rows.
    rng = random.Random(4141)
    cases = [(basis, b, [t for t, _, _ in _slack_cases(rng, prepare(basis), b)])
             for basis, b in _zero_set_instances(rng, 150)]
    seen = []

    def recorded(cost, a_ub, b_ub):
        seen.append([*cost, *(x for row in a_ub for x in row), *b_ub])
        return lp_min(cost, a_ub, b_ub)

    monkeypatch.setattr(lp, "lp_min", recorded)
    for basis, b, targets in cases:
        pb = prepare(basis)
        for target in targets:  # one fiber: one minimax LP
            solve_general(basis, None, target, prepared=pb)
        existence_threshold(basis, None, b)  # a fresh prepare: one more
    lp_fibers = sum(_poses_the_lp(prepare(basis), b) for basis, b, _ in cases)
    assert (len(seen), len(cases)) == (2 * lp_fibers, 158) == (148, 158)
    assert all(type(x) is int for entries in seen for x in entries)


def _fraction_feasibility_rows(pb):
    """The zero-set rows as Fractions, built per column as the solver
    built them before it held them as ints over one denominator."""
    cols = [scaled_ints(col) for col in zip(*_fraction_class_rows(pb))]
    return tuple(tuple(Q(sum(map(mul, cell.signs, ints)), den) for den, ints in cols)
                 for cell in pb.cells)


def test_int_minimax_and_lex_searches_match_the_fraction_construction():
    # fiber_minimax solves in ints, in x = (bden/den) alpha and bden t,
    # and each lex search scales its own rows: the results equal the
    # minimax LP and the lex searches run on Fraction rows.  Bases carry
    # class constants with denominators 2-7 (and the m = 9 basis at the
    # cell caps, 256 pairs); targets carry entries off the zero set with
    # denominators 3, 5 and 7.  The m = 9 basis has d = m classes, so
    # delta0 = 0 on it and only a positive slack reaches its 256 rows.
    rng = random.Random(2626)
    bases = []
    for _ in range(60):
        m = rng.randint(1, 3)
        zeros = rng.randint(1, 2)
        # At least m + 1 classes, so delta0 > 0 on most fibers.
        basis = random_basis(rng, m + zeros + rng.randint(1, 2), m, lo=-3, hi=3, zero_rows=zeros)
        rows = list(basis.matrix)
        for _ in range(rng.randint(1, 3)):
            source = rng.choice([r for r in basis.matrix if any(r)])
            const = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
            rows.insert(rng.randint(0, len(rows)), tuple(const * x for x in source))
        bases.append(validate_basis(tuple(rows)))
    n, m = 11, 9
    bases.append(validate_basis(tuple(
        tuple(Q(-3, 2) if i == n - 2 and j == 0 else Q(int(i == j)) for j in range(m))
        for i in range(n)
    )))
    seen = Counter()
    for basis in bases:
        pb = prepare(basis)
        rows = _fraction_feasibility_rows(pb)
        assert pb.feasibility_rows == rows
        for _ in range(1 if basis.m == 9 else 3):
            b = [Q(0)] * basis.n
            for pos, i in enumerate(pb.reduced.kept_indices):
                d = (3, 5, 7)[pos % 3]
                b[i] = Q(d * rng.randint(-3, 3) + rng.randint(1, d - 1), d)
            b = tuple(b)
            assert {x.denominator for x in pb.reduced.sigma(b)} == {3, 5, 7}
            rhs = feasibility_rhs(pb, b)
            t_star, alpha, _ = solve_minimax_lp(rows, rhs)
            fiber = pb.fiber(b)
            assert (fiber.rhs(pb), *fiber.threshold[:2]) == (rhs, t_star, alpha)
            witness = lex_extreme_alpha(basis, rows, rhs, +1)
            point = witness == lex_extreme_alpha(basis, rows, rhs, -1)
            for slack in (t_star, t_star + Q(rng.randint(1, 4), 11)):
                if not slack:
                    continue
                out = solve_general(basis, None, _with_slack(rng, pb, b, slack), prepared=pb)
                kind = OutcomeKind.UNIQUE if slack == t_star and point else OutcomeKind.POLYTOPE
                assert (out.kind, out.chosen_alpha) == (kind, witness)
                seen[kind, slack == t_star, basis.m == 9] += 1
    assert len(bases) == 61 and seen[OutcomeKind.POLYTOPE, False, True] == 1, seen
    assert seen[OutcomeKind.UNIQUE, True, False] >= 100, seen
    assert seen[OutcomeKind.POLYTOPE, False, False] >= 150, seen


@pytest.mark.parametrize("direction", [+1, -1])
def test_lex_extreme_alpha_over_coprime_denominators(direction):
    # Rational rows with denominator 2 and rhs with denominator 3, against
    # int `then` costs from A: lp_min clears each row by its own lcm, and
    # the search reaches the reference point at slack = t*.  The last row
    # negates the first with its rhs moved by 2k, so t* >= k and the
    # optimal face is often not one point.
    rng = random.Random(7350 + direction)
    checked = faces = 0
    while checked < 30:
        m = rng.randint(1, 3)
        basis = random_basis(rng, m + 2, m, lo=-3, hi=3)
        rows = tuple(tuple(Q(2 * rng.randint(-3, 2) + 1, 2) for _ in range(m))
                     for _ in range(m + 1))
        if rank(rows) < m:
            continue
        rhs = tuple(Q(3 * rng.randint(-3, 3) + rng.randint(1, 2), 3) for _ in rows)
        rows += (tuple(-x for x in rows[0]),)
        rhs += (-rhs[0] - 2 * rng.randint(1, 3),)
        assert {x.denominator for row in rows for x in row} == {2}
        assert {v.denominator for v in rhs} == {3}
        t_star, _, _ = solve_minimax_lp(rows, rhs)
        constraints = PolytopeConstraints(rows, rhs, t_star)
        got = lex_extreme_alpha(basis, rows, rhs, direction)
        assert got == reference_lex_extreme_alpha(basis, constraints, direction)
        assert satisfied_by(constraints, got)
        faces += got != lex_extreme_alpha(basis, rows, rhs, -direction)
        checked += 1
    assert faces >= 10


def test_shared_fiber_slot_matches_fresh_prepare(monkeypatch):
    # One prepared basis per subspace, its fibers interleaved: targets
    # equal off Z with different Z mass, and targets one off-Z coordinate
    # apart.  Every call equals the same call on a fresh prepare(basis),
    # and the shared basis solves one LP per change of fiber, none on a
    # fiber with K . sigma(b) = 0.
    calls = _count_minimax(monkeypatch)
    rng = random.Random(1414)
    seen = Counter()
    for basis, b in _zero_set_instances(rng, 170):
        pb = prepare(basis)
        nudged = list(b)
        off_z = [i for i in range(basis.n) if i not in pb.profile.zero_set]
        nudged[rng.choice(off_z)] += rng.choice((-1, 1))
        cases = _slack_cases(rng, pb, b) + _slack_cases(rng, pb, tuple(nudged))
        rng.shuffle(cases)
        previous = None
        for target, _, _ in cases:
            before = len(calls)
            if rng.random() < 0.5:
                out = solve_general(basis, None, target, prepared=pb)
                th = existence_threshold(basis, None, target, prepared=pb)
            else:
                th = existence_threshold(basis, None, target, prepared=pb)
                out = solve_general(basis, None, target, prepared=pb)
            fiber = pb.reduced.sigma(target)
            assert len(calls) - before == (fiber != previous and _poses_the_lp(pb, target))
            seen["new fiber" if fiber != previous else "same fiber"] += 1
            previous = fiber
            assert out == solve_general(basis, None, target, prepared=prepare(basis))
            assert th == existence_threshold(basis, None, target, prepared=prepare(basis))
            seen[out.kind] += 1
    assert seen["new fiber"] + seen["same fiber"] >= 1000
    assert min(seen.values()) >= 100, seen


def test_shared_slot_answers_fibers_a_a_b_a_as_a_fresh_prepare(monkeypatch):
    # One shared prepared basis visits fiber A, A again, B (A moved on one
    # coordinate off Z) and A once more; A's three zero-set masses are
    # below, at and above its delta0, in a seeded order.  Bases have m 1-3
    # and |Z| 1-2, with one or two rows added proportional to others, so
    # that classes have several coordinates, plus the FACE_POLYTOPES
    # segment faces.  Each solve_general and existence_threshold equals
    # (==) the same call on a fresh prepare, and only A's repeat is
    # answered from the slot: one ExistenceThreshold per new fiber, and one
    # minimax LP unless K . sigma(b) = 0 (B's may be 0), none on the repeat.
    calls, built = _count_minimax(monkeypatch), []
    threshold = solver.ExistenceThreshold
    monkeypatch.setattr(solver, "ExistenceThreshold",
                        lambda *args: built.append(args) or threshold(*args))
    rng = random.Random(3535)
    instances = _zero_set_instances(rng, 0, copies=20)  # the face polytopes alone
    while len(instances) < 200:
        m, zeros = rng.randint(1, 3), rng.randint(1, 2)
        basis = random_basis(rng, m + rng.randint(1, 2) + zeros, m, lo=-2, hi=2, zero_rows=zeros)
        rows = list(basis.matrix)
        for _ in range(rng.randint(1, 2)):
            source = rng.choice([r for r in rows if any(r)])
            const = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
            rows.insert(rng.randint(0, len(rows)), tuple(const * x for x in source))
        instances.append((validate_basis(tuple(rows)), random_vector(rng, len(rows), -3, 3)))
    seen = Counter()
    for basis, a in instances:
        pb = prepare(basis)
        t_a = existence_threshold(basis, None, a).delta0
        if not t_a:
            continue
        b = list(a)
        b[rng.choice([i for i in range(basis.n) if i not in pb.profile.zero_set])] += 1
        t_b = existence_threshold(basis, None, tuple(b)).delta0 or Q(1)
        masses = [t_a / 2, t_a, 3 * t_a / 2]
        rng.shuffle(masses)
        visits = [(a, masses[0]), (a, masses[1]), (tuple(b), rng.choice((t_b / 2, t_b, 2 * t_b))),
                  (a, masses[2])]
        for (fiber, mass), new in zip(visits, (1, 0, 1, 1)):
            target, before, built_before = _with_slack(rng, pb, fiber, mass), len(calls), len(built)
            if rng.random() < 0.5:
                out = solve_general(basis, None, target, prepared=pb)
                th = existence_threshold(basis, None, target, prepared=pb)
            else:
                th = existence_threshold(basis, None, target, prepared=pb)
                out = solve_general(basis, None, target, prepared=pb)
            lps = new * _poses_the_lp(pb, fiber)
            assert (len(calls) - before, len(built) - built_before) == (lps, new)
            assert out == solve_general(basis, None, target, prepared=prepare(basis))
            assert th == existence_threshold(basis, None, target, prepared=prepare(basis))
            seen[out.kind] += 1
            seen["segment face"] += mass == th.delta0 and out.kind is OutcomeKind.POLYTOPE
        kept = basis.n - len(pb.profile.zero_set)
        seen["several-coordinate classes"] += len(pb.profile.classes) < kept
    assert min(seen.values()) >= 40, seen


def test_zero_set_mass_is_compared_with_delta0_exactly():
    # delta0 = 41/42 split over two zero-set coordinates as delta0/3 +
    # 2 delta0/3, with denominators 126 and 63, is unique; moving either
    # share by 1/(126 * 63) flips it to polytope or not-exists.  A polytope's
    # slack is the Fraction sum of the masses, and a target given as ints
    # answers as its Fraction form does.
    basis = column_basis(*(c[:-1] + (0, 0) for c in THRESHOLD_BASIS_COLUMNS))
    pb = prepare(basis)
    off_z = tuple(Q(k, 2) for k in range(1, 7))
    first, second = Q(41, 42) / 3, 2 * Q(41, 42) / 3
    assert (first.denominator, second.denominator) == (126, 63)
    eps = Q(1, 126 * 63)
    cases = [
        ((first, second), OutcomeKind.UNIQUE),
        ((-first, second), OutcomeKind.UNIQUE),
        ((first + eps, second), OutcomeKind.POLYTOPE),
        ((first, -second - eps), OutcomeKind.POLYTOPE),
        ((first - eps, second), OutcomeKind.NOT_EXISTS),
        ((-first, second - eps), OutcomeKind.NOT_EXISTS),
    ]
    for z, kind in cases:
        b = off_z + z
        out = solve_general(basis, None, b, prepared=pb)
        assert out.kind is kind
        assert out == solve_general(basis, None, b, prepared=prepare(basis))
        assert existence_threshold(basis, None, b, prepared=pb).delta0 == Q(41, 42)
        if kind is OutcomeKind.POLYTOPE:
            assert out.constraints.slack == abs(z[0]) + abs(z[1])
            assert type(out.constraints.slack) is Q
    ints = tuple(range(21, 127, 21))  # 21 times (1..6): delta0 = 41
    for z, kind in [((14, -27), OutcomeKind.UNIQUE), ((14, 28), OutcomeKind.POLYTOPE),
                    ((-13, 27), OutcomeKind.NOT_EXISTS)]:
        b = ints + z
        out = solve_general(basis, None, b, prepared=pb)
        assert (out.kind, existence_threshold(basis, None, b, prepared=pb).delta0) == (kind, 41)
        assert out == solve_general(basis, None, tuple(map(Q, b)), prepared=pb)
        assert out == solve_general(basis, None, tuple(map(Q, b)), prepared=prepare(basis))
        if kind is OutcomeKind.POLYTOPE:
            assert (out.constraints.slack, type(out.constraints.slack)) == (42, Q)


def test_fiber_slot_searches_each_direction_once_per_fiber(monkeypatch):
    # A seeded stream on one shared prepared basis: three fibers per
    # subspace, interleaved and revisited, at zero-set masses 0, below,
    # at and above delta0, each target solved, asked for its threshold,
    # or both in either order.  Every answer equals a fresh prepare's, and
    # the searches are exactly those a one-slot model predicts: a new
    # fiber costs one minimax LP (none where K . sigma(b) = 0) and
    # empties the slot, and each lex direction is searched at most once
    # while the slot holds a fiber, and never on a fiber whose minimax LP
    # certifies a one-point face.  A solve at zero mass leaves the slot as it is.
    lex = []
    monkeypatch.setattr(solver, "lex_extreme_alpha",
                        lambda *args: lex.append(args[3]) or lex_extreme_alpha(*args))
    minimax = _count_minimax(monkeypatch)
    rng = random.Random(2727)
    seen = Counter()
    # Most random fibers certify a point and search nothing: the face
    # polytope copies keep the searches the slot reuses at their floor.
    for basis, b in _zero_set_instances(rng, 60, copies=20):
        pb = prepare(basis)
        off_z = [i for i in range(basis.n) if i not in pb.profile.zero_set]
        fibers = [b]
        for _ in range(2):
            nudged = list(b)
            nudged[rng.choice(off_z)] += rng.choice((-1, 1))
            fibers.append(tuple(nudged))
        cases = [case for f in fibers for case in _slack_cases(rng, pb, f)]
        point = {pb.reduced.sigma(f): _certifies_one_point(pb, f) for f in fibers}
        slot, searched = None, set()
        for target, slack, t_star in [rng.choice(cases) for _ in range(3 * len(cases))]:
            lex_before, minimax_before = len(lex), len(minimax)
            ask = rng.choice(("solve", "solve, threshold", "threshold, solve"))
            got = {}
            for what in ask.split(", "):
                if what == "solve":
                    got[what] = solve_general(basis, None, target, prepared=pb)
                else:
                    got[what] = existence_threshold(basis, None, target, prepared=pb)
            key = pb.reduced.sigma(target)
            if slack or "threshold" in got:
                assert len(minimax) - minimax_before == (key != slot and _poses_the_lp(pb, target))
                seen["new fiber" if key != slot else "same fiber"] += 1
                if key != slot:
                    slot, searched = key, set()
            else:
                assert len(minimax) == minimax_before
                seen["slot untouched"] += 1
            if not slack or slack < t_star or point[key]:
                needed = set()
            else:
                needed = {+1, -1} if slack == t_star else {+1}
            assert sorted(lex[lex_before:]) == sorted(needed - searched), (ask, slack, t_star)
            seen["searches reused"] += bool(needed & searched)
            searched |= needed
            fresh = prepare(basis)
            if "solve" in got:
                assert got["solve"] == solve_general(basis, None, target, prepared=fresh)
                seen[got["solve"].kind] += 1
            if "threshold" in got:
                assert got["threshold"] == existence_threshold(basis, None, target, prepared=fresh)
    assert seen["new fiber"] + seen["same fiber"] >= 1000, seen
    assert min(seen.values()) >= 100, seen


def test_one_point_rule_is_sound_where_it_fires(monkeypatch):
    # The fiber slot skips both lex searches when its minimax LP
    # certifies a one-point optimal face: t* = 0 (the face solves the
    # class-sum rows, of rank m) or m + 1 nonzero multipliers (every free
    # variable basic, every nonbasic slack with a positive reduced cost).
    # On seeded zero-set fibers with m <= 3, the slot's two answers equal
    # both lex searches run directly, so where the rule fires both reach
    # alpha*; where it does not, both searches run, and faces that are
    # segments are among those.
    searched = []
    monkeypatch.setattr(solver, "lex_extreme_alpha",
                        lambda *args: searched.append(args) or lex_extreme_alpha(*args))
    rng = random.Random(2886)
    seen = Counter()
    for _ in range(2400):
        m, zeros = rng.choice((1, 2, 2, 3, 3)), rng.randint(1, 2)
        basis = random_basis(rng, m + rng.randint(1, 2) + zeros, m, lo=-2, hi=2, zero_rows=zeros)
        b = random_vector(rng, basis.n, -3, 3)
        pb = prepare(basis)
        fiber = pb.fiber(b)
        (t_star, alpha, _), lex = fiber.threshold, fiber.lex
        before = len(searched)
        got = (lex(+1), lex(-1))
        lo, hi = _search_fiber(pb, b)
        assert got == (lo, hi), (basis.matrix, b)
        if len(searched) == before:
            assert lo == hi == alpha
            seen["t* = 0" if not t_star else "multipliers"] += 1
        else:
            assert len(searched) - before == 2
            seen["segment" if lo != hi else "uncertified point"] += 1
    assert sum(seen.values()) >= 2000, seen
    assert seen["t* = 0"] >= 500 and seen["multipliers"] >= 500, seen
    assert seen["segment"] >= 20, seen


@pytest.mark.parametrize("direction", [+1, -1])
def test_lex_search_over_the_m_independent_rows_matches_all_n_rows(monkeypatch, direction):
    # lex_extreme_alpha passes all n rows of A, zero rows and rows
    # dependent on earlier ones included; a search over only the m rows
    # that greedy in-order independence keeps reaches the same point with
    # the same pivots, since a skipped row is constant on the face its
    # predecessors leave.  On zero-set bases (every third with a row
    # proportional to another) and on the m = 9 basis at the cell caps.
    pivots = []
    pivot = lp.bareiss_pivot
    monkeypatch.setattr(lp, "bareiss_pivot", lambda *args: pivots.append(1) or pivot(*args))
    rng = random.Random(9090 + direction)
    n, m = 11, 9
    capped = validate_basis(tuple(
        tuple(Q(-3, 2) if i == n - 2 and j == 0 else Q(int(i == j)) for j in range(m))
        for i in range(n)
    ))
    cases = _zero_set_instances(rng, 100) + [(capped, tuple(Q(k % 4 - 1, 3) for k in range(n)))]
    seen = Counter()
    for basis, b in cases:
        pb = prepare(basis)
        rows = pb.feasibility_rows
        rhs = feasibility_rhs(pb, b)
        kept = independent_rows(basis)
        assert len(kept) == basis.m and rank(kept) == basis.m
        skipped = [r for r in basis.int_rows if r not in kept]
        seen["zero rows"] += sum(not any(r) for r in skipped)
        seen["dependent rows"] += sum(any(r) for r in skipped)
        start = len(pivots)
        got = lex_extreme_alpha(basis, rows, rhs, direction)
        mid = len(pivots)
        assert got == independent_rows_lex_extreme_alpha(basis, rows, rhs, direction)
        assert mid - start == len(pivots) - mid
        seen["searches", basis.m == 9] += 1
        seen["pivots"] += mid - start
    assert seen["searches", True] == 1 and seen["searches", False] >= 100, seen
    assert seen["zero rows"] >= 60 and seen["dependent rows"] >= 60, seen
    assert seen["pivots"] >= 200, seen


@pytest.mark.parametrize("call, error, message", [
    (lambda pb: solver.NOT_EXISTS.chosen_alpha,
     NoCoapproximationError, "outcome carries no coefficient vector"),
    (lambda pb: solve_empty_zero_set(pb, (1,) * 6),
     DimensionError, "target length does not match ambient dimension"),
    (lambda pb: existence_threshold(pb.basis, None, (1,) * 8, prepared=pb),
     DimensionError, "target length does not match ambient dimension"),
], ids=["chosen_alpha on not-exists", "solve_empty_zero_set", "existence_threshold"])
def test_solver_refusals(call, error, message):
    pb = prepare(column_basis(*THRESHOLD_BASIS_COLUMNS))  # n = 7, one zero row
    with pytest.raises(error) as raised:
        call(pb)
    assert (type(raised.value), str(raised.value)) == (error, message)

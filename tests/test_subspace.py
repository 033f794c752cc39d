import random
from fractions import Fraction as Q

import pytest

from coapprox import (
    DimensionError,
    RankDeficientError,
    SubspaceBasis,
    ZeroSubspaceError,
    build_profile,
    existence_threshold,
    l1_norm,
    mat,
    reduce_sigma,
    validate_basis,
    vec,
)
from coapprox.exact import rank
from coapprox.instances import random_basis, random_vector
from tests.reference import (
    apply_rho,
    column_basis,
    columns,
    lift,
    partition,
    random_invertible,
    recombine,
)


class TestValidateBasis:
    def test_worked_fixture(self, span3_l16):
        assert (span3_l16.n, span3_l16.m) == (6, 3)
        assert columns(span3_l16)[0] == vec((4, 2, 1, -1, -4, 4))

    def test_duplicate_column_rejected(self):
        with pytest.raises(RankDeficientError):
            column_basis((1, 2, 0), (1, 2, 0))

    def test_single_column(self):
        basis = column_basis((0, 5, 0))
        assert basis.m == 1

    def test_more_columns_than_rows(self):
        with pytest.raises(DimensionError):
            validate_basis(mat([(1, 0)]))

    def test_empty(self):
        with pytest.raises(DimensionError):
            validate_basis(())

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[1], [1]]
        basis = validate_basis(rows)
        assert hash(basis) == hash(validate_basis(((1,), (1,))))
        assert basis == validate_basis(((1,), (1,)))
        rows[0][0] = 5
        rows.append([0])
        assert basis.matrix == basis.int_rows == ((1,), (1,))


class TestBuildProfile:
    def test_worked_fixture(self, span3_l16):
        profile = build_profile(span3_l16)
        assert profile.zero_set == ()
        assert profile.d == 4
        assert partition(profile) == frozenset(
            {frozenset({0, 4}), frozenset({1, 5}), frozenset({2}), frozenset({3})}
        )
        assert (4, Q(-1)) in profile.classes[0].members
        assert (5, Q(2)) in profile.classes[1].members

    def test_zero_set_read_off(self, pair_l17_coproximinal):
        profile = build_profile(pair_l17_coproximinal)
        assert profile.zero_set == (3, 6)

    def test_proportional_scalar_rows_merge(self):
        profile = build_profile(column_basis((1, 0, 1)))
        assert profile.zero_set == (1,)
        assert profile.d == 1
        assert partition(profile) == frozenset({frozenset({0, 2})})

    @pytest.mark.parametrize("rows", [
        ((1,), (3,), (10**17 + 1,), (0,)),
        ((Q(1, 2),), (Q(3, 2),), (Q(10**17 + 1, 2),), (Q(0),)),
    ], ids=["ints", "fractions"])
    def test_constants_are_exact_fractions(self, rows):
        # Int entries divide exactly too; true division would give the
        # 10**17 + 1 row the float 1e+17.
        profile = build_profile(validate_basis(rows))
        (cls,) = profile.classes
        assert cls.members == ((0, 1), (1, 3), (2, 10**17 + 1))
        assert all(type(c) is Q for _, c in cls.members)
        assert profile.zero_set == (3,)


class TestReduceSigma:
    def test_drops_zero_rows(self, pair_l17_coproximinal):
        profile = build_profile(pair_l17_coproximinal)
        reduced = reduce_sigma(pair_l17_coproximinal, profile)
        assert reduced.kept_indices == (0, 1, 2, 4, 5)
        assert columns(reduced.basis) == (
            vec((1, 1, 2, 4, -2)),
            vec((1, 2, 2, 4, -4)),
        )
        assert build_profile(reduced.basis).zero_set == ()

    def test_identity_when_zero_set_empty(self, span3_l16):
        profile = build_profile(span3_l16)
        reduced = reduce_sigma(span3_l16, profile)
        assert reduced.basis.matrix == span3_l16.matrix
        assert reduced.kept_indices == tuple(range(6))

    def test_single_surviving_coordinate(self):
        basis = column_basis((0, 5, 0))
        reduced = reduce_sigma(basis, build_profile(basis))
        assert reduced.basis.matrix == mat([(5,)])

    def test_sigma_and_lift(self, pair_l17_coproximinal):
        profile = build_profile(pair_l17_coproximinal)
        reduced = reduce_sigma(pair_l17_coproximinal, profile)
        v = vec((5, 4, 0, 9, 1, 5, 8))
        down = reduced.sigma(v)
        assert down == vec((5, 4, 0, 1, 5))
        assert lift(reduced, down) == vec((5, 4, 0, 0, 1, 5, 0))


class TestApplyRho:
    def test_definition(self, pair_l17_coproximinal):
        profile = build_profile(pair_l17_coproximinal)
        v = vec((5, 4, 0, 9, 1, 5, 8))
        assert apply_rho(v, profile) == vec((5, 4, 0, 0, 1, 5, 0))

    def test_empty_zero_set_is_identity(self, span3_l16):
        profile = build_profile(span3_l16)
        v = vec((1, 2, 3, 4, 5, 6))
        assert apply_rho(v, profile) == v

    def test_zero_fixed_point(self, pair_l17_coproximinal):
        profile = build_profile(pair_l17_coproximinal)
        assert apply_rho(vec([0] * 7), profile) == vec([0] * 7)


def test_profile_is_basis_invariant():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        other = recombine(basis, random_invertible(rng, m))
        p1, p2 = build_profile(basis), build_profile(other)
        assert p1.zero_set == p2.zero_set
        assert partition(p1) == partition(p2)
        assert p1.d == p2.d


def _scan_profile(basis):
    """The profile by scanning every earlier class: a row joins the first
    class whose representative it is an exact multiple of."""
    classes, zero_set = [], []
    for i, row in enumerate(basis.matrix):
        if not any(row):
            zero_set.append(i)
            continue
        for members in classes:
            rep = basis.matrix[members[0][0]]
            j0 = next(j for j, x in enumerate(rep) if x)
            c = row[j0] / rep[j0]
            if c and all(x == c * r for x, r in zip(row, rep)):
                members.append((i, c))
                break
        else:
            classes.append([(i, Q(1))])
    return [tuple(members) for members in classes], tuple(zero_set)


def test_profile_matches_scan_reference():
    # Proportional rows of either sign with mixed denominators, zero rows
    # and random rows: the same classes, representatives, member order
    # and exact constants as the scan.
    rng = random.Random(3131)
    merged = 0
    for case in range(400):
        m = rng.randint(1, 4)
        rows = [tuple(Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) for _ in range(m))
                for _ in range(rng.randint(m, m + 3))]
        for _ in range(rng.randint(0, 4)):
            c = Q(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
            rows.append(tuple(c * x for x in rng.choice(rows)))
        rows += [(Q(0),) * m] * rng.randint(0, 2)
        rng.shuffle(rows)
        if rank(rows) < m:
            continue
        basis = validate_basis(tuple(rows))
        profile = build_profile(basis)
        classes, zero_set = _scan_profile(basis)
        assert [cls.members for cls in profile.classes] == classes, case
        assert [cls.representative for cls in profile.classes] == [c[0][0] for c in classes]
        assert (profile.zero_set, profile.d) == (zero_set, len(classes)), case
        merged += profile.d < basis.n - len(zero_set)
    assert merged >= 150


def test_rho_sigma_identities():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        profile = build_profile(basis)
        reduced = reduce_sigma(basis, profile)
        v = random_vector(rng, n)
        rho_v = apply_rho(v, profile)
        assert apply_rho(rho_v, profile) == rho_v
        assert reduced.sigma(rho_v) == reduced.sigma(v)
        assert l1_norm(rho_v) <= l1_norm(v)
        assert l1_norm(reduced.sigma(v)) <= l1_norm(v)


def _entry(rng, kind):
    """An int, a Fraction or either (`kind` "mixed"); one in five has a
    10-13 digit numerator and, as a Fraction, an 11 digit denominator."""
    big = rng.random() < 0.2
    num = rng.randint(-10**12, 10**12) if big else rng.randint(-6, 6)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return num
    return Q(num, rng.randint(10**10, 10**11) if big else rng.randint(1, 9))


def test_combine_matches_fraction_sums():
    # combine sums in ints over one common denominator; the oracle reads
    # it too, so this differential test is what guards it.
    rng = random.Random(1818)
    for _ in range(400):
        kind = rng.choice(("int", "fraction", "mixed"))
        n = rng.randint(1, 7)
        m = rng.randint(1, n)
        rows = [[_entry(rng, kind) for _ in range(m)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n - 1)):
            rows[i] = [0 if kind == "int" else Q(0)] * m
        basis = SubspaceBasis(n=n, m=m, matrix=tuple(map(tuple, rows)))
        ckind = rng.choice(("int", "fraction", "mixed"))
        for coeffs in ((0,) * m, tuple(_entry(rng, ckind) for _ in range(m))):
            got = basis.combine(coeffs)
            want = tuple(sum((row[j] * coeffs[j] for j in range(m)), Q(0)) for row in rows)
            assert got == want, (rows, coeffs)
            assert all(type(x) is Q for x in got)
        with pytest.raises(DimensionError):
            basis.combine((1,) * (m + 1))


def test_threshold_rho_mass_is_the_l1_norm_of_rho():
    rng = random.Random(1819)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n - 1))
        basis = random_basis(rng, n, m, zero_rows=rng.randint(1, n - m))
        b = tuple(Q(_entry(rng, "mixed")) for _ in range(n))
        th = existence_threshold(basis, None, b)
        assert th.rho_mass == l1_norm(apply_rho(b, build_profile(basis)))
        assert th.delta0 <= th.rho_mass


def _with_profile(basis):
    return basis, build_profile(basis)


@pytest.mark.parametrize("call, error, message", [
    (lambda: validate_basis(((1, 0), (1,))), DimensionError, "ragged basis matrix"),
    (lambda: validate_basis(((1, 0), (0, 1), (1, 2, 3))), DimensionError, "ragged basis matrix"),
    (lambda: reduce_sigma(*_with_profile(column_basis((1, 0, 2)))).sigma((1, 2)),
     DimensionError, "sigma expects an ambient-length vector"),
    # validate_basis refuses a zero basis as rank-deficient, so only a
    # hand-built one reaches reduce_sigma.
    (lambda: reduce_sigma(*_with_profile(SubspaceBasis(n=2, m=1, matrix=((Q(0),), (Q(0),))))),
     ZeroSubspaceError, "all coordinate rows are zero"),
], ids=["short row", "long row", "sigma length", "all-zero basis"])
def test_subspace_refusals(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)

import random
from fractions import Fraction as Q

import pytest

from coapprox import (
    DimensionError,
    OutcomeKind,
    classify,
    prepare,
    solve_general,
    verify_best_coapprox,
)
from coapprox.instances import random_basis, random_vector
from tests.reference import (
    column_basis,
    random_invertible,
    recombine,
    reference_lex_extreme_alpha,
)


def test_worked_fixture_not_coproximinal(span3_l16):
    report = classify(span3_l16)
    assert not report.coproximinal
    assert not report.co_chebyshev
    assert (report.m, report.q, report.d) == (3, 4, 4)


def test_pair_l17_coproximinal(pair_l17_coproximinal):
    report = classify(pair_l17_coproximinal)
    assert report.coproximinal
    assert not report.co_chebyshev
    assert report.zero_set_size == 2
    assert "sigma-reduction" in report.rationale


def test_pair_l17_not_coproximinal(pair_l17_not_coproximinal):
    report = classify(pair_l17_not_coproximinal)
    assert not report.coproximinal
    assert not report.co_chebyshev


def test_pair_l15_cochebyshev(pair_l15_cochebyshev):
    report = classify(pair_l15_cochebyshev)
    assert report.coproximinal
    assert report.co_chebyshev
    assert report.zero_set_size == 0


def test_refuses_a_basis_prepared_for_another_subspace(pair_l15_cochebyshev,
                                                        pair_l17_not_coproximinal):
    # Unguarded, this answered for the other subspace: not coproximinal,
    # with a zero set of size 2.
    with pytest.raises(DimensionError, match="prepared basis"):
        classify(pair_l15_cochebyshev, prepared=prepare(pair_l17_not_coproximinal))
    same = column_basis((1, 1, 2, 4, -2), (1, 2, 2, 4, -4))
    assert classify(pair_l15_cochebyshev, prepared=prepare(same)) == classify(same)


def test_full_space_shortcut():
    basis = column_basis((1, 0), (0, 1))
    report = classify(basis)
    assert report.coproximinal and report.co_chebyshev
    assert report.rationale == ("full-space",)


def test_invariants_always_hold():
    rng = random.Random(70)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n))
        zero_rows = min(rng.choice((0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        report = classify(basis)
        assert report.co_chebyshev <= report.coproximinal
        if report.zero_set_size > 0:
            assert not report.co_chebyshev


def test_basis_invariance():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 1)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        other = recombine(basis, random_invertible(rng, m))
        r1, r2 = classify(basis), classify(other)
        assert (r1.coproximinal, r1.co_chebyshev, r1.q, r1.d) == (
            r2.coproximinal,
            r2.co_chebyshev,
            r2.q,
            r2.d,
        )


def test_coproximinality_matches_sampled_solvability():
    rng = random.Random(72)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 1)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        pb = prepare(basis)
        report = classify(basis, prepared=pb)
        outcomes = [
            solve_general(basis, pb.profile, random_vector(rng, n), prepared=pb).kind
            for _ in range(100)
        ]
        if report.coproximinal:
            assert OutcomeKind.NOT_EXISTS not in outcomes
        else:
            # q > m leaves an inconsistent direction; random integer
            # targets hit it essentially always.
            assert OutcomeKind.NOT_EXISTS in outcomes


def test_zero_set_coproximinal_has_multiple_solutions():
    rng = random.Random(73)
    found = 0
    while found < 10:
        n = rng.randint(3, 6)
        m = rng.randint(1, min(2, n - 2))
        basis = random_basis(rng, n, m, zero_rows=rng.randint(1, n - m - 1))
        pb = prepare(basis)
        report = classify(basis, prepared=pb)
        if not report.coproximinal:
            continue
        # Target supported on the zero set: rho(b) = 0, b not in Y.
        b = [Q(0)] * n
        b[pb.profile.zero_set[0]] = Q(rng.randint(1, 5))
        out = solve_general(basis, pb.profile, tuple(b), prepared=pb)
        assert out.kind is OutcomeKind.POLYTOPE
        other = reference_lex_extreme_alpha(basis, out.constraints, -1)
        assert other != out.witness
        for alpha in (out.witness, other):
            verdict = verify_best_coapprox(basis, tuple(b), alpha)
            assert verdict.confirmed
        found += 1

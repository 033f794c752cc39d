"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

All random corpora are seeded, so every run checks the identical
instances; tolerances are exact equality throughout (the package has no
floating point to be approximate about).
"""
import random
import time
from fractions import Fraction as Q

from coapprox import (
    OutcomeKind,
    brute_force_existence,
    classify,
    existence_threshold,
    l1_norm,
    prepare,
    projection_map,
    solve_general,
    vec,
    verify_best_coapprox,
)
from coapprox.instances import random_basis, random_vector
from tests.reference import (
    column_basis,
    pairs,
    partition,
    random_invertible,
    recombine,
    reference_lex_extreme_alpha,
    system_rhs,
    system_rows,
)

EXPECTED_PAIRS = (
    (1, 1, 1, 1, -1, 1),
    (1, 1, 1, -1, -1, 1),
    (1, 1, -1, -1, -1, 1),
    (1, -1, -1, -1, -1, -1),
)
EXPECTED_ROWS = (
    (Q(14), Q(14), Q(17)),
    (Q(16), Q(10), Q(15)),
    (Q(14), Q(0), Q(11)),
    (Q(2), Q(-18), Q(-13)),
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _fixture_basis():
    return column_basis(
        (4, 2, 1, -1, -4, 4),
        (-1, 3, 5, 2, 1, 6),
        (1, 4, 2, 1, -1, 8),
    )


def test_criterion_1_norming_set_of_worked_basis():
    start = time.perf_counter()
    norming = prepare(_fixture_basis()).norming
    elapsed = time.perf_counter() - start
    ok = (
        norming.system_basis == EXPECTED_PAIRS
        and norming.span_dim == 4
        and elapsed < 1.0
    )
    _report(1, ok, f"norming-set pairs and q=4 in {elapsed:.3f}s")


def test_criterion_2_system_and_solutions():
    start = time.perf_counter()
    basis = _fixture_basis()
    pb = prepare(basis)
    b1 = vec((1, 2, 3, 4, 5, 6))
    b2 = vec((5, 4, 0, 0, 1, 5))
    checks = [
        system_rows(pb) == EXPECTED_ROWS,
        system_rhs(pb, b1) == (Q(11), Q(3), Q(-3), Q(-19)),
        system_rhs(pb, b2) == (Q(13), Q(13), Q(13), Q(-5)),
    ]
    out1 = solve_general(basis, pb.profile, b1, prepared=pb)
    checks.append(out1.kind is OutcomeKind.NOT_EXISTS)
    out2 = solve_general(basis, pb.profile, b2, prepared=pb)
    checks.append(out2.kind is OutcomeKind.UNIQUE)
    checks.append(out2.coefficients == (Q(1, 7), Q(-3, 7), Q(1)))
    checks.append(out2.vector == vec((2, 3, 0, 0, -2, 6)))
    proj = projection_map(basis, b2, out2)
    checks.append(proj.image_of_target == vec((2, 3, 0, 0, -2, 6)))
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 1.0)
    _report(2, all(checks), f"assembled system, b1/b2 outcomes, projection in {elapsed:.3f}s")


def test_criterion_3_classification_fixtures():
    checks = []
    y1 = classify(column_basis((1, 1, 2, 0, 4, -2, 0), (1, 2, 2, 0, 4, -4, 0)))
    checks.append(y1.coproximinal and not y1.co_chebyshev)
    y2 = classify(column_basis((1, 0, 2, 3, -1, -2, 0), (-1, 0, 1, 0, 1, -1, 0)))
    checks.append(not y2.coproximinal)
    y3 = classify(column_basis((1, 1, 2, 4, -2), (1, 2, 2, 4, -4)))
    checks.append(y3.coproximinal and y3.co_chebyshev)
    fixture = classify(_fixture_basis())
    checks.append(not fixture.coproximinal and fixture.q == 4 and fixture.m == 3)
    _report(3, all(checks), "coproximinal / co-Chebyshev flags on all four fixtures")


def test_criterion_4_basis_invariance():
    rng = random.Random(404)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        other = recombine(basis, random_invertible(rng, m))
        pb1, pb2 = prepare(basis), prepare(other)
        same = (
            pb1.profile.zero_set == pb2.profile.zero_set
            and partition(pb1.profile) == partition(pb2.profile)
            and pairs(pb1.norming.representatives) == pairs(pb2.norming.representatives)
        )
        c1, c2 = classify(basis, prepared=pb1), classify(other, prepared=pb2)
        same = same and (
            (c1.coproximinal, c1.co_chebyshev, c1.q, c1.d)
            == (c2.coproximinal, c2.co_chebyshev, c2.q, c2.d)
        )
        for _ in range(3):
            b = random_vector(rng, n)
            o1 = solve_general(basis, pb1.profile, b, prepared=pb1)
            o2 = solve_general(other, pb2.profile, b, prepared=pb2)
            same = same and o1.kind is o2.kind and o1.vector == o2.vector
        if not same:
            failures += 1
    _report(4, failures == 0, f"100 random bases recombined, {failures} mismatches")


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(505)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        pb = prepare(basis)
        b = random_vector(rng, n)
        out = solve_general(basis, pb.profile, b, prepared=pb)
        if out.kind is OutcomeKind.NOT_EXISTS:
            if brute_force_existence(basis, b, Q(5), Q(1, 2)).exists:
                disagreements += 1
        else:
            verdict = verify_best_coapprox(basis, b, out.chosen_alpha)
            if not verdict.confirmed:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 300.0
    _report(5, ok, f"500 instances, {disagreements} disagreements, {elapsed:.0f}s")


def test_criterion_6_uniqueness_and_rank_sandwich():
    rng = random.Random(606)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        basis = random_basis(rng, n, m)  # generator guarantees no zero rows
        pb = prepare(basis)
        profile = pb.profile
        ok = basis.m <= pb.norming.span_dim <= profile.d
        b = random_vector(rng, n)
        # solve_general raises InternalInconsistencyError on an
        # underdetermined system; reaching an outcome is the check.
        out = solve_general(basis, profile, b, prepared=pb)
        ok = ok and out.kind in (OutcomeKind.NOT_EXISTS, OutcomeKind.UNIQUE)
        if not ok:
            failures += 1
    _report(6, failures == 0, f"200 empty-zero-set instances, {failures} failures")


def _random_positive_threshold_instance(rng):
    """Basis with zero set plus target whose critical mass exceeds 1/100."""
    while True:
        n = rng.randint(4, 6)
        m = rng.randint(1, 2)
        zero_rows = rng.randint(1, min(2, n - m - 1))
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        pb = prepare(basis)
        if pb.norming.span_dim == basis.m:
            continue  # coproximinal: every threshold is zero
        b = random_vector(rng, n)
        th = existence_threshold(basis, pb.profile, b, prepared=pb)
        if th.delta0 > Q(1, 100):
            return basis, pb, b, th


def test_criterion_7_threshold_dichotomy():
    rng = random.Random(707)
    failures = 0
    for _ in range(50):
        basis, pb, b, th = _random_positive_threshold_instance(rng)
        zero_coord = pb.profile.zero_set[0]
        ok = th.delta0 <= l1_norm(
            tuple(x if i not in pb.profile.zero_set else Q(0) for i, x in enumerate(b))
        )
        for mass, expect_exists in (
            (th.delta0 - Q(1, 100), False),
            (th.delta0, True),
            (th.delta0 + Q(1, 100), True),
        ):
            y = list(b)
            for i in pb.profile.zero_set:
                y[i] = Q(0)
            y[zero_coord] = mass
            out = solve_general(basis, pb.profile, tuple(y), prepared=pb)
            exists = out.kind is not OutcomeKind.NOT_EXISTS
            ok = ok and exists == expect_exists
        if not ok:
            failures += 1
    _report(7, failures == 0, f"50 threshold dichotomies at +-1/100, {failures} failures")


def test_criterion_8_zero_set_multiplicity():
    rng = random.Random(808)
    failures = 0
    for _ in range(50):
        while True:
            n = rng.randint(3, 6)
            m = rng.randint(1, min(2, n - 2))
            basis = random_basis(rng, n, m, zero_rows=rng.randint(1, n - m - 1))
            pb = prepare(basis)
            if pb.norming.span_dim == basis.m:
                break
        b = [Q(0)] * n
        b[pb.profile.zero_set[0]] = Q(rng.randint(1, 5))
        b = tuple(b)
        out = solve_general(basis, pb.profile, b, prepared=pb)
        ok = out.kind is OutcomeKind.POLYTOPE
        if ok:
            second = reference_lex_extreme_alpha(basis, out.constraints, -1)
            ok = second != out.witness
            for alpha in (out.witness, second):
                verdict = verify_best_coapprox(basis, b, alpha)
                ok = ok and verdict.confirmed
        if not ok:
            failures += 1
    _report(8, failures == 0, f"50 zero-set coproximinal multiplicity checks, {failures} failures")

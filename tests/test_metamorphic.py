"""Metamorphic checks under the isometries of l1^n, translations and scalings.

The linear isometries of l1^n are the signed permutations of coordinates.
A signed permutation P maps the subspace A.alpha to (P.A).alpha and the
target b to P.b, and preserves every l1 distance, so the best
coapproximations of P.b in span(P.A) are those of b in span(A), with the
same coefficients.  The outcome's kind, the unique coefficients and the
existence threshold delta0 must not move, and the oracle must confirm
each input's chosen coefficients on the other input.

Translating b by A.gamma translates every distance to the subspace
along with it, so the solution set moves by gamma: the kind and delta0
stay, the unique coefficients and the lex-smallest polytope witness
shift by gamma.  Scaling b by lambda != 0 scales every distance by
|lambda|, so the solution set is lambda times the old one: the kind
stays, delta0 scales by |lambda|, the unique coefficients by lambda,
and the oracle confirms lambda times each input's chosen coefficients
on the other input.
"""
import random
from fractions import Fraction as Q

import pytest

from coapprox import (OutcomeKind, existence_threshold, prepare, solve_general,
                      validate_basis, verify_best_coapprox)
from coapprox.exact import vec_add, vec_scale
from coapprox.instances import random_basis, random_vector

SEED = 1993


def _signed_permutation(rng, n):
    """P on a target and on a basis matrix's rows: entry i of P.x is
    s_i x_{p(i)}, row i of P.A is s_i A_{p(i)}."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]

    def on_target(x):
        return tuple(s * x[p] for p, s in zip(perm, signs))

    def on_rows(a):
        return tuple(tuple(s * v for v in a[p]) for p, s in zip(perm, signs))

    return on_target, on_rows


def _targets(rng, basis):
    """A random target, a member plus mass on one coordinate, and a member."""
    alpha = random_vector(rng, basis.m, -2, 2)
    member = basis.combine(alpha)
    bumped = list(member)
    bumped[rng.randrange(basis.n)] += Q(rng.randint(1, 4), rng.randint(1, 2))
    return random_vector(rng, basis.n), tuple(bumped), member


def _check(pb, b, moved_pb, moved_b, kinds):
    basis, moved_basis = pb.basis, moved_pb.basis
    got = solve_general(basis, None, b, prepared=pb)
    moved = solve_general(moved_basis, None, moved_b, prepared=moved_pb)
    assert moved.kind is got.kind
    kinds[got.kind] += 1
    if got.kind is OutcomeKind.UNIQUE:
        assert moved.coefficients == got.coefficients
    if pb.profile.zero_set:
        assert (existence_threshold(moved_basis, None, moved_b, prepared=moved_pb).delta0
                == existence_threshold(basis, None, b, prepared=pb).delta0)
    if got.kind is not OutcomeKind.NOT_EXISTS:
        assert verify_best_coapprox(moved_basis, moved_b, got.chosen_alpha).confirmed
        assert verify_best_coapprox(basis, b, moved.chosen_alpha).confirmed


def _bases(rng):
    """Seeded bases with m <= 4 and up to two zero rows, and the m = 9
    basis at the cell caps (the identity, a copy of its first row and a
    zero row: 9 planes cutting 256 pairs)."""
    cases = []
    for k in range(60):
        m = 1 + k % 4
        n = rng.randint(m + 1, m + 4)
        cases.append(random_basis(rng, n, m, zero_rows=rng.randint(0, min(2, n - m))))
    n, m = 11, 9
    cases.append(validate_basis(tuple(
        tuple(Q(int(i == j or (i == n - 2 and j == 0))) for j in range(m)) for i in range(n)
    )))
    return cases


@pytest.fixture(scope="module")
def solved():
    """(prepared basis, target, outcome, delta0 or None) on the seeded
    bases of the permutation test, three targets each, solved once."""
    rng = random.Random(SEED + 1)
    out = []
    for basis in _bases(random.Random(SEED)):
        pb = prepare(basis)
        for b in _targets(rng, basis):
            delta0 = (existence_threshold(basis, None, b, prepared=pb).delta0
                      if pb.profile.zero_set else None)
            out.append((pb, b, solve_general(basis, None, b, prepared=pb), delta0))
    return out


def test_signed_permutations_preserve_every_outcome():
    # Each seeded basis with three targets under one random signed permutation.
    rng = random.Random(SEED)
    kinds = dict.fromkeys(OutcomeKind, 0)
    for basis in _bases(rng):
        on_target, on_rows = _signed_permutation(rng, basis.n)
        pb, moved_pb = prepare(basis), prepare(validate_basis(on_rows(basis.matrix)))
        for b in _targets(rng, basis):
            _check(pb, b, moved_pb, on_target(b), kinds)
    assert min(kinds.values()) >= 20, kinds


def test_translations_shift_every_outcome(solved):
    rng = random.Random(SEED + 2)
    kinds = dict.fromkeys(OutcomeKind, 0)
    for pb, b, got, delta0 in solved:
        basis = pb.basis
        gamma = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(basis.m))
        moved_b = vec_add(b, basis.combine(gamma))
        moved = solve_general(basis, None, moved_b, prepared=pb)
        assert moved.kind is got.kind
        kinds[got.kind] += 1
        if got.kind is OutcomeKind.UNIQUE:
            assert moved.coefficients == vec_add(got.coefficients, gamma)
        if got.kind is OutcomeKind.POLYTOPE:
            assert moved.witness == vec_add(got.witness, gamma)
        if delta0 is not None:
            assert existence_threshold(basis, None, moved_b, prepared=pb).delta0 == delta0
    assert min(kinds.values()) >= 20, kinds


def test_scalings_scale_every_outcome(solved):
    rng = random.Random(SEED + 3)
    kinds = dict.fromkeys(OutcomeKind, 0)
    for pb, b, got, delta0 in solved:
        basis = pb.basis
        lam = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        scaled_b = vec_scale(lam, b)
        scaled = solve_general(basis, None, scaled_b, prepared=pb)
        assert scaled.kind is got.kind
        kinds[got.kind] += 1
        if got.kind is OutcomeKind.UNIQUE:
            assert scaled.coefficients == vec_scale(lam, got.coefficients)
        if got.kind is OutcomeKind.POLYTOPE and lam > 0:  # lam < 0 swaps lex-min and lex-max
            assert scaled.witness == vec_scale(lam, got.witness)
        if delta0 is not None:
            assert (existence_threshold(basis, None, scaled_b, prepared=pb).delta0
                    == abs(lam) * delta0)
        if got.kind is not OutcomeKind.NOT_EXISTS:
            assert verify_best_coapprox(basis, scaled_b, vec_scale(lam, got.chosen_alpha)).confirmed
            assert verify_best_coapprox(basis, b, vec_scale(1 / lam, scaled.chosen_alpha)).confirmed
    assert min(kinds.values()) >= 20, kinds

"""Independent verification of best-coapproximation claims.

Nothing here reuses the norming-set construction.  The only tools are
the definition itself and the classical l1 Birkhoff-James criterion:
y is orthogonal to z iff |sum over supp(y) of sign(y_i) z_i| is at most
the mass of z on the complement of supp(y).  A.alpha is a best
coapproximation to b iff A.beta is orthogonal to z = b - A.alpha for
every beta; a failure is converted into an exact counterexample to the
defining inequality.

The test at beta depends on beta only through the sign vector of
A.beta, so `bj_orthogonal_l1` may take that vector as y.  The topes
(open cells) of A's row arrangement decide every lower face too: around
a face point the arrangement is central, so the topes next to it come
in pairs that agree off the face's zero rows Z0 and are opposite on Z0;
if S is the face's signed sum and C the mass of z on A's zero rows, the
two tope tests |S +- (signed sum on Z0)| <= C give |S| <= C, which
implies the face's test.  So one test per tope pair, on the tope's sign
vector (0 exactly on A's zero rows), is complete, and a "confirmed"
verdict is a proof; each tope keeps an int beta strictly inside it for
the counterexample.  The topes come from `norming.half_cells` run on
A's nonzero rows reduced to primitive ints and merged up to sign: no
profile, sigma-reduction, class or LP.

The brute-force check takes the same sign vectors.  A tope's sign vector
is zero only on A's zero rows, where the residual is b, so each test is
a slab in alpha, and b has a best coapproximation iff the slabs meet.
Disjoint slabs are proved so by an int-checked Farkas certificate on at
most m + 1 of them, a circuit: a kernel vector of one Gauss-Jordan pass
at width 0, the minimax LP's basic multipliers otherwise; meeting slabs
by the minimax LP's alpha, which the tope tests must confirm.  Either
verdict is a proof, and no grid point is scanned.
"""
from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .errors import CapacityError, DimensionError, InternalInconsistencyError, ValidationError
from .exact import (Q, Vec, kernel_vectors, l1_norm, primitive_ints, scaled_ints, solve_linear,
                    vec, vec_sub)  # perfbench/tracer.py wraps solve_linear
from .lp import solve_minimax_lp
from .norming import check_cell_capacity, half_cells
from .subspace import SubspaceBasis

BRUTE_FORCE_MAX_M = 3
BRUTE_FORCE_MAX_POINTS = 10**6


def bj_orthogonal_l1(y: Vec, z: Vec) -> bool:
    """Exact l1 Birkhoff-James orthogonality test: y perp z.

    Equivalent to 0 lying in the minimizer interval of
    t -> ||y + t*z||_1.  The oracle's one tope test, with y a tope's
    sign vector and z an int residual; int inputs stay ints
    (perfbench/tracer.py counts its calls).
    """
    if len(y) != len(z):
        raise DimensionError("orthogonality test needs vectors of equal length")
    signed = 0
    off_support = 0
    for yi, zi in zip(y, z):
        if yi > 0:
            signed += zi
        elif yi < 0:
            signed -= zi
        else:
            off_support += abs(zi)
    return abs(signed) <= off_support


class Counterexample(NamedTuple):
    """A subspace coefficient vector beta with
    ||A.beta - A.alpha||_1 > ||A.beta - b||_1, both sides exact."""

    beta: Vec
    lhs: Q
    rhs: Q


class VerificationVerdict(NamedTuple):
    confirmed: bool
    counterexample: Counterexample | None


def _refute_from_bj_failure(
    basis: SubspaceBasis, b: Vec, alpha: Vec, beta: Vec
) -> Counterexample:
    """Turn a failed orthogonality check at beta into a definitional
    counterexample: scale beta by the minimizing step and recenter.  With
    y = A.beta, z = b - A.alpha, S the signed sum of z on supp(y) and C its
    mass off it, f(t) = ||y + t*z||_1 falls with slope C - |S| < 0 on the
    side s = -sign(S).  f is convex, and each breakpoint -y_i/z_i there adds
    2|z_i| to the slope: the first where it is >= 0 is f's minimizer end nearest 0."""
    y, z = basis.combine(beta), vec_sub(b, basis.combine(alpha))
    signed = sum((zi if yi > 0 else -zi for yi, zi in zip(y, z) if yi), Q(0))
    slope = sum((abs(zi) for yi, zi in zip(y, z) if not yi), Q(0)) - abs(signed)
    s = -1 if signed > 0 else 1
    for u, w in sorted((-yi / (s * zi), abs(zi)) for yi, zi in zip(y, z) if yi * zi * s < 0):
        slope += 2 * w
        if slope >= 0:
            break
    beta_hat = tuple(a - s * bb / u for a, bb in zip(alpha, beta))
    point = basis.combine(beta_hat)
    lhs = l1_norm(vec_sub(point, basis.combine(alpha)))
    rhs = l1_norm(vec_sub(point, b))
    if lhs <= rhs:
        raise InternalInconsistencyError("constructed counterexample does not violate")
    return Counterexample(beta=beta_hat, lhs=lhs, rhs=rhs)


def _sign_patterns(basis: SubspaceBasis) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The sign vector of A.beta on each tope pair of A's row arrangement
    (0 exactly on A's zero rows), mapped to an int beta strictly inside
    the tope.

    The nonzero rows, reduced to primitive ints, are merged up to sign
    into the distinct row hyperplanes; each row takes its plane's tope
    sign times its orientation, and A's zero rows take sign 0.  Refused
    (CapacityError) by the cell caps on those planes before any
    enumeration.
    """
    planes: dict[tuple[int, ...], int] = {}
    where = []  # per row: (plane index, orientation), orientation 0 on a zero row
    for v in basis.int_rows:
        if not any(v):
            where.append((0, 0))
            continue
        normal = max(v, tuple(-x for x in v))
        where.append((planes.setdefault(normal, len(planes)), 1 if normal == v else -1))
    check_cell_capacity(len(planes), basis.m)
    return {
        tuple([o * tope[t] for t, o in where]): witness
        for tope, witness in half_cells(list(planes), basis.m)
    }


def verify_best_coapprox(basis: SubspaceBasis, b: Vec, alpha: Vec) -> VerificationVerdict:
    """Confirm or refute that A.alpha is a best coapproximation to b.

    Runs `bj_orthogonal_l1` once per tope pair of A's row arrangement,
    with the tope's sign vector as y and b - A.alpha scaled to ints as z,
    so every test is exact in ints; the topes decide every beta, so a
    "confirmed" verdict is a proof.  The first failing tope's int
    witness beta is returned as an exact counterexample: scaling beta by
    c != 0 scales y and the minimizing interval of t -> ||y + t*z||_1 by
    c, so the counterexample (built from beta/step) does not depend on
    the witness's scale.  Refused (CapacityError) by the cell caps on
    A's distinct row hyperplanes before any tope is enumerated.
    """
    if len(b) != basis.n or len(alpha) != basis.m:
        raise DimensionError("verify_best_coapprox dimension mismatch")
    patterns = _sign_patterns(basis)
    (den, rows), (bden, ints), (aden, a) = basis.int_matrix, scaled_ints(b), scaled_ints(alpha)
    z = primitive_ints([den * aden * x - bden * sum(map(mul, r, a)) for x, r in zip(ints, rows)])
    for signs, beta in patterns.items():
        if not bj_orthogonal_l1(signs, z):
            return VerificationVerdict(
                False, _refute_from_bj_failure(basis, b, alpha, tuple(map(Q, beta)))
            )
    return VerificationVerdict(True, None)


class BruteForceResult(NamedTuple):
    exists: bool
    grid_points: int


def check_grid(radius: Q | None, step: Q | None) -> None:
    """Reject a negative grid radius or a non-positive step (None: unset)."""
    if step is not None and step <= 0:
        raise ValidationError("grid_step: must be positive")
    if radius is not None and radius < 0:
        raise ValidationError("grid_radius: must be non-negative")


def check_certificate(rows, rhs, width, lam) -> bool:
    """True iff lam proves that no alpha has |rhs_p - rows_p . alpha| <=
    width for all p: sum lam_p rows_p = 0 and |sum lam_p rhs_p| > width *
    sum |lam_p| (Farkas), by int dot products alone."""
    return len(lam) == len(rows) == len(rhs) and not any(
        sum(map(mul, lam, col)) for col in zip(*rows)
    ) and abs(sum(map(mul, lam, rhs))) > width * sum(map(abs, lam))


def certify_not_exists(basis: SubspaceBasis, b: Vec) -> tuple:
    """(rows, rhs, width, lam): b's tope slabs |rhs_p - rows_p . alpha| <= width
    in ints (b - A.alpha times den * bden, for A = int_matrix / den and b =
    ints / bden), and lam, a Farkas proof that no alpha lies in all of them,
    or None when `check_certificate` rejects it.  Either way lam is a
    circuit of at most m + 1 slabs: at width 0 the first left null vector of
    rows that `exact.kernel_vectors` reads off a Gauss-Jordan pass over their
    m x p transpose with lam . rhs != 0, one existing iff the slabs are
    disjoint (Fredholm); at width > 0 the minimax LP's multipliers, nonzero
    only on its nonbasic slacks.  No profile, reduction, class or norming set."""
    if len(b) != basis.n:
        raise DimensionError("certify_not_exists dimension mismatch")
    patterns = _sign_patterns(basis)
    (den, mat), (bden, ints) = basis.int_matrix, scaled_ints(b)
    width = den * sum(abs(x) for x, v in zip(ints, basis.int_rows) if not any(v))
    rhs = [den * sum(map(mul, signs, ints)) for signs in patterns]
    work = [[bden * sum(map(mul, signs, col)) for signs in patterns] for col in zip(*mat)]
    rows = list(zip(*work))
    if width:
        lam = solve_minimax_lp(rows, rhs)[2]
    else:  # all 0 (rejected) when rhs is orthogonal to every kernel vector
        lam = next((y for y in kernel_vectors(work, len(rhs)) if sum(map(mul, y, rhs))),
                   [0] * len(rhs))
    return rows, rhs, width, lam if check_certificate(rows, rhs, width, lam) else None


def brute_force_existence(
    basis: SubspaceBasis, b: Vec, grid_radius: Q, grid_step: Q
) -> BruteForceResult:
    """Decide whether b has a best coapproximation, with a proof either
    way: the solver's corroboration at desk scale.

    A tope's sign vector sigma is zero only on A's zero rows Z, where the
    residual is b, so alpha passes its test iff it lies in the slab
    |sigma.b - (sigma.A).alpha| <= sum over Z of |b_i|; `certify_not_exists`
    builds the slabs in ints.  An accepted certificate proves them
    disjoint (exists False).  Otherwise they meet, so the minimax LP's
    alpha (t* <= width) lies in all of them, and `verify_best_coapprox`
    must confirm it (exists True), else InternalInconsistencyError.

    No grid point is scanned: the grid (coordinates -r, -r + t, ... up to
    r) bounds only the echoed grid_points.  Guarded at m <= 3,
    BRUTE_FORCE_MAX_POINTS grid points and the cell caps, all checked
    before any tope is enumerated; radius and step go through `vec`, and
    a negative radius or a non-positive step is rejected.
    """
    m = basis.m
    if m > BRUTE_FORCE_MAX_M:
        raise CapacityError(f"brute force capped at m <= {BRUTE_FORCE_MAX_M}")
    radius, step = vec((grid_radius, grid_step))
    check_grid(radius, step)
    per_axis = math.floor(2 * radius / step) + 1
    if per_axis**m > BRUTE_FORCE_MAX_POINTS:
        raise CapacityError(
            f"brute-force grid capped at {BRUTE_FORCE_MAX_POINTS} points"
        )
    rows, rhs, _, lam = certify_not_exists(basis, b)
    if lam is None:  # the slabs meet: the minimax alpha has t* <= width
        alpha = solve_minimax_lp(rows, rhs)[1]
        if not verify_best_coapprox(basis, b, alpha).confirmed:
            raise InternalInconsistencyError("no certificate, yet the minimax alpha is refuted")
    return BruteForceResult(exists=lam is None, grid_points=per_axis**m)

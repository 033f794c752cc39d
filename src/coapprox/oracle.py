"""Independent verification of best-coapproximation claims.

Nothing here reuses the norming-set construction.  The only tools are
the definition itself and the classical l1 Birkhoff-James criterion:
y is orthogonal to z iff |sum over supp(y) of sign(y_i) z_i| is at most
the mass of z on the complement of supp(y).  A.alpha is a best
coapproximation to b iff A.beta is orthogonal to z = b - A.alpha for
every beta; a failure is converted into an exact counterexample to the
defining inequality.

The test at beta depends on beta only through the sign pattern of
A.beta, and the topes (open cells) of A's row arrangement decide every
lower face too: around a face point the arrangement is central, so the
topes next to it come in pairs that agree off the face's zero rows Z0
and are opposite on Z0; if S is the face's signed sum and C the mass of
z on A's zero rows, the two tope tests |S +- (signed sum on Z0)| <= C
give |S| <= C, which implies the face's test.  So one int beta strictly
inside each tope pair is a complete probe set, and a "confirmed"
verdict is a proof.  The topes come from `norming.half_cells` run on
A's nonzero rows reduced to primitive ints and merged up to sign: no
profile, sigma-reduction, class or LP.

The brute-force grid takes the same patterns.  A tope pattern is zero
only on A's zero rows, where the residual is b, so each test is a slab
in alpha.  Disjoint slabs are proved so by an int-checked Farkas
certificate from the minimax LP over them, with no grid point scanned;
otherwise a grid line passes on one exact integer interval.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .errors import CapacityError, DimensionError, ValidationError
from .exact import (Q, Vec, l1_norm, minimize_1d_l1, primitive_ints,
                    solve_linear, vec_sub)  # solve_linear: perfbench/tracer.py wraps it
from .lp import solve_minimax_lp
from .norming import check_cell_capacity, half_cells
from .subspace import SubspaceBasis

BRUTE_FORCE_MAX_M = 3
BRUTE_FORCE_MAX_POINTS = 10**6


def bj_orthogonal_l1(y: Vec, z: Vec) -> bool:
    """Exact l1 Birkhoff-James orthogonality test: y perp z.

    Equivalent to 0 lying in the minimizer interval of
    t -> ||y + t*z||_1.  The oracle runs `_fails`; this is the library's
    rational reference (perfbench/tracer.py counts its calls).
    """
    if len(y) != len(z):
        raise DimensionError("orthogonality test needs vectors of equal length")
    signed = Q(0)
    off_support = Q(0)
    for yi, zi in zip(y, z):
        if yi > 0:
            signed += zi
        elif yi < 0:
            signed -= zi
        else:
            off_support += abs(zi)
    return abs(signed) <= off_support


@dataclass(frozen=True)
class Counterexample:
    """A subspace coefficient vector beta with
    ||A.beta - A.alpha||_1 > ||A.beta - b||_1, both sides exact."""

    beta: Vec
    lhs: Q
    rhs: Q


@dataclass(frozen=True)
class VerificationVerdict:
    confirmed: bool
    counterexample: Counterexample | None


def _refute_from_bj_failure(
    basis: SubspaceBasis, b: Vec, alpha: Vec, beta: Vec
) -> Counterexample:
    """Turn a failed orthogonality check at beta into a definitional
    counterexample: scale beta by the minimizing step and recenter."""
    y = basis.combine(beta)
    z = vec_sub(b, basis.combine(alpha))
    _, interval = minimize_1d_l1(y, z)
    step = interval.lo if interval.lo > 0 else interval.hi
    beta_hat = tuple(a - bb / step for a, bb in zip(alpha, beta))
    point = basis.combine(beta_hat)
    lhs = l1_norm(vec_sub(point, basis.combine(alpha)))
    rhs = l1_norm(vec_sub(point, b))
    if lhs <= rhs:  # pragma: no cover
        raise ValidationError("constructed counterexample does not violate")
    return Counterexample(beta=beta_hat, lhs=lhs, rhs=rhs)


def _sign_patterns(basis: SubspaceBasis) -> dict[tuple, tuple[int, ...]]:
    """The sign pattern of A.beta on each tope pair of A's row
    arrangement, as the check `_fails` takes (the signs and the mask of
    zero signs), mapped to an int beta strictly inside the tope.

    The nonzero rows, reduced to primitive ints, are merged up to sign
    into the distinct row hyperplanes; each row takes its plane's tope
    sign times its orientation, and A's zero rows take sign 0.  Refused
    (CapacityError) by the cell caps on those planes before any
    enumeration.
    """
    planes: dict[tuple[int, ...], int] = {}
    where = []  # per row: (plane index, orientation), or None on a zero row
    for v in basis.int_rows:
        if not any(v):
            where.append(None)
            continue
        normal = max(v, tuple(-x for x in v))
        where.append((planes.setdefault(normal, len(planes)), 1 if normal == v else -1))
    check_cell_capacity(len(planes), basis.m)
    off = tuple(int(w is None) for w in where)
    return {
        (tuple(w[1] * tope[w[0]] if w else 0 for w in where), off): witness
        for tope, witness in half_cells(list(planes), basis.m)
    }


def _fails(z: list[int], abs_z: list[int], check) -> bool:
    """The l1 Birkhoff-James test of bj_orthogonal_l1, on one sign pattern."""
    signs, off = check
    return abs(sum(map(mul, signs, z))) > sum(map(mul, off, abs_z))


def verify_best_coapprox(basis: SubspaceBasis, b: Vec, alpha: Vec) -> VerificationVerdict:
    """Confirm or refute that A.alpha is a best coapproximation to b.

    Runs one exact integer test per tope pair of A's row arrangement, on
    b - A.alpha scaled to ints; the topes decide every beta, so a
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
    z = primitive_ints(vec_sub(b, basis.combine(alpha)))
    abs_z = list(map(abs, z))
    for check, beta in patterns.items():
        if _fails(z, abs_z, check):
            return VerificationVerdict(
                False, _refute_from_bj_failure(basis, b, alpha, tuple(map(Q, beta)))
            )
    return VerificationVerdict(True, None)


@dataclass(frozen=True)
class BruteForceResult:
    exists: bool
    candidates: tuple[Vec, ...]
    grid_points: int


def check_grid(radius: Q | None, step: Q | None) -> None:
    """Reject a negative grid radius or a non-positive step (None: unset)."""
    if step is not None and step <= 0:
        raise ValidationError("grid_step must be positive")
    if radius is not None and radius < 0:
        raise ValidationError("grid_radius must be non-negative")


def check_certificate(rows, rhs, width, lam) -> bool:
    """True iff lam proves that no alpha has |rhs_p - rows_p . alpha| <=
    width for all p: sum lam_p rows_p = 0 and |sum lam_p rhs_p| > width *
    sum |lam_p| (Farkas), by int dot products alone."""
    return len(lam) == len(rows) == len(rhs) and not any(
        sum(map(mul, lam, col)) for col in zip(*rows)
    ) and abs(sum(map(mul, lam, rhs))) > width * sum(map(abs, lam))


def brute_force_existence(
    basis: SubspaceBasis, b: Vec, grid_radius: Q, grid_step: Q
) -> BruteForceResult:
    """Grid scan for coefficient vectors passing the orthogonality checks.

    Ground-truth corroboration at desk scale: when the solver reports
    that no best coapproximation exists, no grid point may pass.  The
    grid is every alpha with coordinates -r, -r + t, ... up to r.  A
    grid point is a candidate when b - A.alpha passes the orthogonality
    test at every tope pair of A's row arrangement, which decides it at
    every beta: the candidates are exactly the grid's best
    coapproximations.

    A tope pattern sigma is zero only on A's zero rows Z, where the
    residual is b.  So its test is the slab
    |sigma.b - (sigma.A).alpha| <= sum over Z of |b_i|, with sigma.A and
    the width constant over the grid.  The grid, b and A are scaled by
    one common denominator, which makes every quantity an int and each
    decision exact.  First, a minimax LP over the slabs (one row per tope
    pair, within the cell caps) gives multipliers; when
    `check_certificate` accepts them, no alpha lies in every slab and no
    grid is built.  Otherwise the slabs meet, and the grid is scanned one
    line along the last axis at a time: on a line each slab holds one
    integer interval of ticks, found with one (m-1)-term dot product and
    floor divisions, and the line's candidates are the intersection, in
    grid order.

    Guarded at m <= 3, BRUTE_FORCE_MAX_POINTS grid points and the cell
    caps, all checked before any tope is enumerated; a negative radius or
    a non-positive step is rejected.
    """
    m = basis.m
    if m > BRUTE_FORCE_MAX_M:
        raise CapacityError(f"brute force capped at m <= {BRUTE_FORCE_MAX_M}")
    radius = Q(grid_radius)
    step = Q(grid_step)
    check_grid(radius, step)
    per_axis = math.floor(2 * radius / step) + 1
    if per_axis**m > BRUTE_FORCE_MAX_POINTS:
        raise CapacityError(
            f"brute-force grid capped at {BRUTE_FORCE_MAX_POINTS} points"
        )
    if len(b) != basis.n:
        raise DimensionError("brute_force_existence dimension mismatch")
    patterns = _sign_patterns(basis)

    entries = itertools.chain((radius, step), b, *basis.matrix)
    scale = math.lcm(*(x.denominator for x in entries))
    int_cols = [[int(a * scale) for a in col] for col in zip(*basis.matrix)]
    int_b = [int(x * scale * scale) for x in b]  # residuals come out scaled by scale**2
    width = sum(abs(x) for x, row in zip(int_b, basis.matrix) if not any(row))
    rows = [[sum(map(mul, signs, col)) for col in int_cols] for signs, _ in patterns]
    rhs = [sum(map(mul, signs, int_b)) for signs, _ in patterns]
    lam = solve_minimax_lp(rows, rhs, multipliers=True)[2]
    if check_certificate(rows, rhs, width, lam):
        return BruteForceResult(exists=False, candidates=(), grid_points=per_axis**m)

    ticks = [-radius + k * step for k in range(per_axis)]
    int_ticks = [int(t * scale) for t in ticks]
    # On the line through the outer ticks, sigma.z = s0 - k*s1 with
    # s0 = c - g.(outer ticks); stored with s1 >= 0, as negating sigma
    # leaves the test unchanged.
    slabs = []
    for g, c in zip(rows, rhs):
        s1 = g[-1] * int(step * scale)
        c -= g[-1] * int_ticks[0]
        if s1 < 0:
            g, s1, c = [-x for x in g], -s1, -c
        slabs.append((g[:-1], c, s1))

    candidates = []
    for outer in itertools.product(range(per_axis), repeat=m - 1):
        at = [int_ticks[k] for k in outer]
        lo, hi = 0, per_axis - 1
        for g, c, s1 in slabs:
            s0 = c - sum(map(mul, g, at))
            if s1:  # s0 - width <= k*s1 <= s0 + width
                lo = max(lo, -((width - s0) // s1))
                hi = min(hi, (s0 + width) // s1)
            elif abs(s0) > width:
                hi = -1
            if lo > hi:
                break
        head = tuple(ticks[i] for i in outer)
        candidates.extend(head + (ticks[k],) for k in range(lo, hi + 1))
    return BruteForceResult(
        exists=bool(candidates),
        candidates=tuple(candidates),
        grid_points=per_axis**m,
    )

"""Independent verification of best-coapproximation claims.

Nothing here reuses the norming-set construction.  The only tools are
the definition itself and the classical l1 Birkhoff-James criterion:
y is orthogonal to z iff |sum over supp(y) of sign(y_i) z_i| is at most
the mass of z on the complement of supp(y).  A claimed solution is
checked against a deterministic sweep (small integer coefficient
vectors plus exact edge-direction probes) and seeded random rationals;
a failure is converted into an exact counterexample to the defining
inequality.

The test at a probe beta depends on beta only through the sign pattern
of A.beta, which a positive scale of beta leaves alone.  So every probe
is an int vector (a positive multiple of the rational probe it stands
for), each probe direction is reduced to its sign pattern once, and the
verifier and the brute-force grid run one integer test (`_fails`) per
pattern.
The grid decides most patterns a whole grid line at a time: along a line
the test passes on one exact integer interval of the line's ticks, and
only the ticks left in every interval are tested point by point.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import mul

from .errors import CapacityError, DimensionError, ValidationError
from .exact import (Q, Vec, is_zero, l1_norm, minimize_1d_l1, primitive_ints,
                    solve_linear, vec_sub)  # solve_linear: perfbench/tracer.py wraps it
from .subspace import SubspaceBasis

BRUTE_FORCE_MAX_M = 3
BRUTE_FORCE_MAX_POINTS = 10**6
_RANDOM_NUMERATOR = 8
_RANDOM_DENOMINATOR = 6
_GRID_RANDOM_NUMERATOR = 60
_GRID_RANDOM_DENOMINATOR = 8


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
    seed: int
    trials: int


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


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _particular(incident, signs) -> tuple[int, list[int]]:
    """(det, N) with N/det the solution of incident.x = signs that
    solve_linear gives: Cramer's rule on its pivot columns (the first
    column where a row is nonzero, then the first later column with a
    nonzero 2x2 minor), 0 on the free coordinate."""
    p, s = incident[0], signs[0]
    c1 = next(c for c, col in enumerate(zip(*incident)) if any(col))
    n = [0] * len(p)
    if len(incident) == 1:
        n[c1] = s
        return p[c1], n
    q, t = incident[1], signs[1]
    det, c2 = next((p[c1] * q[c] - p[c] * q[c1], c) for c in range(c1 + 1, len(p))
                   if p[c1] * q[c] != p[c] * q[c1])
    n[c1], n[c2] = s * q[c2] - t * p[c2], t * p[c1] - s * q[c1]
    return det, n


def _edge_probes(basis: SubspaceBasis) -> tuple[tuple[int, ...], ...]:
    """Deterministic int probes reaching every sign cell of a simple row
    arrangement (m <= 3).

    Whether the orthogonality check fails at beta depends only on the
    signs of the row functionals there, and a violating open cell always
    exists when the claim is false.  Each cell of a simple central
    arrangement is entered exactly by walking far along one of its edge
    rays (a cross product of two row normals, or a row perpendicular for
    m = 2) and stepping off it with a small solve that prescribes the
    two incident signs.  Arrangements where three or more distinct row
    hyperplanes share a line can still hide cells from these probes.
    The verifier's random supplement (200 trials by default) usually
    finds those; the CLI's brute-force grid runs with trials = 0 and has
    no such cover (complete deterministic probes are ROADMAP item 3).

    Everything is computed in ints on the nonzero rows R = L.A, with L
    the lcm of A's denominators.  The rational probe ray.(1 + a/b).u + d,
    with edge u = U/L^(m-1), step d = L.N/det and a/b the largest
    |r.d|/|r.u| over the rows r, is stored times b.L^(m-1).|det| > 0.
    """
    m = basis.m
    scale = math.lcm(*(x.denominator for row in basis.matrix for x in row))
    lm = scale**m
    rows = [tuple(x.numerator * (scale // x.denominator) for x in r)
            for r in basis.matrix if not is_zero(r)]
    probes = [p for r in rows for p in (r, tuple(-x for x in r))]
    edges = [((-r[1], r[0]), (r,)) for r in rows] if m == 2 else []
    if m == 3:
        edges = [(u, rs) for rs in itertools.combinations(rows, 2) if any(u := _cross(*rs))]
    for u, incident in edges:
        for signs in itertools.product((1, -1), repeat=len(incident)):
            det, n = _particular(incident, signs)
            a, b = 0, 1
            for r in rows:
                ru = abs(sum(map(mul, r, u)))
                if ru:
                    num, den = abs(sum(map(mul, r, n))) * lm, abs(det) * ru
                    if num * b > a * den:
                        a, b = num, den
            far, near = (a + b) * abs(det), b * lm if det > 0 else -b * lm
            for ray in (far, -far):
                probes.append(tuple(ray * uu + near * nn for uu, nn in zip(u, n)))
    return tuple(probes)


def _random_betas(m: int, trials: int, seed: int, numerator: int, denominator: int):
    """`trials` seeded random rational betas p/q, drawn lazily, each
    yielded as the int vector p_i.(lcm(q)/q_i)."""
    rng = random.Random(seed)
    for _ in range(trials):
        draws = [(rng.randint(-numerator, numerator), rng.randint(1, denominator))
                 for _ in range(m)]
        den = math.lcm(*(q for _, q in draws))
        yield tuple(p * (den // q) for p, q in draws)


def _probe_set(basis: SubspaceBasis) -> tuple[tuple[int, ...], ...]:
    probes = tuple(itertools.product(range(-2, 3), repeat=basis.m))
    if basis.m <= BRUTE_FORCE_MAX_M:
        probes += _edge_probes(basis)
    return probes


def check_probe_capacity(m: int, trials: int) -> None:
    """Refuse more than BRUTE_FORCE_MAX_POINTS probes: the 5^m sweep plus trials."""
    if 5**m + trials > BRUTE_FORCE_MAX_POINTS:
        raise CapacityError(f"verifier capped at {BRUTE_FORCE_MAX_POINTS} probes (5^m + trials)")


def verify_best_coapprox(
    basis: SubspaceBasis, b: Vec, alpha: Vec, trials: int = 200, seed: int = 0
) -> VerificationVerdict:
    """Confirm or refute that A.alpha is a best coapproximation to b.

    Checks the deterministic probes (beta in {-2..2}^m plus the edge
    probes), then `trials` seeded random rational betas (none when
    m = 1, where the probes already cover every direction), as one exact
    integer test per distinct sign pattern on b - A.alpha scaled to ints.
    The first failing pattern is that of the first failing probe, whose
    beta is returned as an exact counterexample; refutations found
    deterministically are reproducible without the seed.  The betas are
    int probes: scaling beta by c != 0 scales y and the minimizing
    interval of t -> ||y + t*z||_1 by c, so the counterexample (built
    from beta/step) is that of the rational probe.  Refused
    (CapacityError) beyond BRUTE_FORCE_MAX_POINTS probes.
    """
    if trials < 1:
        raise ValidationError("verify_best_coapprox needs trials >= 1")
    if len(b) != basis.n or len(alpha) != basis.m:
        raise DimensionError("verify_best_coapprox dimension mismatch")
    check_probe_capacity(basis.m, trials)
    probes = _probe_set(basis)
    # In R^1 every nonzero beta has the direction of a nonzero probe up to
    # sign, so random draws could add no sign pattern there.
    draws = 0 if basis.m == 1 and any(map(any, probes)) else trials
    betas = itertools.chain(
        probes, _random_betas(basis.m, draws, seed, _RANDOM_NUMERATOR, _RANDOM_DENOMINATOR)
    )
    patterns = _sign_patterns([primitive_ints(row) for row in basis.matrix], betas)
    z = primitive_ints(vec_sub(b, basis.combine(alpha)))
    abs_z = list(map(abs, z))
    for check, beta in patterns.items():
        if _fails(z, abs_z, check):
            return VerificationVerdict(
                False, _refute_from_bj_failure(basis, b, alpha, tuple(map(Q, beta))), seed, trials
            )
    return VerificationVerdict(True, None, seed, trials)


@dataclass(frozen=True)
class BruteForceResult:
    exists: bool
    candidates: tuple[Vec, ...]
    grid_points: int
    trials: int
    seed: int


def _sign_patterns(int_rows, betas) -> dict[tuple, tuple[int, ...]]:
    """Distinct sign patterns of A.beta over the int probes, in
    first-seen order, each as the check `_fails` takes (the signs and the
    mask of zero signs) mapped to the first beta that produced it.

    Each row of `int_rows` is the row of A scaled to ints by a positive
    factor, so the signs are exact.  A pattern and its negation give the
    same orthogonality test, so each is stored with its first nonzero
    sign positive; the zero pattern always passes and is dropped.  A zero
    beta, or one whose primitive direction up to sign was seen (so its
    pattern was too), is skipped before any product.
    """
    seen: dict[tuple, tuple[int, ...]] = {}
    directions = set()
    for beta in betas:
        g = math.gcd(*beta)
        if not g or (d := tuple(x // g for x in beta)) in directions:
            continue
        directions.update((d, tuple(-x for x in d)))
        images = [sum(map(mul, row, beta)) for row in int_rows]
        signs = tuple((y > 0) - (y < 0) for y in images)
        lead = next((s for s in signs if s), 0)
        if lead:
            signs = tuple(lead * s for s in signs)
            seen.setdefault((signs, tuple(1 - abs(s) for s in signs)), beta)
    return seen


def _fails(z: list[int], abs_z: list[int], check) -> bool:
    """The l1 Birkhoff-James test of bj_orthogonal_l1, on one sign pattern."""
    signs, off = check
    return abs(sum(map(mul, signs, z))) > sum(map(mul, off, abs_z))


def check_grid(radius: Q | None, step: Q | None) -> None:
    """Reject a negative grid radius or a non-positive step (None: unset)."""
    if step is not None and step <= 0:
        raise ValidationError("grid_step must be positive")
    if radius is not None and radius < 0:
        raise ValidationError("grid_radius must be non-negative")


def brute_force_existence(
    basis: SubspaceBasis,
    b: Vec,
    grid_radius: Q,
    grid_step: Q,
    *,
    trials: int = 0,
    seed: int = 0,
) -> BruteForceResult:
    """Grid scan for coefficient vectors passing the orthogonality checks.

    Ground-truth corroboration at desk scale: when the solver reports
    that no best coapproximation exists, no grid point may pass.  The
    grid is every alpha with coordinates -r, -r + t, ... up to r.  A
    grid point is a candidate when b - A.alpha passes the orthogonality
    test at every probe beta of the deterministic sweep and, when
    `trials` is positive, at `trials` seeded random rational betas (the
    sweep alone can be fooled by thin violation cones).

    The test at beta depends on beta only through the sign pattern of
    A.beta, so the probes are reduced once per call to their distinct
    patterns.  The grid, b and A are scaled by one common denominator,
    which makes every residual a vector of ints; the test is unchanged
    by a positive scale, so each decision stays exact.

    The grid is scanned one line along the last axis at a time.  On a
    line the residual is z0 - k*d, so a pattern whose zero signs all sit
    where d is 0 passes on one integer interval of k, found with one
    dot product and floor divisions.  The intersection of those
    intervals holds the line's survivors; only they are tested against
    the remaining patterns, the one that failed last first (which cannot
    change a verdict, because a candidate must pass them all).  The
    candidates and their order are those of a pointwise scan.

    Guarded at m <= 3, BRUTE_FORCE_MAX_POINTS grid points and the
    verifier's probe cap, all checked before any probe is built; a
    negative radius or a non-positive step is rejected.
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
    check_probe_capacity(m, trials)
    if len(b) != basis.n:
        raise DimensionError("brute_force_existence dimension mismatch")

    ticks = [-radius + k * step for k in range(per_axis)]
    entries = itertools.chain((radius, step), b, *basis.matrix)
    scale = math.lcm(*(x.denominator for x in entries))
    int_rows = [[int(a * scale) for a in row] for row in basis.matrix]
    int_cols = list(zip(*int_rows))
    int_ticks = [int(t * scale) for t in ticks]
    int_b = [int(x * scale * scale) for x in b]  # residuals come out scaled by scale**2
    inner_step = [a * int(step * scale) for a in int_cols[-1]]

    betas = _probe_set(basis) + tuple(
        _random_betas(m, trials, seed, _GRID_RANDOM_NUMERATOR, _GRID_RANDOM_DENOMINATOR)
    )
    # Along a line z(k) = z0 - k*inner_step.  A check with no zero sign
    # where inner_step is nonzero sees a constant off-support mass C and a
    # signed sum S0 - k*S1; it is stored with S1 >= 0, as negating its
    # signs leaves the test unchanged.  The other checks go pointwise.
    affine = []
    checks = []
    for signs, off in _sign_patterns(int_rows, betas):
        if any(o and d for o, d in zip(off, inner_step)):
            checks.append((signs, off))
            continue
        s1 = sum(map(mul, signs, inner_step))
        if s1 < 0:
            signs, s1 = tuple(-s for s in signs), -s1
        affine.append((signs, off, s1))

    candidates = []
    last = 0
    for outer in itertools.product(range(per_axis), repeat=m - 1):
        z0 = list(int_b)
        for j, k in enumerate(outer + (0,)):
            z0 = [zi - a * int_ticks[k] for zi, a in zip(z0, int_cols[j])]
        abs_z0 = list(map(abs, z0))
        lo, hi = 0, per_axis - 1
        for signs, off, s1 in affine:
            s0 = sum(map(mul, signs, z0))
            c = sum(map(mul, off, abs_z0))
            if s1:  # S0 - C <= k*S1 <= S0 + C
                lo = max(lo, -((c - s0) // s1))
                hi = min(hi, (s0 + c) // s1)
            elif abs(s0) > c:
                hi = -1
            if lo > hi:
                break
        for k in range(lo, hi + 1):
            z = [zi - k * d for zi, d in zip(z0, inner_step)]
            abs_z = list(map(abs, z))
            if checks and _fails(z, abs_z, checks[last]):
                continue
            for idx, check in enumerate(checks):
                if _fails(z, abs_z, check):
                    last = idx
                    break
            else:
                candidates.append(tuple(ticks[i] for i in outer) + (ticks[k],))
    return BruteForceResult(
        exists=bool(candidates),
        candidates=tuple(candidates),
        grid_points=per_axis**m,
        trials=trials,
        seed=seed,
    )

import itertools
import json
import math
import operator
import random
import time
from collections import Counter, namedtuple
from decimal import Decimal
from fractions import Fraction as Q
from pathlib import Path

import pytest

from coapprox import (
    CapacityError,
    DimensionError,
    InternalInconsistencyError,
    OutcomeKind,
    ValidationError,
    VerificationVerdict,
    bj_orthogonal_l1,
    mat,
    prepare,
    solve_general,
    vec,
    verify_best_coapprox,
)
from coapprox import exact, norming, oracle
from coapprox.cli import load_problem, main
from coapprox.exact import l1_norm, primitive_ints, rank, solve_linear, vec_sub
from coapprox.instances import random_basis, random_vector
from coapprox.lp import solve_minimax_lp
from coapprox.norming import Arrangement, cell_pair_bound
from coapprox.oracle import BruteForceResult, brute_force_existence
from coapprox.subspace import validate_basis
from tests.reference import (
    column_basis, criterion_5_stream, lp_prefix_tree_cells, zero_minimizes_l1)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

B1 = vec((1, 2, 3, 4, 5, 6))
B2 = vec((5, 4, 0, 0, 1, 5))
ALPHA2 = (Q(1, 7), Q(-3, 7), Q(1))


class TestBjOrthogonality:
    def test_zero_direction(self):
        assert bj_orthogonal_l1(vec((3, -1, 2)), vec((0, 0, 0)))

    def test_balanced(self):
        assert bj_orthogonal_l1(vec((1, 1)), vec((1, -1)))

    def test_aligned(self):
        assert not bj_orthogonal_l1(vec((1, 0)), vec((1, 0)))

    def test_an_inexact_sign_vector_is_refused(self):
        # In floats the sums would balance and the test would answer True.
        with pytest.raises(ValidationError, match="not an exact rational: 0.5"):
            bj_orthogonal_l1((0.5, -0.5, 0), (1, 1, 3))

    def test_matches_one_dimensional_minimization(self):
        rng = random.Random(55)
        for _ in range(500):
            n = rng.randint(1, 6)
            y = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            z = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            zero_is_minimizer = zero_minimizes_l1(y, z)
            assert bj_orthogonal_l1(y, z) == zero_is_minimizer

    def test_matches_one_dimensional_minimization_on_int_sign_vectors(self):
        # The oracle's inputs: a tope's int sign vector, 0 on A's zero
        # rows, and an int residual.
        rng = random.Random(56)
        orthogonal = 0
        for _ in range(500):
            n = rng.randint(1, 7)
            y = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n))
            z = tuple(rng.randint(-9, 9) for _ in range(n))
            zero_is_minimizer = zero_minimizes_l1(y, z)
            assert bj_orthogonal_l1(y, z) == zero_is_minimizer
            orthogonal += zero_is_minimizer
        assert 100 <= orthogonal <= 400


class TestVerifyBestCoapprox:
    def test_confirms_true_solution(self, span3_l16):
        verdict = verify_best_coapprox(span3_l16, B2, ALPHA2)
        assert verdict.confirmed
        assert verdict.counterexample is None

    def test_refutes_zero_claim(self, span3_l16):
        verdict = verify_best_coapprox(span3_l16, B2, (Q(0), Q(0), Q(0)))
        assert not verdict.confirmed
        ce = verdict.counterexample
        assert ce.lhs > ce.rhs
        # The recorded inequality really is the defining one, recomputed.
        point = span3_l16.combine(ce.beta)
        assert l1_norm(vec_sub(point, span3_l16.combine((Q(0),) * 3))) == ce.lhs
        assert l1_norm(vec_sub(point, B2)) == ce.rhs

    def test_a_counterexample_that_does_not_violate_is_an_internal_fault(
            self, span3_l16, monkeypatch):
        # The refutation builds beta so that the definition fails at it; a
        # beta at which it holds is the oracle's fault, not the input's.
        monkeypatch.setattr(oracle, "l1_norm", lambda v: Q(0))
        with pytest.raises(InternalInconsistencyError,
                           match="^constructed counterexample does not violate$"):
            verify_best_coapprox(span3_l16, B2, (Q(0), Q(0), Q(0)))

    def test_member_confirmed(self, span3_l16):
        b = span3_l16.combine((Q(2), Q(0), Q(-1)))
        verdict = verify_best_coapprox(span3_l16, b, (Q(2), Q(0), Q(-1)))
        assert verdict.confirmed

    def test_negation_symmetry(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = rng.randint(1, min(2, n - 1))
            basis = random_basis(rng, n, m)
            b = random_vector(rng, n)
            alpha = tuple(Q(rng.randint(-3, 3)) for _ in range(m))
            minus_b = tuple(-x for x in b)
            minus_alpha = tuple(-x for x in alpha)
            v1 = verify_best_coapprox(basis, b, alpha)
            v2 = verify_best_coapprox(basis, minus_b, minus_alpha)
            assert v1.confirmed == v2.confirmed

    @pytest.mark.parametrize("m, trials, admitted", [
        (1, 200, True), (1, 10**6 - 5, True), (1, 10**6, True),
        (4, 10**6 - 5, True), (9, 1, False),
    ])
    def test_probe_cap(self, tmp_path, capsys, monkeypatch, m, trials, admitted):
        # One capacity rule bounds solve's verifier: the cell caps on the
        # basis, with no cap on m; a file's `trials` key, of any size, is
        # ignored.  The rows are the m unit vectors and the m(m-1)/2 sums
        # e_i + e_j, so m(m+1)/2 planes: 10 at m = 4 (at most 130 pairs),
        # 45 at m = 9, over the 20-plane cap.  The target is the member
        # with all coefficients 1.
        rows = [[int(k in pair) for k in range(m)]
                for pair in [(i,) for i in range(m)] + list(itertools.combinations(range(m), 2))]
        doc = {"n": len(rows), "basis": [[str(r[j]) for r in rows] for j in range(m)],
               "targets": [[str(sum(r)) for r in rows]], "options": {"trials": trials}}
        f = tmp_path / "probes.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        if not admitted:
            monkeypatch.setattr("coapprox.cli.solve_general", None)
        code = main(["solve", "--input", str(f)])
        out, err = capsys.readouterr()
        if admitted:
            assert code == 0, err
            report = json.loads(out)
            assert "trials" not in report
            assert [t["oracle"]["verdict"] for t in report["targets"]] == ["confirmed"]
        else:
            assert (code, out) == (3, "")
            assert "hyperplanes" in err


class TestBruteForce:
    def test_interval_candidates(self):
        # The best coapproximations are [2, 4]: five of them on the grid.
        basis = column_basis((1, 0))
        b = vec((3, 1))
        res = brute_force_existence(basis, b, Q(5), Q(1, 2))
        assert res == BruteForceResult(True, 21)
        ref = _reference_scan(basis, b, Q(5), Q(1, 2))
        assert ref.candidates == ((Q(2),), (Q(5, 2),), (Q(3),), (Q(7, 2),), (Q(4),))

    def test_member_on_grid(self):
        basis = column_basis((1, 2, 0), (0, 1, 1))
        b = basis.combine((Q(2), Q(-1)))
        res = brute_force_existence(basis, b, Q(5), Q(1))
        assert res == BruteForceResult(True, 11**2)
        assert (Q(2), Q(-1)) in _reference_scan(basis, b, Q(5), Q(1)).candidates

    def test_solution_off_the_grid_exists(self):
        # A = (1, 2)^T, b = (1, 0): the one best coapproximation is
        # alpha = 1/3, on no grid of step 1/2 or 1 but on the last grid;
        # its existence is proved either way.
        basis = column_basis((1, 2))
        b = vec((1, 0))
        assert solve_general(basis, None, b).chosen_alpha == (Q(1, 3),)
        assert not _reference_scan(basis, b, Q(5), Q(1, 2)).exists
        for radius, step in ((Q(5), Q(1, 2)), (Q(0), Q(1)), (Q(1, 3), Q(1, 3))):
            assert brute_force_existence(basis, b, radius, step).exists

    @pytest.mark.parametrize("radius, step", [
        (0.1, Q(1)), (Q(1), 0.5), ("1e1", Q(1)), (Q(1), "0.5"), (True, Q(1)),
        (Q(1), None), (Decimal(1), Q(1)),
    ])
    def test_grid_arguments_must_be_exact(self, span3_l16, radius, step):
        with pytest.raises(ValidationError):
            brute_force_existence(span3_l16, B1, radius, step)

    @pytest.mark.parametrize("radius, step, per_axis", [
        ("5", "1/2", 21), (5, Q(1, 2), 21), (" 10/2 ", 1, 11), (Q(5), "+1/3", 31),
    ])
    def test_grid_arguments_exact_forms(self, span3_l16, radius, step, per_axis):
        res = brute_force_existence(span3_l16, B1, radius, step)
        assert res == BruteForceResult(False, per_axis**3)

    def test_worked_fixture_nonexistence(self, span3_l16):
        res = brute_force_existence(span3_l16, B1, Q(5), Q(1, 2))
        assert not res.exists
        assert res.grid_points == 21**3

    def test_capacity(self):
        basis = column_basis((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(CapacityError):
            brute_force_existence(basis, vec((1, 1, 1, 1)), Q(1), Q(1))

    def test_step_validated(self, span3_l16):
        with pytest.raises(ValidationError):
            brute_force_existence(span3_l16, B1, Q(1), Q(0))

    def test_target_length_checked(self, span3_l16):
        with pytest.raises(DimensionError):
            brute_force_existence(span3_l16, B1[:5], Q(1), Q(1))

    def test_negative_radius_rejected(self, span3_l16):
        with pytest.raises(ValidationError):
            brute_force_existence(span3_l16, B1, Q(-1, 2), Q(1, 2))

    def test_point_cap_checked_before_scanning(self, span3_l16):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            brute_force_existence(span3_l16, B1, Q(10**9), Q(1, 10**9))
        assert time.perf_counter() - start < 1.0
        assert 101**3 > oracle.BRUTE_FORCE_MAX_POINTS  # 101 ticks per axis below
        with pytest.raises(CapacityError):
            brute_force_existence(span3_l16, B1, Q(100), Q(2))
        # 100 ticks per axis: exactly the cap, which is accepted.
        assert brute_force_existence(span3_l16, B1, Q(99, 2), Q(1)).grid_points == 10**6


# ------------------------------------------------- legacy probe reference
#
# The oracle's probes before they were one witness per tope pair: the
# 5^m sweep, the int edge probes (m <= 3) and seeded int random betas,
# reduced to their distinct sign patterns.  They are the reference the
# tope probes must refute at least as often as, and the rational
# versions further down pin them to the oracle they replaced.

_RANDOM_NUMERATOR, _RANDOM_DENOMINATOR = 8, 6  # the verifier's draws
_GRID_RANDOM_NUMERATOR, _GRID_RANDOM_DENOMINATOR = 60, 8  # the grid's draws


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _particular(incident, signs):
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


def _edge_probes(basis):
    """Int probes entering each cell of a simple row arrangement (m <= 3)
    far along one of its edge rays, stepping off it with a solve that
    prescribes the incident signs.  On the rows R = L.A, the rational
    probe ray.(1 + a/b).u + d (edge u = U/L^(m-1), step d = L.N/det, a/b
    the largest |r.d|/|r.u|) is stored times b.L^(m-1).|det| > 0."""
    m = basis.m
    scale = math.lcm(*(x.denominator for row in basis.matrix for x in row))
    lm = scale**m
    rows = [tuple(x.numerator * (scale // x.denominator) for x in r)
            for r in basis.matrix if any(r)]
    probes = [p for r in rows for p in (r, tuple(-x for x in r))]
    edges = [((-r[1], r[0]), (r,)) for r in rows] if m == 2 else []
    if m == 3:
        edges = [(u, rs) for rs in itertools.combinations(rows, 2) if any(u := _cross(*rs))]
    for u, incident in edges:
        for signs in itertools.product((1, -1), repeat=len(incident)):
            det, n = _particular(incident, signs)
            a, b = 0, 1
            for r in rows:
                ru = abs(sum(map(operator.mul, r, u)))
                if ru:
                    num, den = abs(sum(map(operator.mul, r, n))) * lm, abs(det) * ru
                    if num * b > a * den:
                        a, b = num, den
            far, near = (a + b) * abs(det), b * lm if det > 0 else -b * lm
            for ray in (far, -far):
                probes.append(tuple(ray * uu + near * nn for uu, nn in zip(u, n)))
    return tuple(probes)


def _legacy_probe_set(basis):
    probes = tuple(itertools.product(range(-2, 3), repeat=basis.m))
    if basis.m <= oracle.BRUTE_FORCE_MAX_M:
        probes += _edge_probes(basis)
    return probes


def _random_betas(m, trials, seed, numerator, denominator):
    """`trials` seeded random rational betas p/q, each as the int vector
    p_i.(lcm(q)/q_i)."""
    rng = random.Random(seed)
    for _ in range(trials):
        draws = [(rng.randint(-numerator, numerator), rng.randint(1, denominator))
                 for _ in range(m)]
        den = math.lcm(*(q for _, q in draws))
        yield tuple(p * (den // q) for p, q in draws)


def _legacy_sign_patterns(int_rows, betas):
    """Distinct sign vectors of A.beta over int betas, first nonzero
    sign +1, in first-seen order, each mapped to its first beta."""
    seen = {}
    for beta in betas:
        images = [sum(map(operator.mul, row, beta)) for row in int_rows]
        signs = tuple((y > 0) - (y < 0) for y in images)
        lead = next((s for s in signs if s), 0)
        if lead:
            signs = tuple(lead * s for s in signs)
            seen.setdefault(signs, beta)
    return seen


def _legacy_verify(basis, b, alpha, trials=200, seed=0):
    """The sweep + edge + random verifier: first failing pattern refutes."""
    betas = itertools.chain(_legacy_probe_set(basis), _random_betas(
        basis.m, trials, seed, _RANDOM_NUMERATOR, _RANDOM_DENOMINATOR))
    patterns = _legacy_sign_patterns([primitive_ints(row) for row in basis.matrix], betas)
    z = primitive_ints(vec_sub(b, basis.combine(alpha)))
    for signs, beta in patterns.items():
        if not bj_orthogonal_l1(signs, z):
            return VerificationVerdict(
                False, oracle._refute_from_bj_failure(basis, b, alpha, tuple(map(Q, beta))))
    return VerificationVerdict(True, None)


# A grid scanned point by point: its best coapproximations, in grid order.
_Scan = namedtuple("_Scan", "exists candidates grid_points")


def _solver_answers(basis, b):
    """The solver finds a best coapproximation of b."""
    return solve_general(basis, None, b, prepared=prepare(basis)).kind is not OutcomeKind.NOT_EXISTS


def _agrees_with_scan(got, ref, basis, b):
    """brute_force_existence's result `got` against a scan `ref` of the same
    grid: a candidate on the grid proves existence, and `got` decides it
    as the solver does, on or off the grid."""
    return (got.grid_points == ref.grid_points and (got.exists or not ref.exists)
            and got.exists == _solver_answers(basis, b))


def _pointwise_scan(basis, b, radius, step, checks):
    """The grid scanned point by point in ints: a candidate's residual is
    orthogonal to every sign vector in `checks` (keys of a pattern map)."""
    m = basis.m
    per_axis = math.floor(2 * radius / step) + 1
    ticks = [-radius + k * step for k in range(per_axis)]
    entries = itertools.chain((radius, step), b, *basis.matrix)
    scale = math.lcm(*(x.denominator for x in entries))
    int_cols = list(zip(*([int(a * scale) for a in row] for row in basis.matrix)))
    int_ticks = [int(t * scale) for t in ticks]
    int_b = [int(x * scale * scale) for x in b]  # residuals come out scaled by scale**2
    candidates = []
    last = 0  # the check that failed last is tried first
    for alpha in itertools.product(range(per_axis), repeat=m):
        z = list(int_b)
        for j, k in enumerate(alpha):
            z = [zi - a * int_ticks[k] for zi, a in zip(z, int_cols[j])]
        if not bj_orthogonal_l1(checks[last], z):
            continue
        failing = next((i for i, c in enumerate(checks) if not bj_orthogonal_l1(c, z)), None)
        if failing is None:
            candidates.append(tuple(ticks[k] for k in alpha))
        else:
            last = failing
    return _Scan(bool(candidates), tuple(candidates), per_axis**m)


def _legacy_grid(basis, b, radius, step, trials=0, seed=0):
    """The grid as it was: the legacy probes plus the grid's random betas,
    every point tested against every pattern."""
    scale = math.lcm(*(x.denominator for x in itertools.chain((radius, step), b, *basis.matrix)))
    int_rows = [[int(a * scale) for a in row] for row in basis.matrix]
    betas = _legacy_probe_set(basis) + tuple(_random_betas(
        basis.m, trials, seed, _GRID_RANDOM_NUMERATOR, _GRID_RANDOM_DENOMINATOR))
    checks = list(_legacy_sign_patterns(int_rows, betas))
    return _pointwise_scan(basis, b, radius, step, checks)


# ------------------------------------------------------ basis generators


def _awkward_basis(rng, m):
    """A rank-m basis mixing the degenerate shapes the old edge probes
    met: zero rows, proportional rows, for m = 3 several planes through
    one line, and entries with mixed denominators."""
    while True:
        rows = [
            tuple(Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))) for _ in range(m))
            for _ in range(rng.randint(m, m + 2))
        ]
        if rng.random() < 0.4:
            rows.append((Q(0),) * m)
        if rng.random() < 0.5:
            c = Q(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
            rows.append(tuple(c * x for x in rng.choice(rows)))
        if m == 3 and rng.random() < 0.5:  # rows in the pencil of two rows
            p, q = rng.sample(rows, 2)
            for _ in range(rng.randint(1, 3)):
                a, b = Q(rng.randint(-3, 3), rng.randint(1, 3)), Q(rng.randint(-3, 3))
                rows.append(tuple(a * x + b * y for x, y in zip(p, q)))
        rng.shuffle(rows)
        if rank(rows) == m:
            return validate_basis(tuple(rows))


def _line_sharing_basis(rng):
    """m = 3: three to five planes through one random line (rows a.u + b.v
    of two rows u, v), up to two rows off it and up to one zero row."""
    while True:
        u, v = ([Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2))
        rows = []
        while len(rows) < rng.randint(3, 5):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
        rows += [tuple(Q(rng.randint(-3, 3)) for _ in range(3)) for _ in range(rng.randint(1, 2))]
        rows += [(Q(0),) * 3] * rng.randint(0, 1)
        rng.shuffle(rows)
        if rank(rows) == 3 and _three_planes_through_a_flat(rows):
            return validate_basis(tuple(rows))


def _line(v):
    """The primitive int direction of v, up to sign."""
    d = tuple(primitive_ints(v))
    return max(d, tuple(-x for x in d))


def _planes(rows):
    return list(dict.fromkeys(_line(row) for row in rows if any(row)))


def _three_planes_through_a_flat(rows):
    return any(rank(list(t)) == 2 for t in itertools.combinations(_planes(rows), 3))


def _basis_for(rng, m, degenerate):
    if degenerate:
        return _awkward_basis(rng, m)
    n = rng.randint(m + 1, 6)
    return random_basis(rng, n, m, zero_rows=min(rng.choice((0, 0, 1, 2)), n - m))


# ----------------------------------------------- the tope-probe contract


def _reference_scan(basis, b, radius, step):
    """bj_orthogonal_l1 in Fractions at every (grid point, tope witness)
    pair, the witnesses taken from the LP prefix-tree enumeration."""
    ticks = []
    t = -radius
    while t <= radius:
        ticks.append(t)
        t += step
    witnesses = [beta for _, beta in _lp_reference_topes(basis)]
    candidates = []
    count = 0
    for alpha in itertools.product(ticks, repeat=basis.m):
        count += 1
        residual = vec_sub(b, basis.combine(alpha))
        if all(bj_orthogonal_l1(basis.combine(beta), residual) for beta in witnesses):
            candidates.append(alpha)
    return _Scan(bool(candidates), tuple(candidates), count)


@pytest.mark.parametrize("degenerate", [False, True])
def test_brute_force_matches_reference_scan(degenerate):
    # Random bases, and degenerate ones (zero, proportional and
    # line-sharing rows, mixed denominators).
    rng = random.Random(2024)
    grids = {
        1: [(Q(5), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(7, 3), Q(2, 5)), (Q(0), Q(1))],
        2: [(Q(2), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(3, 2), Q(2, 3))],
        3: [(Q(1), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(1), Q(2, 3))],
    }
    nonempty = 0
    for case in range(60):
        m = 1 + case % 3
        basis = _basis_for(rng, m, degenerate)
        radius, step = rng.choice(grids[m])
        if case % 4 == 0:  # a member of the subspace on the grid: a sure candidate
            b = basis.combine(tuple(-radius + step * rng.randint(0, 1) for _ in range(m)))
        else:
            b = random_vector(rng, basis.n)
        got = brute_force_existence(basis, b, radius, step)
        ref = _reference_scan(basis, b, radius, step)
        assert _agrees_with_scan(got, ref, basis, b), case
        nonempty += ref.exists
    assert nonempty >= 10


@pytest.mark.parametrize("degenerate", [False, True])
def test_brute_force_matches_pointwise_scan_on_long_lines(degenerate):
    # 11 to 41 ticks per axis, on and off the integer lattice; zero rows
    # give slabs of positive width, and on-grid members put candidates at
    # the ends of intervals.  The pointwise scan tests every grid point
    # against every tope pattern.
    rng = random.Random(707)
    short = [(Q(5, 2), Q(1, 2)), (Q(7, 3), Q(1, 3)), (Q(5), Q(1, 2))]  # 11, 15, 21
    long = short + [(Q(5), Q(1, 4)), (Q(7, 3), Q(2, 5)), (Q(10, 3), Q(1, 6))]
    grids = {1: long, 2: long, 3: short}  # the pointwise scan is slow at 41**3
    nonempty = 0
    for case in range(300):
        m = 1 + case % 3
        if degenerate:
            basis = _awkward_basis(rng, m)
        else:
            n = rng.randint(m + 1, 6)
            basis = random_basis(rng, n, m, zero_rows=min(rng.choice((0, 1, 2)), n - m))
        radius, step = rng.choice(grids[m])
        per_axis = math.floor(2 * radius / step) + 1
        if case % 4 == 0:
            b = basis.combine(
                tuple(-radius + step * rng.randrange(per_axis) for _ in range(m))
            )
        else:
            b = random_vector(rng, basis.n)
        got = brute_force_existence(basis, b, radius, step)
        checks = list(oracle._sign_patterns(basis))
        ref = _pointwise_scan(basis, b, radius, step, checks)
        assert _agrees_with_scan(got, ref, basis, b), case
        nonempty += ref.exists
    assert nonempty >= 50


@pytest.mark.parametrize("radius, most_calls", [(Q(5), 21**2), (Q(20), 81**2)])
def test_brute_force_tests_at_most_one_point_per_line(
    monkeypatch, span3_l16, radius, most_calls
):
    # The pointwise scan calls bj_orthogonal_l1 9288 times at radius 5
    # and 531754 times at radius 20.  Every tope test is a slab, and a
    # certificate proves the slabs disjoint, so no grid point is tested.
    calls = 0
    test = oracle.bj_orthogonal_l1

    def counted(*args):
        nonlocal calls
        calls += 1
        return test(*args)

    monkeypatch.setattr(oracle, "bj_orthogonal_l1", counted)
    res = brute_force_existence(span3_l16, B1, radius, Q(1, 2))
    assert not res.exists
    assert calls == 0 <= most_calls


def _reference_verify(basis, b, alpha):
    """bj_orthogonal_l1 in Fractions at each of the oracle's tope
    witnesses in turn; the first failure refutes."""
    residual = vec_sub(b, basis.combine(alpha))
    for witness in oracle._sign_patterns(basis).values():
        beta = tuple(map(Q, witness))
        if not bj_orthogonal_l1(basis.combine(beta), residual):
            return VerificationVerdict(False, oracle._refute_from_bj_failure(basis, b, alpha, beta))
    return VerificationVerdict(True, None)


@pytest.mark.parametrize("degenerate", [False, True])
def test_verify_matches_reference_verifier(degenerate):
    # Solver alphas (mostly confirmed) and random alphas (mostly refuted),
    # on random bases (m = 1..4) and degenerate ones (m = 1..3): equal
    # verdicts, counterexample included.
    rng = random.Random(1310)
    refuted = confirmed = from_solver = 0
    for case in range(240):
        m = 1 + case % (3 if degenerate else 4)
        basis = _basis_for(rng, m, degenerate)
        b = random_vector(rng, basis.n)
        alpha = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
        if case // 4 % 2 == 0:
            out = solve_general(basis, None, b, prepared=prepare(basis))
            if out.kind is not OutcomeKind.NOT_EXISTS:
                alpha = out.chosen_alpha
                from_solver += 1
        got = verify_best_coapprox(basis, b, alpha)
        assert got == _reference_verify(basis, b, alpha), case
        confirmed += got.confirmed
        refuted += not got.confirmed
    assert refuted >= 100 and confirmed >= 50 and from_solver >= 50


def test_verifier_residual_in_ints_matches_the_fraction_residual(monkeypatch):
    # verify_best_coapprox forms b - A.alpha in ints, from A's int matrix
    # and the scaled ints of b and alpha: every tope test receives the
    # coprime int form of the Fraction residual.  Bases with rational
    # entries, zero and proportional rows (m = 1..3); rational targets
    # and alphas, every fifth target a member (a zero residual).
    rng = random.Random(1717)
    seen = []
    monkeypatch.setattr(oracle, "bj_orthogonal_l1",
                        lambda y, z: seen.append(z) or bj_orthogonal_l1(y, z))
    members = 0
    for case in range(300):
        m = 1 + case % 3
        basis = _awkward_basis(rng, m)
        alpha = tuple(Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(m))
        b = basis.combine(alpha) if case % 5 == 0 else tuple(
            Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(basis.n))
        seen.clear()
        verify_best_coapprox(basis, b, alpha)
        expected = primitive_ints(vec_sub(b, basis.combine(alpha)))
        assert seen and all(z == expected for z in seen), case
        members += not any(expected)
    assert members >= 60


def test_sign_pattern_map_matches_fraction_map():
    # Each key is the int sign vector of A.beta at its own witness,
    # computed in Fractions, with zero signs exactly on A's zero rows; no
    # two keys are equal up to sign.
    rng = random.Random(5151)
    for case in range(240):
        m = 1 + case % 4
        basis = _awkward_basis(rng, m) if m < 4 else _basis_for(rng, m, False)
        zero_rows = tuple(not any(row) for row in basis.matrix)
        patterns = oracle._sign_patterns(basis)
        pairs = set()
        for signs, witness in patterns.items():
            assert all(type(x) is int for x in witness) and len(witness) == m, case
            assert all(type(s) is int for s in signs), case
            image = basis.combine(tuple(map(Q, witness)))
            assert signs == tuple((y > 0) - (y < 0) for y in image), case
            assert tuple(not s for s in signs) == zero_rows, case
            pairs.add(max(signs, tuple(-s for s in signs)))
        assert len(pairs) == len(patterns), case




def test_m1_verifier_draws_no_random_beta(monkeypatch):
    # m = 1 has one tope pair, so the verifier runs one test: A.alpha is
    # a best coapproximation iff |sum sign(a_i) z_i| <= sum over zero rows
    # of |z_i|.  Solver alphas (confirmed) and perturbed ones (mostly
    # refuted), zero rows and proportional rows included; no random
    # number generator is made.
    rng = random.Random(101)

    def no_draw(*args):
        raise AssertionError("the verifier made a random number generator")

    monkeypatch.setattr(random, "Random", no_draw)
    confirmed = refuted = 0
    for case in range(200):
        n = rng.randint(2, 7)
        basis = random_basis(rng, n, 1, zero_rows=rng.choice((0, 0, 1)))
        b = random_vector(rng, n)
        out = solve_general(basis, None, b, prepared=prepare(basis))
        if out.kind is OutcomeKind.NOT_EXISTS:
            continue
        assert len(oracle._sign_patterns(basis)) == 1
        alpha = out.chosen_alpha
        for a in (alpha, (alpha[0] + Q(rng.randint(-4, 4) or 1, rng.randint(1, 5)),)):
            z = vec_sub(b, basis.combine(a))
            signed = sum(((row[0] > 0) - (row[0] < 0)) * zi for row, zi in zip(basis.matrix, z))
            mass = sum(abs(zi) for row, zi in zip(basis.matrix, z) if not row[0])
            got = verify_best_coapprox(basis, b, a)
            assert got.confirmed == (abs(signed) <= mass), case
            confirmed += got.confirmed
            refuted += not got.confirmed
    assert confirmed >= 100 and refuted >= 50


def _lp_reference_topes(basis):
    """(row sign pattern, Fraction witness) per tope pair of A's row
    arrangement, from the LP prefix-tree enumeration kept in
    tests/test_norming.py.  Its planes are the nonzero rows divided by
    the absolute value of their first nonzero entry, merged when equal
    up to sign: no primitive ints and no call into the oracle."""
    planes, where = [], []
    for row in basis.matrix:
        lead = next((x for x in row if x), None)
        if lead is None:
            where.append(None)
            continue
        orientation = 1 if lead > 0 else -1
        plane = tuple(orientation * x / abs(lead) for x in row)
        if plane not in planes:
            planes.append(plane)
        where.append((planes.index(plane), orientation))
    arr = Arrangement(normals=tuple(planes), m=basis.m)
    return [(tuple(w[1] * signs[w[0]] if w else 0 for w in where), beta)
            for signs, beta in lp_prefix_tree_cells(arr)]


def _pair(signs):
    return frozenset({signs, tuple(-s for s in signs)})


def _pencil_basis(rng, m):
    """One to three rows in the pencil of two rows (for m >= 3, three or
    more planes through one (m-2)-flat), a proportional row of either
    sign and up to two zero rows."""
    while True:
        rows = [tuple(Q(rng.randint(-3, 3)) for _ in range(m)) for _ in range(m)]
        u, v = rows[0], rows[-1]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
        rows.append(tuple(Q(rng.choice((-2, 3)), 2) * x for x in rng.choice(rows)))
        rows += [(Q(0),) * m] * rng.randint(0, 2)
        rng.shuffle(rows)
        if rank(rows) == m:
            return validate_basis(tuple(rows))


def test_patterns_are_the_topes_of_the_lp_reference():
    # The verifier's distinct patterns, as +- pairs, are exactly the topes
    # the LP prefix tree finds, and no more than cell_pair_bound of the
    # distinct row hyperplanes: pencils through one flat, proportional
    # and zero rows, mixed denominators and random bases, m = 1..4.
    rng = random.Random(4747)
    pencils = 0
    for case in range(240):
        m = 1 + case % 4
        kind = case // 4 % 3
        if kind == 0:
            basis = _pencil_basis(rng, m)
        elif kind == 1 and m < 4:
            basis = _awkward_basis(rng, m)
        else:  # the reference's LPs grow fast with the rows at m = 4
            n = rng.randint(m + 1, m + (4 if m < 4 else 2))
            basis = random_basis(rng, n, m, zero_rows=rng.randint(0, 1))
        patterns = oracle._sign_patterns(basis)
        reference = _lp_reference_topes(basis)
        assert {_pair(s) for s in patterns} == {_pair(s) for s, _ in reference}, case
        r = len(_planes(basis.matrix))
        assert len(patterns) == len(reference) <= cell_pair_bound(r, m), case
        pencils += _three_planes_through_a_flat(basis.matrix)
    assert pencils >= 40


def test_cell_caps_refuse_before_any_enumeration(monkeypatch):
    # Refused on A's distinct row hyperplanes (zero and proportional rows
    # merged) before any tope is enumerated: 13 planes in R^4 may cut 299
    # pairs, over MAX_CELL_PAIRS; 21 lines in R^2 exceed MAX_HYPERPLANES.
    def no_work(*args):
        raise AssertionError("topes enumerated before the capacity check")

    monkeypatch.setattr(oracle, "half_cells", no_work)
    over_pairs = [[k**j for j in range(4)] for k in range(1, 14)]
    over_pairs += [[2 * x for x in over_pairs[0]], [0] * 4]
    over_planes = [[1, k] for k in range(21)] + [[-1, -5], [0, 0]]
    for rows, match in ((over_pairs, "cell pairs"), (over_planes, "hyperplanes")):
        basis = validate_basis(mat(rows))
        b, alpha = (Q(1),) * basis.n, (Q(0),) * basis.m
        with pytest.raises(CapacityError, match=match):
            verify_best_coapprox(basis, b, alpha)
        if basis.m <= oracle.BRUTE_FORCE_MAX_M:
            with pytest.raises(CapacityError, match=match):
                brute_force_existence(basis, b, Q(0), Q(1))
    # At the caps (20 lines in the plane, 20 pairs) the topes are built.
    monkeypatch.setattr(oracle, "half_cells", norming.half_cells)
    basis = validate_basis(mat([[1, k] for k in range(20)]))
    assert len(oracle._sign_patterns(basis)) == 20


def _is_refutation(basis, b, alpha, verdict):
    """The counterexample, recomputed in Fractions, breaks the definition."""
    ce = verdict.counterexample
    point = basis.combine(ce.beta)
    lhs = l1_norm(vec_sub(point, basis.combine(alpha)))
    rhs = l1_norm(vec_sub(point, b))
    return (lhs, rhs) == (ce.lhs, ce.rhs) and lhs > rhs


_DIFFERENTIAL_GRIDS = {
    1: [(Q(3), Q(1, 2)), (Q(5, 3), Q(1, 3))],
    2: [(Q(2), Q(1, 2)), (Q(1), Q(1, 3))],
    3: [(Q(1), Q(1, 2)), (Q(2, 3), Q(1, 3))],
}


def test_tope_probes_refute_whatever_the_legacy_probes_refute():
    # 3000 seeded (basis, b, alpha), m = 1..3: random, degenerate and, for
    # m = 3, line-sharing bases (three or more planes through one line,
    # the cells the old edge probes could miss); alphas from the solver,
    # the solver's perturbed and random.  Every legacy refutation is a
    # new one, every new counterexample breaks the definition in
    # Fractions, and every solver alpha is confirmed.  On every tenth
    # case the grid decides existence as the solver does, and exists
    # wherever the verifier confirms a legacy grid candidate.
    rng = random.Random(1947)
    legacy_refuted = shared_line = solver = nonempty = 0
    for case in range(3000):
        m = 1 + case % 3
        kind = case // 3 % 5
        if m == 3 and kind < 2:
            basis = _line_sharing_basis(rng)
            shared_line += 1
        else:
            basis = _basis_for(rng, m, kind % 2)
        b = random_vector(rng, basis.n)
        alpha = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
        if case // 3 % 3 == 0:
            out = solve_general(basis, None, b, prepared=prepare(basis))
            if out.kind is not OutcomeKind.NOT_EXISTS:
                alpha = out.chosen_alpha
                solver += 1
                assert verify_best_coapprox(basis, b, alpha).confirmed, case
                if case % 2:  # a near-solution, off by a small step in one coordinate
                    j = rng.randrange(m)
                    alpha = alpha[:j] + (alpha[j] + Q(rng.choice((-1, 1)), rng.randint(2, 40)),)
                    alpha += out.chosen_alpha[j + 1:]
        trials, seed = rng.choice((1, 5, 60)), rng.randint(0, 99)
        legacy = _legacy_verify(basis, b, alpha, trials, seed)
        new = verify_best_coapprox(basis, b, alpha)
        if not legacy.confirmed:
            legacy_refuted += 1
            assert not new.confirmed, case
        if not new.confirmed:
            assert _is_refutation(basis, b, alpha, new), case
        if case % 10 == 0:
            radius, step = rng.choice(_DIFFERENTIAL_GRIDS[m])
            if case % 20 == 0:  # a grid member: a sure candidate
                per_axis = math.floor(2 * radius / step) + 1
                b = basis.combine(
                    tuple(-radius + step * rng.randrange(per_axis) for _ in range(m)))
            got = brute_force_existence(basis, b, radius, step)
            ref = _legacy_grid(basis, b, radius, step, trials, seed)
            confirmed = [p for p in ref.candidates if verify_best_coapprox(basis, b, p).confirmed]
            on_grid = _Scan(bool(confirmed), tuple(confirmed), ref.grid_points)
            assert _agrees_with_scan(got, on_grid, basis, b), case
            nonempty += on_grid.exists
    assert shared_line >= 300 and solver >= 500 and legacy_refuted >= 1000 and nonempty >= 100


# The legacy int probes are pinned to the rational probes of the oracle
# they reproduce: rational edge probes from a Fraction solve, rational
# random draws.  The differential test above compares against exactly
# that oracle.
def _fraction_edge_probes(basis):
    rows = [r for r in basis.matrix if any(r)]
    probes = []
    for r in rows:
        probes.append(r)
        probes.append(tuple(-x for x in r))
    if basis.m == 2:
        edges = [((-r[1], r[0]), (r,)) for r in rows]
    elif basis.m == 3:
        edges = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                (a0, a1, a2), (b0, b1, b2) = rows[i], rows[j]
                u = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
                if any(u):
                    edges.append((u, (rows[i], rows[j])))
    else:
        edges = []
    for u, incident in edges:
        for signs in itertools.product((Q(1), Q(-1)), repeat=len(incident)):
            d = solve_linear(tuple(incident), signs).solution
            needed = [Q(0)]
            for r in rows:
                ru = sum((a * b for a, b in zip(r, u)), Q(0))
                if ru != 0:
                    rd = sum((a * b for a, b in zip(r, d)), Q(0))
                    needed.append(abs(rd) / abs(ru))
            scale = max(needed) + 1
            for ray in (1, -1):
                probes.append(tuple(ray * scale * uu + dd for uu, dd in zip(u, d)))
    return tuple(probes)


def _fraction_probe_set(basis):
    probes = tuple(itertools.product((Q(-2), Q(-1), Q(0), Q(1), Q(2)), repeat=basis.m))
    if basis.m <= oracle.BRUTE_FORCE_MAX_M:
        probes += _fraction_edge_probes(basis)
    return probes


def _fraction_random_betas(m, trials, seed, numerator, denominator):
    rng = random.Random(seed)
    for _ in range(trials):
        yield tuple(
            Q(rng.randint(-numerator, numerator), rng.randint(1, denominator))
            for _ in range(m)
        )


def _positive_multiple(got, ref):
    """got == c * ref for some rational c > 0 (any c when both are zero)."""
    ratios = {Q(g) / r for g, r in zip(got, ref) if r}
    zeros_agree = all((g == 0) == (r == 0) for g, r in zip(got, ref))
    return len(got) == len(ref) and zeros_agree and len(ratios) <= 1 and all(c > 0 for c in ratios)


def test_int_probes_are_positive_multiples_of_fraction_probes():
    rng = random.Random(4040)
    shared_lines = 0
    for case in range(1200):
        m = 1 + case % 3
        basis = _awkward_basis(rng, m) if case % 4 else random_basis(rng, m + 2, m)
        got, ref = _legacy_probe_set(basis), _fraction_probe_set(basis)
        assert len(got) == len(ref), case
        for k, (probe, reference) in enumerate(zip(got, ref)):
            assert all(type(x) is int for x in probe), (case, k)
            assert _positive_multiple(probe, reference), (case, k)
        if m == 3:  # two pairs of distinct planes on one line: three planes share it
            planes = _planes(basis.matrix)
            lines = [_line(_cross(p, q)) for p, q in itertools.combinations(planes, 2)]
            shared_lines += len(set(lines)) < len(lines)
    assert shared_lines >= 100


@pytest.mark.parametrize("m, trials, seed, numerator, denominator", [
    (1, 200, 0, 8, 6), (2, 200, 3, 8, 6), (3, 200, 9, 60, 8), (3, 50, 1, 1, 1), (4, 40, 7, 5, 12),
])
def test_int_random_betas_are_positive_multiples(m, trials, seed, numerator, denominator):
    got = list(_random_betas(m, trials, seed, numerator, denominator))
    ref = list(_fraction_random_betas(m, trials, seed, numerator, denominator))
    assert len(got) == len(ref) == trials
    assert all(all(type(x) is int for x in beta) for beta in got)
    assert all(_positive_multiple(beta, reference) for beta, reference in zip(got, ref))


def test_counterexample_invariant_under_rescaled_beta():
    # Scaling beta by c != 0 scales y = A.beta and the minimizing interval
    # of t -> ||y + t*z||_1 by c; the step is the interval's point nearest
    # 0, so beta/step, and with it the counterexample, does not move.
    # Negative c included: the stored beta's sign is not what keeps it.
    rng = random.Random(6262)
    checked = 0
    for case in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        basis = random_basis(rng, n, m, zero_rows=min(rng.choice((0, 1)), n - m))
        b = random_vector(rng, n)
        alpha = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m))
        beta = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m))
        if bj_orthogonal_l1(basis.combine(beta), vec_sub(b, basis.combine(alpha))):
            continue
        expected = oracle._refute_from_bj_failure(basis, b, alpha, beta)
        for c in (Q(3), Q(1, 7), Q(22, 5), Q(-1), Q(-5, 2)):
            scaled = tuple(c * x for x in beta)
            assert oracle._refute_from_bj_failure(basis, b, alpha, scaled) == expected, case
        checked += 1
    assert checked >= 200


@pytest.mark.parametrize("b, step", [((0, 0), 1), ((2, 2), -1)])
def test_refutation_steps_to_the_minimizer_end_nearest_0(b, step):
    # y = (1, 3) and z = b - alpha = -+(1, 1): t -> ||y + t*z||_1 is least
    # on [1, 3] or [-3, -1], where the walk reaches slope 0 at the first
    # breakpoint; the step is that end, not the far one.
    basis, alpha, beta = validate_basis(((1, 0), (0, 1))), vec((1, 1)), vec((1, 3))
    example = oracle._refute_from_bj_failure(basis, vec(b), alpha, beta)
    assert example.beta == tuple(a - x / step for a, x in zip(alpha, beta))
    assert example.lhs > example.rhs


def test_oracle_builds_probes_without_a_fraction_solve(monkeypatch):
    # Every problem file's basis (all have m <= 3) through the verifier and
    # the grid, with the rational solve made to raise.
    def refuse(*args):
        raise AssertionError("the oracle called solve_linear")

    monkeypatch.setattr(oracle, "solve_linear", refuse)
    monkeypatch.setattr(exact, "solve_linear", refuse)
    files = sorted(PROBLEMS.glob("*.json"))
    assert len(files) >= 6
    for path in files:
        problem = load_problem(str(path))
        basis = problem.basis
        assert basis.m <= oracle.BRUTE_FORCE_MAX_M
        targets = [b for _, b in problem.targets] + [tuple(Q(k) for k in range(basis.n))]
        for b in targets:
            verify_best_coapprox(basis, b, (Q(0),) * basis.m)
            brute_force_existence(basis, b, Q(1), Q(1, 2))


# ------------------------------------------------- not-exists certificates


def _certified(monkeypatch, basis, b, radius=Q(5), step=Q(1, 2)):
    """brute_force_existence with every check_certificate call recorded as
    (rows, rhs, width, lam, accepted)."""
    calls = []
    check = oracle.check_certificate

    def recorded(rows, rhs, width, lam):
        calls.append((rows, rhs, width, lam, check(rows, rhs, width, lam)))
        return calls[-1][-1]

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "check_certificate", recorded)
        return brute_force_existence(basis, b, radius, step), calls


def _uncertified(monkeypatch, basis, b, radius=Q(5), step=Q(1, 2)):
    """brute_force_existence with every certificate refused: the minimax
    alpha must then be confirmed."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "check_certificate", lambda *args: False)
        return brute_force_existence(basis, b, radius, step)


def test_every_not_exists_of_the_criterion_5_stream_is_certified(monkeypatch):
    # The first 300 instances of criterion 5's stream: each not-exists
    # target's slabs get one accepted certificate; refused, the minimax
    # alpha is refuted, an internal inconsistency.  The zero-width ones
    # are counted: each is a null vector, with no LP.  At both widths the
    # certificate is a circuit, of at most m + 1 slabs.
    by_m = {1: 0, 2: 0, 3: 0}
    by_width, lps = Counter(), []
    monkeypatch.setattr(oracle, "solve_minimax_lp",
                        lambda *args, **kw: lps.append(args) or solve_minimax_lp(*args, **kw))
    for basis, b in criterion_5_stream(300):
        m = basis.m
        if solve_general(basis, None, b).kind is not OutcomeKind.NOT_EXISTS:
            continue
        lps.clear()
        got, calls = _certified(monkeypatch, basis, b)
        assert [c[-1] for c in calls] == [True]
        assert len(lps) == (calls[0][2] > 0)
        assert len(calls[0][3]) - list(calls[0][3]).count(0) <= m + 1
        assert got == BruteForceResult(False, 21**m)
        with pytest.raises(InternalInconsistencyError):
            _uncertified(monkeypatch, basis, b)
        by_m[m] += 1
        by_width[calls[0][2] > 0] += 1
    assert by_m[2] >= 30 and by_m[3] >= 30, by_m
    assert by_width[False] >= 80 and by_width[True] >= 5, by_width


def test_grid_decides_existence_as_the_solver_does_on_the_criterion_5_stream():
    # The first 500 instances of criterion 5's stream, solvable targets
    # included: the grid's verdict is the solver's, whether or not a grid
    # point is a solution.  The pointwise scan finds none for 152
    # solvable targets (alpha = 1/3 and the like), where a scan alone
    # would have said no.
    seen = Counter()
    for case, (basis, b) in enumerate(criterion_5_stream(500)):
        got = brute_force_existence(basis, b, Q(5), Q(1, 2))
        answers = _solver_answers(basis, b)
        assert got == BruteForceResult(answers, 21**basis.m), case
        if answers:
            checks = list(oracle._sign_patterns(basis))
            seen["on grid" if _pointwise_scan(basis, b, Q(5), Q(1, 2), checks).exists
                 else "off grid"] += 1
        else:
            seen["not-exists"] += 1
    assert seen["off grid"] >= 150 and seen["on grid"] >= 150 and seen["not-exists"] >= 150, seen


def test_corrupted_certificates_are_rejected(monkeypatch, span3_l16):
    # B1 on the worked basis, and on it with a zero row (slabs of width
    # |b| on that row).  Flipping a multiplier's sign, dropping a pattern
    # with a nonzero multiplier, or moving b so that the slabs meet breaks
    # the certificate.
    wide = validate_basis(tuple(span3_l16.matrix) + ((Q(0),) * 3,))
    for basis, b in ((span3_l16, B1), (wide, B1 + (Q(1, 3),))):
        _, [(rows, rhs, width, lam, accepted)] = _certified(monkeypatch, basis, b)
        assert accepted and all(isinstance(x, int) for x in (*lam, *rhs, width, *rows[0]))
        assert (width > 0) is (basis is wide)
        assert oracle.check_certificate(rows, rhs, width, [3 * x for x in lam])
        support = [p for p, x in enumerate(lam) if x]
        assert support
        for p in support:
            flipped = [-x if q == p else x for q, x in enumerate(lam)]
            assert not oracle.check_certificate(rows, rhs, width, flipped)
            drop = [q for q in range(len(lam)) if q != p]
            assert not oracle.check_certificate(
                [rows[q] for q in drop], [rhs[q] for q in drop], width, [lam[q] for q in drop])
        assert not oracle.check_certificate(rows[1:], rhs[1:], width, lam)
        assert not oracle.check_certificate(rows, rhs, width, [0] * len(lam))
        # Moved onto a common point of the slabs: b = A alpha is a member.
        member = basis.combine((Q(1, 3), Q(-2), Q(1, 2)))
        _, [(_, moved, _, _, accepted)] = _certified(monkeypatch, basis, member)
        assert not accepted and not oracle.check_certificate(rows, moved, width, lam)
    # Off the grid, the member has no candidate, yet it is its own best
    # coapproximation: the grid says it exists.
    member = span3_l16.combine((Q(1, 3), Q(-2), Q(1, 2)))
    got, _ = _certified(monkeypatch, span3_l16, member)
    assert got == BruteForceResult(True, 21**3)
    assert _uncertified(monkeypatch, span3_l16, member) == got
    # |r - x|, |y|, |x + y| <= 1 meet iff r <= 3: b moved step by step
    # onto the slabs, the same multipliers stop at r = 3.
    rows, lam = [[1, 0], [0, 1], [1, 1]], [1, 1, -1]
    for r in range(6, -1, -1):
        assert oracle.check_certificate(rows, [r, 0, 0], 1, lam) is (r > 3)


def test_79_tope_pairs_are_certified_as_the_forced_scan_decides(monkeypatch):
    # Rows (1, k, k^2), k = 0..12, and a zero row: 79 tope pairs, within
    # the cell caps.  The not-exists target (e1) gets one accepted
    # certificate, and refusing it is an internal inconsistency; the
    # member's slabs meet, so its certificate is refused and the minimax
    # alpha, confirmed, decides, as the pointwise scan does.
    basis = validate_basis(mat([[1, k, k * k] for k in range(13)] + [[0, 0, 0]]))
    checks = list(oracle._sign_patterns(basis))
    assert len(checks) == 79
    radius, step = Q(2), Q(1)
    e1 = (Q(1),) + (Q(0),) * 13
    got, calls = _certified(monkeypatch, basis, e1, radius, step)
    assert [c[-1] for c in calls] == [True] and len(calls[0][0]) == 79
    with pytest.raises(InternalInconsistencyError):
        _uncertified(monkeypatch, basis, e1, radius, step)
    assert got == BruteForceResult(False, 5**3)
    member = basis.combine((Q(1), Q(-1), Q(0)))
    got, calls = _certified(monkeypatch, basis, member, radius, step)
    assert [c[-1] for c in calls] == [False]
    ref = _pointwise_scan(basis, member, radius, step, checks)
    assert ref.exists and _agrees_with_scan(got, ref, basis, member)


def _parent_certificate(basis, b, radius, step):
    """(rows, rhs, width, lam, accepted): the grid's slabs and minimax-LP
    certificate as brute_force_existence built them before the null
    vector, kept as the reference: one scale over the grid, b and A."""
    patterns = oracle._sign_patterns(basis)
    entries = itertools.chain((radius, step), b, *basis.matrix)
    scale = math.lcm(*(x.denominator for x in entries))
    int_cols = [[int(a * scale) for a in col] for col in zip(*basis.matrix)]
    int_b = [int(x * scale * scale) for x in b]  # residuals come out scaled by scale**2
    width = sum(abs(x) for x, row in zip(int_b, basis.matrix) if not any(row))
    rows = [[sum(map(operator.mul, signs, col)) for col in int_cols] for signs in patterns]
    rhs = [sum(map(operator.mul, signs, int_b)) for signs in patterns]
    lam = solve_minimax_lp(rows, rhs)[2]
    return rows, rhs, width, lam, oracle.check_certificate(rows, rhs, width, lam)


def test_certify_not_exists_accepts_where_the_minimax_certificate_does(monkeypatch):
    # Seeded slab systems, m = 1..3, on bases with rational entries, zero,
    # proportional and line-sharing rows: targets with no mass on A's zero
    # rows (width 0) or with some (width > 0), each random (mostly
    # inconsistent) or a subspace member plus that mass (consistent).
    # certify_not_exists accepts exactly where the minimax-LP certificate
    # of the reference does and runs that LP only at width > 0; the grid
    # says "exists" exactly where it is refused, as the solver does.  Each
    # accepted certificate has at most m + 1 nonzero multipliers, and is
    # rejected once corrupted: one multiplier's sign flipped, one row with
    # a nonzero multiplier dropped, or b moved onto the slabs.
    rng = random.Random(3131)
    seen, lps = Counter(), []
    monkeypatch.setattr(oracle, "solve_minimax_lp",
                        lambda *args, **kw: lps.append(args) or solve_minimax_lp(*args, **kw))
    for case in range(450):
        m = 1 + case % 3
        basis = _awkward_basis(rng, m)
        if case % 2 and all(map(any, basis.matrix)):
            basis = validate_basis(basis.matrix + ((Q(0),) * m,))
        zero = [i for i, row in enumerate(basis.matrix) if not any(row)]
        mass = [Q(rng.randint(1, 4), rng.randint(1, 3)) if i in zero and case % 2 else Q(0)
                for i in range(basis.n)]
        member = basis.combine(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)))
        moved = tuple(x + y for x, y in zip(member, mass))
        noise = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(basis.n))
        for b in (tuple(y if i in zero else x for i, (x, y) in enumerate(zip(noise, mass))), moved):
            lps.clear()
            rows, rhs, width, lam = oracle.certify_not_exists(basis, b)
            assert len(lps) == (width > 0), case
            lps.clear()
            *_, ref_width, _, accepted = _parent_certificate(basis, b, Q(1), Q(1, 2))
            assert (width > 0) is (ref_width > 0) and (lam is not None) is accepted, case
            assert all(type(x) is int for x in (*rhs, width, *itertools.chain(*rows)))
            seen[width > 0, accepted] += 1
            got = brute_force_existence(basis, b, Q(1), Q(1, 2))
            assert got == BruteForceResult(lam is None, 5**m), case
            assert got.exists == _solver_answers(basis, b), case
            if lam is None:
                continue
            assert oracle.check_certificate(rows, rhs, width, lam) and not got.exists
            assert len(lam) - list(lam).count(0) <= m + 1, case
            p = next(q for q, x in enumerate(lam) if x)
            flipped = [*lam[:p], -lam[p], *lam[p + 1:]]
            assert not oracle.check_certificate(rows, rhs, width, flipped), case
            keep = [q for q in range(len(lam)) if q != p]
            assert not oracle.check_certificate(
                [rows[q] for q in keep], [rhs[q] for q in keep], width, [lam[q] for q in keep])
            # The moved target's slabs meet; its rows are a positive
            # multiple of these, so lam still sums them to 0.
            moved_rows, moved_rhs, moved_width, moved_lam = oracle.certify_not_exists(basis, moved)
            assert moved_lam is None, case
            assert not oracle.check_certificate(moved_rows, moved_rhs, moved_width, lam), case
    assert min(seen[w, a] for w in (False, True) for a in (False, True)) >= 40, seen


@pytest.mark.parametrize("call, message", [
    (lambda basis: bj_orthogonal_l1((1, 0), (1,)),
     "orthogonality test needs vectors of equal length"),
    (lambda basis: bj_orthogonal_l1((1,), (1, 0)),
     "orthogonality test needs vectors of equal length"),
    (lambda basis: verify_best_coapprox(basis, (1,) * 5, (0, 0, 0)),
     "verify_best_coapprox dimension mismatch"),
    (lambda basis: verify_best_coapprox(basis, (1,) * 6, (0, 0)),
     "verify_best_coapprox dimension mismatch"),
    # zip(*rows) would stop at the shortest row and accept a false proof.
    (lambda basis: oracle.check_certificate([[1, 5], [1], [-2]], [1, 1, 1], 0, [1, 1, 1]),
     "ragged certificate rows: rows of different lengths"),
], ids=["short z", "short y", "target length", "alpha length", "ragged certificate rows"])
def test_oracle_refuses_vectors_of_the_wrong_length(span3_l16, call, message):
    with pytest.raises(DimensionError) as raised:
        call(span3_l16)
    assert (type(raised.value), str(raised.value)) == (DimensionError, message)

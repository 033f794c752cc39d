import itertools
import math
import operator
import random
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from coapprox import (
    ALL_REALS,
    BruteForceResult,
    CapacityError,
    DimensionError,
    OutcomeKind,
    ValidationError,
    VerificationVerdict,
    bj_orthogonal_l1,
    brute_force_existence,
    l1_norm,
    minimize_1d_l1,
    prepare,
    solve_general,
    vec,
    verify_best_coapprox,
)
from coapprox import exact, oracle
from coapprox.cli import load_problem
from coapprox.exact import primitive_ints, rank, solve_linear, vec_sub
from coapprox.instances import random_basis, random_vector
from coapprox.subspace import validate_basis
from tests.conftest import column_basis

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

    def test_matches_one_dimensional_minimization(self):
        rng = random.Random(55)
        for _ in range(500):
            n = rng.randint(1, 6)
            y = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            z = vec([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])
            _, where = minimize_1d_l1(y, z)
            zero_is_minimizer = where is ALL_REALS or Q(0) in where
            assert bj_orthogonal_l1(y, z) == zero_is_minimizer


class TestVerifyBestCoapprox:
    def test_confirms_true_solution(self, span3_l16):
        verdict = verify_best_coapprox(span3_l16, B2, ALPHA2, trials=100, seed=4)
        assert verdict.confirmed
        assert verdict.counterexample is None

    def test_refutes_zero_claim(self, span3_l16):
        verdict = verify_best_coapprox(
            span3_l16, B2, (Q(0), Q(0), Q(0)), trials=10, seed=4
        )
        assert not verdict.confirmed
        ce = verdict.counterexample
        assert ce.lhs > ce.rhs
        # The recorded inequality really is the defining one, recomputed.
        point = span3_l16.combine(ce.beta)
        assert l1_norm(vec_sub(point, span3_l16.combine((Q(0),) * 3))) == ce.lhs
        assert l1_norm(vec_sub(point, B2)) == ce.rhs

    def test_member_confirmed(self, span3_l16):
        b = span3_l16.combine((Q(2), Q(0), Q(-1)))
        verdict = verify_best_coapprox(span3_l16, b, (Q(2), Q(0), Q(-1)), trials=5)
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
            v1 = verify_best_coapprox(basis, b, alpha, trials=40, seed=6)
            v2 = verify_best_coapprox(basis, minus_b, minus_alpha, trials=40, seed=6)
            assert v1.confirmed == v2.confirmed

    @pytest.mark.parametrize("m, trials, admitted", [
        (8, 200, True), (8, 10**6 - 5**8, True), (8, 10**6 - 5**8 + 1, False),
        (9, 1, False), (1, 10**6, False),
    ])
    def test_probe_cap(self, m, trials, admitted):
        # The 5^m sweep plus the random trials may not exceed 10^6 probes.
        if admitted:
            oracle.check_probe_capacity(m, trials)
        else:
            with pytest.raises(CapacityError, match="probes"):
                oracle.check_probe_capacity(m, trials)

    def test_probe_cap_refuses_before_any_probe(self, span3_l16, monkeypatch):
        monkeypatch.setattr(oracle, "_sign_patterns", None)
        with pytest.raises(CapacityError):
            verify_best_coapprox(span3_l16, B2, ALPHA2, trials=10**6)

    def test_trials_validated(self, span3_l16):
        with pytest.raises(ValidationError):
            verify_best_coapprox(span3_l16, B2, ALPHA2, trials=0)


class TestBruteForce:
    def test_interval_candidates(self):
        basis = column_basis((1, 0))
        res = brute_force_existence(basis, vec((3, 1)), Q(5), Q(1, 2))
        assert res.exists
        assert res.candidates == (
            (Q(2),),
            (Q(5, 2),),
            (Q(3),),
            (Q(7, 2),),
            (Q(4),),
        )

    def test_member_on_grid(self):
        basis = column_basis((1, 2, 0), (0, 1, 1))
        b = basis.combine((Q(2), Q(-1)))
        res = brute_force_existence(basis, b, Q(5), Q(1))
        assert (Q(2), Q(-1)) in res.candidates

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

    def test_trials_cap_checked_before_any_probe(self, monkeypatch):
        # A one-point grid: only the random trials make the probe list long.
        monkeypatch.setattr(oracle, "_sign_patterns", None)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="probes"):
            brute_force_existence(column_basis((1, 0)), vec((3, 1)), Q(0), Q(1), trials=10**7)
        assert time.perf_counter() - start < 1.0

    def test_trials_cap_admits_the_verifier_limit(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(basis):
            raise Reached

        monkeypatch.setattr(oracle, "_probe_set", reached)
        basis = column_basis((1, 0))  # m = 1: the sweep is 5 probes
        with pytest.raises(Reached):
            brute_force_existence(basis, vec((3, 1)), Q(0), Q(1), trials=10**6 - 5)
        with pytest.raises(CapacityError, match="probes"):
            brute_force_existence(basis, vec((3, 1)), Q(0), Q(1), trials=10**6 - 5 + 1)


def _reference_scan(basis, b, radius, step, trials=0, seed=0):
    """The per-probe scan: bj_orthogonal_l1 in Fractions at every
    (grid point, probe) pair, with the random betas redrawn per point."""
    ticks = []
    t = -radius
    while t <= radius:
        ticks.append(t)
        t += step
    probes = oracle._probe_set(basis)
    candidates = []
    count = 0
    for alpha in itertools.product(ticks, repeat=basis.m):
        count += 1
        residual = vec_sub(b, basis.combine(alpha))
        if not all(bj_orthogonal_l1(basis.combine(beta), residual) for beta in probes):
            continue
        rng = random.Random(seed)
        randoms = [
            tuple(Q(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(basis.m))
            for _ in range(trials)
        ]
        if not all(bj_orthogonal_l1(basis.combine(beta), residual) for beta in randoms):
            continue
        candidates.append(alpha)
    return BruteForceResult(bool(candidates), tuple(candidates), count, trials, seed)


def _unit_probes(basis):
    return tuple(tuple(int(i == j) for j in range(basis.m)) for i in range(basis.m))


@pytest.mark.parametrize("weak_probes", [False, True])
def test_brute_force_matches_reference_scan(monkeypatch, weak_probes):
    if weak_probes:  # with unit-vector probes only, the random betas decide
        monkeypatch.setattr(oracle, "_probe_set", _unit_probes)
    rng = random.Random(2024)
    grids = {
        1: [(Q(5), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(7, 3), Q(2, 5)), (Q(0), Q(1))],
        2: [(Q(2), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(3, 2), Q(2, 3))],
        3: [(Q(1), Q(1, 2)), (Q(1, 3), Q(1, 2)), (Q(1), Q(2, 3))],
    }
    nonempty = 0
    for case in range(60):
        m = 1 + case % 3
        n = rng.randint(m + 1, 6)
        basis = random_basis(rng, n, m, zero_rows=min(rng.choice((0, 0, 1)), n - m))
        radius, step = rng.choice(grids[m])
        if case % 4 == 0:  # a member of the subspace on the grid: a sure candidate
            b = basis.combine(tuple(-radius + step * rng.randint(0, 1) for _ in range(m)))
        else:
            b = random_vector(rng, n)
        trials = rng.choice((0, 0, 5, 15))
        seed = rng.randint(0, 9)
        got = brute_force_existence(basis, b, radius, step, trials=trials, seed=seed)
        assert got == _reference_scan(basis, b, radius, step, trials, seed), case
        nonempty += bool(got.candidates)
    assert nonempty >= 10


def _pointwise_scan(basis, b, radius, step, trials=0, seed=0):
    """The integer scan that tests every grid point against every
    sign-pattern check in turn, kept as it was before grid lines were
    decided by intervals."""
    m = basis.m
    per_axis = math.floor(2 * radius / step) + 1
    ticks = [-radius + k * step for k in range(per_axis)]
    entries = itertools.chain((radius, step), b, *basis.matrix)
    scale = math.lcm(*(x.denominator for x in entries))
    int_rows = [[int(a * scale) for a in row] for row in basis.matrix]
    int_cols = list(zip(*int_rows))
    int_ticks = [int(t * scale) for t in ticks]
    int_b = [int(x * scale * scale) for x in b]  # residuals come out scaled by scale**2
    inner_step = [a * int(step * scale) for a in int_cols[-1]]

    betas = oracle._probe_set(basis) + tuple(
        oracle._random_betas(
            m, trials, seed, oracle._GRID_RANDOM_NUMERATOR, oracle._GRID_RANDOM_DENOMINATOR
        )
    )
    checks = list(oracle._sign_patterns(int_rows, betas))

    candidates = []
    last = 0
    for outer in itertools.product(range(per_axis), repeat=m - 1):
        z = list(int_b)
        for j, k in enumerate(outer + (0,)):
            z = [zi - a * int_ticks[k] for zi, a in zip(z, int_cols[j])]
        for k in range(per_axis):
            if k:
                z = [zi - d for zi, d in zip(z, inner_step)]
            abs_z = list(map(abs, z))
            if oracle._fails(z, abs_z, checks[last]):
                continue
            for idx, check in enumerate(checks):
                if oracle._fails(z, abs_z, check):
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


@pytest.mark.parametrize("weak_probes", [False, True])
def test_brute_force_matches_pointwise_scan_on_long_lines(monkeypatch, weak_probes):
    # 11 to 41 ticks per axis, on and off the integer lattice; zero rows
    # give checks whose pass interval has a positive slab width, and
    # on-grid members put candidates at the ends of intervals.  The full
    # probe set makes a check with zero signs redundant beside its
    # refinements; unit-vector probes alone make such checks decide.
    if weak_probes:
        monkeypatch.setattr(oracle, "_probe_set", _unit_probes)
    rng = random.Random(707)
    short = [(Q(5, 2), Q(1, 2)), (Q(7, 3), Q(1, 3)), (Q(5), Q(1, 2))]  # 11, 15, 21
    long = short + [(Q(5), Q(1, 4)), (Q(7, 3), Q(2, 5)), (Q(10, 3), Q(1, 6))]
    grids = {1: long, 2: long, 3: short}  # the pointwise scan is slow at 41**3
    nonempty = 0
    for case in range(300):
        m = 1 + case % 3
        n = rng.randint(m + 1, 6)
        basis = random_basis(rng, n, m, zero_rows=min(rng.choice((0, 1, 2)), n - m))
        radius, step = rng.choice(grids[m])
        per_axis = math.floor(2 * radius / step) + 1
        if case % 4 == 0:
            b = basis.combine(
                tuple(-radius + step * rng.randrange(per_axis) for _ in range(m))
            )
        else:
            b = random_vector(rng, n)
        trials = rng.choice((0, 5, 15))
        seed = rng.randint(0, 9)
        got = brute_force_existence(basis, b, radius, step, trials=trials, seed=seed)
        assert got == _pointwise_scan(basis, b, radius, step, trials, seed), case
        nonempty += bool(got.candidates)
    assert nonempty >= 50


@pytest.mark.parametrize("radius, most_calls", [(Q(5), 21**2), (Q(20), 81**2)])
def test_brute_force_tests_at_most_one_point_per_line(
    monkeypatch, span3_l16, radius, most_calls
):
    # The pointwise scan calls _fails 9288 times at radius 5 and 531754
    # times at radius 20; interval pruning leaves at most one per grid line.
    calls = 0
    fails = oracle._fails

    def counted(*args):
        nonlocal calls
        calls += 1
        return fails(*args)

    monkeypatch.setattr(oracle, "_fails", counted)
    res = brute_force_existence(span3_l16, B1, radius, Q(1, 2))
    assert not res.exists
    assert calls <= most_calls


def _reference_verify(basis, b, alpha, trials=200, seed=0):
    """The per-probe verifier: bj_orthogonal_l1 in Fractions at each probe
    in turn, then at each seeded random beta; the first failure refutes."""
    residual = vec_sub(b, basis.combine(alpha))
    rng = random.Random(seed)
    randoms = (
        tuple(Q(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(basis.m))
        for _ in range(trials)
    )
    for beta in itertools.chain(oracle._probe_set(basis), randoms):
        if not bj_orthogonal_l1(basis.combine(beta), residual):
            return VerificationVerdict(
                False, oracle._refute_from_bj_failure(basis, b, alpha, beta), seed, trials
            )
    return VerificationVerdict(True, None, seed, trials)


@pytest.mark.parametrize("weak_probes", [False, True])
def test_verify_matches_reference_verifier(monkeypatch, weak_probes):
    # Solver alphas (mostly confirmed) and random alphas (mostly refuted),
    # m = 1..4, every trial count: equal verdicts, counterexample included.
    if weak_probes:  # with no deterministic probes, the random betas decide
        monkeypatch.setattr(oracle, "_probe_set", lambda basis: ())
    rng = random.Random(1310)
    refuted = confirmed = from_solver = 0
    for case in range(240):
        m = 1 + case % 4
        n = rng.randint(m + 1, 6)
        basis = random_basis(rng, n, m, zero_rows=min(rng.choice((0, 0, 1, 2)), n - m))
        b = random_vector(rng, n)
        trials = (1, 5, 60, 200)[case // 8 % 4]
        seed = rng.randint(0, 99)
        alpha = tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m))
        if case // 4 % 2 == 0:
            out = solve_general(basis, None, b, prepared=prepare(basis))
            if out.kind is not OutcomeKind.NOT_EXISTS:
                alpha = out.chosen_alpha
                from_solver += 1
        got = verify_best_coapprox(basis, b, alpha, trials=trials, seed=seed)
        assert got == _reference_verify(basis, b, alpha, trials, seed), case
        confirmed += got.confirmed
        refuted += not got.confirmed
    assert refuted >= 100 and confirmed >= 50 and from_solver >= 50


# The oracle's probes before they were built in ints: rational edge probes
# from a Fraction solve, rational random draws, and the pattern map over
# rational betas.  They are the references for the int probes.
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


def _fraction_sign_patterns(int_rows, betas):
    seen = {}
    for beta in betas:
        den = math.lcm(*(x.denominator for x in beta))
        int_beta = [x.numerator * (den // x.denominator) for x in beta]
        images = [sum(map(operator.mul, row, int_beta)) for row in int_rows]
        signs = tuple((y > 0) - (y < 0) for y in images)
        lead = next((s for s in signs if s), 0)
        if lead:
            signs = tuple(lead * s for s in signs)
            seen.setdefault((signs, tuple(1 - abs(s) for s in signs)), beta)
    return seen


def _positive_multiple(got, ref):
    """got == c * ref for some rational c > 0 (any c when both are zero)."""
    ratios = {Q(g) / r for g, r in zip(got, ref) if r}
    zeros_agree = all((g == 0) == (r == 0) for g, r in zip(got, ref))
    return len(got) == len(ref) and zeros_agree and len(ratios) <= 1 and all(c > 0 for c in ratios)


def _awkward_basis(rng, m):
    """A rank-m basis mixing the degenerate shapes the edge probes meet:
    zero rows, proportional rows, for m = 3 several planes through one
    line, and entries with mixed denominators."""
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


def _line(v):
    """The primitive int direction of v, up to sign."""
    d = tuple(primitive_ints(v))
    return max(d, tuple(-x for x in d))


def test_int_probes_are_positive_multiples_of_fraction_probes():
    rng = random.Random(4040)
    shared_lines = 0
    for case in range(1200):
        m = 1 + case % 3
        basis = _awkward_basis(rng, m) if case % 4 else random_basis(rng, m + 2, m)
        got, ref = oracle._probe_set(basis), _fraction_probe_set(basis)
        assert len(got) == len(ref), case
        for k, (probe, reference) in enumerate(zip(got, ref)):
            assert all(type(x) is int for x in probe), (case, k)
            assert _positive_multiple(probe, reference), (case, k)
        if m == 3:  # two pairs of distinct planes on one line: three planes share it
            planes = {_line(row) for row in basis.matrix if any(row)}
            lines = [_line(oracle._cross(p, q)) for p, q in itertools.combinations(planes, 2)]
            shared_lines += len(set(lines)) < len(lines)
    assert shared_lines >= 100


@pytest.mark.parametrize("m, trials, seed, numerator, denominator", [
    (1, 200, 0, 8, 6), (2, 200, 3, 8, 6), (3, 200, 9, 60, 8), (3, 50, 1, 1, 1), (4, 40, 7, 5, 12),
])
def test_int_random_betas_are_positive_multiples(m, trials, seed, numerator, denominator):
    got = list(oracle._random_betas(m, trials, seed, numerator, denominator))
    ref = list(_fraction_random_betas(m, trials, seed, numerator, denominator))
    assert len(got) == len(ref) == trials
    assert all(all(type(x) is int for x in beta) for beta in got)
    assert all(_positive_multiple(beta, reference) for beta, reference in zip(got, ref))


class _CountedRow(list):
    """A row of ints that counts how often it is read in full."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_sign_pattern_map_matches_fraction_map():
    # The verifier's probes and random betas (trials 1, 5, 200) over rows
    # scaled one by one, and the grid's probes over rows scaled by one
    # common denominator: equal keys in equal order, and each stored
    # beta a positive multiple of the reference's.  A beta is turned into
    # products only when its direction, up to sign, is new.
    rng = random.Random(5151)
    deduped = 0
    for case in range(240):
        m = 1 + case % 3
        basis = _awkward_basis(rng, m)
        if case % 4 == 3:
            scale = math.lcm(*(x.denominator for row in basis.matrix for x in row))
            int_rows = [[int(x * scale) for x in row] for row in basis.matrix]
            got_betas, ref_betas = oracle._probe_set(basis), _fraction_probe_set(basis)
        else:
            trials, seed = (1, 5, 200)[case % 4], rng.randint(0, 99)
            int_rows = [primitive_ints(row) for row in basis.matrix]
            got_betas = oracle._probe_set(basis) + tuple(oracle._random_betas(
                m, trials, seed, oracle._RANDOM_NUMERATOR, oracle._RANDOM_DENOMINATOR))
            ref_betas = _fraction_probe_set(basis) + tuple(_fraction_random_betas(
                m, trials, seed, oracle._RANDOM_NUMERATOR, oracle._RANDOM_DENOMINATOR))
        counted = [_CountedRow(row) for row in int_rows]
        got = oracle._sign_patterns(counted, got_betas)
        ref = _fraction_sign_patterns(int_rows, ref_betas)
        assert list(got) == list(ref), case
        assert all(_positive_multiple(got[key], ref[key]) for key in ref), case
        directions = {_line(beta) for beta in got_betas if any(beta)}
        assert counted[0].reads == len(directions), case
        sweep = {_line(beta) for beta in got_betas[:5**m] if any(beta)}
        later = [_line(beta) for beta in got_betas[5**m:] if any(beta)]
        deduped += len(set(later) - sweep) < len(later)  # a skip past the sweep
    assert deduped >= 200


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
            verify_best_coapprox(basis, b, (Q(0),) * basis.m, trials=200)
            brute_force_existence(basis, b, Q(1), Q(1, 2), trials=5)


def _verify_with_draws(basis, b, alpha, trials, seed):
    """The verifier as it was before m = 1 skipped its random betas: the
    pattern map over the probes and all `trials` draws."""
    betas = itertools.chain(
        oracle._probe_set(basis),
        oracle._random_betas(
            basis.m, trials, seed, oracle._RANDOM_NUMERATOR, oracle._RANDOM_DENOMINATOR
        ),
    )
    patterns = oracle._sign_patterns([primitive_ints(row) for row in basis.matrix], betas)
    z = primitive_ints(vec_sub(b, basis.combine(alpha)))
    abs_z = list(map(abs, z))
    for check, beta in patterns.items():
        if oracle._fails(z, abs_z, check):
            return VerificationVerdict(
                False,
                oracle._refute_from_bj_failure(basis, b, alpha, tuple(map(Q, beta))),
                seed,
                trials,
            )
    return VerificationVerdict(True, None, seed, trials)


def test_m1_verifier_draws_no_random_beta(monkeypatch):
    # m = 1: every nonzero beta is a multiple of a swept probe, so the
    # draws cannot change the verdict or the counterexample.  Solver
    # alphas (confirmed) and perturbed ones (mostly refuted), zero rows
    # and proportional rows included.
    draws, asked = [], []
    original = oracle._random_betas

    def counted(*args):
        asked.append(args[1])
        for beta in original(*args):
            draws.append(beta)
            yield beta

    rng = random.Random(101)
    confirmed = refuted = 0
    for case in range(200):
        n = rng.randint(2, 7)
        basis = random_basis(rng, n, 1, zero_rows=rng.choice((0, 0, 1)))
        b = random_vector(rng, n)
        trials = rng.choice((1, 7, 200))
        seed = rng.randint(0, 99)
        out = solve_general(basis, None, b, prepared=prepare(basis))
        if out.kind is OutcomeKind.NOT_EXISTS:
            continue
        alpha = out.chosen_alpha
        for a in (alpha, (alpha[0] + Q(rng.randint(-4, 4) or 1, rng.randint(1, 5)),)):
            expected = _verify_with_draws(basis, b, a, trials, seed)
            monkeypatch.setattr(oracle, "_random_betas", counted)
            got = verify_best_coapprox(basis, b, a, trials=trials, seed=seed)
            monkeypatch.setattr(oracle, "_random_betas", original)
            assert got == expected, case
            assert (got.seed, got.trials) == (seed, trials)
            confirmed += got.confirmed
            refuted += not got.confirmed
    assert draws == [] and len(asked) == confirmed + refuted and set(asked) == {0}
    assert confirmed >= 100 and refuted >= 50

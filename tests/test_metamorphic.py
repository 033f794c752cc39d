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

Through the CLI, P runs on problem files with m from 1 to 9: all five
commands report the same class partition, zero set and norming pairs,
moved by P, and the same flags, counts, outcomes, coefficients and
thresholds.
"""
import json
import random
from fractions import Fraction as Q

import pytest

from coapprox import (OutcomeKind, existence_threshold, prepare, solve_general,
                      validate_basis, verify_best_coapprox)
from coapprox.cli import main
from coapprox.exact import format_rational
from coapprox.instances import random_basis, random_vector
from coapprox.lp import MAX_CELL_PAIRS
from coapprox.norming import cell_pair_bound
from tests.reference import pairs, vec_add, vec_scale

SEED = 1993


def _signed_permutation(rng, n):
    """P on a target (or a coordinate sign vector) and on a basis
    matrix's rows: entry i of P.x is s_i x_{p(i)}, row i of P.A is
    s_i A_{p(i)}."""
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


# ------------------------------------------------------ through the CLI


def _cli_bases(rng):
    """Seeded bases for m = 1..9 within the cell caps, each with a zero row
    or not and a row proportional to another or not: for m <= 5 two bases
    of up to m + 2 distinct rows, for m >= 6 one of m distinct rows (the
    norming-set enumeration grows as 2^(m-1) there)."""
    for m in range(1, 10):
        for _ in range(2 if m <= 5 else 1):
            r = m if m >= 6 else max(
                k for k in range(m, m + 3) if cell_pair_bound(k, m) <= MAX_CELL_PAIRS)
            zeros = rng.randint(0, 1)
            rows = list(random_basis(rng, r + zeros, m, zero_rows=zeros).matrix)
            if rng.random() < 0.5:
                rows.insert(rng.randrange(len(rows) + 1),
                            vec_scale(Q(rng.choice((-3, -1, 2)), 2), rng.choice(rows)))
            yield validate_basis(tuple(rows))


def _problem_file(path, matrix, targets):
    doc = {
        "n": len(matrix),
        "basis": [[format_rational(x) for x in col] for col in zip(*matrix)],
        "targets": [[format_rational(x) for x in b] for b in targets],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _reports(capsys, path):
    """command -> (exit code, report or None) for all five commands."""
    out = {}
    for command in ("analyze", "norming-set", "solve", "classify", "threshold"):
        code = main([command, "--input", path])
        text = capsys.readouterr().out
        out[command] = (code, json.loads(text) if code == 0 else None)
    return out


def _classes(report, coordinate):
    return {frozenset(coordinate(x["coordinate"]) for x in cls["members"])
            for cls in report["component_classes"]}


def _pairs(report, on_signs):
    # on_signs is linear, so it maps each antipodal pair to one.
    return pairs(on_signs(tuple(x)) for x in report["representatives"])


def test_signed_permutations_preserve_every_cli_report(tmp_path, capsys):
    rng = random.Random(SEED + 4)
    kinds = dict.fromkeys(OutcomeKind, 0)
    m_seen, thresholds = set(), 0
    for case, basis in enumerate(_cli_bases(rng)):
        n = basis.n
        on_target, on_rows = _signed_permutation(rng, n)
        # Coordinate j (1-based) of A is coordinate where[j] of P.A.
        moved_at = on_target(tuple(range(1, n + 1)))  # entry i: +-(the coordinate it holds)
        where = {abs(c): i + 1 for i, c in enumerate(moved_at)}
        targets = _targets(rng, basis)
        got = _reports(capsys, _problem_file(tmp_path / f"{case}.json", basis.matrix, targets))
        moved = _reports(capsys, _problem_file(
            tmp_path / f"{case}-moved.json", on_rows(basis.matrix), [on_target(b) for b in targets]))
        for command in got:
            assert got[command][0] == moved[command][0], (case, command)
        m_seen.add(basis.m)

        a, pa = got["analyze"][1], moved["analyze"][1]
        assert _classes(pa, int) == _classes(a, where.get), case
        assert sorted(pa["zero_set"]) == sorted(map(where.get, a["zero_set"])), case
        assert pa["d"] == a["d"], case

        ns, pns = got["norming-set"][1], moved["norming-set"][1]
        assert (pns["q"], len(pns["cells"])) == (ns["q"], len(ns["cells"])), case
        assert _pairs(pns, tuple) == _pairs(ns, on_target), case

        c, pc = got["classify"][1], moved["classify"][1]
        for key in ("coproximinal", "co_chebyshev", "q", "d", "zero_set_size"):
            assert pc[key] == c[key], (case, key)

        for t, pt in zip(got["solve"][1]["targets"], moved["solve"][1]["targets"]):
            assert pt["outcome"] == t["outcome"], case
            assert pt.get("coefficients") == t.get("coefficients"), case
            kinds[OutcomeKind(t["outcome"])] += 1
            if t["outcome"] != OutcomeKind.NOT_EXISTS.value:
                assert t["oracle"]["verdict"] == pt["oracle"]["verdict"] == "confirmed", case

        if got["threshold"][0] == 0:
            for t, pt in zip(got["threshold"][1]["targets"], moved["threshold"][1]["targets"]):
                assert (pt["delta0"], pt["rho_mass"]) == (t["delta0"], t["rho_mass"]), case
            thresholds += 1
    assert m_seen == set(range(1, 10))
    assert min(kinds.values()) >= 3 and thresholds >= 4, (kinds, thresholds)

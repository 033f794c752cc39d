import random
import re
from decimal import Decimal
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coapprox import (
    CapacityError,
    DimensionError,
    ValidationError,
    bj_orthogonal_l1,
    check_certificate,
    existence_threshold,
    format_rational,
    mat,
    parse_rational,
    prepare,
    solve_general,
    validate_basis,
    vec,
    verify_best_coapprox,
)
from coapprox.exact import (LinearSystemResult, SystemStatus, first_basis, l1_norm, rank,
                            solve_linear, transpose)
from coapprox.lp import solve_minimax_lp
from coapprox.oracle import certify_not_exists
from coapprox.solver import solve_empty_zero_set

small_fraction = st.fractions(min_value=-10, max_value=10, max_denominator=12)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("13", Q(13)), ("-3/7", Q(-3, 7)), ("0", Q(0)), ("+2/4", Q(1, 2)),
         (" 3 ", Q(3)), ("\t-3/7\n", Q(-3, 7)), ("\r\f\v5 ", Q(5))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["\u20033", "\xa05", "\x1c3", "3\u3000", "-1/2\x1f", "\u2028 7"])
    def test_reject_whitespace_beyond_ascii(self, bad):
        # str.strip() would take these; only " \t\n\r\f\v" may surround a literal.
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "1e3", "1/-2", "", "a", "3 / 7"])
    def test_reject(self, bad):
        with pytest.raises(ValidationError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["\u0663", "\uff11\uff12", "1/\u0662", "-\u0967"])
    def test_reject_digits_of_other_scripts(self, bad):
        # The grammar's digits are 0-9; Fraction alone would read these.
        with pytest.raises(ValidationError, match="not a rational literal"):
            parse_rational(bad)

    @given(small_fraction)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_format_refuses_all_but_an_int_or_a_fraction(self):
        # "0.5", "True" and "None" would be written, and parse_rational refuses them.
        for bad in (0.5, True, None, "1"):
            with pytest.raises(ValidationError, match="not an exact rational"):
                format_rational(bad)


_ASCII_SPACE = " \t\n\r\f\v"
_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _literal_corpus(rng, count):
    """Seeded literals, each with what parse_rational gives: a value, or
    one of the three messages it has always raised, written out here."""
    def digits(k):
        return "".join(rng.choices("0123456789", k=k))

    def part():  # Python's int-string limit is 4300 digits, leading zeros counted
        k = rng.choice([0, 1, 2, 4300, 4301])
        if k == 0:
            return "0" * rng.randint(0, 3) + digits(rng.randint(1, 12))
        return "0" * k if k < 3 else digits(k)

    for fixed in ["", "1e3", "1.5", "-2.5e-1", "1/0", "-7/000", "+0/0", "\u0663", "1/\u0662"]:
        yield fixed
    for _ in range(count):
        num = rng.choice(["", "+", "-"]) + part()
        text = num + ("/" + part() if rng.random() < 0.6 else "")
        shape = rng.random()
        if shape < 0.1:
            text = text.translate(_INDIC)
        elif shape < 0.15:
            text = rng.choice(["1e3", "1.5", "", "/2", "1/", "1//2", "--1", "1 /2"])
        pad = "".join(rng.choice(_ASCII_SPACE) for _ in range(rng.randint(0, 2)))
        yield pad + text + "".join(rng.choice(_ASCII_SPACE) for _ in range(rng.randint(0, 2)))


def _expected(text):
    s = text.strip(_ASCII_SPACE)
    num, _, den = s.partition("/")
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s):
        return f"not a rational literal: {text!r}"
    if max(len(num.lstrip("+-")), len(den)) > 4300:
        return f"rational literal of {len(s)} characters exceeds the integer digit limit"
    if den and not int(den):
        return f"zero denominator: {text!r}"
    return Q(text.strip())


def test_parse_rational_agrees_with_fraction_on_a_seeded_corpus():
    kinds = set()
    for text in _literal_corpus(random.Random(20261018), 600):
        expected = _expected(text)
        if isinstance(expected, Q):
            assert parse_rational(text) == expected
            kinds.add("value")
        else:
            with pytest.raises(ValidationError) as exc:
                parse_rational(text)
            assert str(exc.value) == expected
            kinds.add(expected.split(":")[0].split(" of ")[0])
    assert kinds == {"value", "not a rational literal", "zero denominator", "rational literal"}


# Each entry point on a fresh basis and prepare of pair_l17_coproximinal
# (zero rows 4 and 7), given one inexact entry x: in A's first row, the
# target (mass on the zero rows where the zero-set path is meant) or the
# coefficients; the minimax kernel with x in a row, which reaches its LP; and
# the two oracle checks, with x in a certificate row and in the residual z.
_ROWS = ((1, 1), (1, 2), (2, 2), (0, 0), (4, 4), (-2, -4), (0, 0))
_ENTRY_POINTS = {
    "validate_basis": lambda x: validate_basis(((x, 1),) + _ROWS[1:]),
    "combine": lambda x: validate_basis(_ROWS).combine((x, 1)),
    "solve_general": lambda x: solve_general(
        validate_basis(_ROWS), None, (x, 0, 0, 3, 0, 0, -2), prepared=prepare(validate_basis(_ROWS))),
    "solve_empty_zero_set": lambda x: solve_empty_zero_set(
        prepare(validate_basis(_ROWS)), (x, 0, 0, 0, 0, 0, 0)),
    "existence_threshold": lambda x: existence_threshold(
        validate_basis(_ROWS), None, (x, 0, 0, 3, 0, 0, -2), prepared=prepare(validate_basis(_ROWS))),
    "verify_best_coapprox": lambda x: verify_best_coapprox(
        validate_basis(_ROWS), (x, 0, 0, 0, 0, 0, 0), (0, 0)),
    "certify_not_exists": lambda x: certify_not_exists(validate_basis(_ROWS), (x, 0, 0, 3, 0, 0, -2)),
    "solve_minimax_lp": lambda x: solve_minimax_lp(((x, 2), (1, 0), (0, 1)), (1, 2, 3)),
    "check_certificate": lambda x: check_certificate(((x,), (2,), (-3,)), (1, 1, 1), 0, (1, 1, 1)),
    "bj_orthogonal_l1": lambda x: bj_orthogonal_l1((1, 1, 0), (1, x, 3)),
}


class TestExactCoercion:
    @pytest.mark.parametrize("bad", [
        0.1, 2.0, float("nan"), True, False, None, 1j, Decimal("1"), [1], "0.5", "1e1", "1/0", "",
    ])
    def test_vec_and_mat_refuse_inexact_and_malformed_values(self, bad):
        with pytest.raises(ValidationError):
            vec((1, bad))
        with pytest.raises(ValidationError):
            mat([(1, 2), (bad, 3)])

    @pytest.mark.parametrize("bad", ["12", b"12", bytearray(b"12"), 12, None, Q(1, 2)], ids=repr)
    def test_vec_and_mat_refuse_a_str_bytes_or_non_iterable_vector(self, bad):
        # A string's characters or a bytes object's ints would pass for entries.
        with pytest.raises(ValidationError, match="not a vector"):
            vec(bad)
        with pytest.raises(ValidationError, match="not a vector"):
            mat([(1, 2), bad])
        with pytest.raises(ValidationError, match="not a matrix"):
            mat(bad)

    def test_vec_accepts_ints_fractions_and_rational_strings(self):
        got = vec((3, -2, Q(1, 3), "1/2", " -3/7 ", "+4", 10**30))
        assert got == (Q(3), Q(-2), Q(1, 3), Q(1, 2), Q(-3, 7), Q(4), Q(10**30))
        assert all(type(x) is Q for x in got)
        assert mat([(1, "2/4")]) == ((Q(1), Q(1, 2)),)

    @pytest.mark.parametrize("bad", [0.5, "1", None], ids=repr)
    @pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
    def test_library_entry_points_refuse_an_inexact_entry(self, entry_point, bad):
        # Refused where the entry is scaled to ints; a bool is exact and passes.
        with pytest.raises(ValidationError, match="not an exact rational"):
            _ENTRY_POINTS[entry_point](bad)
        _ENTRY_POINTS[entry_point](True)


class TestL1Norm:
    def test_zero_vector(self):
        assert l1_norm(vec((0, 0, 0))) == 0

    def test_hand_sum(self):
        assert l1_norm(vec((2, 3, 0, 0, -2, 6))) == 13

    def test_small(self):
        assert l1_norm(vec((1, -2))) == 3

    @given(st.lists(small_fraction, min_size=1, max_size=6))
    def test_nonnegative_zero_iff_zero(self, entries):
        v = tuple(entries)
        norm = l1_norm(v)
        assert norm >= 0
        assert (norm == 0) == all(x == 0 for x in v)


SYSTEM_ROWS = mat([(14, 14, 17), (16, 10, 15), (14, 0, 11), (2, -18, -13)])


class TestSolveLinear:
    def test_unique_solution(self):
        res = solve_linear(SYSTEM_ROWS, vec((13, 13, 13, -5)))
        assert res.status is SystemStatus.UNIQUE
        assert res.solution == (Q(1, 7), Q(-3, 7), Q(1))

    def test_inconsistent(self):
        res = solve_linear(SYSTEM_ROWS, vec((11, 3, -3, -19)))
        assert res.status is SystemStatus.NO_SOLUTION
        assert res.solution is None

    def test_identity(self):
        res = solve_linear(mat([(1, 0), (0, 1)]), vec((5, 7)))
        assert res.status is SystemStatus.UNIQUE
        assert res.solution == (Q(5), Q(7))

    def test_affine_family_exact(self):
        res = solve_linear(mat([(1, 1)]), vec((3,)))
        assert res.status is SystemStatus.AFFINE_FAMILY
        assert sum(res.solution) == 3
        (null_vec,) = res.nullspace_basis
        assert sum(null_vec) == 0 and null_vec != (0, 0)

    @pytest.mark.parametrize("rows", [((1, 2), (1,)), ((1, 2), (1, 0, 5))])
    def test_ragged_rows_are_refused(self, rows):
        # Unchecked, a short row is indexed past its end, and elimination
        # cuts a long one to the first row's length: a wrong UNIQUE.
        with pytest.raises(DimensionError, match="ragged"):
            solve_linear(rows, (1, 2))

    def test_random_solutions_substitute_exactly(self):
        rng = random.Random(7)
        for _ in range(60):
            q, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = mat(
                [[rng.randint(-4, 4) for _ in range(m)] for _ in range(q)]
            )
            rhs = vec([rng.randint(-4, 4) for _ in range(q)])
            res = solve_linear(rows, rhs)
            if res.status is SystemStatus.NO_SOLUTION:
                continue
            assert tuple(
                sum(r[j] * res.solution[j] for j in range(m)) for r in rows
            ) == tuple(rhs)
            for null_vec in res.nullspace_basis:
                assert all(
                    sum(r[j] * null_vec[j] for j in range(m)) == 0 for r in rows
                )


class TestMinimaxLp:
    def test_exactly_solvable(self):
        t, alpha, _ = solve_minimax_lp(mat([(1, 0), (0, 1)]), vec((4, -6)))
        assert t == 0 and alpha == (Q(4), Q(-6))

    def test_balanced_residuals(self):
        t, alpha, _ = solve_minimax_lp(mat([(1,), (1,)]), vec((0, 2)))
        assert t == 1 and alpha == (Q(1),)

    def test_symmetry_forces_zero(self):
        t, alpha, _ = solve_minimax_lp(mat([(1,), (-1,)]), vec((1, 1)))
        assert t == 1 and alpha == (Q(0),)

    def test_capacity_guard(self):
        # The cell-pair cap: no caller passes more rows than cell pairs.
        with pytest.raises(CapacityError, match="capped at 256 rows, got 257"):
            solve_minimax_lp(mat([(1,)] * 257), vec([0] * 257))
        t, alpha, _ = solve_minimax_lp(mat([(1,)] * 256), vec(range(256)))
        assert t == Q(255, 2) and alpha == (Q(255, 2),)

    def test_random_optimality(self):
        rng = random.Random(3)
        for _ in range(25):
            q, m = rng.randint(1, 5), rng.randint(1, 3)
            rows = mat([[rng.randint(-4, 4) for _ in range(m)] for _ in range(q)])
            rhs = vec([rng.randint(-4, 4) for _ in range(q)])
            t_star, alpha, _ = solve_minimax_lp(rows, rhs)
            residuals = [
                abs(rhs[p] - sum(rows[p][j] * alpha[j] for j in range(m)))
                for p in range(q)
            ]
            assert max(residuals) == t_star
            assert t_star <= max(abs(x) for x in rhs)
            for _ in range(100):
                trial = vec([Q(rng.randint(-60, 60), 10) for _ in range(m)])
                worst = max(
                    abs(rhs[p] - sum(rows[p][j] * trial[j] for j in range(m)))
                    for p in range(q)
                )
                assert worst >= t_star


def test_rank_small_cases():
    assert rank(mat([(1, 2), (2, 4)])) == 1
    assert rank(mat([(1, 0), (0, 1), (1, 1)])) == 2


def _greedy_basis(vectors):
    """Reference: keep each vector that raises the rank of those kept."""
    kept = []
    for i, v in enumerate(vectors):
        if rank([vectors[j] for j in kept] + [v]) > len(kept):
            kept.append(i)
    return kept


def test_first_basis_matches_greedy_rank_loop():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 5)
        pool = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        pool.append((0,) * k)
        vectors = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
        assert first_basis(vectors) == _greedy_basis(vectors)
    assert first_basis([(0, 0), (1, 2), (2, 4), (1, 2), (0, 1)]) == [1, 4]


def _reference_gauss_jordan(work, ncols):
    """The Fraction Gauss-Jordan loop: each row cleared by a divided multiple."""
    nrows = len(work)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        for i in range(nrows):
            f = work[i][c]
            if i != r and f != 0:
                f /= pv
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return pivots


def _reference_rank(rows):
    if rows and len(rows) > len(rows[0]):
        rows = transpose(rows)
    work = [[Q(x) for x in r] for r in rows]
    return len(_reference_gauss_jordan(work, len(work[0]) if work else 0))


def _reference_first_basis(vectors):
    work = [[Q(x) for x in r] for r in transpose(vectors)]
    return _reference_gauss_jordan(work, len(vectors))


def _reference_solve_linear(rows, rhs):
    nrows, ncols = len(rows), len(rows[0])
    aug = [[Q(x) for x in r] + [Q(b)] for r, b in zip(rows, rhs)]
    pivot_cols = _reference_gauss_jordan(aug, ncols)
    if any(aug[i][ncols] != 0 for i in range(len(pivot_cols), nrows)):
        return LinearSystemResult(SystemStatus.NO_SOLUTION, None, ())
    solution = [Q(0)] * ncols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][ncols] / aug[i][c]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if not free_cols:
        return LinearSystemResult(SystemStatus.UNIQUE, tuple(solution), ())
    null_basis = []
    for fc in free_cols:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -aug[i][fc] / aug[i][c]
        null_basis.append(tuple(v))
    return LinearSystemResult(SystemStatus.AFFINE_FAMILY, tuple(solution), tuple(null_basis))


def _check_elimination_against_reference(rng, count, shapes, entry):
    """Random rational systems in which some rows (rhs included, or not)
    combine earlier ones, so every status and rank deficit occurs: rank,
    first_basis and solve_linear against the Fraction references."""
    seen = set()
    for _ in range(count):
        nrows, ncols = shapes()
        rows, rhs = [], []
        for i in range(nrows):
            if i and rng.random() < 0.4:
                coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(i)]
                rows.append(tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), Q(0))
                                  for j in range(ncols)))
                consistent = sum((c * b for c, b in zip(coeffs, rhs)), Q(0))
                rhs.append(consistent if rng.random() < 0.7 else consistent + 1)
            else:
                rows.append(tuple(entry() for _ in range(ncols)))
                rhs.append(entry())
        rows, rhs = tuple(rows), tuple(rhs)
        assert rank(rows) == _reference_rank(rows)
        assert first_basis(rows) == _reference_first_basis(rows)
        got = solve_linear(rows, rhs)
        assert got == _reference_solve_linear(rows, rhs)
        seen.add(got.status)
    assert seen == set(SystemStatus)


def test_elimination_matches_fraction_reference():
    rng = random.Random(2000)
    _check_elimination_against_reference(
        rng, 1000, lambda: (rng.randint(1, 6), rng.randint(1, 5)),
        lambda: Q(rng.randint(-5, 5), rng.randint(1, 6)))


def test_elimination_matches_fraction_reference_on_large_entries():
    # Numerators and denominators of 10-12 digits, a quarter of them 0, up
    # to 64 rows: the Bareiss minors grow to hundreds of digits, so a
    # division that were not exact would show as a wrong rank, basis or
    # solution.
    rng = random.Random(2001)
    _check_elimination_against_reference(
        rng, 150, lambda: (64, rng.randint(2, 3)) if rng.random() < 0.1 else (
            rng.randint(1, 8), rng.randint(1, 6)),
        lambda: Q(0) if rng.random() < 0.25 else Q(rng.randint(-10**12, 10**12),
                                                  rng.randint(10**10, 10**11)))


@pytest.mark.parametrize("rows, rhs, message", [
    ((), (), "empty linear system"),
    (((),), (1,), "empty linear system"),
    (((1, 0), (0, 1)), (1,), "right-hand side length does not match row count"),
    (((1, 0),), (1, 2), "right-hand side length does not match row count"),
], ids=["no rows", "no columns", "short rhs", "long rhs"])
def test_solve_linear_refuses_a_malformed_system(rows, rhs, message):
    with pytest.raises(ValidationError) as raised:
        solve_linear(rows, rhs)
    assert (type(raised.value), str(raised.value)) == (ValidationError, message)

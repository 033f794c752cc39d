import itertools
import math
import random
from fractions import Fraction as Q
from operator import add, mul
from pathlib import Path

import pytest

from coapprox import (
    CapacityError,
    DimensionError,
    ValidationError,
    mat,
    norming,
    oracle,
    prepare,
    validate_basis,
)
from coapprox.cli import load_problem
from coapprox.exact import rank
from coapprox.instances import random_basis
from coapprox.norming import (MAX_CELL_PAIRS, MAX_HYPERPLANES, build_arrangement, cell_pair_bound,
                              enumerate_cells, minimal_norming_set)
from coapprox.subspace import build_profile
from tests.reference import (
    column_basis,
    columns,
    criterion_5_stream,
    dot_product_half_cells,
    lp_prefix_tree_cells,
    max_min_margin,
    norming_dot,
    pairs,
    random_invertible,
    recombine,
)

EXPECTED_SPAN_BASIS = (
    (1, 1, 1, 1, -1, 1),
    (1, 1, 1, -1, -1, 1),
    (1, 1, -1, -1, -1, 1),
    (1, -1, -1, -1, -1, -1),
)


def arrangement_of(basis):
    profile = build_profile(basis)
    return build_arrangement(basis, profile)


def analyzed(basis):
    pb = prepare(basis)
    return pb.profile, pb.arrangement, pb.cells, minimal_norming_set(pb.cells, pb.sign_vectors)


class TestArrangement:
    def test_worked_fixture(self, span3_l16):
        _, arr, cells, ns = analyzed(span3_l16)
        assert arr.normals == mat(
            [(4, -1, 1), (2, 3, 4), (1, 5, 2), (-1, 2, 1)]
        )
        # Coordinate i's class and orientation: x_i = s_(class) * o_i.
        coord_class, orientation = (0, 1, 2, 3, 0, 1), (1, 1, 1, 1, -1, 1)
        assert ns.representatives == tuple(
            tuple(cell.signs[c] * o for c, o in zip(coord_class, orientation)) for cell in cells)

    def test_one_dimensional(self):
        basis = column_basis((2, -3))
        _, arr, _, ns = analyzed(basis)
        assert arr.r == 1
        assert ns.representatives == ((1, -1),)

    def test_equal_rows_single_class(self):
        basis = column_basis((3, 3, 3))
        _, arr, _, _ = analyzed(basis)
        assert arr.r == 1

    def test_normals_are_coprime_ints_along_class_rows(self):
        # Each normal is a tuple of coprime ints, a positive multiple of its
        # class representative's row, whatever the rows' denominators.
        fixed = validate_basis(mat([(-4, 1, -1), ("4/3", 2, "8/3"), (0, 0, 1), ("-2/3", -1, "-4/3")]))
        assert arrangement_of(fixed).normals[:2] == ((-4, 1, -1), (2, 3, 4))
        rng = random.Random(77)
        bases = [fixed]
        for _ in range(40):
            m = rng.randint(1, 3)
            basis = random_basis(rng, rng.randint(m + 1, 6), m, lo=-3, hi=3)
            change = tuple(tuple(Q(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(m))
                           for _ in range(m))
            if rank(change) == m:
                basis = recombine(basis, change)
            scales = [Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 6)) for _ in basis.matrix]
            bases.append(validate_basis(tuple(tuple(s * x for x in row)
                                              for s, row in zip(scales, basis.matrix))))
        for basis in bases:
            profile = build_profile(basis)
            arr = build_arrangement(basis, profile)
            for cls, normal in zip(profile.classes, arr.normals):
                assert all(type(x) is int for x in normal)
                assert math.gcd(*normal) == 1
                rep = basis.matrix[cls.representative]
                k = next(j for j, x in enumerate(rep) if x)
                factor = normal[k] / rep[k]
                assert factor > 0
                assert normal == tuple(factor * x for x in rep)


class TestEnumerateCells:
    def test_worked_fixture_cells(self, span3_l16):
        _, arr, cells, _ = analyzed(span3_l16)
        signs = {c.signs for c in cells}
        assert len(cells) == 7
        for expected in [
            (1, 1, 1, 1),
            (1, 1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, -1),
        ]:
            assert expected in signs
        # Witnesses are strictly interior, exactly.
        for cell in cells:
            for sign, normal in zip(cell.signs, arr.normals):
                assert sign * sum(nu * w for nu, w in zip(normal, cell.witness)) > 0

    def test_single_hyperplane(self):
        basis = column_basis((1, 1))
        _, arr, cells, _ = analyzed(basis)
        assert len(cells) == 1
        assert cells[0].signs == (1,)

    def test_three_lines_in_plane(self):
        basis = column_basis((1, 0, 1), (0, 1, 1))
        _, _, cells, _ = analyzed(basis)
        assert len(cells) == 3

    def test_capacity_guard(self):
        rows = [(1, k) for k in range(21)]
        basis = validate_basis(mat(rows))
        profile = build_profile(basis)
        arr = build_arrangement(basis, profile)
        assert arr.r == 21
        with pytest.raises(CapacityError):
            enumerate_cells(arr)

    def test_twenty_hyperplanes_are_admitted(self):
        # MAX_HYPERPLANES is inclusive: r = 20 lines in the plane give 20 pairs.
        basis = validate_basis(mat([(1, k) for k in range(20)]))
        _, arr, cells, _ = analyzed(basis)
        assert arr.r == MAX_HYPERPLANES == 20
        assert len(cells) == cell_pair_bound(20, 2) == 20

    def test_cell_pair_bound(self, span3_l16):
        assert [cell_pair_bound(7, 3), cell_pair_bound(20, 3)] == [22, 191]
        assert cell_pair_bound(9, 12) == 2**8  # m >= r: every sign pattern
        # Reached in general position, as by the worked fixture.
        _, arr, cells, _ = analyzed(span3_l16)
        assert len(cells) == cell_pair_bound(arr.r, arr.m) == 7

    @pytest.mark.parametrize("m, r", [(4, 13), (10, 12)])
    def test_cell_pair_guard_runs_no_lp(self, monkeypatch, m, r):
        # Rows (1, k, k^2, ...) are pairwise non-proportional: r classes.
        basis = validate_basis(mat([[k**j for j in range(m)] for k in range(1, r + 1)]))
        arr = arrangement_of(basis)
        assert arr.r == r and cell_pair_bound(r, m) > MAX_CELL_PAIRS

        def no_work(*args):
            raise AssertionError("cells enumerated before the capacity check")

        monkeypatch.setattr(norming, "simplex", no_work)
        monkeypatch.setattr(norming, "half_cells", no_work)
        with pytest.raises(CapacityError, match="cell pairs"):
            enumerate_cells(arr)

    def test_agrees_with_exhaustive_pattern_sampling(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 6)
            m = rng.randint(1, min(3, n - 1))
            basis = random_basis(rng, n, m)
            _, arr, cells, _ = analyzed(basis)
            found = {c.signs for c in cells}
            # Sampled sign patterns (canonicalized to +1 on hyperplane 0)
            # must all be realizable, i.e. discovered by the enumeration.
            for _ in range(300):
                beta = tuple(Q(rng.randint(-40, 40), 8) for _ in range(m))
                margins = [
                    sum(nu * x for nu, x in zip(normal, beta))
                    for normal in arr.normals
                ]
                if any(v == 0 for v in margins):
                    continue
                pattern = tuple(1 if v > 0 else -1 for v in margins)
                if pattern[0] == -1:
                    pattern = tuple(-s for s in pattern)
                assert pattern in found


class TestMinimalNormingSet:
    def test_worked_fixture_basis(self, span3_l16):
        _, _, _, norming = analyzed(span3_l16)
        assert norming.system_basis == EXPECTED_SPAN_BASIS
        assert norming.span_dim == 4
        assert len(norming.representatives) == 7

    def test_single_column_all_positive(self):
        _, _, _, norming = analyzed(column_basis((1, 1)))
        assert norming.representatives == ((1, 1),)
        assert norming.span_dim == 1

    def test_single_column_orientation_flip(self):
        _, _, _, norming = analyzed(column_basis((1, -2)))
        assert norming.representatives == ((1, -1),)
        assert norming.span_dim == 1

    def test_norm_attainment_certificate(self, span3_l16):
        """Each cell's functional attains its l1 mass exactly on the
        cell's sign vector, with every term strictly positive."""
        _, arr, cells, norming = analyzed(span3_l16)
        cols = columns(span3_l16)
        for cell, x in zip(cells, norming.representatives):
            g = tuple(
                sum(cell.witness[k] * cols[k][i] for k in range(len(cols)))
                for i in range(span3_l16.n)
            )
            assert all(xi * gi > 0 for xi, gi in zip(x, g))
            assert norming_dot(x, g) == sum(abs(gi) for gi in g)

    def test_pairs_are_basis_invariant(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = rng.randint(1, min(3, n - 1))
            zero_rows = min(rng.choice((0, 0, 1)), n - m)
            basis = random_basis(rng, n, m, zero_rows=zero_rows)
            other = recombine(basis, random_invertible(rng, m))
            _, _, _, n1 = analyzed(basis)
            _, _, _, n2 = analyzed(other)
            assert pairs(n1.representatives) == pairs(n2.representatives)
            assert n1.span_dim == n2.span_dim

    def test_rank_sandwich(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = rng.randint(1, min(3, n - 1))
            basis = random_basis(rng, n, m)
            profile, _, _, norming = analyzed(basis)
            assert basis.m <= norming.span_dim <= profile.d

    def test_representatives_distinct_as_pairs(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = rng.randint(1, min(3, n - 1))
            basis = random_basis(rng, n, m)
            _, _, _, norming = analyzed(basis)
            assert len(pairs(norming.representatives)) == len(norming.representatives)


def _through_one_line(rng):
    """m = 3: three to five planes through the line x = y = 0, plus one
    or two rows off it, in a random basis of the same subspace."""
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (2, 1, 0)][: rng.randint(3, 5)]
    rows += [(0, 0, 1), (1, 2, 3)][: rng.randint(1, 2)]
    rng.shuffle(rows)
    return recombine(validate_basis(mat(rows)), random_invertible(rng, 3))


def _lines_in_plane(rng):
    """m = 2: up to 20 distinct lines, the most MAX_HYPERPLANES admits."""
    slopes = rng.sample(range(-30, 31), rng.randint(2, 20))
    return validate_basis(mat([(1, k) for k in slopes]))


def _with_duplicates(rng):
    """Proportional copies (negative constants too) of a random basis's rows."""
    m = rng.randint(1, 4)
    basis = random_basis(rng, rng.randint(m, m + 3), m, lo=-2, hi=2)
    rows = list(basis.matrix)
    for _ in range(rng.randint(1, 4)):
        c = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        rows.append(tuple(c * x for x in rng.choice(basis.matrix)))
    rng.shuffle(rows)
    return validate_basis(mat(rows))


def _with_zero_rows(rng):
    n = rng.randint(3, 8)
    m = rng.randint(1, min(4, n - 1))
    return random_basis(rng, n, m, zero_rows=rng.randint(1, n - m))


def _generic(rng):
    n = rng.randint(2, 8)
    m = rng.randint(1, min(4, n))
    return random_basis(rng, n, m, lo=-2, hi=2)


@pytest.mark.parametrize(
    "make", [_through_one_line, _lines_in_plane, _with_duplicates, _with_zero_rows, _generic]
)
def test_span_dim_equals_class_count(make):
    # q = d: each class hyperplane is a wall between two cells that differ
    # in its sign alone.  Enumeration must agree, degenerate cases included.
    rng = random.Random(make.__name__)
    for _ in range(40):
        pb = prepare(make(rng))
        assert pb.norming.span_dim == pb.profile.d == pb.q


# ------------------------------------------- reference cell enumeration
#
# Against the LP prefix-tree enumerator that `enumerate_cells` replaced,
# `lp_prefix_tree_cells` in tests/reference.py.


def _largest_admitted_r(m):
    return max(r for r in range(1, 13) if cell_pair_bound(r, m) <= MAX_CELL_PAIRS)


# m per seed, cycling: the reference's LPs grow fast with m, so m = 4
# and 5 are rarer than m = 2 and 3.
_DIFFERENTIAL_M = (1, 2, 3, 4, 5, 2, 3, 4, 2, 3)


def _differential_basis(rng, i):
    """Seeded bases in three kinds: entries in [-2, 2] as in the
    perfbench `arrangement` workload; pencils a.u + b.v of two rows
    (m >= 3: three or more planes through one (m-2)-flat); wider entries
    with proportional copies of negative constant.  Most have at most
    m + 2 hyperplanes (m + 1 for m >= 4); one block in twenty has up to
    the most the caps admit for m <= 3 (12 hyperplanes) and up to m + 4
    for m >= 4."""
    m = _DIFFERENTIAL_M[i % 10]
    kind = i // 10 % 3
    top = m + 2 if m <= 3 else m + 1
    if i // 10 % 20 == 0:
        top = _largest_admitted_r(m) if m <= 3 else m + 4
    while True:
        r = rng.randint(m, top)
        if kind == 0:
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(r)]
        elif kind == 1:
            rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(max(2, m, r - 3))]
            u, v = rng.sample(rows, 2)
            while len(rows) < r + 2:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            rows = [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(r)]
            rows.append(tuple(-2 * x for x in rng.choice(rows)))
        rows = [row for row in rows if any(row)]
        if len(rows) >= m and rank(mat(rows)) == m:
            rng.shuffle(rows)
            basis = validate_basis(mat(rows))
            if arrangement_of(basis).r <= top:
                return basis


def _has_three_planes_through_a_flat(arr):
    # Some restriction then has proportional normals.
    return arr.m >= 3 and any(
        rank(list(triple)) == 2 for triple in itertools.combinations(arr.normals, 3)
    )


def _posed_and_row_form(arr, cell, pivots):
    """(witness, pivots) of margin_witness on the arrangement's posed
    columns, then of the reference's LP, posed row by row from the cell."""
    out = []
    for solve in (lambda: norming.margin_witness(arr, cell),
                  lambda: max_min_margin(arr.normals, cell.signs, arr.m)[1]):
        pivots.clear()
        out.append((solve(), [*pivots]))
    return out


def test_cells_match_the_lp_prefix_tree_reference(lp_pivots):
    # Each cell's margin LP is the reference's LP at its leaf: the same
    # witness by the same pivots, so the posed columns flip each normal
    # row by the cell's sign and hold the box rows as lp_min poses them.
    rng = random.Random(1975)
    non_simple = 0
    for i in range(1000):
        arr = arrangement_of(_differential_basis(rng, i))
        reference = lp_prefix_tree_cells(arr)
        cells = enumerate_cells(arr)
        assert [c.signs for c in cells] == [signs for signs, _ in reference]
        for cell, (_, beta) in zip(cells, reference):
            assert type(cell.witness) is tuple and len(cell.witness) == arr.m
            assert all(type(x) is int for x in cell.witness)
            for sign, normal in zip(cell.signs, arr.normals):
                assert sign * sum(nu * w for nu, w in zip(normal, cell.witness)) > 0
            posed, row_form = _posed_and_row_form(arr, cell, lp_pivots)
            assert posed == row_form and posed[0] == beta, (arr, cell)
        non_simple += _has_three_planes_through_a_flat(arr)
    assert non_simple >= 100
    # Signs that no point takes are caller input (once an internal error),
    # as are signs other than one +-1 per normal (a 0 once read as +1).
    arr = norming.Arrangement(normals=((1, 0), (0, 1), (1, 1)), m=2)
    for signs in ((1, 1, -1), (1, 0, 1), (1, 1)):
        with pytest.raises(ValidationError, match=rf"signs \({', '.join(map(str, signs))}\) are not"):
            norming.margin_witness(arr, norming.SignCell(signs=signs, witness=(1, 1)))
    # With no normal the margin is unbounded: no cell (once a bare TypeError).
    with pytest.raises(ValidationError, match=r"signs \(\) are not"):
        norming.margin_witness(norming.Arrangement(normals=(), m=2), norming.SignCell((), (1, 1)))


def test_repeated_plane_cuts_nothing(lp_pivots):
    # An Arrangement built by hand may repeat a plane (build_arrangement
    # never does): the repeat cuts no cell, as in the reference, and each
    # margin LP is the reference's, degenerate in the repeated row.
    normals = mat([(1, -1, 0), (0, 1, 1), (1, 1, 1), (-2, 2, 0), (2, 1, 1)])
    arr = norming.Arrangement(normals=normals, m=3)
    cells = enumerate_cells(arr)
    assert [c.signs for c in cells] == [signs for signs, _ in lp_prefix_tree_cells(arr)]
    assert all(c.signs[3] == -c.signs[0] for c in cells)
    for cell in cells:
        posed, row_form = _posed_and_row_form(arr, cell, lp_pivots)
        assert posed == row_form, cell


@pytest.mark.parametrize("normals", [
    ((Q(1, 2), Q(-1, 3)), (Q(2, 5), 1), (Q(-3, 7), Q(5, 4)), (0, Q(7, 6))),
    ((Q(1, 2), 0, Q(-1, 3)), (Q(2, 5), 1, Q(3)), (Q(-3, 7), Q(5, 4), Q(1, 9)),
     (1, -1, 1), (Q(6, 5), Q(1, 10), Q(-2, 3))),
], ids=["m2", "m3"])
def test_fraction_normals_pose_the_reference_margin_lp(lp_pivots, normals):
    # lp_min scales each Fraction row by its own lcm, and the posed columns
    # are scaled so too: all ints (a `//` on a Fraction would floor it
    # silently), with the reference's witness and pivots in every cell.
    arr = norming.Arrangement(normals=normals, m=len(normals[0]))
    assert all(type(x) is int for col in arr.margin_columns for x in col)
    cells = enumerate_cells(arr)
    assert [c.signs for c in cells] == [signs for signs, _ in lp_prefix_tree_cells(arr)]
    pivots = 0
    for cell in cells:
        posed, row_form = _posed_and_row_form(arr, cell, lp_pivots)
        assert posed == row_form, cell
        pivots += len(posed[1])
    assert pivots > len(cells)


def test_minimal_norming_set_needs_one_sign_vector_per_cell(span3_l16):
    # The vectors come from PreparedBasis.sign_vectors (a hand-built
    # arrangement whose coordinate map disagreed with its cells was a bare
    # IndexError); a count that does not match the cells, no cell, or a
    # vector not led by +1 (once an internal error) is refused.
    pb = prepare(span3_l16)
    flipped = tuple(tuple(-x for x in v) for v in pb.sign_vectors)
    for cells, vectors in ((pb.cells, pb.sign_vectors[:-1]), (pb.cells[:-1], pb.sign_vectors),
                           ((), ()), (pb.cells, flipped)):
        with pytest.raises(ValidationError, match="one sign vector per cell"):
            minimal_norming_set(cells, vectors)
    assert minimal_norming_set(pb.cells, pb.sign_vectors) == pb.norming


def test_enumerate_cells_runs_no_lp(monkeypatch, span3_l16):
    def no_lp(*args):
        raise AssertionError("margin LP run by the cell enumeration")

    monkeypatch.setattr(norming, "simplex", no_lp)
    rng = random.Random(11)
    for make in (_through_one_line, _lines_in_plane, _with_duplicates, _generic):
        for _ in range(10):
            assert enumerate_cells(arrangement_of(make(rng)))
    assert len(enumerate_cells(arrangement_of(span3_l16))) == 7


@pytest.mark.parametrize("normals, m, error", [
    ((), 2, DimensionError),
    (((1, 0), (1,)), 2, DimensionError),
    (((1, 0), (0, 1, 1)), 2, DimensionError),
    (((0, 0), (1, 0)), 2, ValidationError),
    (((1, 0), (0, 1), (0, 0)), 2, ValidationError),
])
def test_malformed_arrangement_is_refused_before_enumeration(monkeypatch, normals, m, error):
    # A hand-built Arrangement (build_arrangement makes none of these)
    # with no normals, a normal not of length m or a zero normal.
    def no_work(*args):
        raise AssertionError("cells enumerated before the arrangement was checked")

    monkeypatch.setattr(norming, "half_cells", no_work)
    arr = norming.Arrangement(normals=normals, m=m)
    with pytest.raises(error) as raised:
        enumerate_cells(arr)
    assert type(raised.value) is error


# ------------------------------------------ dot-product kernel reference
#
# `norming.half_cells` reads a lifted cell's signs off its restricted
# cell; `dot_product_half_cells` in tests/reference.py, the kernel before,
# takes dot products.  They must agree exactly: signs, witnesses (types
# included) and order.

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _assert_same_half_cells(planes, m):
    got, want = norming.half_cells(list(planes), m), dot_product_half_cells(list(planes), m)
    assert got == want, (planes, m)
    assert [type(x) for _, w in got for x in w] == [type(x) for _, w in want for x in w]


def _drawn_normals(rng, i):
    """Normals in Z^m, m = 1..4 by turns, entries in -3..3, oriented as
    drawn.  In every third set one plane is the sum of two others (m = 3:
    three planes through a line); in every third one plane is repeated,
    negated half the time.  A zero normal is kept only in first place,
    where both kernels give witness 0 and sign -1 on every later plane
    (an uncut cell's sign is strict only there); a later one makes both
    raise."""
    m = 1 + i % 4
    while True:
        r = rng.randint(3, m + 4)
        normals = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)]
        normals[1:] = [v for v in normals[1:] if any(v)]
        if len(normals) < 3:
            continue
        u, v = normals[-2:]
        if i % 3 == 1:
            w = tuple(map(add, u, v))
            if not any(w) or max(map(abs, w)) > 3:
                continue
            normals.insert(rng.randint(1, len(normals)), w)
        elif i % 3 == 2:
            normals.insert(rng.randint(1, len(normals)), tuple(rng.choice((1, -1)) * x for x in u))
        return normals, m, m == 3 and i % 3 == 1 and rank([u, v]) == 2


def _assert_fraction_normals_give_the_int_cells(ints, dens, m):
    """The int normals divided plane by plane into Fractions, as a
    hand-built Arrangement: enumerate_cells gives the signs of the int
    arrangement in the same order, each with an int point strictly
    inside, or refuses a zero normal as it does there."""
    def cells(normals):
        return enumerate_cells(norming.Arrangement(normals, m))

    fractions = tuple(tuple(Q(x, d) for x in nu) for nu, d in zip(ints, dens))
    if not all(map(any, ints)):
        for normals in (fractions, tuple(ints)):
            with pytest.raises(ValidationError):
                cells(normals)
        return
    got = cells(fractions)
    assert [c.signs for c in got] == [c.signs for c in cells(tuple(ints))], (ints, dens, m)
    for c in got:
        assert all(type(x) is int for x in c.witness)
        assert all(s * sum(map(mul, nu, c.witness)) > 0 for s, nu in zip(c.signs, fractions))


def test_half_cells_match_the_dot_product_reference(monkeypatch):
    # The sample problems' arrangements.
    for path in sorted(PROBLEMS.glob("*.json")):
        arr = arrangement_of(load_problem(str(path)).basis)
        _assert_same_half_cells(arr.normals, arr.m)

    # Seeded draws, degenerate ones included.
    rng = random.Random(1975)
    lines = zero_first = 0
    for i in range(480):
        normals, m, through_a_line = _drawn_normals(rng, i)
        if i % 5 == 4:  # every fifth set, also in Fractions
            dens = rng.choices(range(1, 5), k=len(normals))
            _assert_fraction_normals_give_the_int_cells(normals, dens, m)
        _assert_same_half_cells(normals, m)
        lines += through_a_line
        zero_first += not any(normals[0])
    assert lines >= 30 and zero_first >= 10

    # The oracle's planes on the first 500 criterion-5 bases, and its
    # topes: keyed by the signs of A . beta at the witness beta, in the
    # reference's order.
    seen = []

    def recorded(planes, m):
        seen.append((planes, m))
        return norming.half_cells(planes, m)

    monkeypatch.setattr(oracle, "half_cells", recorded)
    for basis, _ in criterion_5_stream(500):
        topes = oracle._sign_patterns(basis)
        planes, _ = seen[-1]
        _assert_same_half_cells(planes, basis.m)
        expected = {}
        for _, beta in dot_product_half_cells(list(planes), basis.m):
            dots = [sum(map(mul, row, beta)) for row in basis.int_rows]
            expected[tuple((d > 0) - (d < 0) for d in dots)] = beta
        assert list(topes.items()) == list(expected.items())

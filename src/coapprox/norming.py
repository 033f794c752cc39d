"""Minimal norming set of a subspace basis, off its zero set.

Each nonzero component class contributes one hyperplane through the origin
of coefficient space R^m, its normal the class representative's row as
coprime ints (`SubspaceBasis.int_rows`).  The open sign cells of that
central arrangement are enumerated exactly, in ints and without an LP, by
deletion-restriction (one representative per antipodal pair, each with an
int interior point; a lifted cell's signs are read off its restricted
cell, not by dot products).  A cell with class signs s gives the +-1 sign
vector s_c * o_i on the coordinates i of class c off the zero set, o_i the
sign of coordinate i's constant (`PreparedBasis.sign_vectors`, which
`minimal_norming_set` reads).  Those vectors, as +- pairs, form the
unique minimal norming set: a subspace functional with coefficients
strictly inside a cell attains its norm exactly at that cell's pair.

The sign vectors span dimension q = r, the hyperplane count, since each
hyperplane is a wall between two cells that differ in its sign alone;
so q needs no enumeration.  A canonical ordered basis of the span is
extracted as well: the realizable "staircase" patterns (minus signs on a
growing suffix of the hyperplane list) first, completed greedily in
lexicographic cell order.  The witness the `norming-set` report prints
for a cell is its max-min-margin point, one LP per reported cell
(`margin_witness`).
"""
from __future__ import annotations

import math
from functools import cached_property
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .errors import CapacityError, DimensionError, ValidationError
from .exact import Q, Vec, first_basis, rank, scaled_ints
from .lp import MAX_CELL_PAIRS, lp_columns, lp_max, simplex
# rank and lp_max are unused here: perfbench/tracer.py wraps coapprox.norming.rank and .lp_max
from .subspace import ComponentProfile, SubspaceBasis

MAX_HYPERPLANES = 20
# MAX_CELL_PAIRS caps cell_pair_bound(r, m): it admits every m <= 3
# arrangement within MAX_HYPERPLANES (at most 191 pairs) and any m when r <= 9.

SignVec = tuple[int, ...]


class Arrangement(NamedTuple("Arrangement", [
        ("normals", tuple[tuple[int, ...], ...]), ("m", int)])):
    """Distinct row hyperplanes of a basis, one per component class.

    normals[t] is class t's representative row as coprime ints, a
    positive multiple of that row, so the sign of `normals[t] . beta`
    equals the sign the representative coordinate's functional takes at
    beta; cell enumeration and the margin LPs take them as they are.
    """

    @property
    def r(self) -> int:
        return len(self.normals)

    @cached_property
    def margin_columns(self) -> list:
        """By lp_columns: the all-+1 cell's margin LP, max t s.t. |beta_j| <= 1 and
        (-n_t, 1) . (beta, t) <= 0; a cell's signs[t] flips row t of beta's columns."""
        m = self.m
        box = [tuple(s * (i == j) for i in range(m + 1)) for j in range(m) for s in (1, -1)]
        return lp_columns((0,) * m + (-1,), [(*(-x for x in nu), 1) for nu in self.normals] + box,
                          (0,) * self.r + (1,) * (2 * m))[0]


class SignCell(NamedTuple):
    """One antipodal pair of nonempty open cells, sign +1 on hyperplane 0.

    The witness is an int point strictly inside the cell:
    signs[t] * (normals[t] . witness) > 0 for every t.  The report's
    witness is `margin_witness(arr, cell)` instead.
    """

    signs: SignVec
    witness: tuple[int, ...]


class NormingSet(NamedTuple):
    """representatives[i] is the sign vector of cells[i] (coordinates
    off the zero set, first entry +1); as +- pairs these are exactly the
    minimal norming set.  system_basis is the canonical ordered basis of
    their span (size span_dim)."""

    representatives: tuple[SignVec, ...]
    span_dim: int
    system_basis: tuple[SignVec, ...]


def build_arrangement(basis: SubspaceBasis, profile: ComponentProfile) -> Arrangement:
    """One hyperplane per component class of the basis' row profile,
    its normal the representative's int row."""
    return Arrangement(tuple(basis.int_rows[cls.representative] for cls in profile.classes),
                       basis.m)


def cell_pair_bound(r: int, m: int) -> int:
    """Most antipodal cell pairs that r distinct central hyperplanes in
    R^m can cut: sum_{k<m} C(r-1, k), reached in general position."""
    return sum(math.comb(r - 1, k) for k in range(m))


def check_cell_capacity(r: int, m: int) -> None:
    """Refuse, before any work, r hyperplanes in R^m too many to enumerate."""
    if r > MAX_HYPERPLANES:
        raise CapacityError(
            f"cell enumeration capped at {MAX_HYPERPLANES} hyperplanes, got {r}"
        )
    bound = cell_pair_bound(r, m)
    if bound > MAX_CELL_PAIRS:
        raise CapacityError(
            f"cell enumeration capped at {MAX_CELL_PAIRS} cell pairs; "
            f"{r} hyperplanes in R^{m} may cut {bound}"
        )


def half_cells(normals: list[tuple[int, ...]], m: int) -> list[tuple[SignVec, tuple]]:
    """Open cells of pairwise non-proportional nonzero int normals in
    Z^m, those with sign +1 on normals[0] (one per antipodal pair), each
    with an int point strictly inside.

    Deletion-restriction: H_k cuts exactly the cells whose signs are
    topes of the restriction {H_j cap H_k : j < k}, an arrangement in
    R^(m-1) enumerated recursively in the int kernel basis
    h_p.e_j - h_j.e_p of H_k (in R^1 its one half-cell is ((1,), (1,))).
    Restricted normal j, over its gcd, is o_j = +-1 times distinct
    restricted plane t_j.  A restricted cell (s, y) lifts to x on H_k,
    flipped by o_0 onto plane 0's positive side, and x's signs on the
    earlier planes are read off s as o_j * o_0 * s[t_j]: no dot product
    is taken per lifted cell.  A cut cell becomes K.x + h and K.x - h,
    K = 1 + max_j |n_j . h|: since |n_j . x| >= 1, the earlier signs
    survive.  An uncut cell keeps its point w and takes the sign of
    h . w, which is nonzero.  The restriction has fewer hyperplanes in a
    lower dimension, so its cells stay within the caller's cell_pair_bound.
    """
    if not normals:
        return [((), (0,) * m)]
    cells = [((1,), normals[0])]
    for k in range(1, len(normals)):
        h, earlier = normals[k], normals[:k]
        p = next(j for j, x in enumerate(h) if x)
        hp, hs = h[p], h[:p] + h[p + 1:]
        restricted = [[hp * n[j] - h[j] * n[p] for j in range(m) if j != p] for n in earlier]
        cut = {}
        if all(map(any, restricted)):  # else H_k repeats an earlier plane
            o0 = 1 if next(filter(None, restricted[0])) > 0 else -1
            slots, lifts = {}, []  # lifts[j] = (t_j, o_j * o_0)
            for v in restricted:
                g = math.gcd(*v)
                g = g if next(filter(None, v)) > 0 else -g
                t = slots.setdefault(tuple([x // g for x in v]), len(slots))
                lifts.append((t, o0 if g > 0 else -o0))
            scale = o0 * (1 + max(abs(sum(map(mul, n, h))) for n in earlier))
            for s, y in half_cells(list(slots), m - 1) if m > 2 else [((1,), (1,))]:
                x = [scale * hp * yj for yj in y]
                x.insert(p, -scale * sum(map(mul, hs, y)))
                cut[tuple([o * s[t] for t, o in lifts])] = tuple(x)
        grown = []
        for signs, w in cells:
            x = cut.get(signs)
            if x is None:
                grown.append((signs + (1 if sum(map(mul, h, w)) > 0 else -1,), w))
            else:
                grown.append((signs + (1,), tuple(map(add, x, h))))
                grown.append((signs + (-1,), tuple(map(sub, x, h))))
        cells = grown
    return cells


def enumerate_cells(arr: Arrangement) -> tuple[SignCell, ...]:
    """All nonempty open cells, one per antipodal pair, in lexicographic
    sign order (+1 before -1, hyperplane 0 fixed to +1), each with an int
    point strictly inside.  Exact, in ints, with no LP: the work grows
    with the cells found, not with 2^r.  A hand-built arrangement with no
    normals, one not of length m (DimensionError) or a zero one
    (ValidationError) is refused first; Fraction normals are scaled to
    ints, which moves no sign, so every witness is an int point.
    """
    if not arr.normals or any(len(nu) != arr.m for nu in arr.normals):
        raise DimensionError(f"an arrangement needs one or more normals of length m = {arr.m}")
    if not all(map(any, arr.normals)):
        raise ValidationError("an arrangement's normals must be nonzero")
    check_cell_capacity(arr.r, arr.m)
    normals = [tuple(scaled_ints(nu)[1]) for nu in arr.normals]  # ints pass through
    cells = sorted(half_cells(normals, arr.m), key=itemgetter(0), reverse=True)
    return tuple(SignCell(signs=signs, witness=w) for signs, w in cells)


def margin_witness(arr: Arrangement, cell: SignCell) -> Vec:
    """The point of the cell maximizing its smallest signed margin
    signs[t] * (normals[t] . beta) over the unit box, by one exact LP on
    margin_columns: the witness the norming-set report prints.  Signs that
    are not +-1 per normal or that no point takes are refused by name."""
    m, r, signs = arr.m, arr.r, cell.signs
    den = 0
    if len(signs) == r and {*signs} <= {1, -1}:  # True or 1.0 pass; as ints, the columns stay ints
        cols = [[*map(mul, map(int, signs), c[:r]), *c[r:]] for c in arr.margin_columns[:m]]
        den, x = simplex(cols + [[*c] for c in arr.margin_columns[m:]], [*range(m + 1)],
                         [*range(2 * m + 2, 4 * m + 2 + r)])
    if not den or x[m] <= 0:  # x[m] = t * den, the largest smallest margin
        raise ValidationError(f"signs {cell.signs} are not a nonempty cell of the arrangement")
    return tuple([Q(v, den) for v in x[:m]])


def _staircase_patterns(r: int):
    for j in range(r):
        yield tuple([1] * (r - j) + [-1] * j)


def minimal_norming_set(cells: tuple[SignCell, ...],
                        sign_vectors: tuple[SignVec, ...]) -> NormingSet:
    """The cells' sign vectors with the canonical span basis (staircase-first).
    `sign_vectors` must be PreparedBasis.sign_vectors of these cells, in cell
    order; only their count and leading +1 are checked.  The greedy runs on the
    class signs: s -> x is linear and injective, as every class has a
    coordinate, so it keeps the same cells as on the sign vectors."""
    reps = tuple(sign_vectors)
    if len(reps) != len(cells) or not cells or any(x[0] != 1 for x in reps):
        raise ValidationError("norming set needs one sign vector per cell, led by +1, and a cell")
    by_signs = {cell.signs: idx for idx, cell in enumerate(cells)}
    staircase = [by_signs[p] for p in _staircase_patterns(len(cells[0].signs)) if p in by_signs]
    candidates = staircase + list(range(len(reps)))
    basis = [reps[candidates[p]] for p in first_basis([cells[i].signs for i in candidates])]
    return NormingSet(
        representatives=reps,
        span_dim=len(basis),
        system_basis=tuple(basis),
    )

"""Minimal norming set of a subspace basis, off its zero set.

Each nonzero component class contributes one hyperplane through the
origin of coefficient space R^m, its normal the class representative's
row as coprime ints (`SubspaceBasis.int_rows`).  The open sign cells of
that central arrangement are enumerated exactly, in ints and without an
LP, by deletion-restriction (one representative per antipodal pair, each
with an int interior point).  A cell with class signs s gives the +-1
sign vector s_c * o_i on the coordinates i of class c off the zero set,
o_i the sign of coordinate i's constant.  Those vectors, as +- pairs,
form the unique minimal norming set: a subspace functional with
coefficients strictly inside a cell attains its norm exactly at that
cell's pair.

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
from operator import add, mul, sub
from typing import NamedTuple

from .errors import CapacityError, InternalInconsistencyError
from .exact import Vec, first_basis, primitive_ints
from .exact import rank  # unused here; perfbench/tracer.py wraps coapprox.norming.rank
from .lp import MAX_CELL_PAIRS, LpStatus, lp_max
from .subspace import ComponentProfile, SubspaceBasis

MAX_HYPERPLANES = 20
# MAX_CELL_PAIRS caps cell_pair_bound(r, m): it admits every m <= 3
# arrangement within MAX_HYPERPLANES (at most 191 pairs) and any m when r <= 9.

SignVec = tuple[int, ...]


class Arrangement(NamedTuple("Arrangement", [
        ("normals", tuple[tuple[int, ...], ...]), ("class_of_coord", tuple[int, ...]),
        ("orientation", tuple[int, ...]), ("m", int)])):
    """Distinct row hyperplanes of a basis, one per component class.

    normals[t] is class t's representative row as coprime ints, a
    positive multiple of that row, so the sign of `normals[t] . beta`
    equals the sign the representative coordinate's functional takes at
    beta; cell enumeration and the margin LPs take them as they are.
    class_of_coord[i] and orientation[i] are the class and the sign of
    the proportionality constant of the i-th coordinate off the zero
    set, in coordinate order.
    """

    @property
    def r(self) -> int:
        return len(self.normals)

    @cached_property
    def margin_rows(self) -> tuple:
        """The margin LPs' int rows in (beta, margin), built once: the rows
        (-n_t, 1) and (n_t, 1) per normal, for sign +1 and -1, and the box."""
        m = self.m
        box = tuple(tuple(s * (i == j) for i in range(m + 1)) for j in range(m) for s in (1, -1))
        return tuple(((*(-x for x in nu), 1), (*nu, 1)) for nu in self.normals), box


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
    coords = [profile.class_of[i] for i in sorted(profile.class_of)]
    return Arrangement(
        normals=tuple(basis.int_rows[cls.representative] for cls in profile.classes),
        class_of_coord=tuple(c for c, _ in coords),
        orientation=tuple(1 if const > 0 else -1 for _, const in coords),
        m=basis.m,
    )


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


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def half_cells(normals: list[tuple[int, ...]], m: int) -> list[tuple[SignVec, tuple]]:
    """Open cells of pairwise non-proportional nonzero int normals in
    Z^m, those with sign +1 on normals[0] (one per antipodal pair), each
    with an int point strictly inside.

    Deletion-restriction: H_k cuts exactly the cells whose signs are
    topes of the restriction {H_j cap H_k : j < k}, an arrangement in
    R^(m-1) enumerated recursively in the int kernel basis
    h_p.e_j - h_j.e_p of H_k.  A cut cell with interior point x on H_k
    becomes K.x + h and K.x - h, K = 1 + max_j |n_j . h|: since
    |n_j . x| >= 1, the earlier signs survive.  An uncut cell keeps its
    point w and takes the sign of h . w, which is nonzero.  The
    restriction has fewer hyperplanes in a lower dimension, so its cells
    stay within the caller's cell_pair_bound.
    """
    if not normals:
        return [((), (0,) * m)]
    cells = [((1,), normals[0])]
    for k in range(1, len(normals)):
        h, earlier = normals[k], normals[:k]
        p = next(j for j, x in enumerate(h) if x)
        others = [j for j in range(m) if j != p]
        restricted = [tuple(h[p] * n[j] - h[j] * n[p] for j in others) for n in earlier]
        cut = {}
        if all(map(any, restricted)):  # else H_k repeats an earlier plane
            canon = (tuple(primitive_ints(v)) for v in restricted)
            distinct = list(dict.fromkeys(max(v, tuple(-x for x in v)) for v in canon))
            scale = 1 + max(abs(_dot(n, h)) for n in earlier)
            for _, y in half_cells(distinct, m - 1):
                x = [0] * m
                for j, yj in zip(others, y):
                    x[j] = h[p] * yj
                x[p] = -_dot((h[j] for j in others), y)
                if _dot(earlier[0], x) < 0:
                    x = [-xj for xj in x]
                signs = tuple(1 if _dot(n, x) > 0 else -1 for n in earlier)
                cut[signs] = tuple(scale * xj for xj in x)
        grown = []
        for signs, w in cells:
            x = cut.get(signs)
            if x is None:
                grown.append((signs + (1 if _dot(h, w) > 0 else -1,), w))
            else:
                grown.append((signs + (1,), tuple(map(add, x, h))))
                grown.append((signs + (-1,), tuple(map(sub, x, h))))
        cells = grown
    return cells


def enumerate_cells(arr: Arrangement) -> tuple[SignCell, ...]:
    """All nonempty open cells, one per antipodal pair, in lexicographic
    sign order (+1 before -1, hyperplane 0 fixed to +1), each with an int
    point strictly inside.  Exact, in ints, with no LP: the work grows
    with the cells found, not with 2^r.
    """
    check_cell_capacity(arr.r, arr.m)
    cells = sorted(half_cells(list(arr.normals), arr.m), key=lambda c: [-s for s in c[0]])
    return tuple(SignCell(signs=signs, witness=w) for signs, w in cells)


def margin_witness(arr: Arrangement, cell: SignCell) -> Vec:
    """The point of the cell maximizing its smallest signed margin
    signs[t] * (normals[t] . beta) over the unit box: the witness the
    norming-set report prints.  One exact LP.
    """
    m = arr.m
    pairs, box = arr.margin_rows
    a_ub = (*[pair[s < 0] for s, pair in zip(cell.signs, pairs)], *box)
    res = lp_max((0,) * m + (1,), a_ub, (0,) * arr.r + (1,) * (2 * m))
    if res.status is not LpStatus.OPTIMAL or res.value <= 0:  # pragma: no cover
        raise InternalInconsistencyError("margin LP must find the cell nonempty")
    return res.x[:m]


def _staircase_patterns(r: int):
    for j in range(r):
        yield tuple([1] * (r - j) + [-1] * j)


def minimal_norming_set(arr: Arrangement, cells: tuple[SignCell, ...]) -> NormingSet:
    """Translate cells to coordinate sign vectors and pick the canonical
    span basis (staircase-first).  The greedy runs on the class signs:
    s -> x is linear and injective, as every class has a coordinate, so
    it keeps the same cells as on the sign vectors."""
    reps = tuple(tuple(cell.signs[c] * o for c, o in zip(arr.class_of_coord, arr.orientation))
                 for cell in cells)
    if any(x[0] != 1 for x in reps):  # pragma: no cover - coordinate 0 leads its own class
        raise InternalInconsistencyError("cell representative not canonical")
    by_signs = {cell.signs: idx for idx, cell in enumerate(cells)}
    staircase = [by_signs[p] for p in _staircase_patterns(arr.r) if p in by_signs]
    candidates = staircase + list(range(len(reps)))
    basis = [reps[candidates[p]] for p in first_basis([cells[i].signs for i in candidates])]
    return NormingSet(
        representatives=reps,
        span_dim=len(basis),
        system_basis=tuple(basis),
    )

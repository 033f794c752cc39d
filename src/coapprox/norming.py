"""Minimal norming set of a zero-set-free subspace basis.

Each nonzero component class contributes one hyperplane through the
origin of coefficient space R^m.  The open sign cells of that central
arrangement are enumerated exactly (one representative per antipodal
pair), and each cell is translated into a +-1 sign vector on the
coordinates.  Those sign vectors, as +- pairs, form the unique minimal
norming set; a subspace functional with coefficients strictly inside a
cell attains its norm exactly at that cell's pair.

The sign vectors span dimension q = r, the hyperplane count, since each
hyperplane is a wall between two cells that differ in its sign alone;
so q needs no enumeration.  A canonical ordered basis of the span is
extracted as well: the realizable "staircase" patterns (minus signs on a
growing suffix of the hyperplane list) first, completed greedily in
lexicographic cell order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, InternalInconsistencyError
from .exact import Q, Vec, first_basis, integerize, rank
from .lp import LpStatus, lp_max
from .subspace import ComponentProfile, ReducedInstance

MAX_HYPERPLANES = 20
# Cap on cell_pair_bound(r, m): it admits every m <= 3 arrangement within
# MAX_HYPERPLANES (at most 191 pairs) and any m when r <= 9.
MAX_CELL_PAIRS = 256

SignVec = tuple[int, ...]


@dataclass(frozen=True)
class Arrangement:
    """Distinct row hyperplanes of a reduced (zero-set-free) basis.

    normals[t] is a coprime-integer positive multiple of the class
    representative's row, so the sign of `normals[t] . beta` equals the
    sign the representative coordinate's functional takes at beta.
    orientation[i] is the sign of coordinate i's proportionality
    constant relative to its class representative.
    """

    normals: tuple[Vec, ...]
    class_of_coord: tuple[int, ...]
    orientation: tuple[int, ...]
    m: int

    @property
    def r(self) -> int:
        return len(self.normals)


@dataclass(frozen=True)
class SignCell:
    """One antipodal pair of nonempty open cells, sign +1 on hyperplane 0.

    The witness satisfies signs[t] * (normals[t] . witness) > 0 strictly
    for every t; it maximizes the smallest signed margin over the unit
    box, which is what the exact emptiness test optimizes anyway.
    """

    signs: SignVec
    witness: Vec


@dataclass(frozen=True)
class NormingSet:
    """representatives[i] is the sign vector of cells[i] (reduced
    coordinates, first entry +1); as +- pairs these are exactly the
    minimal norming set.  system_basis is the canonical ordered basis of
    their span (size span_dim); basis_cells maps its entries back to
    cell positions."""

    representatives: tuple[SignVec, ...]
    span_dim: int
    system_basis: tuple[SignVec, ...]
    basis_cells: tuple[int, ...]

    def pairs(self) -> frozenset[frozenset[SignVec]]:
        """Basis-invariant view: the set of antipodal pairs."""
        return frozenset(
            frozenset({x, tuple(-v for v in x)}) for x in self.representatives
        )


def build_arrangement(reduced: ReducedInstance, profile: ComponentProfile) -> Arrangement:
    """One hyperplane per component class, oriented along the class rows."""
    if reduced.zero_set != profile.zero_set:
        raise InternalInconsistencyError("profile does not match the reduced instance")
    rows = reduced.basis.matrix
    pos_of_original = {orig: p for p, orig in enumerate(reduced.kept_indices)}
    normals = []
    for cls in profile.classes:
        rep_row = rows[pos_of_original[cls.representative]]
        normals.append(integerize(rep_row))
    class_of = []
    orientation = []
    for orig in reduced.kept_indices:
        c_idx, const = profile.class_of[orig]
        class_of.append(c_idx)
        orientation.append(1 if const > 0 else -1)
    return Arrangement(
        normals=tuple(normals),
        class_of_coord=tuple(class_of),
        orientation=tuple(orientation),
        m=reduced.basis.m,
    )


def _max_min_margin(normals, signs, m):
    """Largest s with signs[t]*(normals[t].beta) >= s on the unit box.

    The optimum is > 0 exactly when the (partial) open cell is nonempty,
    and the optimizer is then a strict interior witness.
    """
    a_ub = []
    b_ub = []
    for sign, normal in zip(signs, normals):
        a_ub.append(tuple(-sign * x for x in normal) + (Q(1),))
        b_ub.append(Q(0))
    for j in range(m):
        unit = [Q(0)] * (m + 1)
        unit[j] = Q(1)
        a_ub.append(tuple(unit))
        b_ub.append(Q(1))
        unit[j] = Q(-1)
        a_ub.append(tuple(unit))
        b_ub.append(Q(1))
    cost = (Q(0),) * m + (Q(1),)
    res = lp_max(cost, tuple(a_ub), tuple(b_ub))
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise InternalInconsistencyError("margin LP must be feasible and bounded")
    return res.value, res.x[:m]


def cell_pair_bound(r: int, m: int) -> int:
    """Most antipodal cell pairs that r distinct central hyperplanes in
    R^m can cut: sum_{k<m} C(r-1, k), reached in general position."""
    return sum(math.comb(r - 1, k) for k in range(m))


def check_cell_capacity(r: int, m: int) -> None:
    """Refuse, before any LP, r hyperplanes in R^m too many to enumerate."""
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


def enumerate_cells(arr: Arrangement) -> tuple[SignCell, ...]:
    """All nonempty open cells, one per antipodal pair, in lexicographic
    sign order (+1 before -1, hyperplane 0 fixed to +1).

    Emptiness is decided exactly by the margin LP; whole sign-pattern
    subtrees are pruned as soon as a prefix is already infeasible, so
    the work is proportional to the number of nonempty cells rather than
    2^r.
    """
    check_cell_capacity(arr.r, arr.m)
    cells: list[SignCell] = []
    # Depth first, +1 before -1.  A loop, not a recursive closure: a
    # closure that calls itself is a reference cycle, which would keep
    # every enumeration's cells alive until the cyclic collector runs.
    stack = [[1]]
    while stack:
        signs = stack.pop()
        margin, beta = _max_min_margin(arr.normals[: len(signs)], signs, arr.m)
        if margin <= 0:
            continue
        if len(signs) == arr.r:
            cells.append(SignCell(signs=tuple(signs), witness=beta))
        else:
            stack += (signs + [-1], signs + [1])
    return tuple(cells)


def _staircase_patterns(r: int):
    for j in range(r):
        yield tuple([1] * (r - j) + [-1] * j)


def minimal_norming_set(
    arr: Arrangement, cells: tuple[SignCell, ...], reduced: ReducedInstance
) -> NormingSet:
    """Translate cells to coordinate sign vectors and pick the canonical
    span basis (staircase-first)."""
    k = reduced.basis.n
    reps: list[SignVec] = []
    for cell in cells:
        x = tuple(
            cell.signs[arr.class_of_coord[i]] * arr.orientation[i] for i in range(k)
        )
        if x[0] != 1:  # pragma: no cover - coordinate 0 leads its own class
            raise InternalInconsistencyError("cell representative not canonical")
        reps.append(x)

    by_signs = {cell.signs: idx for idx, cell in enumerate(cells)}
    staircase = [by_signs[p] for p in _staircase_patterns(arr.r) if p in by_signs]
    candidates = staircase + list(range(len(reps)))
    basis_cells = [candidates[p] for p in first_basis([reps[i] for i in candidates])]
    basis = [reps[i] for i in basis_cells]
    span_dim = len(basis)
    if span_dim != rank(reps):  # pragma: no cover
        raise InternalInconsistencyError("span basis extraction lost rank")
    return NormingSet(
        representatives=tuple(reps),
        span_dim=span_dim,
        system_basis=tuple(basis),
        basis_cells=tuple(basis_cells),
    )


def norming_dot(x: SignVec, v: Vec) -> Q:
    """Pairing of a sign vector with a rational vector: a signed sum."""
    return sum((vi if s > 0 else -vi for s, vi in zip(x, v, strict=True) if s), Q(0))

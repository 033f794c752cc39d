"""Row-structure analysis of a subspace basis of l1^n.

The n x m matrix whose columns are the basis vectors is examined row by
row: rows that are exact scalar multiples of each other form one
component class, identically-zero rows form the zero set.  Both are
properties of the subspace itself, not of the chosen basis.  The sigma
map drops the zero-set coordinates.
"""
from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import NamedTuple

from .errors import DimensionError, RankDeficientError, ZeroSubspaceError
from .exact import Mat, Q, Vec, first_basis, primitive_ints, rank, scaled_ints


# Records with cached properties (SubspaceBasis, ComponentProfile and
# norming.Arrangement) subclass a functional NamedTuple: unlike the class
# syntax's, the subclass has an instance __dict__ to hold the values.
class SubspaceBasis(NamedTuple("SubspaceBasis", [("n", int), ("m", int), ("matrix", Mat)])):
    """Basis of an m-dimensional subspace of l1^n.

    `matrix` is row-major n x m; column k is the k-th basis vector.
    Constructed through validate_basis, which guarantees full column
    rank.  All indices in this package are 0-based; the CLI converts to
    1-based coordinates on output.
    """

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row as coprime ints, built once for rank, profile and topes."""
        return tuple(tuple(primitive_ints(row)) for row in self.matrix)

    @cached_property
    def lex_costs(self) -> tuple[tuple[int, ...], ...]:
        """The m int_rows that greedy in-order independence keeps: the
        costs of a lex search (solver.lex_extreme_alpha)."""
        return tuple(self.int_rows[i] for i in first_basis(self.int_rows))

    @cached_property
    def int_matrix(self) -> tuple[int, list[list[int]]]:
        """(den, rows): matrix == rows / den, den the lcm of all denominators."""
        den, flat = scaled_ints([x for row in self.matrix for x in row])
        return den, [flat[i:i + self.m] for i in range(0, len(flat), self.m)]

    def combine(self, coeffs: Vec) -> Vec:
        """The subspace element with the given (int or Fraction)
        coefficients, summed in ints: one Fraction per entry."""
        if len(coeffs) != self.m:
            raise DimensionError("combine needs one coefficient per basis vector")
        den, rows = self.int_matrix
        cden, c = scaled_ints(coeffs)
        den *= cden
        return tuple(Q(sum(map(mul, row, c)), den) for row in rows)


class ComponentClass(NamedTuple):
    representative: int
    members: tuple[tuple[int, Q], ...]  # (coordinate, constant vs representative)


class ComponentProfile(NamedTuple("ComponentProfile", [
        ("classes", tuple[ComponentClass, ...]), ("zero_set", tuple[int, ...]), ("d", int)])):
    @cached_property
    def class_of(self) -> dict[int, tuple[int, Q]]:
        """coordinate -> (class index, proportionality constant)."""
        out = {}
        for c_idx, cls in enumerate(self.classes):
            for coord, const in cls.members:
                out[coord] = (c_idx, const)
        return out


def validate_basis(matrix: Mat) -> SubspaceBasis:
    """Check shape and full column rank; return the basis, its rows as
    tuples: hashable, and apart from the caller's lists."""
    if not matrix or not matrix[0]:
        raise DimensionError("basis matrix must have at least one row and one column")
    matrix = tuple(map(tuple, matrix))
    n, m = len(matrix), len(matrix[0])
    if any(len(row) != m for row in matrix):
        raise DimensionError("ragged basis matrix")
    if m > n:
        raise DimensionError(f"more basis vectors ({m}) than ambient dimension ({n})")
    basis = SubspaceBasis(n=n, m=m, matrix=matrix)
    if rank(basis.int_rows) != m:  # rank is unchanged by positive row scaling
        raise RankDeficientError("basis vectors are linearly dependent")
    return basis


def build_profile(basis: SubspaceBasis) -> ComponentProfile:
    """Group rows into proportionality classes and collect the zero set.

    Each row is keyed by its primitive int form, merged up to sign, so a
    row finds its class in one dict lookup.  The representative of each
    class is its smallest row index and has constant 1; the constant
    stored for any member is an exact Fraction, for int or Fraction entries.
    """
    classes: dict[tuple[int, ...], tuple[int, list[tuple[int, Q]]]] = {}
    zero_set: list[int] = []
    rows = basis.matrix
    for i, (row, v) in enumerate(zip(rows, basis.int_rows)):
        if not any(v):
            zero_set.append(i)
            continue
        key = max(v, tuple(-x for x in v))
        found = classes.get(key)
        if found is None:  # a new class; members divide at its first nonzero column
            classes[key] = (next(j for j, x in enumerate(v) if x), [(i, Q(1))])
        else:
            j0, members = found
            members.append((i, Q(row[j0], rows[members[0][0]][j0])))
    return ComponentProfile(
        classes=tuple(
            ComponentClass(representative=members[0][0], members=tuple(members))
            for _, members in classes.values()
        ),
        zero_set=tuple(zero_set),
        d=len(classes),
    )


class ReducedInstance(NamedTuple):
    """Zero-set-free image of a basis under the coordinate-dropping map.

    kept_indices records, in order, which original coordinates survive.
    """

    kept_indices: tuple[int, ...]
    basis: SubspaceBasis
    original_n: int

    def sigma(self, v: Vec) -> Vec:
        if len(v) != self.original_n:
            raise DimensionError("sigma expects an ambient-length vector")
        return tuple(v[i] for i in self.kept_indices)


def reduce_sigma(basis: SubspaceBasis, profile: ComponentProfile) -> ReducedInstance:
    """Drop the zero-set coordinates; the result has an empty zero set."""
    if len(profile.zero_set) == basis.n:
        raise ZeroSubspaceError("all coordinate rows are zero")
    zero = set(profile.zero_set)
    kept = tuple(i for i in range(basis.n) if i not in zero)
    reduced_matrix = tuple(basis.matrix[i] for i in kept)
    reduced = SubspaceBasis(n=len(kept), m=basis.m, matrix=reduced_matrix)
    return ReducedInstance(
        kept_indices=kept,
        basis=reduced,
        original_n=basis.n,
    )

"""Exact rational scalars, vectors and matrices, the scaling of rational
rows to ints, the one fraction-free elimination step (`bareiss_pivot`)
that both Gauss-Jordan elimination and the simplex tableau in `lp.py`
are built on, and the one read-out of the kernel vectors it leaves.

No floating point is used anywhere: existence decisions downstream
(sign cells, ranks, system consistency) are discontinuous in the data,
so every quantity is a `fractions.Fraction`, or Python ints over one
known positive denominator, which a Bareiss step divides out exactly.
"""
from __future__ import annotations

import math
import numbers
import re
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import CapacityError, DimensionError, ValidationError

Q = Fraction
Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)  # no other script's digits


def parse_literal(text: str) -> int | Q:
    """Parse the strict text form, optional sign, integer, optional '/den': an int, or a Fraction.

    Rejects floats, exponents and zero denominators; this is the grammar
    used verbatim in all JSON I/O.  Only ASCII whitespace is stripped.
    The value is built from the matched digits by `int()`, not `Fraction(str)`.
    """
    s = text.strip(" \t\n\r\f\v")
    match = _RATIONAL_RE.fullmatch(s)
    if match is None:
        raise ValidationError(f"not a rational literal: {text!r}")
    p, q = match.groups()
    try:
        return int(p) if q is None else Q(int(p), int(q))
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator: {text!r}") from None
    except ValueError:  # Python's limit on int-string conversion
        raise ValidationError(
            f"rational literal of {len(s)} characters exceeds the integer digit limit"
        ) from None


def parse_rational(text: str) -> Q:
    """parse_literal's value, always a Fraction (built once)."""
    return Q(x) if type(x := parse_literal(text)) is int else x


def format_rational(x: int | Q) -> str:
    """Inverse of parse_rational on an int or a Fraction; '13' or '-3/7', lowest terms."""
    if type(x) is not int and not isinstance(x, Q):
        raise ValidationError(f"not an exact rational: {x!r}")
    try:
        return str(x)
    except ValueError:  # Python's limit on int-string conversion
        raise CapacityError("a report value exceeds the integer digit limit") from None


def rational(value) -> Q:
    """The one entry rule for an exact literal, in files and library calls alike:
    an int (not a bool) or other `numbers.Rational`, or a `parse_rational` string."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Q(value)
    raise ValidationError(f"not an exact rational: {value!r}")


def _entries(items, what: str):
    """`items`, if it is an iterable other than a str or bytes, whose
    characters or bytes would otherwise pass for its entries."""
    if isinstance(items, (str, bytes, bytearray)) or not isinstance(items, Iterable):
        raise ValidationError(f"not a {what}: {items!r}")
    return items


def vec(items: Iterable) -> Vec:
    """An immutable rational vector, each entry coerced by `rational`."""
    return tuple(map(rational, _entries(items, "vector")))


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(map(vec, _entries(rows, "matrix")))


def l1_norm(v: Vec) -> Q:
    return sum((abs(x) for x in v), Q(0))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def transpose(rows: Mat) -> Mat:
    return tuple(zip(*rows)) if rows else ()


def scaled_ints(values: Sequence) -> tuple[int, list[int]]:
    """(d, values * d), d the lcm of the denominators: 1 for a row of ints.
    An inexact entry (a float, str or None, say) is a ValidationError."""
    if all(type(x) is int for x in values):
        return 1, list(values)
    try:
        d = math.lcm(*[x.denominator for x in values])
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise ValidationError(f"not an exact rational: {bad!r}") from None
    return d, [x.numerator * (d // x.denominator) for x in values]


def primitive_ints(values: Sequence) -> list[int]:
    """The int or Fraction entries times the positive rational that makes
    them coprime integers (a zero list stays zero)."""
    ints = scaled_ints(values)[1]
    g = math.gcd(*ints)
    return [k // g for k in ints] if g > 1 else ints


def bareiss_pivot(rows: list[list[int]], r: int, c: int, den: int) -> int:
    """One fraction-free (Bareiss) pivot on rows[r][c], in place: the rows
    are ints over one denominator `den` > 0, the determinant of the pivot
    block so far.  Row r is negated if its entry is negative; then, with
    p = rows[r][c], every other row becomes (p*row - row[c]*rows[r]) / den,
    exact as every entry is a minor of the starting rows (Bareiss, Math.
    Comp. 22, 1968), except entry c, left unchanged: the simplex passes
    its columns as `rows` and keeps it.  Returns p, the new denominator.
    """
    prow = rows[r]
    if prow[c] < 0:
        rows[r] = prow = [-a for a in prow]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = row = ([(p * a - f * b) // den for a, b in zip(row, prow)] if den > 1
                             else [p * a - f * b for a, b in zip(row, prow)])  # nothing to divide
            row[c] = f
        elif p != den:
            rows[i] = [p * a // den for a in row]
    return p


def _gauss_jordan(work: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place on int rows by Bareiss pivots,
    over the first `ncols` columns (later columns ride along); return the
    pivot columns, writing the zeros the pivot leaves out of its column.
    Row i ends as the only row nonzero in pivot column i: the reduced row
    echelon row times the final denominator, its entry."""
    nrows = len(work)
    pivots: list[int] = []
    den = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        den = bareiss_pivot(work, r, c, den)
        for row in work[:r] + work[r + 1:]:
            row[c] = 0
        pivots.append(c)
    return pivots


def rank(rows: Sequence[Vec]) -> int:
    """Exact rank (int or Fraction entries): the pivots of first_basis."""
    return len(first_basis(rows))


def first_basis(vectors: Sequence[Vec]) -> list[int]:
    """Indices of the vectors that greedy in-order independence keeps:
    each one is kept iff it is outside the span of those before it.

    These are the pivot columns of the matrix whose columns are `vectors`.
    """
    work = [primitive_ints(r) for r in transpose(vectors)]
    return _gauss_jordan(work, len(vectors))


class SystemStatus(Enum):
    NO_SOLUTION = "no-solution"
    UNIQUE = "unique"
    AFFINE_FAMILY = "affine-family"


class LinearSystemResult(NamedTuple):
    status: SystemStatus
    solution: Vec | None
    nullspace_basis: tuple[Vec, ...]


def kernel_vectors(work: list[list[int]], ncols: int) -> list[list[int]]:
    """The kernel of the first `ncols` columns of the int rows `work`, read
    off `_gauss_jordan(work, ncols)` (in place): per non-pivot column k, in
    order, y with y_k = d, the final pivot, y_(c_i) = -work[i][k] on pivot
    column c_i and 0 elsewhere, so sum_j y_j (column j) = 0.  Its support,
    inside the pivots and k, is minimal: a circuit of at most rank + 1 columns."""
    pivots = _gauss_jordan(work, ncols)
    d = work[0][pivots[0]] if pivots else 1
    row_of = dict(zip(pivots, work))  # pivot column -> its row
    return [[-row_of[j][k] if j in row_of else d * (j == k) for j in range(ncols)]
            for k in range(ncols) if k not in row_of]


def solve_linear(rows: Mat, rhs: Vec) -> LinearSystemResult:
    """Solve rows·x = rhs exactly by fraction-free Gauss-Jordan elimination.

    Inconsistency is a status, not an error.  For AFFINE_FAMILY the
    particular solution has zeros on the free coordinates and the
    nullspace basis has one vector per free coordinate.  Both are kernel
    vectors of (rows | rhs), x the one of the rhs column, scaled to -1 there.
    """
    if not rows or not rows[0]:
        raise ValidationError("empty linear system")
    ncols = len(rows[0])
    if len(rhs) != len(rows):
        raise ValidationError("right-hand side length does not match row count")
    if any(len(r) != ncols for r in rows):
        raise DimensionError("ragged linear system: rows of different lengths")
    kernel = kernel_vectors([primitive_ints((*r, b)) for r, b in zip(rows, rhs)], ncols + 1)
    if not kernel or not kernel[-1][ncols]:  # the rhs column is a pivot
        return LinearSystemResult(SystemStatus.NO_SOLUTION, None, ())
    *free, last = kernel
    d = last[ncols]
    return LinearSystemResult(SystemStatus.AFFINE_FAMILY if free else SystemStatus.UNIQUE,
                              tuple([Q(-x, d) for x in last[:ncols]]),
                              tuple(tuple([Q(x, d) for x in y[:ncols]]) for y in free))

"""Coproximinal / co-Chebyshev classification of a subspace.

A subspace admits a best coapproximation for every target exactly when
the span of its (reduced) norming set has dimension m, and solutions
are always unique exactly when in addition the zero set is empty: any
zero coordinate lets targets supported there have either no solution or
a whole polytope of them.

That span dimension q always equals d, the number of component classes,
so the classification reads the row profile alone, with no sign cell
and no LP: coproximinal iff d == m.
"""
from __future__ import annotations

from typing import NamedTuple

from .solver import PreparedBasis, prepared_for
from .subspace import SubspaceBasis


class ClassificationReport(NamedTuple):
    coproximinal: bool
    co_chebyshev: bool
    m: int
    q: int
    d: int
    zero_set_size: int
    rationale: tuple[str, ...]


def classify(basis: SubspaceBasis, *, prepared: PreparedBasis | None = None) -> ClassificationReport:
    """Classify the subspace spanned by the basis columns.

    Rationale tags, in order of application:
      full-space                 m == n, every target is its own solution
      sigma-reduction            zero-set coordinates dropped first
      q-equals-m / q-exceeds-m   q = d, the class count, against m
      empty-zero-set-uniqueness  solutions are unique when they exist
      zero-fiber-multiplicity    some target has many solutions
    """
    pb = prepared_for(basis, prepared)
    zero_set = pb.profile.zero_set
    if basis.m == basis.n:
        q, tags = basis.m, ["full-space"]
    else:
        q = pb.q
        tags = ["sigma-reduction"] if zero_set else []
        if q == basis.m:
            tags.append("q-equals-m")
            tags.append("zero-fiber-multiplicity" if zero_set else "empty-zero-set-uniqueness")
        else:
            tags.append("q-exceeds-m")
    coproximinal = q == basis.m
    return ClassificationReport(
        coproximinal=coproximinal,
        co_chebyshev=coproximinal and not zero_set,
        m=basis.m,
        q=q,
        d=pb.profile.d,
        zero_set_size=len(zero_set),
        rationale=tuple(tags),
    )

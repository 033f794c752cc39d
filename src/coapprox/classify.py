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

from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .solver import PreparedBasis, prepare
from .subspace import SubspaceBasis


@dataclass(frozen=True)
class ClassificationReport:
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
    pb = prepared if prepared is not None else prepare(basis)
    profile = pb.profile
    if basis.m == basis.n:
        return ClassificationReport(
            coproximinal=True,
            co_chebyshev=True,
            m=basis.m,
            q=basis.m,
            d=profile.d,
            zero_set_size=0,
            rationale=("full-space",),
        )
    tags: list[str] = []
    if profile.zero_set:
        tags.append("sigma-reduction")
    q = pb.q
    coproximinal = q == basis.m
    tags.append("q-equals-m" if coproximinal else "q-exceeds-m")
    if coproximinal:
        if profile.zero_set:
            co_chebyshev = False
            tags.append("zero-fiber-multiplicity")
        else:
            co_chebyshev = True
            tags.append("empty-zero-set-uniqueness")
    else:
        co_chebyshev = False
    if co_chebyshev and not coproximinal:  # pragma: no cover
        raise InternalInconsistencyError("co-Chebyshev requires coproximinal")
    return ClassificationReport(
        coproximinal=coproximinal,
        co_chebyshev=co_chebyshev,
        m=basis.m,
        q=q,
        d=profile.d,
        zero_set_size=len(profile.zero_set),
        rationale=tuple(tags),
    )

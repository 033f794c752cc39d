"""Exact best-coapproximation analysis in l1^n.

Given a subspace Y = span{a_1, ..., a_m} of l1^n and a target b, the
package decides whether a best coapproximation to b out of Y exists,
computes it (or the polytope of all of them), produces the induced
norm-one projection, and classifies Y as coproximinal / co-Chebyshev.
All arithmetic is exact rational.

__all__ is the public surface; every other name lives in its own module.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    CoapproxError,
    DimensionError,
    EmptyZeroSetError,
    InternalInconsistencyError,
    NoCoapproximationError,
    PreconditionError,
    RankDeficientError,
    ValidationError,
    ZeroSubspaceError,
)
from .exact import format_rational, mat, parse_rational, vec
from .oracle import (
    VerificationVerdict,
    bj_orthogonal_l1,
    certify_not_exists,
    check_certificate,
    verify_best_coapprox,
)
from .solver import (
    ClassificationReport,
    CoapproxOutcome,
    ExistenceThreshold,
    OutcomeKind,
    PolytopeConstraints,
    PreparedBasis,
    classify,
    existence_threshold,
    prepare,
    solve_general,
)
from .subspace import SubspaceBasis, validate_basis

__all__ = [
    "validate_basis", "SubspaceBasis", "prepare", "PreparedBasis", "solve_general",
    "existence_threshold", "classify",
    "CoapproxOutcome", "OutcomeKind", "PolytopeConstraints", "ExistenceThreshold",
    "ClassificationReport", "VerificationVerdict",
    "CapacityError", "CoapproxError", "DimensionError", "EmptyZeroSetError",
    "InternalInconsistencyError", "NoCoapproximationError", "PreconditionError",
    "RankDeficientError", "ValidationError", "ZeroSubspaceError",
    "vec", "mat", "parse_rational", "format_rational",
    "verify_best_coapprox", "bj_orthogonal_l1", "certify_not_exists", "check_certificate",
]

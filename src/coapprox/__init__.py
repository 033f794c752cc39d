"""Exact best-coapproximation analysis in l1^n.

Given a subspace Y = span{a_1, ..., a_m} of l1^n and a target b, the
package decides whether a best coapproximation to b out of Y exists,
computes it (or the polytope of all of them), produces the induced
norm-one projection, and classifies Y as coproximinal / co-Chebyshev.
All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .classify import ClassificationReport, classify
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
from .exact import (
    LinearSystemResult,
    Q,
    SystemStatus,
    format_rational,
    l1_norm,
    mat,
    parse_rational,
    solve_linear,
    vec,
)
from .lp import solve_minimax_lp
from .norming import (
    Arrangement,
    NormingSet,
    SignCell,
    build_arrangement,
    enumerate_cells,
    margin_witness,
    minimal_norming_set,
)
from .oracle import (
    BruteForceResult,
    VerificationVerdict,
    bj_orthogonal_l1,
    brute_force_existence,
    verify_best_coapprox,
)
from .solver import (
    CoapproxOutcome,
    ExistenceThreshold,
    OutcomeKind,
    PolytopeConstraints,
    PreparedBasis,
    Projection,
    existence_threshold,
    prepare,
    projection_map,
    solve_empty_zero_set,
    solve_general,
)
from .subspace import (
    ComponentProfile,
    ReducedInstance,
    SubspaceBasis,
    build_profile,
    reduce_sigma,
    validate_basis,
)

__all__ = [
    "ClassificationReport", "classify",
    "CapacityError", "CoapproxError", "DimensionError", "EmptyZeroSetError",
    "InternalInconsistencyError", "NoCoapproximationError", "PreconditionError",
    "RankDeficientError", "ValidationError", "ZeroSubspaceError",
    "LinearSystemResult", "Q", "SystemStatus", "format_rational", "l1_norm",
    "mat", "parse_rational", "solve_linear", "vec",
    "solve_minimax_lp",
    "Arrangement", "NormingSet", "SignCell", "build_arrangement",
    "enumerate_cells", "margin_witness", "minimal_norming_set",
    "BruteForceResult", "VerificationVerdict", "bj_orthogonal_l1",
    "brute_force_existence", "verify_best_coapprox",
    "CoapproxOutcome", "ExistenceThreshold", "OutcomeKind",
    "PolytopeConstraints", "PreparedBasis", "Projection", "existence_threshold",
    "prepare", "projection_map", "solve_empty_zero_set", "solve_general",
    "ComponentProfile", "ReducedInstance", "SubspaceBasis", "build_profile",
    "reduce_sigma", "validate_basis",
]

"""Best-coapproximation solver for subspaces of l1^n.

Empty zero set: a coefficient vector alpha solves the problem iff
x . (b - A alpha) = 0 for every norming-set sign vector x.  Such an x is
s_c * o_i on the coordinates i of class c, o_i the sign of coordinate
i's constant, and the class signs s span R^d (q = d), so the equations
hold iff every class sum  sum_{i in c} o_i * (b - A alpha)_i  vanishes.
Those d rows come from the row profile alone, with no cell enumeration.
Row c is a positive multiple of the representative's row, so the system
has rank m and is either inconsistent (no best coapproximation) or
uniquely solvable.

Non-empty zero set Z: dropping the Z coordinates leaves a zero-set-free
problem, and the mass the target carries on Z acts as slack.  alpha is a
best coapproximation iff for every norming-set sign vector x of the
reduced basis

    | x . (sigma(b) - sigma(A) alpha) |  <=  sum_{i in Z} |b_i|,

which reduces to the equality system when the slack vanishes and to
"every alpha with ||A alpha||_1 <= ||b||_1" when the reduced target is
zero.  The minimax value delta0 of the left side decides the outcome:
below it the set is empty; above it the set holds a ball around the
minimax optimizer, so it is a full-dimensional polytope; at it the set
is the optimal face, a point or a polytope.  Lexicographically extreme
points (in subspace-vector order) tell these apart and pick a witness
independent of the particular basis supplied.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    DimensionError,
    EmptyZeroSetError,
    InternalInconsistencyError,
    NoCoapproximationError,
)
from .exact import (
    Mat,
    Q,
    SystemStatus,
    Vec,
    l1_norm,
    rank,  # unused here; perfbench/tracer.py wraps coapprox.solver.rank
    solve_linear,
    vec_add,
    vec_scale,
)
from .lp import LpStatus, lp_min, solve_minimax_lp
from .norming import (
    Arrangement,
    NormingSet,
    SignCell,
    build_arrangement,
    check_cell_capacity,
    enumerate_cells,
    minimal_norming_set,
    norming_dot,
)
from .subspace import (
    ComponentProfile,
    ReducedInstance,
    SubspaceBasis,
    apply_rho,
    build_profile,
    reduce_sigma,
)


class PreparedBasis:
    """A validated basis plus lazily-built analysis artifacts.

    Everything here depends only on the subspace (profile, reduction,
    arrangement, cells, norming set), so one instance can serve many
    targets; each artifact is built here, once, on first access.

    `q` and the class-sum rows come from the profile alone.  Only
    `cells`, `norming` and the rows built on them enumerate sign cells:
    `norming-set` reports the cells, and the zero-set polytope needs one
    inequality per cell.
    """

    def __init__(self, basis: SubspaceBasis):
        self.basis = basis

    @cached_property
    def profile(self) -> ComponentProfile:
        return build_profile(self.basis)

    @cached_property
    def reduced(self) -> ReducedInstance:
        return reduce_sigma(self.basis, self.profile)

    @cached_property
    def arrangement(self) -> Arrangement:
        return build_arrangement(self.reduced, self.profile)

    @cached_property
    def cells(self) -> tuple[SignCell, ...]:
        return enumerate_cells(self.arrangement)

    @property
    def q(self) -> int:
        """Span dimension of the norming set, which is always d.  Refused,
        as enumeration would refuse it, on an arrangement over the caps."""
        check_cell_capacity(self.profile.d, self.basis.m)
        return self.profile.d

    @cached_property
    def norming(self) -> NormingSet:
        norming = minimal_norming_set(self.arrangement, self.cells, self.reduced)
        if norming.span_dim != self.profile.d:
            raise InternalInconsistencyError("norming span dimension q != d")
        return norming

    @cached_property
    def class_rows(self) -> Mat:
        """Class-sum rows, one per component class: sum_{i in c} o_i A_i,
        which is (sum_{i in c} |const_i|) times the representative's row."""
        out = []
        for cls in self.profile.classes:
            weight = sum(abs(c) for _, c in cls.members)
            out.append(tuple(weight * x for x in self.basis.matrix[cls.representative]))
        return tuple(out)

    def class_rhs(self, b: Vec) -> Vec:
        """sum_{i in c} o_i b_i per class, o_i the sign of const_i."""
        return tuple(
            sum((b[i] if c > 0 else -b[i] for i, c in cls.members), Q(0))
            for cls in self.profile.classes
        )

    @cached_property
    def system_rows(self) -> Mat:
        """Equality rows, one per system-basis sign vector: the paper's
        assembled system, equivalent to the class-sum rows.

        Reduced coordinates throughout (identical to ambient ones when
        the zero set is empty); same for the rhs helpers below.
        """
        cols = self.reduced.basis.columns
        return tuple(
            tuple(norming_dot(x, col) for col in cols)
            for x in self.norming.system_basis
        )

    @cached_property
    def feasibility_rows(self) -> Mat:
        """Inequality rows, one per norming-set pair (all of them)."""
        cols = self.reduced.basis.columns
        return tuple(
            tuple(norming_dot(x, col) for col in cols)
            for x in self.norming.representatives
        )

    def system_rhs(self, b_reduced: Vec) -> Vec:
        return tuple(norming_dot(x, b_reduced) for x in self.norming.system_basis)

    def feasibility_rhs(self, b_reduced: Vec) -> Vec:
        return tuple(norming_dot(x, b_reduced) for x in self.norming.representatives)


def prepare(basis: SubspaceBasis) -> PreparedBasis:
    return PreparedBasis(basis)


class OutcomeKind(Enum):
    NOT_EXISTS = "not-exists"
    UNIQUE = "unique"
    POLYTOPE = "polytope"


@dataclass(frozen=True)
class PolytopeConstraints:
    """The feasible coefficient set {alpha : |rows.alpha - rhs| <= slack}."""

    rows: Mat
    rhs: Vec
    slack: Q

    def satisfied_by(self, alpha: Vec) -> bool:
        return all(
            abs(sum((r[j] * alpha[j] for j in range(len(alpha))), Q(0)) - b) <= self.slack
            for r, b in zip(self.rows, self.rhs)
        )


@dataclass(frozen=True)
class CoapproxOutcome:
    kind: OutcomeKind
    coefficients: Vec | None = None
    vector: Vec | None = None
    constraints: PolytopeConstraints | None = None
    witness: Vec | None = None

    @property
    def chosen_alpha(self) -> Vec:
        alpha = self.coefficients if self.coefficients is not None else self.witness
        if alpha is None:
            raise NoCoapproximationError("outcome carries no coefficient vector")
        return alpha


def _not_exists() -> CoapproxOutcome:
    return CoapproxOutcome(kind=OutcomeKind.NOT_EXISTS)


def _unique(basis: SubspaceBasis, alpha: Vec) -> CoapproxOutcome:
    return CoapproxOutcome(
        kind=OutcomeKind.UNIQUE, coefficients=alpha, vector=basis.combine(alpha)
    )


def solve_empty_zero_set(pb: PreparedBasis, b: Vec) -> CoapproxOutcome:
    """Equality-system solve for a basis whose zero set is empty, on the
    class-sum rows: no cell enumeration."""
    if pb.profile.zero_set:
        raise DimensionError("solve_empty_zero_set requires an empty zero set")
    if len(b) != pb.basis.n:
        raise DimensionError("target length does not match ambient dimension")
    check_cell_capacity(pb.profile.d, pb.basis.m)  # the same caps as enumeration
    res = solve_linear(pb.class_rows, pb.class_rhs(b))
    if res.status is SystemStatus.NO_SOLUTION:
        return _not_exists()
    if res.status is SystemStatus.AFFINE_FAMILY:
        raise InternalInconsistencyError(
            "underdetermined system contradicts uniqueness on empty zero set"
        )
    return _unique(pb.basis, res.solution)


def lex_extreme_alpha(
    basis: SubspaceBasis, constraints: PolytopeConstraints, direction: int
) -> Vec:
    """Coefficients of the lexicographically extreme feasible vector.

    Lexicographic order is taken on the subspace element A.alpha
    coordinate by coordinate (direction +1 minimizes, -1 maximizes), so
    the resulting point is a property of the subspace and target alone.
    One LP minimizes direction * (row i of A) . alpha for every row in
    order, each over the optimal face of the rows before it.  The rows
    of A span R^m, so the last face is one point.
    """
    a_ub: list[Vec] = []
    b_ub: list[Q] = []
    for row, rv in zip(constraints.rows, constraints.rhs):
        a_ub += [row, tuple(-x for x in row)]
        b_ub += [rv + constraints.slack, constraints.slack - rv]
    costs = [tuple(Q(direction) * x for x in row) for row in basis.matrix]
    # `then` goes positionally: perfbench/tracer.py sizes this call by
    # binding its arguments to lp_min's old (cost, a_ub, b_ub, a_eq, b_eq).
    res = lp_min(costs[0], tuple(a_ub), tuple(b_ub), costs[1:])
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise InternalInconsistencyError("lex support LP must be solvable")
    return res.x


def solve_general(
    basis: SubspaceBasis, profile: ComponentProfile | None, b: Vec, *,
    prepared: PreparedBasis | None = None,
) -> CoapproxOutcome:
    """Decide existence and compute best coapproximation(s) to b.

    Delegates to the equality system when the zero set is empty.
    Otherwise the slack (zero-set mass) is compared with delta0: below it
    nothing exists; above it the polytope holds a ball around the minimax
    optimizer, so it is full-dimensional, and only its witness (the
    lex-smallest point of the optimal face) is searched for; at it a
    second lex search, the other way, tells a point from a polytope.
    """
    pb = prepared if prepared is not None else prepare(basis)
    if len(b) != basis.n:
        raise DimensionError("target length does not match ambient dimension")
    membership = solve_linear(basis.matrix, b)
    if membership.status is SystemStatus.UNIQUE:
        return _unique(basis, membership.solution)
    if not pb.profile.zero_set:
        return solve_empty_zero_set(pb, b)

    slack = sum((abs(b[i]) for i in pb.profile.zero_set), Q(0))
    rows = pb.feasibility_rows
    rhs = pb.feasibility_rhs(pb.reduced.sigma(b))
    t_star, _ = solve_minimax_lp(rows, rhs)
    if t_star > slack:
        return _not_exists()
    tight = PolytopeConstraints(rows=rows, rhs=rhs, slack=t_star)
    witness = lex_extreme_alpha(basis, tight, +1)
    if slack == t_star and witness == lex_extreme_alpha(basis, tight, -1):
        return _unique(basis, witness)
    return CoapproxOutcome(
        kind=OutcomeKind.POLYTOPE,
        constraints=PolytopeConstraints(rows=rows, rhs=rhs, slack=slack),
        witness=witness,
        vector=basis.combine(witness),
    )


@dataclass(frozen=True)
class ExistenceThreshold:
    """Critical zero-set mass: targets on the fiber with less mass have
    no best coapproximation, with at least this much always do."""

    delta0: Q
    minimizing_alpha: Vec


def existence_threshold(
    basis: SubspaceBasis, profile: ComponentProfile | None, b: Vec, *,
    prepared: PreparedBasis | None = None,
) -> ExistenceThreshold:
    pb = prepared if prepared is not None else prepare(basis)
    if len(b) != basis.n:
        raise DimensionError("target length does not match ambient dimension")
    if not pb.profile.zero_set:
        raise EmptyZeroSetError("threshold is defined only for non-empty zero sets")
    rhs = pb.feasibility_rhs(pb.reduced.sigma(b))
    delta0, alpha = solve_minimax_lp(pb.feasibility_rows, rhs)
    rho_mass = l1_norm(apply_rho(b, pb.profile))
    if delta0 > rho_mass:  # pragma: no cover
        raise InternalInconsistencyError("threshold exceeds the rho-mass upper bound")
    return ExistenceThreshold(delta0=delta0, minimizing_alpha=alpha)


@dataclass(frozen=True)
class Projection:
    """The norm-one projection of span{b, Y} onto Y.

    Fixing Y pointwise and sending b to its best coapproximation
    determines the map; apply() evaluates it at a + gamma*b for a given
    by subspace coefficients.
    """

    basis: SubspaceBasis
    target: Vec
    alpha: Vec
    image_of_target: Vec

    def apply(self, coeffs: Vec, gamma: Q) -> Vec:
        return vec_add(self.basis.combine(coeffs), vec_scale(Q(gamma), self.image_of_target))

    def input_vector(self, coeffs: Vec, gamma: Q) -> Vec:
        return vec_add(self.basis.combine(coeffs), vec_scale(Q(gamma), self.target))


def projection_map(basis: SubspaceBasis, b: Vec, outcome: CoapproxOutcome) -> Projection:
    if outcome.kind is OutcomeKind.NOT_EXISTS:
        raise NoCoapproximationError("no best coapproximation, so no norm-one projection")
    alpha = outcome.chosen_alpha
    return Projection(
        basis=basis, target=b, alpha=alpha, image_of_target=basis.combine(alpha)
    )

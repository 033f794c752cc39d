"""Best-coapproximation solver for subspaces of l1^n.

No mass on the zero set (so always when it is empty): alpha solves the
problem iff x . (b - A alpha) = 0 for every norming-set sign vector x.
Such an x is s_c * o_i on the coordinates i of class c, o_i the sign of
coordinate i's constant, and the class signs s span R^d (q = d), so the
equations hold iff every class sum  sum_{i in c} o_i * (b - A alpha)_i
vanishes.  Those d rows come from the row profile alone, with no cell
enumeration.  Row c is a positive multiple of the representative's row,
so the system has rank m and is either inconsistent (no best
coapproximation) or uniquely solvable, at alpha0 for a member A alpha0.

Non-empty zero set Z: dropping the Z coordinates leaves a zero-set-free
problem, and the mass the target carries on Z acts as slack.  alpha is a
best coapproximation iff for every norming-set sign vector x of the
reduced basis

    | x . (sigma(b) - sigma(A) alpha) |  <=  sum_{i in Z} |b_i|,

which is the equality system above when the slack vanishes, and
"every alpha with ||A alpha||_1 <= ||b||_1" when the reduced target is
zero.  The minimax value delta0 of the left side decides the outcome:
below it the set is empty; above it the set holds a ball around the
minimax optimizer, so it is a full-dimensional polytope; at it the set
is the optimal face, a point or a polytope.  Lexicographically extreme
points (in subspace-vector order) tell these apart and pick a witness
independent of the particular basis supplied; each search is the
minimax LP, then m `then` costs over its optimal face, in one tableau;
none runs where the minimax LP proves the face one point.
delta0, its optimizer and the optimal face depend only on sigma(b), so
all targets on one fiber (same entries off Z, any mass on Z) share one
Fiber: its minimax solve, lex searches, witness vector and threshold.
"""
from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
from operator import mul
from typing import NamedTuple

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
    rank,  # unused here; perfbench/tracer.py wraps coapprox.solver.rank
    scaled_ints,
    solve_linear,
)
from .lp import LpStatus, lp_min, minimax_rows, solve_minimax_lp
from .norming import (
    Arrangement,
    NormingSet,
    SignCell,
    build_arrangement,
    check_cell_capacity,
    enumerate_cells,
    minimal_norming_set,
)
from .subspace import (
    ComponentProfile,
    ReducedInstance,
    SubspaceBasis,
    build_profile,
    reduce_sigma,
)


class Fiber:
    """One fiber's solve (PreparedBasis.fiber); rhs, vector and threshold are kept once read."""

    __slots__ = ("key", "delta0", "alpha", "rho_mass", "lex",
                 "_basis", "_sums", "_bden", "_rhs", "_vector", "_threshold")

    def __init__(self, key, delta0, alpha, rho_mass, lex, basis, sums, bden):
        self.key, self.delta0, self.alpha, self.rho_mass = key, delta0, alpha, rho_mass
        self.lex, self._basis, self._sums, self._bden = lex, basis, sums, bden
        self._rhs = self._vector = self._threshold = None

    @property
    def rhs(self) -> Vec:
        if self._rhs is None:
            self._rhs = tuple(Q(s, self._bden) for s in self._sums)
        return self._rhs

    @property
    def vector(self) -> Vec:
        if self._vector is None:
            self._vector = self._basis.combine(self.lex(+1))
        return self._vector

    @property
    def threshold(self) -> ExistenceThreshold:
        if self._threshold is None:
            if self.delta0 > self.rho_mass:  # pragma: no cover
                raise InternalInconsistencyError("threshold exceeds the rho-mass upper bound")
            self._threshold = ExistenceThreshold(self.delta0, self.alpha, self.rho_mass)
        return self._threshold


class PreparedBasis:
    """A validated basis plus lazily-built analysis artifacts.

    Everything here depends only on the subspace (profile, reduction,
    arrangement, cells, norming set), so one instance can serve many
    targets; each artifact is built here, once, on first access.

    `q` and the class-sum rows come from the profile alone.  Both solve
    paths read the class-sum rows: the slack-0 path solves them, and the
    zero-set polytope has one inequality per cell, the cell's signed sum
    of them, so only `cells` is enumerated; the minimax LP runs on those
    rows in ints, `feasibility_ints`.  `norming`, the coordinate
    sign vectors, is built for `norming-set`.
    `fiber` keeps the last fiber's Fiber in one slot, so memory stays
    bounded and each new fiber is solved afresh.
    """

    def __init__(self, basis: SubspaceBasis):
        self.basis = basis
        self._fiber: Fiber | None = None

    @cached_property
    def profile(self) -> ComponentProfile:
        return build_profile(self.basis)

    @cached_property
    def reduced(self) -> ReducedInstance:
        return reduce_sigma(self.basis, self.profile)

    @cached_property
    def arrangement(self) -> Arrangement:
        return build_arrangement(self.basis, self.profile)

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
        norming = minimal_norming_set(self.arrangement, self.cells)
        if norming.span_dim != self.profile.d:
            raise InternalInconsistencyError("norming span dimension q != d")
        return norming

    @cached_property
    def member_signs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per class, its members (i, o_i), o_i = +-1 the sign of const_i."""
        return tuple(tuple((i, 1 if c > 0 else -1) for i, c in cls.members)
                     for cls in self.profile.classes)

    @cached_property
    def class_ints(self) -> tuple[int, list[list[int]]]:
        """(den, rows): class-sum rows / den over int_matrix's den, sum_{i in c} o_i A_i:
        (sum_{i in c} |const_i|) times the representative's row."""
        den, ints = self.basis.int_matrix
        return den, [[sum(o * ints[i][j] for i, o in members) for j in range(self.basis.m)]
                     for members in self.member_signs]

    def _class_sums(self, b: Vec) -> tuple[int, list[int], list[int]]:
        """(den, b * den, sums): sum_{i in c} o_i b_i per class is sums / den."""
        den, ints = scaled_ints(b)
        return den, ints, [sum(o * ints[i] for i, o in members) for members in self.member_signs]

    @cached_property
    def feasibility_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): inequality rows / den, one per norming-set pair (all
        of them).  The cell's sign vector x is s_c * o_i on class c, so its
        pairing with the reduced columns is sum_c s_c * (class row c)."""
        den, rows = self.class_ints
        cols = list(zip(*rows))
        return den, tuple(tuple(sum(map(mul, cell.signs, col)) for col in cols)
                          for cell in self.cells)

    @cached_property
    def feasibility_rows(self) -> Mat:
        """feasibility_ints as Fractions, which outcomes and reports read."""
        den, rows = self.feasibility_ints
        return tuple(tuple(Q(x, den) for x in row) for row in rows)

    def fiber(self, b: Vec) -> Fiber:
        """b's Fiber, kept in one slot until another fiber replaces it;
        lex(direction) is the lex-extreme point of the optimal face: alpha
        on a face certified one point, by t = 0 (rows has rank m) or m + 1
        nonzero multipliers (at t > 0 each is a nonbasic slack's positive
        reduced cost, so every free variable is basic: a unique optimum,
        Mangasarian 1979), else searched on its first call.  Every LP is
        the minimax LP |sums - rows.x| <= t in ints, x = (bden/den) alpha,
        a positive rescaling that moves no pivot; a search then takes m
        `then` costs over its optimal face."""
        key, slot = self.reduced.sigma(b), self._fiber
        if slot is not None and slot.key == key:
            return slot
        den, rows = self.feasibility_ints
        bden, ints, sums = self._class_sums(b)
        sums = [sum(map(mul, cell.signs, sums)) for cell in self.cells]
        t, x, lam = solve_minimax_lp(rows, sums, multipliers=True)
        to_alpha = lambda x: tuple(Q(den * v.numerator, bden * v.denominator) for v in x)
        basis, alpha = self.basis, to_alpha(x)
        lex = lambda d: alpha
        if t and sum(map(bool, lam)) <= basis.m:  # uncertified: searched on first call
            lex = cache(lambda d: to_alpha(lex_extreme_alpha(basis, rows, sums, d)))
        # A new fiber replaces the slot in one assignment.
        self._fiber = Fiber(key, Q(t.numerator, t.denominator * bden), alpha,
                            Q(sum(abs(ints[i]) for i in self.reduced.kept_indices), bden),
                            lex, basis, sums, bden)
        return self._fiber


def prepare(basis: SubspaceBasis) -> PreparedBasis:
    return PreparedBasis(basis)


def prepared_for(basis: SubspaceBasis, prepared: PreparedBasis | None) -> PreparedBasis:
    """`prepared`, or a fresh prepare(basis); refused if built for another basis."""
    pb = prepared if prepared is not None else prepare(basis)
    # Identity first, the common case; records are tuples, so a plain
    # tuple can equal pb.basis, and only a SubspaceBasis passes.
    if pb.basis is not basis and not (isinstance(basis, SubspaceBasis) and pb.basis == basis):
        raise DimensionError("prepared basis does not match the basis")
    return pb


class OutcomeKind(Enum):
    NOT_EXISTS = "not-exists"
    UNIQUE = "unique"
    POLYTOPE = "polytope"


class PolytopeConstraints(NamedTuple):
    """The feasible coefficient set {alpha : |rows.alpha - rhs| <= slack}."""

    rows: Mat
    rhs: Vec
    slack: Q


class CoapproxOutcome(NamedTuple):
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


NOT_EXISTS = CoapproxOutcome(kind=OutcomeKind.NOT_EXISTS)


def solve_empty_zero_set(pb: PreparedBasis, b: Vec) -> CoapproxOutcome:
    """Class-sum equality solve in ints for a target with no mass on the
    zero set (every target when that set is empty): no cell enumeration."""
    if len(b) != pb.basis.n:
        raise DimensionError("target length does not match ambient dimension")
    if any(b[i] for i in pb.profile.zero_set):
        raise DimensionError("solve_empty_zero_set requires no target mass on the zero set")
    check_cell_capacity(pb.profile.d, pb.basis.m)  # the same caps as enumeration
    (den, rows), (bden, _, sums) = pb.class_ints, pb._class_sums(b)
    res = solve_linear([[bden * x for x in row] for row in rows], [den * s for s in sums])
    if res.status is SystemStatus.NO_SOLUTION:
        return NOT_EXISTS
    if res.status is SystemStatus.AFFINE_FAMILY:
        raise InternalInconsistencyError(
            "underdetermined system contradicts uniqueness on empty zero set"
        )
    return CoapproxOutcome(OutcomeKind.UNIQUE, res.solution, pb.basis.combine(res.solution))


def lex_extreme_alpha(basis: SubspaceBasis, rows: Mat, rhs: Vec, direction: int) -> Vec:
    """The lexicographically extreme point of the minimax LP's optimal face
    {x : |rows.x - rhs| <= t*}: one LP, the minimax LP (minimax_rows), then
    direction * (row i of A) . x as `then` costs for the m independent rows
    `basis.lex_costs` in order, each over the optimal face of those before
    it, so the last face is one point.  The order is thus taken on the
    subspace element A.x (direction +1 minimizes, -1 maximizes), a property
    of the subspace and target alone.  A skipped row is in the span of
    earlier kept ones, so it is constant on their face: its stage could
    neither enter a column nor move the point.
    """
    cost, a_ub, b_ub, _ = minimax_rows(rows, rhs)
    then = [(*(direction * x for x in c), 0) for c in basis.lex_costs]  # 0 for t'
    # `then` goes positionally: perfbench/tracer.py sizes this call by
    # binding its arguments to lp_min's old (cost, a_ub, b_ub, a_eq, b_eq).
    res = lp_min(cost, a_ub, b_ub, then)
    if res.status is not LpStatus.OPTIMAL:  # pragma: no cover
        raise InternalInconsistencyError("lex support LP must be solvable")
    return res.x[:-1]


def solve_general(
    basis: SubspaceBasis, profile: ComponentProfile | None, b: Vec, *,
    prepared: PreparedBasis | None = None,
) -> CoapproxOutcome:
    """Decide existence and compute best coapproximation(s) to b.

    At slack 0 (no mass of b on the zero set) the equality system decides.
    Otherwise the slack, in ints, is compared with delta0: below it nothing
    exists; above it the polytope holds a ball around the minimax optimizer,
    so it is full-dimensional, and only its witness (the lex-smallest point
    of the optimal face) is needed; at it the lex-largest point tells a point
    from a polytope.  Each search and the witness's vector run once per fiber.
    """
    pb = prepared_for(basis, prepared)
    if len(b) != basis.n:
        raise DimensionError("target length does not match ambient dimension")
    zden, z = scaled_ints([b[i] for i in pb.profile.zero_set])
    mass = sum(map(abs, z))
    if not mass:
        return solve_empty_zero_set(pb, b)
    fiber = pb.fiber(b)
    gap = mass * fiber.delta0.denominator - fiber.delta0.numerator * zden  # sign of slack - delta0
    if gap < 0:
        return NOT_EXISTS
    witness = fiber.lex(+1)
    if not gap and witness == fiber.lex(-1):
        return CoapproxOutcome(kind=OutcomeKind.UNIQUE, coefficients=witness, vector=fiber.vector)
    constraints = PolytopeConstraints(rows=pb.feasibility_rows, rhs=fiber.rhs, slack=Q(mass, zden))
    return CoapproxOutcome(kind=OutcomeKind.POLYTOPE, constraints=constraints, witness=witness,
                           vector=fiber.vector)


class ExistenceThreshold(NamedTuple):
    """Critical zero-set mass: targets on the fiber with less mass have
    no best coapproximation, with at least this much always do."""

    delta0: Q
    minimizing_alpha: Vec
    rho_mass: Q  # ||rho(b)||_1, the mass off the zero set: delta0 <= rho_mass


def existence_threshold(
    basis: SubspaceBasis, profile: ComponentProfile | None, b: Vec, *,
    prepared: PreparedBasis | None = None,
) -> ExistenceThreshold:
    """The ExistenceThreshold of b's fiber, one per fiber (pb.fiber)."""
    pb = prepared_for(basis, prepared)
    if len(b) != basis.n:
        raise DimensionError("target length does not match ambient dimension")
    if not pb.profile.zero_set:
        raise EmptyZeroSetError("threshold is defined only for non-empty zero sets")
    return pb.fiber(b).threshold


class Projection(NamedTuple):
    """The norm-one projection of span{b, Y} onto Y.

    Fixing Y pointwise and sending b to its best coapproximation
    determines the map: a + gamma*b goes to a + gamma*image_of_target.
    """

    basis: SubspaceBasis
    target: Vec
    alpha: Vec
    image_of_target: Vec


def projection_map(basis: SubspaceBasis, b: Vec, outcome: CoapproxOutcome) -> Projection:
    if outcome.kind is OutcomeKind.NOT_EXISTS:
        raise NoCoapproximationError("no best coapproximation, so no norm-one projection")
    return Projection(
        basis=basis, target=b, alpha=outcome.chosen_alpha, image_of_target=outcome.vector
    )

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
minimax LP, then A's rows as `then` costs over its optimal face, in one
tableau; none runs where the minimax LP proves the face one point.
delta0, its optimizer and the optimal face depend only on sigma(b), so
all targets on one fiber (same entries off Z, any mass on Z) share one
Fiber: its threshold, lex searches and witness vector; later new fibers
are read off the basis's circuits where they can be.  delta0 = 0 iff
K . sigma(b) = 0, K the class rows' left kernel (d - m vectors, none iff
coproximinal): alpha is then the class-sum solve, with no LP and no cell.
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
    ValidationError,
)
from .exact import (
    Mat,
    Q,
    SystemStatus,
    Vec,
    kernel_vectors,
    rank,  # unused here; perfbench/tracer.py wraps coapprox.solver.rank
    scaled_ints,
    solve_linear,
)
from .lp import LpStatus, lp_min, minimax_circuits, minimax_rows, solve_minimax_lp
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
    """PreparedBasis.fiber's record: key, threshold, lex; rhs(pb) and vector kept once read."""

    __slots__ = ("key", "threshold", "lex", "_basis", "_ints", "_bden", "_sums", "_rhs", "_vector")

    def __init__(self, key, threshold, lex, basis, ints, bden, sums):
        if threshold.delta0 > threshold.rho_mass:  # pragma: no cover
            raise InternalInconsistencyError("threshold exceeds the rho-mass upper bound")
        self.key, self.threshold, self.lex = key, threshold, lex
        self._basis, self._ints, self._bden, self._sums = basis, ints, bden, sums
        self._rhs = self._vector = None

    def rhs(self, pb: PreparedBasis) -> Vec:
        """Per cell of pb, its sign vector times sigma(b), kept once formed."""
        if self._rhs is None:  # the minimax LP formed the sums if it ran
            sums = self._sums or [sum(map(mul, x, self._ints)) for x in pb.sign_vectors]
            self._rhs = tuple(Q(s, self._bden) for s in sums)
        return self._rhs

    @property
    def vector(self) -> Vec:
        if self._vector is None:
            self._vector = self._basis.combine(self.lex(+1))
        return self._vector


class PreparedBasis:
    """A validated basis plus lazily-built analysis artifacts.

    Everything here depends only on the subspace (profile, reduction,
    arrangement, cells, norming set), so one instance can serve many
    targets; each artifact is built here, once, on first access.

    `q`, the class-sum rows and their left kernel come from the profile
    alone, and the class-sum solve answers every target with no zero-set
    mass and every fiber with delta0 = 0.  Elsewhere the minimax LP runs on
    one row per cell in ints, `feasibility_ints`, the cell's signed sum of
    the class rows, with its sign vector (`sign_vectors`) times sigma(b) as
    rhs.  `norming`, whose representatives are those vectors, is built for
    `norming-set`.  `fiber` keeps the last Fiber in one slot.
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
        norming = minimal_norming_set(self.cells, self.sign_vectors)
        if norming.span_dim != self.profile.d:
            raise InternalInconsistencyError("norming span dimension q != d")
        return norming

    @cached_property
    def member_signs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per class, its members (i, o_i), o_i = +-1 the sign of const_i."""
        return tuple(tuple((i, 1 if c.numerator > 0 else -1) for i, c in cls.members)
                     for cls in self.profile.classes)

    @cached_property
    def class_ints(self) -> tuple[int, list[list[int]]]:
        """(den, rows): class-sum rows / den over int_matrix's den, sum_{i in c} o_i A_i:
        (sum_{i in c} |const_i|) times the representative's row."""
        den, ints = self.basis.int_matrix
        return den, [[sum(o * ints[i][j] for i, o in members) for j in range(self.basis.m)]
                     for members in self.member_signs]

    def _class_solution(self, b: Vec) -> Vec | None:
        """The alpha at which every class sum of o_i (b - A alpha)_i vanishes, in ints (class_ints
        rows times b's den, b's class sums times theirs); None if none does.  Refused, as q is."""
        check_cell_capacity(self.profile.d, self.basis.m)
        (den, rows), (bden, ints) = self.class_ints, scaled_ints(b)
        res = solve_linear([[bden * x for x in row] for row in rows],
                           [den * sum(o * ints[i] for i, o in c) for c in self.member_signs])
        if res.status is SystemStatus.AFFINE_FAMILY:
            raise InternalInconsistencyError(
                "underdetermined system contradicts uniqueness on empty zero set")
        return res.solution  # None when inconsistent

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
    def coordinate_signs(self) -> tuple[tuple[int, int], ...]:
        """Per reduced coordinate i, (c, o_i): a per-class v lifts to v_c * o_i there."""
        return tuple((c, o) for _, c, o in sorted(
            (i, c, o) for c, members in enumerate(self.member_signs) for i, o in members))

    @cached_property
    def sign_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Per cell, its sign vector x off the zero set, the reduced basis's norming
        vector: its class signs lifted.  x . sigma(b) is the cell's right-hand side."""
        return tuple(tuple([o * cell.signs[c] for c, o in self.coordinate_signs])
                     for cell in self.cells)

    @cached_property
    def class_kernel(self) -> tuple[tuple[int, ...], ...]:
        """K, an int basis of the class rows' left kernel lifted: d - m vectors, none iff
        coproximinal (d = m: the rows have rank m, so no elimination).  delta0(b) = 0 iff b's
        class sums lie in the rows' column space (the cell signs span R^d), iff K . sigma(b) = 0."""
        return () if self.profile.d == self.basis.m else tuple(
            tuple([k[c] * o for c, o in self.coordinate_signs]) for k in kernel_vectors(
                [list(col) for col in zip(*self.class_ints[1])], self.profile.d))

    @cached_property
    def circuits(self) -> tuple | None:
        """minimax_circuits(feasibility_ints): (rows, circuits), None over the cap."""
        return minimax_circuits(self.feasibility_ints[1])

    @cached_property
    def feasibility_rows(self) -> Mat:
        """feasibility_ints as Fractions, which outcomes and reports read."""
        den, rows = self.feasibility_ints
        return tuple(tuple(Q(x, den) for x in row) for row in rows)

    def fiber(self, b: Vec) -> Fiber:
        """b's Fiber, kept in one slot until another fiber replaces it.  Where
        K . sigma(b) = 0 (K = class_kernel, empty if coproximinal) every cell's
        sum vanishes at the class-sum solve: alpha at delta0 = 0, no LP, no cell.
        Elsewhere delta0 > 0 is the minimax LP |sums - rows.x| <= t in ints,
        x = (bden/den) alpha, a positive rescaling that moves no pivot, sums per
        cell its sign vector times sigma(b) * bden; circuits first, once the slot
        holds a fiber that ran this solve, whose tables give x with no
        elimination.  lex(direction) is the lex-extreme point of the optimal
        face: alpha on a face certified one point, by t = 0 (the class rows
        have rank m) or m + 1 nonzero multipliers (a circuit's, or an LP's
        nonbasic slacks' positive reduced costs: every free variable is basic,
        Mangasarian 1979), else searched on first call."""
        key, slot = self.reduced.sigma(b), self._fiber
        if slot is not None and slot.key == key:
            return slot
        (bden, ints), basis, sums, lex = scaled_ints(key), self.basis, None, None
        if not any(sum(map(mul, k, ints)) for k in self.class_kernel):
            t, alpha = Q(0), self._class_solution(b)
        else:
            den, rows = self.feasibility_ints
            sums = [sum(map(mul, x, ints)) for x in self.sign_vectors]
            ran = slot is not None and slot._sums is not None  # sums are formed for the LP alone
            t, x, lam = solve_minimax_lp(rows, sums, circuits=self.circuits if ran else None)
            to_alpha = lambda x: x if den == bden else tuple(
                [Q(den * v.numerator, bden * v.denominator) for v in x])
            alpha = to_alpha(x)
            if len(lam) - lam.count(0) <= basis.m:  # uncertified: searched on first call
                lex = cache(lambda d: to_alpha(lex_extreme_alpha(basis, rows, sums, d)))
            t = t if bden == 1 else Q(t.numerator, t.denominator * bden)
        # A new fiber replaces the slot in one assignment.
        self._fiber = Fiber(key, ExistenceThreshold(t, alpha, Q(sum(map(abs, ints)), bden)),
                            lex or (lambda d: alpha), basis, ints, bden, sums)
        return self._fiber


def prepare(basis: SubspaceBasis) -> PreparedBasis:
    return PreparedBasis(basis)


def prepared_for(basis: SubspaceBasis, prepared: PreparedBasis | None) -> PreparedBasis:
    """`prepared`, or a fresh prepare(basis); refused if built for another basis.
    Records are tuples, so a plain tuple could equal a SubspaceBasis: refused first."""
    if not isinstance(basis, SubspaceBasis):
        raise ValidationError(f"basis must be a SubspaceBasis, not {type(basis).__name__}")
    if prepared is None:
        return prepare(basis)
    if not isinstance(prepared, PreparedBasis):
        raise ValidationError(f"prepared must be a PreparedBasis, not {type(prepared).__name__}")
    if prepared.basis is not basis and prepared.basis != basis:  # identity first, the common case
        raise DimensionError("prepared basis does not match the basis")
    return prepared


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
    alpha = pb._class_solution(b)
    if alpha is None:
        return NOT_EXISTS
    return CoapproxOutcome(OutcomeKind.UNIQUE, alpha, pb.basis.combine(alpha))


def lex_extreme_alpha(basis: SubspaceBasis, rows: Mat, rhs: Vec, direction: int) -> Vec:
    """The lexicographically extreme point of the minimax LP's optimal face
    {x : |rows.x - rhs| <= t*}: one LP, the minimax LP (minimax_rows), then
    direction * (row i of A) . x as `then` costs for the rows of A in
    coordinate order, each over the optimal face of those before it, so
    the last face is one point.  The order is thus taken on the subspace
    element A.x (direction +1 minimizes, -1 maximizes), a property of the
    subspace and target alone.  A row in the span of earlier rows is
    constant on their face, so its stage enters no column.
    """
    cost, a_ub, b_ub, _ = minimax_rows(rows, rhs)
    then = [(*(direction * x for x in c), 0) for c in basis.int_rows]  # 0 for t'
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
    delta0 = fiber.threshold.delta0
    gap = mass * delta0.denominator - delta0.numerator * zden  # sign of slack - delta0
    if gap < 0:
        return NOT_EXISTS
    witness = fiber.lex(+1)
    if not gap and witness == fiber.lex(-1):
        return CoapproxOutcome(kind=OutcomeKind.UNIQUE, coefficients=witness, vector=fiber.vector)
    constraints = PolytopeConstraints(pb.feasibility_rows, fiber.rhs(pb), Q(mass, zden))
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

    The subspace admits a best coapproximation for every target exactly
    when the span of its (reduced) norming set has dimension m, and
    solutions are always unique exactly when in addition the zero set is
    empty: any zero coordinate lets targets supported there have either no
    solution or a whole polytope of them.  That span dimension q always
    equals d, the number of component classes, so the row profile alone
    decides, with no sign cell and no LP: coproximinal iff d == m.

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

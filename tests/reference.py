"""What the tests share and no program path runs: the paper's literal
construction the class-sum rows are checked against (`system_rows`), the
class-sum route to a fiber's right-hand side (`class_sum_fiber`),
conveniences on the library's objects as plain functions, basis changes
for the invariance checks, criterion 5's seeded stream
(`criterion_5_stream`), and test helpers (`general_lp_min`, the
rank-loop lex search `reference_lex_extreme_alpha`, the lex search over
the m independent rows of A alone `independent_rows_lex_extreme_alpha`,
the LP prefix-tree cell enumerator that `enumerate_cells` replaced, the
dot-product kernel that `norming.half_cells` replaced, and the breakpoint
test that 0 minimizes t -> ||y + t*z||_1)."""
from __future__ import annotations

import random
from fractions import Fraction as Q
from operator import add, mul, sub

from coapprox import DimensionError, lp, mat, validate_basis
from coapprox.exact import (
    Mat, SystemStatus, Vec, first_basis, primitive_ints, rank, scaled_ints, solve_linear)
from coapprox.instances import random_basis, random_vector
from coapprox.lp import LpResult, LpStatus, lp_min, solve_minimax_lp
from coapprox.norming import SignVec
from coapprox.solver import PolytopeConstraints, PreparedBasis, Projection, lex_extreme_alpha
from coapprox.subspace import ComponentProfile, ReducedInstance, SubspaceBasis


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Q, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def columns(basis: SubspaceBasis) -> tuple[Vec, ...]:
    return tuple(zip(*basis.matrix))


def partition(profile: ComponentProfile) -> frozenset[frozenset[int]]:
    """The class structure as a bare partition, for invariance checks."""
    return frozenset(
        frozenset(coord for coord, _ in cls.members) for cls in profile.classes
    )


def lift(reduced: ReducedInstance, w: Vec) -> Vec:
    """Embed a reduced vector back into l1^n with zeros on the zero set."""
    if len(w) != len(reduced.kept_indices):
        raise DimensionError("lift expects a reduced-length vector")
    out = [Q(0)] * reduced.original_n
    for pos, i in enumerate(reduced.kept_indices):
        out[i] = w[pos]
    return tuple(out)


def apply_rho(v: Vec, profile: ComponentProfile) -> Vec:
    """Zero exactly the zero-set coordinates of v."""
    zero = set(profile.zero_set)
    return tuple(Q(0) if i in zero else x for i, x in enumerate(v))


def norming_dot(x: SignVec, v: Vec) -> Q:
    """Pairing of a sign vector with a rational vector: a signed sum."""
    return sum((vi if s > 0 else -vi for s, vi in zip(x, v, strict=True) if s), Q(0))


def pairs(representatives) -> frozenset[frozenset[SignVec]]:
    """Basis-invariant view of a norming set: the set of antipodal pairs."""
    return frozenset(
        frozenset({x, tuple(-v for v in x)}) for x in representatives
    )


def system_rows(pb: PreparedBasis) -> Mat:
    """Equality rows, one per system-basis sign vector: the paper's
    assembled system, built literally from the reduced columns.  Reduced
    coordinates (identical to ambient ones when the zero set is empty);
    same for system_rhs.
    """
    cols = columns(pb.reduced.basis)
    return tuple(
        tuple(norming_dot(x, col) for col in cols)
        for x in pb.norming.system_basis
    )


def system_rhs(pb: PreparedBasis, b_reduced: Vec) -> Vec:
    return tuple(norming_dot(x, b_reduced) for x in pb.norming.system_basis)


def class_sums(pb: PreparedBasis, b: Vec) -> tuple[int, list[int]]:
    """(den, sums): per class c, sum_{i in c} o_i b_i is its sum / den,
    o_i the sign of coordinate i's constant."""
    den, ints = scaled_ints(b)
    return den, [sum(ints[i] if c > 0 else -ints[i] for i, c in cls.members)
                 for cls in pb.profile.classes]


def feasibility_rhs(pb: PreparedBasis, b: Vec) -> Vec:
    """x . sigma(b) per cell, as feasibility_rows: sum_c s_c * (class sum c)."""
    den, sums = class_sums(pb, b)
    return tuple(Q(sum(map(mul, cell.signs, sums)), den) for cell in pb.cells)


def class_sum_fiber(pb: PreparedBasis, b: Vec) -> tuple:
    """(rhs, delta0, alpha, {direction: lex point}) of b's fiber by the
    class-sum route: per class c the sum of o_i b_i over its members, then
    per cell the sum of those signed by the cell's class signs.  The
    minimax LP and both lex searches run on those sums (the searches
    whether or not the face is certified one point)."""
    den, rows = pb.feasibility_ints
    bden, by_class = class_sums(pb, b)
    sums = [sum(map(mul, cell.signs, by_class)) for cell in pb.cells]
    t, x, _ = solve_minimax_lp(rows, sums)
    scale = Q(den, bden)
    lex = {d: tuple(v * scale for v in lex_extreme_alpha(pb.basis, rows, sums, d)) for d in (1, -1)}
    return tuple(Q(s, bden) for s in sums), t / bden, tuple(v * scale for v in x), lex


def criterion_5_stream(count: int):
    """The first `count` (basis, target) pairs of criterion 5's seeded
    stream, each instance drawn in one order: n, m, zero rows, basis, target."""
    rng = random.Random(505)
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = random_basis(rng, n, m, zero_rows=zero_rows)
        yield basis, random_vector(rng, n)


def satisfied_by(constraints: PolytopeConstraints, alpha: Vec) -> bool:
    return all(
        abs(sum((r[j] * alpha[j] for j in range(len(alpha))), Q(0)) - b) <= constraints.slack
        for r, b in zip(constraints.rows, constraints.rhs)
    )


def apply_projection(proj: Projection, coeffs: Vec, gamma: Q) -> Vec:
    """The norm-one projection at a + gamma*b, a given by subspace coefficients."""
    return vec_add(proj.basis.combine(coeffs), vec_scale(Q(gamma), proj.image_of_target))


def input_vector(proj: Projection, coeffs: Vec, gamma: Q) -> Vec:
    return vec_add(proj.basis.combine(coeffs), vec_scale(Q(gamma), proj.target))


def random_invertible(rng: random.Random, m: int, lo: int = -3, hi: int = 3) -> Mat:
    """Random invertible m x m rational matrix (integer entries)."""
    while True:
        c = tuple(tuple(Q(rng.randint(lo, hi)) for _ in range(m)) for _ in range(m))
        if rank(c) == m:
            return c


def recombine(basis: SubspaceBasis, c: Mat) -> SubspaceBasis:
    """Change of basis: new column j is sum_k c[k][j] * (old column k)."""
    m = basis.m
    new_matrix = tuple(
        tuple(
            sum((row[k] * c[k][j] for k in range(m)), Q(0)) for j in range(m)
        )
        for row in basis.matrix
    )
    return validate_basis(new_matrix)


def column_basis(*columns):
    """Basis from spanning vectors (each a full ambient-length tuple)."""
    return validate_basis(mat(zip(*columns)))


def dot(c, x):
    return sum((a * b for a, b in zip(c, x)), Q(0))


# The status of an LP that no x satisfies; lp_min, which starts at the
# feasible origin, never returns it.
INFEASIBLE = "infeasible"


def general_lp_min(cost, a_ub, b_ub, then=()):
    """lp_min on any rhs, as an LpResult whose status is INFEASIBLE where
    no x satisfies a_ub . x <= b_ub.

    Phase 1 is an auxiliary LP: minimize s subject to a . x - s <= b and
    -s <= 0, posed at its feasible point x = 0, s = top = max(0, -b) by
    the shift s = top + s', so lp_min takes it.  From the x0 it finds,
    the LP itself is solved in y = x - x0, where every rhs b - a . x0 is
    >= 0.
    """
    n = len(cost)
    top = max((0, *(-b for b in b_ub)))
    aux = lp_min(
        (0,) * n + (1,),
        tuple((*r, -1) for r in a_ub) + ((0,) * n + (-1,),),
        tuple(b + top for b in b_ub) + (top,),
    )
    if top + aux.value > 0:
        return LpResult(INFEASIBLE, None, None)
    x0 = aux.x[:n]
    res = lp_min(cost, a_ub, tuple(b - dot(r, x0) for r, b in zip(a_ub, b_ub)), then)
    if res.status is not LpStatus.OPTIMAL:
        return res
    x = tuple(a + y for a, y in zip(x0, res.x))
    return LpResult(LpStatus.OPTIMAL, x, dot(cost, x))


def reference_lex_extreme_alpha(basis, constraints, direction):
    """The lexicographically extreme point of `constraints` (at any slack)
    in A.alpha order, as the lex search found it before pinned rows came
    from one elimination: a rank test per row of A, an LP per kept row
    with the rows before it pinned, then a closing solve on those rows."""
    a_ub, b_ub = [], []
    for row, rv in zip(constraints.rows, constraints.rhs):
        a_ub += [row, tuple(-x for x in row)]
        b_ub += [rv + constraints.slack, constraints.slack - rv]
    pinned, values = [], []
    for arow in basis.matrix:
        if not any(arow) or rank(pinned + [arow]) == len(pinned):
            continue
        cost = tuple(Q(direction) * x for x in arow)
        # Each pinned row r . alpha == v as the pair r . alpha <= v, -r . alpha <= -v.
        pin_a = [tuple(s * x for x in r) for r in pinned for s in (1, -1)]
        pin_b = [s * v for v in values for s in (1, -1)]
        res = general_lp_min(cost, tuple(a_ub + pin_a), tuple(b_ub + pin_b))
        assert res.status is LpStatus.OPTIMAL
        pinned.append(arow)
        values.append(sum((ar * x for ar, x in zip(arow, res.x)), Q(0)))
        if len(pinned) == basis.m:
            break
    res = solve_linear(tuple(pinned), tuple(values))
    assert res.status is SystemStatus.UNIQUE
    return res.solution


def independent_rows(basis: SubspaceBasis) -> tuple[tuple[int, ...], ...]:
    """The m int rows of A that greedy in-order independence keeps."""
    return tuple(basis.int_rows[i] for i in first_basis(basis.int_rows))


def independent_rows_lex_extreme_alpha(basis, rows, rhs, direction):
    """lex_extreme_alpha with `then` costs on independent_rows(basis) alone,
    in order, where the library passes all n rows of A."""
    cost, a_ub, b_ub, _ = lp.minimax_rows(rows, rhs)
    then = [(*(direction * x for x in row), 0) for row in independent_rows(basis)]
    res = lp_min(cost, a_ub, b_ub, then)
    assert res.status is LpStatus.OPTIMAL
    return res.x[:-1]


# Zero-set instances (basis rows, target) whose optimal face at slack =
# delta0 is a polytope.  Random draws rarely give one (about 1 in 200
# with entries in [-1, 1]), so transformed copies of these seed the case.
FACE_POLYTOPES = (
    (((1, -1, 0), (0, -1, 0), (0, 0, 0), (0, 1, -1), (-1, -1, -1)),
     (0, -1, Q(2, 3), 1, 0)),
    (((0, 0, 0), (0, 0, 0), (0, 1, -1), (1, -1, -1), (-1, 0, 1), (1, -1, -1), (1, 1, 0)),
     (Q(2, 3), 0, -1, 0, -1, 1, 1)),
)


# The LP prefix-tree enumerator that `enumerate_cells` replaced, kept as
# the differential reference: depth first, +1 before -1, a prefix pruned
# as soon as its max-min-margin LP reads <= 0, and each leaf's LP
# optimizer kept as the witness.


def max_min_margin(normals, signs, m):
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
    res = lp.lp_max((Q(0),) * m + (Q(1),), tuple(a_ub), tuple(b_ub))
    assert res.status is lp.LpStatus.OPTIMAL
    return res.value, res.x[:m]


def lp_prefix_tree_cells(arr):
    cells = []
    stack = [[1]]
    while stack:
        signs = stack.pop()
        margin, beta = max_min_margin(arr.normals[: len(signs)], signs, arr.m)
        if margin <= 0:
            continue
        if len(signs) == arr.r:
            cells.append((tuple(signs), beta))
        else:
            stack += (signs + [-1], signs + [1])
    return cells


# The deletion-restriction kernel before `norming.half_cells` read a lifted
# cell's signs off its restricted cell: each lifted point's signs on the
# earlier planes come from fresh dot products.  Kept verbatim as the
# reference the kernel must match cell for cell, witnesses and order included.


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def dot_product_half_cells(normals: list[tuple[int, ...]], m: int) -> list[tuple[SignVec, tuple]]:
    """Open cells of pairwise non-proportional nonzero int normals in
    Z^m, those with sign +1 on normals[0] (one per antipodal pair), each
    with an int point strictly inside.

    Deletion-restriction: H_k cuts exactly the cells whose signs are
    topes of the restriction {H_j cap H_k : j < k}, an arrangement in
    R^(m-1) enumerated recursively in the int kernel basis
    h_p.e_j - h_j.e_p of H_k.  A cut cell with interior point x on H_k
    becomes K.x + h and K.x - h, K = 1 + max_j |n_j . h|: since
    |n_j . x| >= 1, the earlier signs survive.  An uncut cell keeps its
    point w and takes the sign of h . w, which is nonzero.  The
    restriction has fewer hyperplanes in a lower dimension, so its cells
    stay within the caller's cell_pair_bound.
    """
    if not normals:
        return [((), (0,) * m)]
    cells = [((1,), normals[0])]
    for k in range(1, len(normals)):
        h, earlier = normals[k], normals[:k]
        p = next(j for j, x in enumerate(h) if x)
        others = [j for j in range(m) if j != p]
        restricted = [tuple(h[p] * n[j] - h[j] * n[p] for j in others) for n in earlier]
        cut = {}
        if all(map(any, restricted)):  # else H_k repeats an earlier plane
            canon = (tuple(primitive_ints(v)) for v in restricted)
            distinct = list(dict.fromkeys(max(v, tuple(-x for x in v)) for v in canon))
            scale = 1 + max(abs(_dot(n, h)) for n in earlier)
            for _, y in dot_product_half_cells(distinct, m - 1):
                x = [0] * m
                for j, yj in zip(others, y):
                    x[j] = h[p] * yj
                x[p] = -_dot((h[j] for j in others), y)
                if _dot(earlier[0], x) < 0:
                    x = [-xj for xj in x]
                signs = tuple(1 if _dot(n, x) > 0 else -1 for n in earlier)
                cut[signs] = tuple(scale * xj for xj in x)
        grown = []
        for signs, w in cells:
            x = cut.get(signs)
            if x is None:
                grown.append((signs + (1 if _dot(h, w) > 0 else -1,), w))
            else:
                grown.append((signs + (1,), tuple(map(add, x, h))))
                grown.append((signs + (-1,), tuple(map(sub, x, h))))
        cells = grown
    return cells


def zero_minimizes_l1(y, z) -> bool:
    """Whether 0 minimizes the convex, piecewise linear f(t) = ||y + t*z||_1:
    iff f(0) <= f(t) at every breakpoint t = -y_i/z_i."""
    def f(t):
        return sum(abs(a + t * b) for a, b in zip(y, z))
    return all(f(0) <= f(-Q(a) / b) for a, b in zip(y, z) if b)

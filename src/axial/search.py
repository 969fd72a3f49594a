"""Escalating axis searches: naive, length-restricted, and 0-eigenspace based.

The naive route turns u*u = u into a quadratic system over the coordinates of
a chosen subspace and hands it to the Groebner engine.  When the algebra has
a unit and a form, a prescribed idempotent length r enters as the linear
equation (1, u) = r, which is what makes the search usable well past toy
dimensions.  The nuanced route runs the naive search inside the principal
eigenspace of a + z for idempotents z of the 0-eigenspace subalgebra, one
candidate output of the two-generated classification at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from axial._backend import kernels
from axial.algebra import Algebra, IntegerAdjoint, MissingFormError, integer_product
from axial.fusion import (
    Axis,
    FusionLaw,
    MONSTER_QUARTER,
    NS_UNIT_LENGTHS,
    ONE,
    check_axis,
)
from axial.groebner import (
    DEFAULT_CAPS,
    POSITIVE_DIMENSIONAL,
    PackedPolys,
    SolveResult,
    SolverCaps,
    buchberger,
    enumerate_points,
)
from axial.linalg import (
    Subspace,
    Vec,
    apply_columns,
    combination,
    frac,
    integer_point,
    unit_vec,
    vadd,
    zero_vec,
)
from axial.mpoly import MPoly

# Allowed (z, z) values for the Monster (1/4, 1/32) pair classification: the
# identity length of each two-generated algebra minus the axis length 1.
Z_LENGTHS: tuple[Fraction, ...] = tuple(u - 1 for u in NS_UNIT_LENGTHS.values())

# A positive-dimensional branch is retried with the determinant relation of
# each of these eigenvalues whose eigenspace has at most DETERMINANT_DIM_CAP
# dimensions; the symbolic determinant grows factorially beyond that.
DETERMINANT_EIGENVALUES: tuple[Fraction, ...] = (Fraction(1, 32),)
DETERMINANT_DIM_CAP = 8


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the nuanced axis search.

    `z_lengths` defaults to the allowed (z, z) values of the Monster
    (1/4, 1/32) pair classification; None enumerates the idempotents of the
    0-eigenspace without a length cut (viable when that subalgebra is small).
    """

    target_law: FusionLaw = MONSTER_QUARTER
    length: Optional[Fraction] = Fraction(1)
    z_lengths: Optional[tuple[Fraction, ...]] = Z_LENGTHS
    caps: SolverCaps = DEFAULT_CAPS


def symbolic_coordinates(
    alg: Algebra, basis: Sequence[Vec], offset: Optional[Vec] = None
) -> list[MPoly]:
    """Ambient coordinates of u = offset + sum x_i b_i as polynomials."""
    nvars = len(basis)
    coords = [MPoly.zero(nvars) for _ in range(alg.dim)]
    if offset is not None:
        for k, c in enumerate(offset):
            if c:
                coords[k] = coords[k] + MPoly.const(nvars, c)
    for i, b in enumerate(basis):
        x = MPoly.var(nvars, i)
        for k, c in enumerate(b):
            if c:
                coords[k] = coords[k] + x.scale(c)
    return coords


def _variables(nvars: int) -> list[int]:
    """The packed exponents of x_0, ..., x_{nvars - 1}."""
    return [kernels.pack(tuple(int(j == i) for j in range(nvars))) for i in range(nvars)]


def idempotent_system(
    alg: Algebra, basis: Sequence[Vec], offset: Optional[Vec] = None
) -> PackedPolys:
    """The coordinate equations of u^2 = u over basis coordinates (+ offset).

    For u = offset + sum x_i b_i, u^2 - u has constant part offset^2 - offset,
    x_i part 2 offset b_i - b_i and x_i x_j part b_i b_j, doubled for i != j.
    Each vector is cleared to its `Point` once, and each product, the
    `integer_product` of two points, is read once into one integer row per
    coordinate, over D m^2 for D the `integer_table` denominator and m the
    lcm of the points' denominators.
    """
    nvars = len(basis)
    vectors = list(zip(_variables(nvars), map(integer_point, basis)))
    if offset is not None:
        vectors.insert(0, (0, integer_point(offset)))
    ints = alg.integer_table()
    m = lcm(*(d for _, (d, _) in vectors))
    rows: list[dict[int, int]] = [{} for _ in range(alg.dim)]
    for a, (x, (dx, p)) in enumerate(vectors):
        for b, (y, (dy, q)) in enumerate(vectors[a:], a):
            exp, weight = x + y, (m // dx) * (m // dy) * (1 if a == b else 2)
            for k, c in integer_product(ints.table, p, q).items():
                if c:
                    rows[k][exp] = rows[k].get(exp, 0) + c * weight
    for x, (d, p) in vectors:
        weight = (m // d) * m * ints.denom
        for k, c in p:
            rows[k][x] = rows[k].get(x, 0) - c * weight
    scales = []
    for k, row in enumerate(rows):
        content = gcd(*row.values())
        rows[k] = {e: c // content for e, c in row.items() if c}
        scales.append(Fraction(content, ints.denom * m * m))
    return PackedPolys(nvars, rows, scales)


def length_equation(
    alg: Algebra, basis: Sequence[Vec], length, offset: Optional[Vec] = None
) -> PackedPolys:
    """(u, u) = r as an equation, a one-element `PackedPolys`: linear via the
    unit when available.

    For idempotents (u, u) equals (1, u), so with a unit the constraint is the
    linear polynomial (1, u) - r; without one it falls back to the quadratic
    (u, u) - r.  Both need the Frobenius form.  Each vector is cleared to its
    `Point` once, and the `integer_gram` columns are applied once to each
    vector the form reads them against.
    """
    if alg.gram is None:
        raise MissingFormError("length constraints need the Frobenius form")
    r = frac(length)
    nvars = len(basis)
    gram = alg.integer_gram()

    def image(point):
        d, x = point
        return d * gram.denom, apply_columns(gram.cols, x)

    def value(point, gy):
        (d, x), (e, y) = point, gy
        return Fraction(sum(c * y.get(i, 0) for i, c in x), d * e)

    units = _variables(nvars)
    points = [integer_point(b) for b in basis]
    shift = None if offset is None else integer_point(offset)
    one = alg.find_unit()
    if one is not None:
        g_one = image(integer_point(one))
        terms = {0: (0 if shift is None else value(shift, g_one)) - r}
        for x, point in zip(units, points):
            terms[x] = value(point, g_one)
    else:
        images = [image(point) for point in points]
        terms = {0: (0 if shift is None else value(shift, image(shift))) - r}
        for i, x in enumerate(units):
            if shift is not None:
                terms[x] = 2 * value(shift, images[i])
            for j in range(i, nvars):
                terms[x + units[j]] = value(points[i], images[j]) * (1 if i == j else 2)
    return PackedPolys.from_terms(nvars, [{e: c for e, c in terms.items() if c}])


def _points_to_vectors(
    points: Sequence, basis: Sequence[Vec], dim: int, offset: Optional[Vec] = None
) -> list[Vec]:
    # Distinct points on an independent basis give distinct vectors.
    out = []
    for point in points:
        v = combination(point, basis, dim)
        out.append(v if offset is None else vadd(offset, v))
    return sorted(out)


def naive_idempotents(
    alg: Algebra,
    subspace: Optional[Subspace] = None,
    length=None,
    caps: SolverCaps = DEFAULT_CAPS,
    extra_equations: Sequence[MPoly] = (),
    offset: Optional[Vec] = None,
) -> SolveResult:
    """All idempotents of the algebra (or a subspace, or an affine coset of
    one when `offset` is given), optionally of a prescribed length.

    The returned points are ambient coordinate vectors.  Solver status is
    passed through; a positive-dimensional variety keeps its basis attached
    so the caller can add relations and retry.
    """
    if subspace is None:
        basis: Sequence[Vec] = [unit_vec(alg.dim, i) for i in range(alg.dim)]
    else:
        basis = subspace.basis
    if not basis:
        candidate = zero_vec(alg.dim) if offset is None else offset
        if alg.product(candidate, candidate) != candidate:
            return SolveResult("finite", [])
        if length is not None and alg.length(candidate) != frac(length):
            return SolveResult("finite", [])
        return SolveResult("finite", [candidate])
    gens = idempotent_system(alg, basis, offset)
    if length is not None:
        gens += length_equation(alg, basis, length, offset)
    gens += extra_equations
    if not any(gens.rows):
        # every vector of the coset is idempotent: positive-dimensional
        return SolveResult(POSITIVE_DIMENSIONAL)
    result = enumerate_points(buchberger(gens, caps))
    if subspace is not None or offset is not None:  # else they are the vectors
        result.points = _points_to_vectors(result.points, basis, alg.dim, offset)
    return result


def axes_from_idempotents(alg: Algebra, result: SolveResult, law: FusionLaw) -> list[Axis]:
    """Filter the rational points of a solve through the axis certificate."""
    axes = []
    for v in result.points:
        axis = check_axis(alg, v, law)
        if axis is not None:
            axes.append(axis)
    return axes


def determinant_relation(
    alg: Algebra,
    z_symbolic: Sequence[MPoly],
    w_basis: Subspace,
    lam,
) -> MPoly:
    """det(ad_z|_W - (1 - lambda) Id) as a polynomial in the unknowns of z.

    Requires W invariant under multiplication by the space z ranges over
    (guaranteed for eigenspaces of a Seress axis).  Rejects lambda = 1, where
    the relation is trivially zero, and a W of more than DETERMINANT_DIM_CAP
    dimensions.
    """
    lam = frac(lam)
    if lam == 1:
        raise ValueError("the relation is trivial for eigenvalue 1")
    m = w_basis.dim
    if m == 0:
        raise ValueError("empty eigenspace")
    if m > DETERMINANT_DIM_CAP:
        raise ValueError(f"eigenspace dimension {m} exceeds the symbolic cap {DETERMINANT_DIM_CAP}")
    nvars = z_symbolic[0].nvars
    used = [k for k, coeff in enumerate(z_symbolic) if not coeff.is_zero()]
    table = alg.products_in([unit_vec(alg.dim, k) for k in used], w_basis.basis, w_basis)
    if table is None:
        raise ValueError("subspace is not invariant under the action")
    entries = [[MPoly.zero(nvars) for _ in range(m)] for _ in range(m)]
    for k, row in zip(used, table):
        for j, coords in enumerate(row):
            for t, c in enumerate(coords):
                if c:
                    entries[t][j] = entries[t][j] + z_symbolic[k].scale(c)
    shift = 1 - lam
    for t in range(m):
        entries[t][t] = entries[t][t] - MPoly.const(nvars, shift)
    return _symbolic_det(entries)


def _symbolic_det(entries: list[list[MPoly]]) -> MPoly:
    m = len(entries)
    if m == 1:
        return entries[0][0]
    nvars = entries[0][0].nvars
    total = MPoly.zero(nvars)
    for j in range(m):
        factor = entries[0][j]
        if factor.is_zero():
            continue
        minor = [
            [entries[r][c] for c in range(m) if c != j] for r in range(1, m)
        ]
        term = factor * _symbolic_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@dataclass
class NuancedSearchResult:
    """Axes found by the 0-eigenspace method plus unresolved branches.

    Each unresolved entry carries the Groebner basis of a branch that stayed
    positive-dimensional so the caller can inject further relations.
    """

    axes: list[Axis]
    unresolved: list[dict] = field(default_factory=list)


def nuanced_axes(alg: Algebra, a: Axis, cfg: SearchConfig = SearchConfig()) -> NuancedSearchResult:
    """Find axes through idempotents of the 0-eigenspace subalgebra.

    For each allowed length r the idempotents z of A_0(a) with (z, z) = r are
    enumerated; each candidate two-generated subalgebra is the principal
    eigenspace of a + z, where a length-1 search plus the axis certificate
    yields the new axes.  Branches that stay positive-dimensional after the
    determinant relations are reported, not dropped silently.
    """
    if not a.law.is_seress():
        raise ValueError("the nuanced search needs a Seress fusion law")
    alg.require_unit()
    if alg.gram is None:
        raise MissingFormError("the nuanced search needs the Frobenius form")
    u_space = a.eigenspace(0)
    found: dict[Vec, Axis] = {a.vector: a}
    unresolved: list[dict] = []

    z_candidates: list[Vec] = [zero_vec(alg.dim)]
    z_length_list: list = [None] if cfg.z_lengths is None else list(cfg.z_lengths)
    for r in z_length_list:
        result = naive_idempotents(alg, subspace=u_space, length=r, caps=cfg.caps)
        if result.status == POSITIVE_DIMENSIONAL:
            result = _retry_with_determinant(alg, a, u_space, r, cfg)
        if result.status == POSITIVE_DIMENSIONAL:
            unresolved.append({"z_length": r, "basis": result.basis})
            continue
        z_candidates.extend(result.points)

    seen_z = set()
    for z in z_candidates:
        if z in seen_z:
            continue
        seen_z.add(z)
        b_space = IntegerAdjoint(alg, vadd(a.vector, z), (ONE,)).eigenspace(ONE)
        if b_space.is_zero():
            continue
        result = naive_idempotents(alg, subspace=b_space, length=cfg.length, caps=cfg.caps)
        if result.status == POSITIVE_DIMENSIONAL:
            unresolved.append({"z": z, "basis": result.basis})
            continue
        for axis in axes_from_idempotents(alg, result, cfg.target_law):
            found.setdefault(axis.vector, axis)
    return NuancedSearchResult(sorted(found.values(), key=lambda ax: ax.vector), unresolved)


def _retry_with_determinant(alg, a: Axis, u_space: Subspace, r, cfg: SearchConfig) -> SolveResult:
    basis = u_space.basis
    z_symbolic = symbolic_coordinates(alg, basis)
    extra = []
    for lam in DETERMINANT_EIGENVALUES:
        w = a.eigenspace(lam)
        if w.is_zero() or w.dim > DETERMINANT_DIM_CAP:
            continue
        extra.append(determinant_relation(alg, z_symbolic, w, lam))
    if not extra:
        return SolveResult(POSITIVE_DIMENSIONAL)
    return naive_idempotents(
        alg, subspace=u_space, length=r, caps=cfg.caps, extra_equations=extra
    )

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
from typing import Optional, Sequence

from axial.algebra import Algebra, MissingFormError
from axial.fusion import Axis, FusionLaw, MONSTER_QUARTER, check_axis
from axial.groebner import (
    DEFAULT_CAPS,
    POSITIVE_DIMENSIONAL,
    SolveResult,
    SolverCaps,
    buchberger,
    enumerate_points,
)
from axial.linalg import (
    Subspace,
    Vec,
    eigenspace,
    frac,
    unit_vec,
    vadd,
    vscale,
    zero_vec,
)
from axial.mpoly import MPoly

# Allowed (z, z) values for the Monster (1/4, 1/32) pair classification: the
# identity length of each two-generated algebra minus the axis length 1.
Z_LENGTHS: tuple[Fraction, ...] = (
    Fraction(7, 5),
    Fraction(1),
    Fraction(81, 35),
    Fraction(21, 11),
    Fraction(3),
    Fraction(14, 5),
    Fraction(25, 7),
    Fraction(41, 10),
)

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


def symbolic_square(
    alg: Algebra, basis: Sequence[Vec], offset: Optional[Vec] = None
) -> list[MPoly]:
    """Ambient coordinates of (offset + sum x_i b_i)^2."""
    nvars = len(basis)
    coords = [MPoly.zero(nvars) for _ in range(alg.dim)]
    if offset is not None:
        for k, c in enumerate(alg.product(offset, offset)):
            if c:
                coords[k] = coords[k] + MPoly.const(nvars, c)
        for i in range(nvars):
            cross = alg.product(offset, basis[i])
            x = MPoly.var(nvars, i)
            for k, c in enumerate(cross):
                if c:
                    coords[k] = coords[k] + x.scale(2 * c)
    for i in range(nvars):
        for j in range(i, nvars):
            p = alg.product(basis[i], basis[j])
            factor = MPoly.var(nvars, i) * MPoly.var(nvars, j)
            if i != j:
                factor = factor.scale(2)
            for k, c in enumerate(p):
                if c:
                    coords[k] = coords[k] + factor.scale(c)
    return coords


def idempotent_system(
    alg: Algebra, basis: Sequence[Vec], offset: Optional[Vec] = None
) -> list[MPoly]:
    """The coordinate equations of u^2 = u over basis coordinates (+ offset)."""
    square = symbolic_square(alg, basis, offset)
    linear = symbolic_coordinates(alg, basis, offset)
    return [sq - lin for sq, lin in zip(square, linear)]


def length_equation(
    alg: Algebra, basis: Sequence[Vec], length, offset: Optional[Vec] = None
) -> MPoly:
    """(u, u) = r as an equation: linear via the unit when available.

    For idempotents (u, u) equals (1, u), so with a unit the constraint is the
    linear polynomial (1, u) - r; without one it falls back to the quadratic
    (u, u) - r.  Both need the Frobenius form.
    """
    if alg.gram is None:
        raise MissingFormError("length constraints need the Frobenius form")
    r = frac(length)
    nvars = len(basis)
    one = alg.find_unit()
    if one is not None:
        shift = alg.form_value(one, offset) if offset is not None else Fraction(0)
        poly = MPoly.const(nvars, shift - r)
        for i, b in enumerate(basis):
            c = alg.form_value(one, b)
            if c:
                poly = poly + MPoly.var(nvars, i).scale(c)
        return poly
    shift = alg.form_value(offset, offset) if offset is not None else Fraction(0)
    poly = MPoly.const(nvars, shift - r)
    for i in range(nvars):
        if offset is not None:
            c = 2 * alg.form_value(offset, basis[i])
            if c:
                poly = poly + MPoly.var(nvars, i).scale(c)
        for j in range(i, nvars):
            c = alg.form_value(basis[i], basis[j])
            if i != j:
                c *= 2
            if c:
                poly = poly + (MPoly.var(nvars, i) * MPoly.var(nvars, j)).scale(c)
    return poly


def _points_to_vectors(
    points: Sequence, basis: Sequence[Vec], dim: int, offset: Optional[Vec] = None
) -> list[Vec]:
    out = []
    for point in points:
        v = zero_vec(dim) if offset is None else offset
        for c, b in zip(point, basis):
            if c:
                v = vadd(v, vscale(c, b))
        out.append(v)
    return sorted(set(out))


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
        gens.append(length_equation(alg, basis, length, offset))
    gens.extend(extra_equations)
    gens = [g for g in gens if g]
    if not gens:
        # every vector of the coset is idempotent: positive-dimensional
        return SolveResult(POSITIVE_DIMENSIONAL)
    gb = buchberger(gens, caps)
    result = enumerate_points(gb, caps)
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
    dim_cap: int = DETERMINANT_DIM_CAP,
) -> MPoly:
    """det(ad_z|_W - (1 - lambda) Id) as a polynomial in the unknowns of z.

    Requires W invariant under multiplication by the space z ranges over
    (guaranteed for eigenspaces of a Seress axis).  Rejects lambda = 1, where
    the relation is trivially zero.
    """
    lam = frac(lam)
    if lam == 1:
        raise ValueError("the relation is trivial for eigenvalue 1")
    m = w_basis.dim
    if m == 0:
        raise ValueError("empty eigenspace")
    if m > dim_cap:
        raise ValueError(f"eigenspace dimension {m} exceeds the symbolic cap {dim_cap}")
    nvars = z_symbolic[0].nvars
    entries = [[MPoly.zero(nvars) for _ in range(m)] for _ in range(m)]
    for emi in range(alg.dim):
        coeff = z_symbolic[emi]
        if coeff.is_zero():
            continue
        for j in range(m):
            p = alg.product(unit_vec(alg.dim, emi), w_basis.basis[j])
            coords = w_basis.coordinates(p)
            if coords is None:
                raise ValueError("subspace is not invariant under the action")
            for t, c in enumerate(coords):
                if c:
                    entries[t][j] = entries[t][j] + coeff.scale(c)
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
        b_space = eigenspace(alg.ad_matrix(vadd(a.vector, z)), Fraction(1))
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

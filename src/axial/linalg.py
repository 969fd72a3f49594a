"""Exact rational linear algebra: vectors, matrices, subspaces, spectra.

Vectors are tuples of Fractions and matrices are tuples of row tuples, so
every value is immutable and hashable.  All arithmetic is exact; nothing here
ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from axial._backend import kernels
from axial.univariate import rational_roots

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '27/8', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in v)


def vdot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vsub(r, s) for r, s in zip(a, b))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_from_cols(cols: Sequence[Vec]) -> Mat:
    return transpose(tuple(cols))


def rref(m: Mat) -> tuple[Mat, int, list[int]]:
    """Reduced row-echelon form with exact arithmetic.

    Returns (rref_matrix, rank, pivot_columns).
    """
    if not m:
        return m, 0, []
    rows = [list(r) for r in m]
    pivots = kernels.rref(rows)
    return mat(rows), len(pivots), pivots


def rank(m: Mat) -> int:
    return rref(m)[1]


def det(m: Mat) -> Fraction:
    """Determinant via exact Gaussian elimination."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in m]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            factor = rows[i][c] * inv
            if factor:
                for j in range(c, n):
                    rows[i][j] -= factor * rows[c][j]
    return result


def inverse(m: Mat) -> Optional[Mat]:
    """Inverse of a square matrix from one RREF of [m | I]; None when singular."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    reduced, _, pivots = rref(tuple(tuple(r) + e for r, e in zip(m, identity(n))))
    if pivots != list(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """Unique solution of a x = b, or None when inconsistent or underdetermined."""
    sol = solve_affine(a, b)
    if sol is None:
        return None
    particular, homogeneous = sol
    if homogeneous:
        return None
    return particular


def _null_basis(reduced: Mat, pivots: list[int], ncols: int) -> list[Vec]:
    """Null-space basis read off an RREF: one vector per free column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve_affine(a: Mat, b: Vec) -> Optional[tuple[Vec, list[Vec]]]:
    """General solution of a x = b as (particular, kernel basis); None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = mat(tuple(tuple(a[i]) + (b[i],) for i in range(nrows)))
    reduced, rk, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][ncols]
    return tuple(particular), _null_basis(reduced, pivots, ncols)


class Subspace:
    """A subspace of Q^n held as a canonical (RREF) basis.

    The canonical form makes subspace equality plain data equality.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Vec] = ()):
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        if rows:
            reduced, rk, pivots = rref(mat(rows))
            self.basis: tuple[Vec, ...] = reduced[:rk]
            self.pivots: tuple[int, ...] = tuple(pivots)
        else:
            self.basis = ()
            self.pivots = ()
        self.ambient = ambient

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v: Vec) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, v: Vec) -> Optional[Vec]:
        """Coefficients of v in the canonical basis, or None if v is outside.

        Basis row i is the only row nonzero at its pivot, where it is 1, so
        the i-th coefficient can only be v at that pivot; v lies in the span
        exactly when that combination reproduces it.
        """
        coords = tuple(frac(v[p]) for p in self.pivots)
        residue = list(v)
        for c, p, row in zip(coords, self.pivots, self.basis):
            if c:
                for i in range(p, self.ambient):
                    residue[i] -= c * row[i]
        return None if any(residue) else coords

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def full_space(n: int) -> Subspace:
    return Subspace(n, identity(n))


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right null space {v | m v = 0}."""
    ncols = len(m[0]) if m else 0
    if not m:
        return full_space(ncols)
    reduced, rk, pivots = rref(m)
    return Subspace(ncols, _null_basis(reduced, pivots, ncols))


def eigenspace(m: Mat, lam) -> Subspace:
    """Exact eigenspace: kernel(m - lam I)."""
    n = len(m)
    lam = frac(lam)
    shifted = tuple(
        tuple(m[i][j] - (lam if i == j else 0) for j in range(n)) for i in range(n)
    )
    return kernel(shifted)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    if s1.is_zero() or s2.is_zero():
        return Subspace(s1.ambient)
    # x in both spans: x = B1^T a = B2^T b; solve for (a, b) then map a through B1.
    stacked = mat_from_cols(tuple(s1.basis) + tuple(vscale(-1, v) for v in s2.basis))
    coeffs = kernel(stacked)
    d1 = s1.dim
    vectors = []
    for coeff in coeffs.basis:
        x = zero_vec(s1.ambient)
        for c, bvec in zip(coeff[:d1], s1.basis):
            if c:
                x = vadd(x, vscale(c, bvec))
        vectors.append(x)
    return Subspace(s1.ambient, vectors)


def subspace_sum(spaces: Sequence[Subspace], ambient: Optional[int] = None) -> Subspace:
    if not spaces:
        if ambient is None:
            raise ValueError("ambient dimension needed for an empty sum")
        return Subspace(ambient)
    n = spaces[0].ambient
    vectors: list[Vec] = []
    for s in spaces:
        if s.ambient != n:
            raise ValueError("ambient dimension mismatch")
        vectors.extend(s.basis)
    return Subspace(n, vectors)


def perp_space(s: Subspace, gram: Mat) -> Subspace:
    """Vectors orthogonal to every basis vector of s under the bilinear form."""
    n = s.ambient
    if len(gram) != n or any(len(r) != n for r in gram):
        raise ValueError("gram matrix size does not match ambient dimension")
    if s.is_zero():
        return full_space(n)
    constraint = tuple(mat_vec(gram, b) for b in s.basis)
    return kernel(constraint)


def char_poly(m: Mat) -> list[Fraction]:
    """Coefficients of det(t I - m), lowest degree first (monic, length n+1).

    Computed by exact evaluation of det(t I - m) at n+1 integer points and
    Lagrange-free interpolation through a Vandermonde solve.
    """
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    points = [Fraction(t) for t in range(n + 1)]
    values = []
    for t in points:
        shifted = tuple(
            tuple((t if i == j else Fraction(0)) - m[i][j] for j in range(n))
            for i in range(n)
        )
        values.append(det(shifted))
    vander = tuple(tuple(t**k for k in range(n + 1)) for t in points)
    coeffs = solve(vander, tuple(values))
    assert coeffs is not None and coeffs[n] == 1
    return list(coeffs)


@dataclass
class SpectrumResult:
    """Outcome of an exact semisimplicity check with rational spectrum."""

    eigenpairs: Optional[list[tuple[Fraction, Subspace]]]
    defect: int
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.eigenpairs is not None


def semisimple_spectrum(m: Mat) -> SpectrumResult:
    """Rational eigenvalues with eigenspaces, when they span the whole space.

    Candidate eigenvalues are the rational roots of the characteristic
    polynomial.  When the eigenspace dimensions do not sum to n the matrix is
    not semisimple over Q and the defect is reported instead of a result.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("spectrum of a non-square matrix")
    roots = rational_roots(char_poly(m))
    pairs = []
    total = 0
    for lam in sorted(roots, reverse=True):
        space = eigenspace(m, lam)
        if not space.is_zero():
            pairs.append((lam, space))
            total += space.dim
    if total == n:
        return SpectrumResult(pairs, 0)
    return SpectrumResult(
        None, n - total, "eigenspaces of rational eigenvalues span a proper subspace"
    )

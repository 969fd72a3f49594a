"""Commutative algebras given by exact structure constants.

An Algebra is immutable after construction: dimension, a sparse symmetric
structure-constant table, and optionally a Frobenius form (Gram matrix), a
unit vector, and basis labels.  Construction validates commutativity, the
Frobenius property of the form, and the unit equations; operations that need
an absent ingredient fail loudly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from axial.linalg import (
    Mat,
    Subspace,
    Vec,
    frac,
    inverse,
    kernel,
    mat,
    mat_from_cols,
    mat_vec,
    solve,
    solve_affine,
    unit_vec,
    vadd,
    vdot,
    vec,
    vscale,
    zero_vec,
)


class AlgebraError(Exception):
    """Structural or precondition failure on an algebra operation."""


class MissingFormError(AlgebraError):
    """The operation needs a Frobenius form and the algebra has none."""


class MissingUnitError(AlgebraError):
    """The operation needs a unit and the algebra has none."""


class DegenerateFormError(AlgebraError):
    """The Frobenius form is degenerate where nondegeneracy is required."""


SparseRow = tuple[tuple[int, Fraction], ...]


class Algebra:
    """Finite-dimensional commutative algebra over Q."""

    __slots__ = ("dim", "table", "gram", "unit", "labels", "_unit_known")

    def __init__(
        self,
        dim: int,
        table: dict[tuple[int, int], SparseRow],
        gram: Optional[Mat] = None,
        unit: Optional[Vec] = None,
        labels: Optional[tuple[str, ...]] = None,
        check: bool = True,
    ):
        self.dim = dim
        self.table = table
        self.gram = gram
        self.unit = unit
        self.labels = labels
        self._unit_known = unit is not None
        if check:
            self._validate()

    @classmethod
    def from_gamma(
        cls,
        dim: int,
        gamma: Iterable[tuple[int, int, int, object]],
        gram=None,
        unit=None,
        labels=None,
        check: bool = True,
    ) -> "Algebra":
        """Build from sparse entries (i, j, k, value), indices 0-based.

        Entries with i > j are folded onto (j, i); conflicting duplicates are
        rejected.
        """
        accum: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, j, k, value in gamma:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index out of range: {(i, j, k)}")
            key = (i, j) if i <= j else (j, i)
            row = accum.setdefault(key, {})
            value = frac(value)
            if k in row and row[k] != value:
                raise ValueError(f"conflicting structure constants at {(i, j, k)}")
            row[k] = value
        table = {
            key: tuple(sorted((k, c) for k, c in row.items() if c))
            for key, row in accum.items()
        }
        table = {key: row for key, row in table.items() if row}
        gram_m = mat(gram) if gram is not None else None
        unit_v = vec(unit) if unit is not None else None
        labels_t = tuple(labels) if labels is not None else None
        return cls(dim, table, gram_m, unit_v, labels_t, check=check)

    def _validate(self):
        n = self.dim
        for (i, j), row in self.table.items():
            if i > j:
                raise ValueError("table keys must satisfy i <= j")
            for k, c in row:
                if not (0 <= k < n) or c == 0:
                    raise ValueError(f"bad table entry at {(i, j, k)}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match dimension")
        if self.gram is not None:
            if len(self.gram) != n or any(len(r) != n for r in self.gram):
                raise ValueError("gram matrix size does not match dimension")
            for i in range(n):
                for j in range(i):
                    if self.gram[i][j] != self.gram[j][i]:
                        raise ValueError(f"gram matrix not symmetric at {(i, j)}")
            bad = self._frobenius_violation()
            if bad is not None:
                i, j, k = bad
                raise ValueError(
                    f"form is not Frobenius: (e{i}*e{j}, e{k}) != (e{i}, e{j}*e{k})"
                )
        if self.unit is not None:
            if len(self.unit) != n:
                raise ValueError("unit length does not match dimension")
            for j in range(n):
                if self.product(self.unit, unit_vec(n, j)) != unit_vec(n, j):
                    raise ValueError(f"declared unit fails on basis vector {j}")

    def _frobenius_violation(self) -> Optional[tuple[int, int, int]]:
        """The least (i, j, k) with (e_i e_j, e_k) != (e_i, e_j e_k), or None.

        F(i, j, k) = (e_i e_j, e_k) is symmetric in i and j, and with the
        Gram matrix symmetric (checked first) the right side is F(j, k, i).
        A triple can fail only where one side is nonzero, so only the
        triples that put a nonzero value of F on one side are tested; those
        values come from the table and the nonzero Gram entries.
        """
        gram = self.gram
        assert gram is not None
        gram_rows = [[(k, g) for k, g in enumerate(row) if g] for row in gram]
        values: dict[tuple[int, int, int], Fraction] = {}
        for (a, b), row in self.table.items():
            for m, c in row:
                for k, g in gram_rows[m]:
                    values[(a, b, k)] = values.get((a, b, k), 0) + c * g

        def f(i, j, k):
            return values.get((i, j, k) if i <= j else (j, i, k), 0)

        return min(
            (
                t
                for (a, b, c), x in values.items()
                if x
                for t in ((a, b, c), (b, a, c), (c, a, b), (c, b, a))
                if f(*t) != f(t[1], t[2], t[0])
            ),
            default=None,
        )

    def basis_product(self, i: int, j: int) -> SparseRow:
        """Sparse product of basis vectors i and j."""
        return self.table.get((i, j) if i <= j else (j, i), ())

    def product(self, u: Vec, v: Vec) -> Vec:
        """Bilinear commutative product of two coordinate vectors."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise AlgebraError("vector dimension mismatch")
        out = [Fraction(0)] * n
        nz_u = [(i, a) for i, a in enumerate(u) if a]
        nz_v = [(j, b) for j, b in enumerate(v) if b]
        for i, a in nz_u:
            for j, b in nz_v:
                ab = a * b
                for k, c in self.basis_product(i, j):
                    out[k] += ab * c
        return tuple(out)

    def square(self, u: Vec) -> Vec:
        return self.product(u, u)

    def ad_matrix(self, u: Vec) -> Mat:
        """Matrix of left multiplication by u; column j is u * e_j."""
        n = self.dim
        cols = []
        for j in range(n):
            col = [Fraction(0)] * n
            for i, a in enumerate(u):
                if a:
                    for k, c in self.basis_product(i, j):
                        col[k] += a * c
            cols.append(tuple(col))
        return mat_from_cols(cols)

    def form_value(self, u: Vec, v: Vec) -> Fraction:
        """Frobenius form value (u, v)."""
        if self.gram is None:
            raise MissingFormError("algebra has no Frobenius form")
        return vdot(u, mat_vec(self.gram, v))

    def length(self, u: Vec) -> Fraction:
        return self.form_value(u, u)

    def find_unit(self) -> Optional[Vec]:
        """The multiplicative identity, or None when there is none.

        Solves the linear system unit * e_j = e_j over the coordinates; a
        commutative algebra has at most one unit, so the system is either
        inconsistent or pins the answer.
        """
        if self._unit_known:
            return self.unit
        n = self.dim
        rows = []
        rhs = []
        for j in range(n):
            for k in range(n):
                rows.append(tuple(self._gamma(i, j, k) for i in range(n)))
                rhs.append(Fraction(1 if k == j else 0))
        sol = solve_affine(mat(rows), tuple(rhs))
        if sol is None:
            return None
        candidate = sol[0]
        for j in range(n):
            if self.product(candidate, unit_vec(n, j)) != unit_vec(n, j):
                return None
        self.unit = candidate
        self._unit_known = True
        return candidate

    def _gamma(self, i: int, j: int, k: int) -> Fraction:
        for m, c in self.basis_product(i, j):
            if m == k:
                return c
        return Fraction(0)

    def require_unit(self) -> Vec:
        u = self.find_unit()
        if u is None:
            raise MissingUnitError("algebra has no unit")
        return u

    def subalgebra_closure(self, gens: Sequence[Vec]) -> Subspace:
        """Smallest product-closed subspace containing the generators."""
        span = Subspace(self.dim, gens)
        while True:
            products = [
                self.product(span.basis[i], span.basis[j])
                for i in range(span.dim)
                for j in range(i, span.dim)
            ]
            bigger = Subspace(self.dim, list(span.basis) + products)
            if bigger.dim == span.dim:
                return span
            span = bigger

    def is_product_closed(self, s: Subspace) -> bool:
        return all(
            s.contains(self.product(s.basis[i], s.basis[j]))
            for i in range(s.dim)
            for j in range(i, s.dim)
        )

    def annihilator(self, w: Subspace) -> Subspace:
        """{u | u x = 0 for all x in the subspace}."""
        if w.is_zero():
            return Subspace(self.dim, tuple(unit_vec(self.dim, i) for i in range(self.dim)))
        rows = []
        n = self.dim
        for x in w.basis:
            # row block: coordinates of e_i * x as columns of a linear map in u
            cols = [self.product(unit_vec(n, i), x) for i in range(n)]
            block = mat_from_cols(cols)
            rows.extend(block)
        return kernel(mat(rows))

    def radical(self) -> Subspace:
        """Kernel of the Frobenius form (equals the algebra radical when the
        generating axes are non-singular)."""
        if self.gram is None:
            raise MissingFormError("algebra has no Frobenius form")
        if all(all(x == 0 for x in row) for row in self.gram):
            raise ValueError("the Frobenius form must be nonzero")
        return kernel(self.gram)

    def connectivity_components(self, axes: Sequence[Vec]) -> list[list[int]]:
        """Connected components of the nonzero-form graph on the given axes."""
        if self.gram is None:
            raise MissingFormError("connectivity needs the Frobenius form")
        m = len(axes)
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(m):
            for j in range(i + 1, m):
                if self.form_value(axes[i], axes[j]) != 0:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(m):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())

    def unit_of_subalgebra(self, b: Subspace) -> Vec:
        """Orthogonal projection of the global unit onto a subalgebra.

        Requires the form to be nondegenerate on the subspace; the result is
        verified to act as the identity on a basis of the subspace.
        """
        one = self.require_unit()
        if self.gram is None:
            raise MissingFormError("projection needs the Frobenius form")
        basis = b.basis
        k = len(basis)
        gram_b = tuple(
            tuple(self.form_value(basis[r], basis[s]) for s in range(k)) for r in range(k)
        )
        rhs = tuple(self.form_value(one, basis[r]) for r in range(k))
        coeffs = solve(gram_b, rhs) if k else ()
        if coeffs is None:
            raise DegenerateFormError("form is degenerate on the subspace")
        result = zero_vec(self.dim)
        for c, bvec in zip(coeffs, basis):
            result = vadd(result, vscale(c, bvec))
        for w in basis:
            if self.product(result, w) != w:
                raise AlgebraError("projection is not an identity; subspace is not a subalgebra")
        return result

    def restrict(self, basis: Sequence[Vec], labels=None, check: bool = True) -> "Algebra":
        """The algebra induced on a product-closed subspace, in the given basis."""
        basis = [vec(b) for b in basis]
        k = len(basis)
        span = Subspace(self.dim, basis)
        if span.dim != k:
            raise AlgebraError("restriction basis is linearly dependent")
        # canonical coordinates -> coordinates in the given basis
        to_basis = inverse(mat_from_cols([span.coordinates(b) for b in basis]))
        gamma = []
        for r in range(k):
            for s in range(r, k):
                canonical = span.coordinates(self.product(basis[r], basis[s]))
                if canonical is None:
                    raise AlgebraError("subspace is not closed under the product")
                coords = mat_vec(to_basis, canonical)
                for t, c in enumerate(coords):
                    if c:
                        gamma.append((r, s, t, c))
        gram = None
        if self.gram is not None:
            gram = tuple(
                tuple(self.form_value(basis[r], basis[s]) for s in range(k))
                for r in range(k)
            )
        return Algebra.from_gamma(k, gamma, gram=gram, labels=labels, check=check)

    def __repr__(self):
        parts = [f"dim={self.dim}"]
        if self.gram is not None:
            parts.append("form")
        if self.unit is not None:
            parts.append("unit")
        return f"Algebra({', '.join(parts)})"


def diagonal_algebra(n: int) -> Algebra:
    """Direct sum of n copies of the field: e_i * e_i = e_i, e_i * e_j = 0."""
    gamma = [(i, i, i, 1) for i in range(n)]
    from axial.linalg import identity

    return Algebra.from_gamma(
        n, gamma, gram=identity(n), unit=[1] * n
    )


def direct_sum(left: Algebra, right: Algebra) -> Algebra:
    """Block direct sum; forms and units combine when both sides have them."""
    n, m = left.dim, right.dim
    gamma = []
    for (i, j), row in left.table.items():
        for k, c in row:
            gamma.append((i, j, k, c))
    for (i, j), row in right.table.items():
        for k, c in row:
            gamma.append((i + n, j + n, k + n, c))
    gram = None
    if left.gram is not None and right.gram is not None:
        gram = [[Fraction(0)] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = left.gram[i][j]
        for i in range(m):
            for j in range(m):
                gram[n + i][n + j] = right.gram[i][j]
    unit = None
    left_unit, right_unit = left.find_unit(), right.find_unit()
    if left_unit is not None and right_unit is not None:
        unit = tuple(left_unit) + tuple(right_unit)
    labels = None
    if left.labels is not None and right.labels is not None:
        labels = left.labels + right.labels
    return Algebra.from_gamma(n + m, gamma, gram=gram, unit=unit, labels=labels)

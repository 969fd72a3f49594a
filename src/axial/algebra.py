"""Commutative algebras given by exact structure constants.

An Algebra is immutable after construction: dimension, a sparse symmetric
structure-constant table, and optionally a Frobenius form (Gram matrix), a
unit vector, and basis labels.  Construction validates commutativity, the
Frobenius property of the form, and the unit equations; operations that need
an absent ingredient fail loudly.

The `Fraction` table and Gram matrix are the input and file format only:
every computation reads the `integer_table`, the constants scaled to
integers once, and the `integer_gram`, the form as an `IntegerMap`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from axial._backend import kernels
from axial.linalg import (
    IntegerMap,
    IntegerVec,
    Mat,
    Subspace,
    Vec,
    apply_columns,
    canonical_span,
    combination,
    frac,
    identity,
    independent_mod_p,
    integer_point,
    inverse,
    mat,
    mat_from_cols,
    mat_vec,
    null_basis,
    point_vector,
    solve,
    unit_vec,
    vec,
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

ZERO = Fraction(0)


class IntegerTable(NamedTuple):
    """The structure constants times their common denominator `denom`:
    `table` holds the scaled rows under the same keys, and `partners[i]`
    lists the (j, row) with e_i e_j != 0, row the scaled row of e_i e_j."""

    denom: int
    table: dict[tuple[int, int], tuple]
    partners: list[list[tuple[int, tuple]]]


def integer_product(table: dict, x: IntegerVec, y: IntegerVec) -> dict:
    """The product of two sparse integer vectors over an integer table (an
    `IntegerTable.table`), as {index: value}; zero values may remain."""
    out: dict[int, int] = {}
    get, row = out.get, table.get
    for i, p in x:
        for j, q in y:
            pq = p * q
            for k, c in row((i, j) if i <= j else (j, i), ()):
                out[k] = get(k, 0) + pq * c
    return out


class Algebra:
    """Finite-dimensional commutative algebra over Q.

    `table` and `gram` must not be mutated after construction: their
    `integer_table` and `integer_gram` are built once and kept.  Derived
    algebras (`restrict`, `from_gamma`, `direct_sum`) are new objects, each
    with its own.
    """

    __slots__ = (
        "dim",
        "table",
        "gram",
        "unit",
        "labels",
        "_unit_known",
        "_ints",
        "_gram_map",
        "_frobenius_checked",
        "_form_ok",
    )

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
        self._ints: Optional[IntegerTable] = None
        self._gram_map: Optional[IntegerMap] = None
        self._frobenius_checked = False  # set by `_validate` once the form passes
        self._form_ok: Optional[bool] = None
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
            if (bad := self._asymmetry()) is not None:
                raise ValueError(f"gram matrix not symmetric at {bad}")
            if (bad := self._frobenius_violation()) is not None:
                i, j, k = bad
                raise ValueError(f"form is not Frobenius: (e{i}*e{j}, e{k}) != (e{i}, e{j}*e{k})")
            self._frobenius_checked = True
        if self.unit is not None:
            if len(self.unit) != n:
                raise ValueError("unit length does not match dimension")
            for j in range(n):
                if self.product(self.unit, unit_vec(n, j)) != unit_vec(n, j):
                    raise ValueError(f"declared unit fails on basis vector {j}")

    def _asymmetry(self) -> Optional[tuple[int, int]]:
        """The first (i, j), j < i, with gram[i][j] != gram[j][i], or None."""
        return next(((i, j) for i, row in enumerate(self.gram) for j in range(i) if row[j] != self.gram[j][i]), None)

    def _frobenius_violation(self) -> Optional[tuple[int, int, int]]:
        """The least (i, j, k) with (e_i e_j, e_k) != (e_i, e_j e_k), or None.

        F(i, j, k) = (e_i e_j, e_k) is symmetric in i and j, and with the
        Gram matrix symmetric (checked first) the right side is F(j, k, i).
        A triple can fail only where one side is nonzero, so only the
        triples that put a nonzero value of F on one side are tested; those
        values come from the `integer_table` and the `integer_gram`, both
        scaled to integers by a positive factor, which changes no comparison
        (its columns are its rows, the form being symmetric).
        """
        gram_cols = self.integer_gram().cols
        values: dict[tuple[int, int, int], int] = {}
        for (a, b), row in self.integer_table().table.items():
            for m, c in row:
                for k, g in gram_cols[m]:
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

    def integer_table(self) -> IntegerTable:
        """The `IntegerTable` of the structure constants, built on first use."""
        if self._ints is None:
            denom = lcm(*(c.denominator for row in self.table.values() for _, c in row))
            table = {
                key: tuple((k, c.numerator * (denom // c.denominator)) for k, c in row)
                for key, row in self.table.items()
            }
            partners: list[list[tuple[int, tuple]]] = [[] for _ in range(self.dim)]
            for (a, b), row in table.items():
                partners[a].append((b, row))
                if a != b:
                    partners[b].append((a, row))
            self._ints = IntegerTable(denom, table, partners)
        return self._ints

    def integer_gram(self) -> IntegerMap:
        """The Gram matrix as an `IntegerMap`, built on first use and kept."""
        if self._gram_map is None:
            if self.gram is None:
                raise MissingFormError("algebra has no Frobenius form")
            self._gram_map = IntegerMap.from_matrix(self.gram, self.dim)
        return self._gram_map

    def has_nondegenerate_form(self) -> bool:
        """Whether the Gram matrix is proved a nondegenerate Frobenius form;
        decided on first use and kept.

        True is a proof: the form is symmetric and `_frobenius_violation`
        finds none (both checked at construction or now), and the columns
        of the `integer_gram` have full rank mod the prime `linalg.MODULUS`,
        hence over Q.  False proves nothing about the form: there is none,
        it is not symmetric or not Frobenius, or its rank mod p falls short.
        """
        if self._form_ok is None:
            self._form_ok = (
                self.gram is not None
                and (self._frobenius_checked or (self._asymmetry() is None and self._frobenius_violation() is None))
                and len(independent_mod_p(map(dict, self.integer_gram().cols), self.dim)) == self.dim
            )
        return self._form_ok

    def basis_product(self, i: int, j: int) -> SparseRow:
        """Sparse product of basis vectors i and j."""
        return self.table.get((i, j) if i <= j else (j, i), ())

    def product(self, u: Vec, v: Vec) -> Vec:
        """Bilinear commutative product of two coordinate vectors: the
        `integer_product` of their `Point`s over the `integer_table`,
        divided once by du dv D."""
        n, ints = self.dim, self.integer_table()
        if len(u) != n or len(v) != n:
            raise AlgebraError("vector dimension mismatch")
        du, x = integer_point(u)
        dv, y = (du, x) if v is u else integer_point(v)
        return point_vector((du * dv * ints.denom, integer_product(ints.table, x, y).items()), n)

    def ad_matrix(self, u: Vec) -> Mat:
        """Matrix of left multiplication by u; column j is u * e_j.  The
        rows of the `IntegerAdjoint`, made dense and divided by its scale.

        No code in the package calls it; it is kept because the benchmark
        (`perfbench/run.py`) traces it."""
        adjoint = IntegerAdjoint(self, u, ())
        d, n = adjoint.scale, self.dim
        return tuple(
            tuple(Fraction(row[j], d) if j in row else ZERO for j in range(n))
            for row in adjoint.rows
        )

    def products_in(
        self, xs: Sequence[Vec | IntegerAdjoint], ys: Sequence[Vec], w: Subspace
    ) -> Optional[list[list[Vec]]]:
        """The w-coordinates of every product x y, one row per x and one entry
        per y, or None when some product leaves w.

        Each y is scaled to integers once, as its `Point`, x y is read off
        the `IntegerAdjoint` of x as a `Point`, and its coordinates are read
        off those integers by `Subspace.point_coordinates`, which divides
        only the coefficients into `Fraction`s.  An x may be given as its
        adjoint, built once by a caller that reads several tables.
        """
        scaled = [(d, dict(y)) for d, y in map(integer_point, ys)]
        table = []
        for x in xs:
            adjoint = x if isinstance(x, IntegerAdjoint) else IntegerAdjoint(self, x, ())
            row = []
            for d, y in scaled:
                coords = w.point_coordinates((adjoint.scale * d, adjoint.shift(ZERO, y)))
                if coords is None:
                    return None
                row.append(coords)
            table.append(row)
        return table

    def form_value(self, u: Vec, v: Vec) -> Fraction:
        """Frobenius form value (u, v): the `integer_gram` applied to the
        `Point` of v, dotted with that of u, divided once by du dv G."""
        gram = self.integer_gram()
        if len(u) != self.dim or len(v) != self.dim:
            raise AlgebraError("vector dimension mismatch")
        du, x = integer_point(u)
        dv, y = (du, x) if v is u else integer_point(v)
        gy = apply_columns(gram.cols, y)
        return Fraction(sum(p * gy.get(i, 0) for i, p in x), du * dv * gram.denom)

    def length(self, u: Vec) -> Fraction:
        return self.form_value(u, u)

    def form_matrix(self, vectors: Sequence[Vec]) -> Mat:
        """The Gram matrix of the form on the given vectors."""
        return tuple(tuple(self.form_value(x, y) for y in vectors) for x in vectors)

    def find_unit(self) -> Optional[Vec]:
        """The multiplicative identity, or None when there is none: read off
        one `null_basis` of the rows sum_i C_ij^k x_i - D delta_jk t of
        x e_j = t e_j (C / D the `integer_table`).  With a unit u its
        solutions are the (t u + z, t), z in the annihilator, which is then
        zero; with none, every solution has t = 0.  The answer is verified,
        and kept, None included, as the table never changes.
        """
        if self._unit_known:
            return self.unit
        n, ints = self.dim, self.integer_table()
        rows: dict[tuple[int, int], dict[int, int]] = {(j, j): {n: -ints.denom} for j in range(n)}
        for j, products in enumerate(ints.partners):
            for i, row in products:
                for k, c in row:
                    rows.setdefault((j, k), {})[i] = c
        basis = null_basis(rows.values(), n + 1)
        candidate = None
        if len(basis) == 1 and basis[0][-1][0] == n:
            *x, (_, t) = basis[0]
            candidate = point_vector((t, x), n)
            if any(self.product(candidate, unit_vec(n, j)) != unit_vec(n, j) for j in range(n)):
                candidate = None
        self.unit = candidate
        self._unit_known = True
        return candidate

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

    def annihilator(self, w: Subspace) -> Subspace:
        """{u | u x = 0 for all x in the subspace}: the null space of the
        integer adjoints of w's basis, as u x = ad(x) u."""
        rows = (row for x in w.basis for row in IntegerAdjoint(self, x, ()).rows)
        return canonical_span(null_basis(rows, self.dim), self.dim)

    def radical(self) -> Subspace:
        """Kernel of the Frobenius form (equals the algebra radical when the
        generating axes are non-singular): the `null_basis` of the columns
        of the `integer_gram`, its rows as the form is symmetric."""
        cols = self.integer_gram().cols
        if not any(cols):
            raise ValueError("the Frobenius form must be nonzero")
        return canonical_span(null_basis(map(dict, cols), self.dim), self.dim)

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
        rhs = tuple(self.form_value(one, x) for x in basis)
        coeffs = solve(self.form_matrix(basis), rhs) if basis else ()
        if coeffs is None:
            raise DegenerateFormError("form is degenerate on the subspace")
        result = combination(coeffs, basis, self.dim)
        for w in basis:
            if self.product(result, w) != w:
                raise AlgebraError("projection is not an identity; subspace is not a subalgebra")
        return result

    def restrict(self, basis: Sequence[Vec], labels=None) -> "Algebra":
        """The algebra induced on a product-closed subspace, in the given basis."""
        basis = [vec(b) for b in basis]
        k = len(basis)
        span = Subspace(self.dim, basis)
        if span.dim != k:
            raise AlgebraError("restriction basis is linearly dependent")
        # canonical coordinates -> coordinates in the given basis
        to_basis = inverse(mat_from_cols([span.coordinates(b) for b in basis]))
        table = self.products_in(basis, basis, span)
        if table is None:
            raise AlgebraError("subspace is not closed under the product")
        gamma = [
            (r, s, t, c)
            for r in range(k)
            for s in range(r, k)
            for t, c in enumerate(mat_vec(to_basis, table[r][s]))
            if c
        ]
        gram = self.form_matrix(basis) if self.gram is not None else None
        return Algebra.from_gamma(k, gamma, gram=gram, labels=labels)

    def __repr__(self):
        parts = [f"dim={self.dim}"]
        if self.gram is not None:
            parts.append("form")
        if self.unit is not None:
            parts.append("unit")
        return f"Algebra({', '.join(parts)})"


class IntegerAdjoint:
    """D ad(v) on sparse integer vectors {index: int} with no zero entries.

    The one adjoint of the package, read by `ad_matrix`, `annihilator`,
    `products_in`, the axis certificates and `infer_fusion_law`.
    D is the denominator of the `integer_table` times the common denominator
    of v and the eigenvalues given, so each shift D ad - D nu is an integer
    matrix.  D ad is summed from the table's partner lists at the nonzero v_i
    and kept by row and, transposed sparsely, by column.  Scaling by D changes
    no null space or zero test, and `sign_map` divides by powers of D exactly.
    """

    __slots__ = ("scale", "rows", "cols")

    def __init__(self, alg: Algebra, v: Vec, values: Iterable[Fraction]):
        ints = alg.integer_table()
        mult = lcm(*(x.denominator for x in (*v, *values)))
        self.scale = ints.denom * mult
        rows: list[dict[int, int]] = [{} for _ in v]
        for i, x in enumerate(v):
            if x:
                w = x.numerator * (mult // x.denominator)
                for j, product in ints.partners[i]:
                    for k, c in product:
                        rows[k][j] = rows[k].get(j, 0) + w * c
        self.rows = [{j: x for j, x in row.items() if x} for row in rows]
        self.cols: list[list[tuple[int, int]]] = [[] for _ in v]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                self.cols[j].append((i, x))

    def eigenspace(self, nu: Fraction) -> Subspace:
        """The nu-eigenspace of ad(a): the null space of D ad - D nu."""
        n = len(self.rows)
        return canonical_span(null_basis(self.shifted_rows(nu), n), n)

    def lacks_eigenvalue(self, nu: Fraction) -> bool:
        """Whether nu is proved not to be an eigenvalue of ad(a).

        True is a proof: the rows of D ad - D nu have full rank mod the
        prime `linalg.MODULUS`, hence over Q.  False proves nothing: nu is
        an eigenvalue, or the rank falls short mod p only.
        """
        n = len(self.rows)
        return len(independent_mod_p(self.shifted_rows(nu), n)) == n

    def scaled(self, nu: Fraction) -> int:
        """D nu, which must be an integer (D clears the values given)."""
        q, r = divmod(self.scale, nu.denominator)
        if r:
            raise ValueError(f"nu = {nu} does not scale to an integer by D = {self.scale}")
        return nu.numerator * q

    def shifted_rows(self, nu: Fraction) -> Iterator[dict[int, int]]:
        """The rows of D ad - D nu, as {index: int} (a zero may appear on
        the diagonal)."""
        s = self.scaled(nu)
        return ({**row, i: row.get(i, 0) - s} for i, row in enumerate(self.rows))

    def shift(self, nu: Fraction, x: dict[int, int]) -> dict[int, int]:
        """(D ad - D nu) x, without zero values."""
        return {i: v for i, v in self.apply_shifts((self.scaled(nu),), x).items() if v}

    def apply_shifts(self, shifts: Iterable[int], x: dict[int, int]) -> dict[int, int]:
        """The product of D ad - s over the integers s of `shifts`, each a
        `scaled` D nu, applied to x in turn; zero values may remain."""
        cols = self.cols
        for s in shifts:
            out: dict[int, int] = {}
            get = out.get
            for j, xj in x.items():
                if xj:
                    out[j] = get(j, 0) - s * xj
                    for i, c in cols[j]:
                        out[i] = get(i, 0) + c * xj
            x = out
        return x

    def minimal_polynomial(self) -> list[int]:
        """The minimal polynomial of D ad(v): primitive integer coefficients,
        lowest degree first, with a positive leading coefficient.

        The powers I, D ad, (D ad)^2, ... are built column by column with
        `shift` and flattened to rows over n^2 columns, power k with one
        marker column n^2 + k of its own.  Each is inserted into one echelon
        by `kernels.insert`; the first that reduces onto marker columns only
        is the relation of least degree among the powers, read off them
        (by Cayley-Hamilton, at power n at the latest).
        """
        n = len(self.cols)
        pivots: dict[int, dict[int, int]] = {}
        cols: list[dict[int, int]] = [{j: 1} for j in range(n)]
        for k in itertools.count():
            row = {j * n + i: x for j, col in enumerate(cols) for i, x in col.items()}
            row[n * n + k] = 1
            c = kernels.insert(pivots, row)
            if c >= n * n:
                coeffs = [pivots[c].get(n * n + i, 0) for i in range(k + 1)]
                return coeffs if coeffs[-1] > 0 else [-x for x in coeffs]
            cols = [self.shift(ZERO, col) for col in cols]

    def sign_map(self, present: Sequence[Fraction], negated: frozenset) -> IntegerMap:
        """f(ad) for the polynomial f that is -1 on the `negated` eigenvalues
        in `present` and +1 on the others: on a semisimple adjoint with that
        spectrum, the map acting as -1 on the negated eigenspaces (the
        identity when none is present), as an `IntegerMap`.

        f is held in Newton form, sum_i c_i prod_{l<i} (t - present[l]), up
        to its last nonzero c_i, and column j is sum_i c_i / D^i w_i for
        w_0 = e_j and w_{i+1} = (D ad - D present[i]) w_i, summed over the
        integers with the c_i / D^i brought to one denominator.
        """
        k, n = len(present), len(self.cols)
        coeffs = [Fraction(-1 if nu in negated else 1) for nu in present]
        for level in range(1, k):
            for i in range(k - 1, level - 1, -1):
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (present[i] - present[i - level])
        scaled = [c / self.scale**i for i, c in enumerate(coeffs)]
        scaled = scaled[: max(i for i, c in enumerate(scaled) if c) + 1]
        denom = lcm(*(c.denominator for c in scaled))
        nums = [c.numerator * (denom // c.denominator) for c in scaled]
        cols = []
        for j in range(n):
            w, col = {j: 1}, {}
            for i, num in enumerate(nums):
                w = self.shift(present[i - 1], w) if i else w
                for r, x in w.items():
                    col[r] = col.get(r, 0) + num * x
            cols.append(col)
        return IntegerMap.from_columns(denom, cols)


def diagonal_algebra(n: int) -> Algebra:
    """Direct sum of n copies of the field: e_i * e_i = e_i, e_i * e_j = 0."""
    gamma = [(i, i, i, 1) for i in range(n)]
    return Algebra.from_gamma(n, gamma, gram=identity(n), unit=[1] * n)


def direct_sum(left: Algebra, right: Algebra) -> Algebra:
    """Block direct sum; forms and units combine when both sides have them."""
    n, m = left.dim, right.dim
    gamma = [
        (i + s, j + s, k + s, c)
        for s, alg in ((0, left), (n, right))
        for (i, j), row in alg.table.items()
        for k, c in row
    ]
    gram = None
    if left.gram is not None and right.gram is not None:
        gram = [list(r) + [0] * m for r in left.gram] + [[0] * n + list(r) for r in right.gram]
    unit = None
    left_unit, right_unit = left.find_unit(), right.find_unit()
    if left_unit is not None and right_unit is not None:
        unit = tuple(left_unit) + tuple(right_unit)
    labels = None
    if left.labels is not None and right.labels is not None:
        labels = left.labels + right.labels
    return Algebra.from_gamma(n + m, gamma, gram=gram, unit=unit, labels=labels)

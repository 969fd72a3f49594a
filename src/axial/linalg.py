"""Exact rational linear algebra: vectors, matrices, subspaces, eigenspaces.

Vectors are tuples of Fractions and matrices are tuples of row tuples, so
every value is immutable and hashable.  All arithmetic is exact; nothing here
ever rounds.  Every row reduction, `rref` and both stages of `sparse_kernel`
alike, is the one sparse integer elimination of `axial._kernels_py`.  A
`Subspace` has one stored form, its RREF rows scaled to primitive integers:
`Subspace(n, vectors)` echelons to it, and `null_basis`, the package's one
null-space reader, returns it, which `canonical_span` holds as it is.
`null_space` (so `kernel` and `eigenspace`) feeds `null_basis`
`primitive_row`s; `intersect`, `sparse_kernel`, `IntegerAdjoint`, the axis
certificates and the group layer's fixed spaces feed it integer rows.  The
exact stage of `sparse_kernel` solves only the rows its mod-p screen kept,
and checks the answer against the rows it did not keep.  `solve` and
`inverse` read their answers off one RREF of an augmented matrix, and `det`
is Bareiss's fraction-free elimination.

The axis and group layers work in one sparse integer format, defined and
read only here: a `Point` is a vector as integers over one denominator, and
an `IntegerMap` a linear map as sparse integer columns over one denominator,
both in lowest terms, so they are compared and hashed as integer data and
applied in O(nonzeros).  `integer_vectors` clears the denominators of
rational vectors into it, and `IntegerMap.from_matrix` and
`IntegerMap.matrix` are the only conversions between a map and a dense
matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from axial._backend import kernels

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
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def combination(coeffs: Iterable, vectors: Iterable[Vec], n: int) -> Vec:
    """The linear combination sum c_i v_i in Q^n, skipping zero coefficients and entries."""
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return tuple(out)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def mat_vec(m: Mat, v: Vec) -> Vec:
    """Product m v, each row summed only over the nonzero entries of v."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return tuple(sum((row[k] * x for k, x in nonzero if row[k]), Fraction(0)) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Product a b, adding x * b[k] only where x = a[i][k] is nonzero."""
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


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


def det(m: Mat) -> Fraction:
    """Determinant by fraction-free elimination (Bareiss 1968); det(()) is 1.

    Each row is scaled to integers by the lcm of its denominators.  Step k
    replaces every entry below and right of the pivot by a 2 x 2 minor
    divided exactly by the previous pivot, so the entries stay minors of
    the integer matrix, and the last pivot is its determinant (up to the
    sign of the row swaps).  That is divided by the product of the scales.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    rows = []
    scale = 1
    for row in m:
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - a * top[j]) // prev
        prev = pivot
    return Fraction(sign * prev, scale)


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
    """Unique solution of a x = b, or None when inconsistent or underdetermined.

    One RREF of [a | b]: the solution is unique exactly when its pivots are
    the columns of a, and it is then the last column.
    """
    ncols = len(a[0]) if a else 0
    reduced, _, pivots = rref(mat(tuple(row) + (x,) for row, x in zip(a, b)))
    if pivots != list(range(ncols)):
        return None
    return tuple(row[ncols] for row in reduced[:ncols])


IntegerVec = tuple[tuple[int, int], ...]  # the nonzero (index, int) entries, by index


class Subspace:
    """A subspace of Q^n held as its canonical basis: the RREF rows scaled
    to coprime integers with positive pivot entries (`rows`, as `null_basis`
    returns them), with their pivot columns.  That form is unique, so
    equality and hashing are plain data equality.  `basis`, the RREF rows
    as `Fraction`s, is divided out when first read and kept.
    """

    def __init__(self, ambient: int, vectors: Iterable[Vec] = ()):
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
            rows.append(kernels.primitive_row(enumerate(v)))
        self.ambient = ambient
        self.rows: tuple[IntegerVec, ...] = tuple(_canonical_rows(rows))
        self.pivots: tuple[int, ...] = tuple(row[0][0] for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The RREF rows: each row divided by its pivot entry."""
        return tuple(point_vector((row[0][1], row), self.ambient) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, v: Vec) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.point_coordinates((1, row)) is not None for row in other.rows)

    def coordinates(self, v: Vec) -> Optional[Vec]:
        """The `point_coordinates` of a vector of length `ambient`."""
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return self.point_coordinates(integer_point(v))

    def point_coordinates(self, p: Point) -> Optional[Vec]:
        """Coefficients of x / d in the canonical basis, or None if it is
        outside (x may hold zeros).  Basis row i is the only one nonzero at
        its pivot p_i, where it is 1, so its coefficient can only be x[p_i] / d.
        That is checked in integers: with c_i the pivot entry of row r_i and
        L the lcm of the c_i where x is nonzero, L x = sum x[p_i] (L / c_i) r_i.
        """
        d, x = p
        x = dict(x)
        meets = [(x[q], row) for q, row in zip(self.pivots, self.rows) if x.get(q)]
        scale = lcm(*(row[0][1] for _, row in meets))
        residue = {i: scale * c for i, c in x.items() if c}
        for c, row in meets:
            m = c * (scale // row[0][1])
            for i, r in row:
                residue[i] = residue.get(i, 0) - m * r
        if any(residue.values()):
            return None
        return tuple(Fraction(x.get(q, 0), d) for q in self.pivots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and (self.ambient, self.rows) == (other.ambient, other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _canonical_rows(rows: Iterable[dict[int, int]]) -> list[IntegerVec]:
    """The canonical rows of the span of sparse integer rows (no zero values;
    consumed): the pivot rows of one `kernels.echelon`, signed and sorted."""
    pivots = kernels.echelon(rows)
    out = []
    for c in sorted(pivots):
        row = sorted(pivots[c].items())
        out.append(tuple(row) if row[0][1] > 0 else tuple((i, -x) for i, x in row))
    return out


def full_space(n: int) -> Subspace:
    return canonical_span([((i, 1),) for i in range(n)], n)


SparseVec = dict[int, Fraction]

# A fixed prime for the rank screen of `sparse_kernel`; any prime gives exact
# answers, only the number of rows it picks can change.
MODULUS = 2**31 - 1


def independent_mod_p(rows: Iterable[SparseVec], ncols: int) -> list[SparseVec]:
    """The rows, scanned in order, that raise the rank mod MODULUS.

    A row holding a `Fraction` is scaled to its `primitive_row` first, so no
    denominator needs an inverse mod p; an integer row is reduced as it is
    (a content p divides only zeroes it).  Each row is inserted into one
    pivot dict modulo p and kept when it adds a pivot.  Rows independent
    mod p are independent over Q, so the rank mod p, the number kept, is at
    most the rank over Q.  The scan stops once it reaches ncols.
    """
    pivots: dict[int, dict[int, int]] = {}
    kept = []
    for row in rows:
        items = row.items()
        if not all(type(v) is int for v in row.values()):
            items = kernels.primitive_row(items).items()
        work = {}
        for c, v in items:
            v %= MODULUS
            if v:
                work[c] = v
        if kernels.insert(pivots, work, MODULUS) is not None:
            kept.append(row)
            if len(kept) == ncols:
                break
    return kept


def null_basis(rows: Iterable[Mapping[int, int]], ncols: int) -> list[IntegerVec]:
    """The canonical null basis over Q of integer rows {column: int} (no
    content need be divided out), read off one echelon.

    The rows are reduced with their columns reversed, so their pivots are
    taken from the last column backwards.  The null vector of each free
    column f is then 1 at f, 0 at every other free column and -v / p at the
    pivot column of each pivot row with pivot entry p and entry v at f: in
    increasing f these vectors are the canonical (RREF) basis, with the free
    columns as its pivots.  Each is returned scaled by the lcm of its |p|
    and divided by its content: primitive, its entries sorted by index, the
    first positive and at f.
    """
    last = ncols - 1
    pivots = kernels.echelon([{last - c: x for c, x in row.items() if x} for row in rows])
    terms: dict[int, list[tuple[int, int, int]]] = {f: [] for f in range(ncols) if last - f not in pivots}
    for c, prow in pivots.items():
        p = prow[c]
        for j, v in prow.items():
            if j != c:
                terms[last - j].append((last - c, v, p))
    basis = []
    for f, column in terms.items():
        scale = lcm(*(p for _, _, p in column))
        x = [(f, scale)] + sorted((i, -v * (scale // p)) for i, v, p in column)
        g = gcd(*(c for _, c in x))
        basis.append(tuple((i, c // g) for i, c in x))
    return basis


def canonical_span(rows: Sequence[IntegerVec], ncols: int) -> Subspace:
    """The subspace of Q^ncols whose canonical rows are `rows`, such as a
    `null_basis`; nothing is reduced or divided."""
    space = Subspace.__new__(Subspace)
    space.ambient, space.rows = ncols, tuple(rows)
    space.pivots = tuple(row[0][0] for row in space.rows)
    return space


def null_space(rows: Iterable[Iterable[tuple[int, Fraction]]], ncols: int) -> Subspace:
    """Canonical basis of the null space over Q of rows given as (column,
    value) pairs, the values Fractions or ints: the `canonical_span` of the
    `null_basis` of their `primitive_row`s."""
    return canonical_span(null_basis(map(kernels.primitive_row, rows), ncols), ncols)


def kernel(m: Mat) -> Subspace:
    """Canonical basis of the right null space {v | m v = 0}, by `null_space`."""
    return null_space((enumerate(row) for row in m), len(m[0]) if m else 0)


def sparse_kernel(rows: Iterable[SparseVec], ncols: int) -> Subspace:
    """Canonical null space of a sparse system, rows given as {column: value}.

    The rows are screened modulo the prime MODULUS first, and the rows that
    raise the rank mod p are kept.  Full column rank mod p proves the kernel
    over Q is zero.  Otherwise the exact stage solves the kept rows only by
    `null_basis`: they are independent over Q, so their null space contains
    the true one, and it is the true one when each of its primitive integer
    basis vectors is killed by every row that was not kept (the kept rows
    kill it by construction).  When that check fails, the whole system is
    solved exactly.
    """
    rows = sorted(rows, key=len)  # sparsest first keeps the fill-in low
    kept = independent_mod_p(rows, ncols)
    if len(kept) == ncols:
        return Subspace(ncols)
    basis = null_basis([kernels.primitive_row(row.items()) for row in kept], ncols)
    kept_ids = {id(row) for row in kept}
    others = [row for row in rows if id(row) not in kept_ids]
    for x in basis:
        dense = [0] * ncols  # indexing x densely per row entry beats walking x per row
        for i, c in x:
            dense[i] = c
        if any(sum(v * dense[c] for c, v in row.items()) for row in others):
            basis = null_basis([kernels.primitive_row(row.items()) for row in rows], ncols)
            break
    return canonical_span(basis, ncols)


def eigenspace(m: Mat, lam) -> Subspace:
    """Exact eigenspace: the `null_space` of m - lam I, shifting only the diagonal."""
    lam = frac(lam)
    rows = (((j, x - lam if j == i else x) for j, x in enumerate(row)) for i, row in enumerate(m))
    return null_space(rows, len(m))


def _equations(s: Subspace) -> list[dict[int, int]]:
    """Integer rows {column: int} whose null space is s, read off its rows
    with no elimination: x in s has coordinate x[p] on the basis row of pivot
    p, so each free column f gives x[f] = sum over the rows r of
    (r[f] / r[p]) x[p], here times the lcm of those r[p]."""
    terms: dict[int, list[tuple[int, int, int]]] = {f: [] for f in range(s.ambient)}
    for (p, c), *rest in s.rows:
        del terms[p]
        for f, v in rest:
            terms[f].append((p, v, c))
    equations = []
    for f, column in terms.items():
        scale = lcm(*(c for _, _, c in column))
        row = {p: -v * (scale // c) for p, v, c in column}
        row[f] = scale
        equations.append(row)
    return equations


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space: the
    `null_basis` of both subspaces' equations."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    n = s1.ambient
    return canonical_span(null_basis(_equations(s1) + _equations(s2), n), n)


def subspace_sum(spaces: Sequence[Subspace], ambient: Optional[int] = None) -> Subspace:
    if not spaces:
        if ambient is None:
            raise ValueError("ambient dimension needed for an empty sum")
        return Subspace(ambient)
    n = spaces[0].ambient
    if any(s.ambient != n for s in spaces):
        raise ValueError("ambient dimension mismatch")
    return canonical_span(_canonical_rows(dict(row) for s in spaces for row in s.rows), n)


def perp_space(s: Subspace, gram: Mat) -> Subspace:
    """Vectors orthogonal to every basis vector of s under the bilinear form."""
    n = s.ambient
    if len(gram) != n or any(len(r) != n for r in gram):
        raise ValueError("gram matrix size does not match ambient dimension")
    if s.is_zero():
        return full_space(n)
    constraint = tuple(mat_vec(gram, b) for b in s.basis)
    return kernel(constraint)


Point = tuple[int, IntegerVec]  # (d, x): the vector x / d, in lowest terms with d > 0


def integer_vectors(vectors: Sequence[Sequence[Fraction]]) -> tuple[int, list[IntegerVec]]:
    """D, the lcm of the denominators of the vectors, and each vector times
    D as an `IntegerVec`."""
    d = lcm(*(x.denominator for v in vectors for x in v))
    return d, [tuple((i, x.numerator * (d // x.denominator)) for i, x in enumerate(v) if x) for v in vectors]


def integer_point(v: Vec) -> Point:
    """The vector v as a `Point`: over the lcm of its denominators, the
    numerators share no factor with it, so the pair is in lowest terms."""
    d, (x,) = integer_vectors([v])
    return d, x


def point_vector(p: Point, n: int) -> Vec:
    """The vector of Q^n that a `Point` stands for."""
    d, entries = p
    out = [Fraction(0)] * n
    for i, x in entries:
        out[i] = Fraction(x, d)
    return tuple(out)


def apply_columns(cols: Sequence[IntegerVec], x: Iterable[tuple[int, int]]) -> dict[int, int]:
    """sum x_j cols[j] over the entries (j, x_j), as {index: int} (zero
    values may appear)."""
    out: dict[int, int] = {}
    for j, xj in x:
        for r, c in cols[j]:
            out[r] = out.get(r, 0) + c * xj
    return out


class IntegerMap(NamedTuple):
    """A linear map of Q^n as sparse integer columns over one denominator:
    column j is cols[j] / denom, with denom > 0 and no factor common to
    denom and every entry.  That form is unique, so equal maps are equal
    data, and a map is hashed and compared without a dense matrix.
    `from_matrix` and `matrix` are the only conversions from and to a dense
    matrix.
    """

    denom: int
    cols: tuple[IntegerVec, ...]

    @classmethod
    def from_columns(cls, denom: int, cols: Sequence[Mapping[int, int]]) -> "IntegerMap":
        """The map with columns cols[j] / denom (denom > 0), in lowest terms."""
        g = gcd(denom, *(x for col in cols for x in col.values()))
        return cls(denom // g, tuple(tuple(sorted((r, x // g) for r, x in col.items() if x)) for col in cols))

    @classmethod
    def from_matrix(cls, m: Iterable[Iterable]) -> "IntegerMap":
        """The map of a square rational matrix, its rows any sequences of
        ints, strings or Fractions (normalised by `mat`)."""
        m = mat(m)
        if m and len(m[0]) != len(m):
            raise ValueError("not a square matrix")
        d, cols = integer_vectors(transpose(m))
        return cls.from_columns(d, [dict(col) for col in cols])

    def image(self, p: Point) -> Point:
        """The image of a point, in lowest terms."""
        d, entries = p
        out = apply_columns(self.cols, entries)
        d *= self.denom
        g = gcd(d, *out.values())
        return d // g, tuple(sorted((r, x // g) for r, x in out.items() if x))

    def compose(self, other: "IntegerMap") -> "IntegerMap":
        """self after other: self applied to the columns of other, over the
        product of the denominators."""
        return IntegerMap.from_columns(self.denom * other.denom, [apply_columns(self.cols, col) for col in other.cols])

    def shifted_rows(self) -> list[dict[int, int]]:
        """The rows of denom g - denom I, whose null space is the fixed space of g."""
        rows: list[dict[int, int]] = [{i: -self.denom} for i in range(len(self.cols))]
        for j, col in enumerate(self.cols):
            for r, x in col:
                rows[r][j] = rows[r].get(j, 0) + x
        return rows

    def matrix(self) -> Mat:
        """The dense matrix of the map."""
        n = len(self.cols)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j, col in enumerate(self.cols):
            for r, x in col:
                rows[r][j] = Fraction(x, self.denom)
        return tuple(tuple(row) for row in rows)

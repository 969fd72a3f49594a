"""Fusion laws, axis verification, graded involutions, derivation spaces.

An axis is certified here by explicit exact checks: idempotency, a semisimple
adjoint with spectrum inside the law, eigenspace products landing where the
star table says, and a 1-dimensional principal eigenspace.  The certificate
carries the eigenspace decomposition together with the graded involution
matrices it entitles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from axial.algebra import Algebra
from axial.linalg import (
    Mat,
    Subspace,
    Vec,
    eigenspace,
    frac,
    identity,
    inverse,
    is_zero_vec,
    mat_from_cols,
    mat_mul,
    mat_vec,
    sparse_kernel,
    subspace_sum,
    transpose,
    vec,
)

ONE = Fraction(1)
ZERO = Fraction(0)


class FusionLaw:
    """A finite symmetric star table on a set of eigenvalues containing 1.

    The table is stored on unordered pairs; `star(l, m)` looks both ways.
    Laws where 1 * l differs from {l} (l != 0) or 1 * 0 is nonempty are
    rejected rather than reinterpreted.
    """

    __slots__ = ("values", "_star")

    def __init__(self, values, star: Mapping):
        vals = tuple(sorted({frac(v) for v in values}, reverse=True))
        if ONE not in vals:
            raise ValueError("a fusion law must contain the eigenvalue 1")
        table: dict[tuple[Fraction, Fraction], frozenset] = {}
        for key, out in star.items():
            lam, mu = (frac(key[0]), frac(key[1]))
            if lam not in vals or mu not in vals:
                raise ValueError(f"star entry {key} uses values outside the law")
            out_set = frozenset(frac(x) for x in out)
            if not out_set <= set(vals):
                raise ValueError(f"star value {key} -> {set(out)} leaves the law")
            pair = (lam, mu) if lam >= mu else (mu, lam)
            if pair in table and table[pair] != out_set:
                raise ValueError(f"asymmetric star table at {pair}")
            table[pair] = out_set
        for lam in vals:
            pair = (ONE, lam) if ONE >= lam else (lam, ONE)
            expected = frozenset() if lam == ZERO else frozenset([lam])
            if table.setdefault(pair, expected) != expected:
                raise ValueError("law violates 1*l = {l} (l != 0), 1*0 = empty")
        self.values = vals
        self._star = table

    def star(self, lam, mu) -> frozenset:
        lam, mu = frac(lam), frac(mu)
        pair = (lam, mu) if lam >= mu else (mu, lam)
        return self._star.get(pair, frozenset())

    def is_seress(self) -> bool:
        """0 is an eigenvalue and 0 * l is contained in {l} for every l."""
        if ZERO not in self.values:
            return False
        return all(self.star(ZERO, lam) <= {lam} for lam in self.values)

    def c2_grading(self) -> tuple[frozenset, frozenset]:
        """The sign grading with maximal negative part.

        Returns (plus, minus); minus is empty for trivially graded laws.
        """
        candidates = [v for v in self.values if v != ONE]
        best_minus: frozenset = frozenset()
        for size in range(len(candidates), 0, -1):
            for subset in itertools.combinations(sorted(candidates), size):
                minus = frozenset(subset)
                plus = frozenset(self.values) - minus
                ok = True
                for lam, mu in itertools.combinations_with_replacement(self.values, 2):
                    out = self.star(lam, mu)
                    same_part = (lam in minus) == (mu in minus)
                    if same_part and not out <= plus:
                        ok = False
                        break
                    if not same_part and not out <= minus:
                        ok = False
                        break
                if ok:
                    best_minus = minus
                    break
            if best_minus:
                break
        return frozenset(self.values) - best_minus, best_minus

    def __eq__(self, other):
        return (
            isinstance(other, FusionLaw)
            and self.values == other.values
            and self._star == other._star
        )

    def __hash__(self):
        return hash((self.values, frozenset(self._star.items())))

    def __repr__(self):
        vals = ",".join(str(v) for v in self.values)
        return f"FusionLaw({{{vals}}})"


def monster_law(alpha, beta) -> FusionLaw:
    """The Monster-type law on {1, 0, alpha, beta}."""
    a, b = frac(alpha), frac(beta)
    if len({ONE, ZERO, a, b}) != 4:
        raise ValueError("alpha, beta must be distinct and avoid 1, 0")
    star = {
        (ONE, ONE): {ONE},
        (ONE, ZERO): set(),
        (ONE, a): {a},
        (ONE, b): {b},
        (ZERO, ZERO): {ZERO},
        (ZERO, a): {a},
        (ZERO, b): {b},
        (a, a): {ONE, ZERO},
        (a, b): {b},
        (b, b): {ONE, ZERO, a},
    }
    return FusionLaw([ONE, ZERO, a, b], star)


def jordan_law(eta) -> FusionLaw:
    """The Jordan-type law on {1, 0, eta}."""
    e = frac(eta)
    if e in (ONE, ZERO):
        raise ValueError("eta must avoid 1 and 0")
    star = {
        (ONE, ONE): {ONE},
        (ONE, ZERO): set(),
        (ONE, e): {e},
        (ZERO, ZERO): {ZERO},
        (ZERO, e): {e},
        (e, e): {ONE, ZERO},
    }
    return FusionLaw([ONE, ZERO, e], star)


MONSTER_QUARTER = monster_law(Fraction(1, 4), Fraction(1, 32))


@dataclass(frozen=True)
class Axis:
    """A verified axis: idempotent, semisimple, fusion-checked, primitive."""

    vector: Vec
    law: FusionLaw
    eigendata: tuple[tuple[Fraction, Subspace], ...]
    primitive: bool
    miyamoto: Optional[Mat]
    sigma: Optional[Mat]

    def eigenspace(self, lam) -> Subspace:
        lam = frac(lam)
        for mu, space in self.eigendata:
            if mu == lam:
                return space
        return Subspace(len(self.vector))

    def spectrum(self) -> tuple[Fraction, ...]:
        return tuple(lam for lam, _ in self.eigendata)

    def minus_space(self) -> Subspace:
        """Sum of the eigenspaces in the negative part of the grading."""
        _, minus = self.law.c2_grading()
        spaces = [space for lam, space in self.eigendata if lam in minus]
        return subspace_sum(spaces, ambient=len(self.vector))

    def is_jordan_type(self) -> bool:
        """No eigenvalue in the negative part of the grading (trivial tau)."""
        return self.minus_space().is_zero()

    def __eq__(self, other):
        return isinstance(other, Axis) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)


def _eigenbasis_inverse(eigendata: Sequence[tuple[Fraction, Subspace]]) -> Mat:
    """Inverse of the matrix whose columns are the eigenbasis vectors in order.

    Row r of the inverse reads off the coordinate of a vector on eigenbasis
    vector r.  Eigenspaces of distinct eigenvalues spanning the whole space
    form a basis, so the inverse exists.
    """
    inv = inverse(mat_from_cols([b for _, space in eigendata for b in space.basis]))
    assert inv is not None
    return inv


def _graded_involution(
    eigendata: Sequence[tuple[Fraction, Subspace]], negated: frozenset, to_eigen: Mat
) -> Mat:
    """The linear map acting as +1 / -1 on the graded eigenspace split.

    `to_eigen` is the inverse of the eigenbasis matrix (`_eigenbasis_inverse`).
    """
    cols = [
        tuple(-x for x in b) if lam in negated else b
        for lam, space in eigendata
        for b in space.basis
    ]
    return mat_mul(mat_from_cols(cols), to_eigen)


def _integer_entries(v: Vec) -> list[tuple[int, int]]:
    """The nonzero entries of v times the lcm of their denominators, as (index, integer)."""
    denom = 1
    for x in v:
        denom = lcm(denom, x.denominator)
    return [(i, x.numerator * (denom // x.denominator)) for i, x in enumerate(v) if x]


def _integer_product(table: dict, x: list[tuple[int, int]], y: list[tuple[int, int]]) -> dict:
    """The product of two sparse integer vectors over an integer table, as {index: value}."""
    out: dict[int, int] = {}
    for i, p in x:
        for j, q in y:
            for k, c in table.get((i, j) if i <= j else (j, i), ()):
                out[k] = out.get(k, 0) + p * q * c
    return out


def _block_supports(
    alg: Algebra,
    eigendata: Sequence[tuple[Fraction, Subspace]],
    to_eigen: Mat,
    watched: Callable[[Fraction, Fraction], Iterable[Fraction]],
) -> Iterator[tuple[Fraction, Fraction, frozenset]]:
    """Project the products of eigenbasis vectors onto the eigenbasis.

    For each pair of eigenspaces (lam, mu), in `combinations_with_replacement`
    order, yields (lam, mu, hit): the eigenvalues nu among `watched(lam, mu)`
    such that some product x y, x in the basis of A_lam and y in that of
    A_mu, has a nonzero coordinate on a basis vector of A_nu.  By bilinearity
    these products span A_lam A_mu, so A_lam A_mu lies in the sum of the
    unwatched eigenspaces exactly when `hit` is empty.  Within one eigenspace
    each unordered pair is formed once, as the product is commutative.

    The coordinates are rows of `to_eigen` dotted with the product.  The
    work runs on integer copies: each basis vector and each row of
    `to_eigen` scaled by the lcm of its denominators, and the structure
    constants by one common denominator.  Each coordinate so computed is the
    true one times a nonzero integer, so every zero test is exact and every
    pair is still tested against every watched row.
    """
    denom = 1
    for row in alg.table.values():
        for _, c in row:
            denom = lcm(denom, c.denominator)
    table = {
        key: [(k, c.numerator * (denom // c.denominator)) for k, c in row]
        for key, row in alg.table.items()
    }
    rows = [dict(_integer_entries(r)) for r in to_eigen]
    rows_of: dict[Fraction, list[dict[int, int]]] = {}
    blocks = []
    for lam, space in eigendata:
        rows_of[lam] = rows[: space.dim]
        rows = rows[space.dim :]
        blocks.append((lam, [_integer_entries(b) for b in space.basis]))
    for (lam, xs), (mu, ys) in itertools.combinations_with_replacement(blocks, 2):
        pending = {nu: rows_of[nu] for nu in watched(lam, mu)}
        hit = set()
        if lam == mu:
            pairs = itertools.combinations_with_replacement(xs, 2)
        else:
            pairs = itertools.product(xs, ys)
        for x, y in pairs:
            if not pending:
                break
            product = _integer_product(table, x, y)
            for nu, nu_rows in list(pending.items()):
                if any(sum(r[k] * z for k, z in product.items() if k in r) for r in nu_rows):
                    hit.add(nu)
                    del pending[nu]
        yield lam, mu, frozenset(hit)


def check_axis_verbose(
    alg: Algebra, v: Vec, law: FusionLaw
) -> tuple[Optional[Axis], Optional[str]]:
    """Verify the axis conditions, returning (axis, None) or (None, reason).

    The fusion law is checked by projecting every product of eigenbasis
    vectors onto the eigenbasis (`_block_supports`): the product lies in the
    allowed sum exactly when its coordinates on the disallowed eigenspaces
    vanish.  The one inverse this needs also gives tau and sigma.
    """
    v = vec(v)
    n = alg.dim
    if is_zero_vec(v):
        return None, "not_idempotent: zero vector"
    if alg.product(v, v) != v:
        return None, "not_idempotent"
    ad = alg.ad_matrix(v)
    eigendata = []
    total = 0
    for lam in law.values:
        space = eigenspace(ad, lam)
        if not space.is_zero():
            eigendata.append((lam, space))
            total += space.dim
    if total != n:
        return None, f"bad_spectrum: eigenspaces for the law span {total} of {n}"
    to_eigen = _eigenbasis_inverse(eigendata)
    present = [lam for lam, _ in eigendata]

    def disallowed(lam, mu):
        allowed = law.star(lam, mu)
        return [nu for nu in present if nu not in allowed]

    for lam, mu, hit in _block_supports(alg, eigendata, to_eigen, disallowed):
        if hit:
            return None, f"fusion_violation: {lam} * {mu}"
    one_space = next((s for lam, s in eigendata if lam == ONE), None)
    if one_space is None or one_space.dim != 1:
        return None, "not_primitive"
    plus, minus = law.c2_grading()
    miyamoto = None
    if minus:
        present_minus = frozenset(present) & minus
        if present_minus:
            miyamoto = _graded_involution(eigendata, minus, to_eigen)
        else:
            miyamoto = identity(n)
    sigma = None
    if minus and all(lam not in minus for lam in present):
        # Jordan-type axis inside a larger graded law: negate the middle
        # eigenvalue part (the alpha eigenspace for Monster-type laws).
        inner = [lam for lam in present if lam not in (ONE, ZERO)]
        if inner:
            sigma = _graded_involution(eigendata, frozenset(inner), to_eigen)
    axis = Axis(
        vector=v,
        law=law,
        eigendata=tuple(eigendata),
        primitive=True,
        miyamoto=miyamoto,
        sigma=sigma,
    )
    return axis, None


def check_axis(alg: Algebra, v: Vec, law: FusionLaw) -> Optional[Axis]:
    """Certify v as a primitive axis for the law, or return None."""
    axis, _ = check_axis_verbose(alg, v, law)
    return axis


def miyamoto_involution(ax: Axis) -> Mat:
    """The graded involution of a verified axis (identity for Jordan axes)."""
    if ax.miyamoto is None:
        raise ValueError("the axis law carries no sign grading")
    return ax.miyamoto


def is_automorphism(alg: Algebra, g: Mat) -> bool:
    """Exact multiplicativity check on all basis pairs, plus invertibility."""
    n = alg.dim
    cols = transpose(g)
    if Subspace(n, cols).dim != n:
        return False
    for i in range(n):
        for j in range(i, n):
            lhs = mat_vec(g, dict_to_vec(alg.basis_product(i, j), n))
            rhs = alg.product(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


def dict_to_vec(sparse_row, n: int) -> Vec:
    out = [Fraction(0)] * n
    for k, c in sparse_row:
        out[k] = c
    return tuple(out)


def derivation_space(alg: Algebra) -> Subspace:
    """Solutions d of the Leibniz identity on all basis pairs, as n^2 vectors.

    The unknown d[r][c] (the e_r part of d(e_c)) is entry r*n + c.  Each
    equation d(e_i e_j) = d(e_i) e_j + e_i d(e_j), read at one output e_k, is
    built straight from the nonzero structure constants and solved by
    `sparse_kernel`.  Full rank mod p there proves the space zero; a rank
    deficit mod p proves nothing until its kernel passes the exact check
    against every equation.  A zero space certifies that the automorphism
    group (an algebraic group in characteristic zero) is finite.
    """
    n = alg.dim
    partners: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for (a, b), product in alg.table.items():
        partners[a].append((b, product))
        if a != b:
            partners[b].append((a, product))
    rows = []
    for i in range(n):
        for j in range(i, n):
            eqs: list[dict[int, Fraction]] = [{} for _ in range(n)]
            # d(e_i e_j) = sum_m gamma_ij^m d(e_m), whose e_k part is d[k][m]
            for m, c in alg.basis_product(i, j):
                for k in range(n):
                    eqs[k][k * n + m] = c
            # minus d(e_i) e_j = sum_r d[r][i] e_r e_j, and e_i d(e_j) likewise
            for col, others in ((i, partners[j]), (j, partners[i])):
                for r, product in others:
                    key = r * n + col
                    for k, c in product:
                        eqs[k][key] = eqs[k].get(key, ZERO) - c
            rows.extend(eq for eq in eqs if eq)
    return sparse_kernel(rows, n * n)


def infer_fusion_law(alg: Algebra, v: Vec) -> Optional[FusionLaw]:
    """Read the star table of an idempotent off its eigenbasis products.

    Returns None when the adjoint is not semisimple with rational spectrum.
    Used to discover laws empirically (for example the nearly-Monster laws
    that show up inside joint-zero subalgebras).
    """
    from axial.linalg import semisimple_spectrum

    v = vec(v)
    if is_zero_vec(v) or alg.product(v, v) != v:
        return None
    spectrum = semisimple_spectrum(alg.ad_matrix(v))
    if not spectrum.ok:
        return None
    eigendata = spectrum.eigenpairs
    assert eigendata is not None
    values = [lam for lam, _ in eigendata]
    to_eigen = _eigenbasis_inverse(eigendata)
    star = {
        (lam, mu): hit
        for lam, mu, hit in _block_supports(alg, eigendata, to_eigen, lambda lam, mu: values)
    }
    try:
        return FusionLaw(values, star)
    except ValueError:
        return None

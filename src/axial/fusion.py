"""Fusion laws, axis verification, graded involutions, derivation spaces.

An axis is certified here by explicit exact checks: idempotency, a semisimple
adjoint with spectrum inside the law, eigenspace products landing where the
star table says, and a 1-dimensional principal eigenspace.  The eigenspaces
are held as primitive integer bases, each read by `linalg.null_basis`, the
package's one null-space reader, off the integer shift of the adjoint with
no `Fraction` basis formed; A_1 = <a> is proved instead when the other
eigenspaces span n - 1 dimensions (otherwise A_1 is solved exactly too).
Past the spectrum every check is a polynomial in the adjoint.  A
block of products is formed only when no other block implies it: the
(1, mu) blocks hold when A_1 = <a>, and under a proved nondegenerate
Frobenius form one block per forbidden eigenvalue triple {lam, mu, nu}
decides the rest.

An `Axis` is its vector, its law, its integer adjoint and its spectrum.
Its canonical eigenspaces are those integer bases as they are
(`linalg.canonical_span` divides nothing), and the graded involutions the
law entitles are the sign polynomials of the adjoint over the spectrum,
held only as sparse `IntegerMap`s (the format of `axial.linalg`, which
alone reads it, and whose `matrix` is the one dense read), whether the axis
was certified here or is the image of a certified axis under an
automorphism (`axial.axet.close_axet`), whose spectrum is its seed's.  A
law is never changed, so `jordan_law` and `monster_law` build each law once.

The axis certificate, `infer_fusion_law`, `derivation_space` and
`is_automorphism` (on a user's matrix, read once as an `IntegerMap`) work
over the integers on the algebra's cached `integer_table`, the first three
through its `IntegerAdjoint`; `infer_fusion_law` reads the spectrum off
that adjoint's minimal polynomial, `derivation_space` first drops the
columns its idempotent basis vectors prove zero, and no dense adjoint is
formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator, Mapping, Optional

from axial.algebra import ZERO, Algebra, IntegerAdjoint, integer_product
from axial.linalg import (
    IntegerMap,
    IntegerVec,
    Mat,
    Subspace,
    Vec,
    apply_columns,
    canonical_span,
    frac,
    is_zero_vec,
    null_basis,
    sparse_kernel,
    subspace_sum,
    unit_vec,
    vec,
)
from axial.univariate import is_squarefree, linear_factors, primitive_part

ONE = Fraction(1)
HALF = Fraction(1, 2)


class FusionLaw:
    """A finite symmetric star table on a set of eigenvalues containing 1.

    The table is stored on unordered pairs; `star(l, m)` looks both ways.
    Laws where 1 * l differs from {l} (l != 0) or 1 * 0 is nonempty are
    rejected rather than reinterpreted.
    """

    __slots__ = ("values", "_star", "_grading")

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
        self._grading: Optional[tuple[frozenset, frozenset]] = None

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
        Found on the first call and kept: a law is never changed.
        """
        if self._grading is None:
            self._grading = self._find_grading()
        return self._grading

    def _find_grading(self) -> tuple[frozenset, frozenset]:
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


@cache
def monster_law(alpha, beta) -> FusionLaw:
    """The Monster-type law on {1, 0, alpha, beta}, built once per argument
    pair and kept: a law is never changed."""
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


@cache
def jordan_law(eta) -> FusionLaw:
    """The Jordan-type law on {1, 0, eta}, built once per argument and kept."""
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

# Identity lengths of the two-generated algebras of Monster type (1/4, 1/32),
# the only classification data this library builds in.
NS_UNIT_LENGTHS: dict[str, Fraction] = {
    "2A": Fraction(12, 5),
    "2B": Fraction(2),
    "3A": Fraction(116, 35),
    "3C": Fraction(32, 11),
    "4A": Fraction(4),
    "4B": Fraction(19, 5),
    "5A": Fraction(32, 7),
    "6A": Fraction(51, 10),
}


@dataclass(frozen=True)
class Axis:
    """A primitive axis of `law`: its vector, the `IntegerAdjoint` of it and
    `present`, the law's values that are eigenvalues of ad(a), in the law's
    order.

    `eigenbases` holds the primitive integer basis of each nonzero
    eigenspace that `check_axis` read by `linalg.null_basis`, keyed by
    eigenvalue: the basis vector of each free column f of the canonical
    basis, scaled to coprime integers, its entries sorted by index.
    `close_axet` builds an Axis for the image of a certified axis under an
    automorphism with the spectrum of the axis it is the image of and no
    bases; they are solved on first use by the rule of `check_axis`, one
    null space per eigenvalue other than 1.  The bases are already canonical
    subspace rows, so `eigendata` holds them as they are.

    The graded involutions are the sign polynomials of the adjoint over the
    spectrum, so reading them solves no eigenspace.  `miyamoto_map` and
    `sigma_map` hold them as `IntegerMap`s, each None when the law entitles
    the axis to no such involution; `IntegerMap.matrix` is their one dense
    read.
    """

    vector: Vec
    law: FusionLaw
    adjoint: IntegerAdjoint = field(repr=False)
    present: tuple[Fraction, ...]
    eigenbases: Optional[dict[Fraction, list[IntegerVec]]] = field(default=None, repr=False)

    primitive = True  # every Axis is primitive: a 1-dimensional 1-eigenspace

    @cached_property
    def integer_eigenbases(self) -> dict[Fraction, list[IntegerVec]]:
        """`eigenbases`, solved here for an axis built without them."""
        if self.eigenbases is not None:
            return self.eigenbases
        return _eigenbases(self.adjoint, self.vector, self.present)

    @cached_property
    def eigendata(self) -> tuple[tuple[Fraction, Subspace], ...]:
        """The nonzero eigenspaces of ad(a) for the law's values, in the
        law's order: the `canonical_span` of each integer eigenbasis, which
        neither reduces nor divides."""
        n = len(self.vector)
        return tuple((lam, canonical_span(basis, n)) for lam, basis in self.integer_eigenbases.items())

    @cached_property
    def miyamoto_map(self) -> Optional[IntegerMap]:
        """The sign map of the law's grading (the identity when no negated
        eigenvalue is present); None for a trivially graded law."""
        _, minus = self.law.c2_grading()
        return self.adjoint.sign_map(self.present, minus) if minus else None

    @cached_property
    def sigma_map(self) -> Optional[IntegerMap]:
        """For a Jordan-type axis under a graded law, the map negating the
        eigenvalues other than 1 and 0 (the alpha eigenspace for
        Monster-type laws); otherwise None."""
        _, minus = self.law.c2_grading()
        inner = frozenset(lam for lam in self.present if lam not in (ONE, ZERO))
        if minus and inner and not minus & set(self.present):
            return self.adjoint.sign_map(self.present, inner)
        return None

    def eigenspace(self, lam) -> Subspace:
        lam = frac(lam)
        for mu, space in self.eigendata:
            if mu == lam:
                return space
        return Subspace(len(self.vector))

    def minus_space(self) -> Subspace:
        """Sum of the eigenspaces in the negative part of the grading."""
        _, minus = self.law.c2_grading()
        spaces = [space for lam, space in self.eigendata if lam in minus]
        return subspace_sum(spaces, ambient=len(self.vector))

    def is_jordan_type(self) -> bool:
        """No eigenvalue in the negative part of the grading (trivial tau)."""
        return not set(self.present) & self.law.c2_grading()[1]

    def __eq__(self, other):
        return isinstance(other, Axis) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)


def _eigenbases(adjoint: IntegerAdjoint, v: Vec, values) -> dict[Fraction, list[IntegerVec]]:
    """The integer bases of the nonzero eigenspaces of ad(v) for `values`
    (which hold 1), in their order, for a nonzero idempotent v.

    The values other than 1 are solved first.  v lies in A_1, and
    eigenspaces of distinct values are independent, so when their
    dimensions sum to n - 1, A_1 = <v> is proved and its basis is
    [primitive v], signed as `null_basis` signs it (first entry positive);
    otherwise A_1 is solved exactly too.
    """
    n = len(v)
    bases = {lam: null_basis(adjoint.shifted_rows(lam), n) for lam in values if lam != ONE}
    if sum(map(len, bases.values())) == n - 1:
        a = [(i, x) for i, x in enumerate(primitive_part(v)) if x]
        bases[ONE] = [tuple((i, x if a[0][1] > 0 else -x) for i, x in a)]
    else:
        bases[ONE] = null_basis(adjoint.shifted_rows(ONE), n)
    return {lam: bases[lam] for lam in values if bases[lam]}


def _block_products(table: dict, bases: dict, lam: Fraction, mu: Fraction) -> Iterator[dict]:
    """The products x y of basis vectors of A_lam and A_mu, lazily; they span
    A_lam A_mu (each unordered pair once when lam = mu, as the product is
    commutative).

    They are computed on the integer eigenbases and on the structure
    constants times their common denominator (the algebra's
    `integer_table`), so each is the true product times a nonzero integer.
    """
    xs, ys = bases[lam], bases[mu]
    if lam == mu:
        pairs = itertools.combinations_with_replacement(xs, 2)
    else:
        pairs = itertools.product(xs, ys)
    return (integer_product(table, x, y) for x, y in pairs)


def _fusion_violation(alg: Algebra, axis: Axis) -> Optional[tuple[Fraction, Fraction]]:
    """The first block (lam, mu), in `combinations_with_replacement` order,
    with a product outside the sum of the eigenspaces that law.star(lam, mu)
    allows, or None.

    A block is formed only when no other block already implies it:
    - When A_1 = <a>, every block (1, mu) holds: a y = mu y, and the law has
      1 * mu = {mu} (empty for mu = 0).
    - When the form is a proved nondegenerate Frobenius form
      (`Algebra.has_nondegenerate_form`), ad(a) is self-adjoint, so the
      eigenspaces are orthogonal, and (x y, z) is symmetric in x, y and z.
      So x y lies in the allowed sum exactly when (x y, z) = 0 for every z
      in every forbidden A_nu, and the block (lam, mu) holds exactly when
      the form vanishes on each unordered triple {lam, mu, nu}, nu
      forbidden.  The blocks are taken cheapest first, and one is kept only
      when it covers a triple no kept or implied block covers.
    When a block fails, every block before it not yet seen to hold is
    checked too, so the block named is the first one that fails.
    """
    law, bases, adjoint = axis.law, axis.integer_eigenbases, axis.adjoint
    present = list(bases)
    dims = [len(basis) for basis in bases.values()]
    # blocks with a forbidden eigenvalue (index pairs into `present`): allowed D nu
    allowed, forbidden = {}, {}
    for i, j in itertools.combinations_with_replacement(range(len(present)), 2):
        star = law.star(present[i], present[j])
        if not star.issuperset(present):
            allowed[i, j] = [adjoint.scaled(nu) for nu in present if nu in star]
            forbidden[i, j] = [k for k, nu in enumerate(present) if nu not in star]
    order = list(allowed)
    one = present.index(ONE) if ONE in present else None
    held = {b for b in order if one in b} if one is not None and dims[one] == 1 else set()
    todo = [b for b in order if b not in held]
    if alg.has_nondegenerate_form():

        def triples(block):
            return {tuple(sorted((*block, k))) for k in forbidden[block]}

        def cost(block):
            i, j = block
            return dims[i] * (dims[i] + 1) // 2 if i == j else dims[i] * dims[j]

        covered = set().union(*map(triples, held))
        kept = []
        for block in sorted(todo, key=cost):
            new = triples(block) - covered
            if new:
                kept.append(block)
                covered |= new
        todo = kept
    table = alg.integer_table().table

    def fails(block):
        i, j = block
        products = _block_products(table, bases, present[i], present[j])
        return any(any(adjoint.apply_shifts(allowed[block], p).values()) for p in products)

    for block in todo:
        if fails(block):
            earlier = order[: order.index(block)]
            i, j = next((b for b in earlier if b not in held and fails(b)), block)
            return present[i], present[j]
        held.add(block)
    return None


def check_axis_verbose(
    alg: Algebra, v: Vec, law: FusionLaw
) -> tuple[Optional[Axis], Optional[str]]:
    """Verify the axis conditions, returning (axis, None) or (None, reason).

    The eigenspaces are the null spaces of the integer shifts D ad(a) - D lam
    (`IntegerAdjoint`), each held as the primitive integer basis read off
    one echelon by `linalg.null_basis`; when those of the values other than
    1 span n - 1 dimensions, A_1 = <a> is proved with no solve
    (`_eigenbases`).  Once the eigenspaces span A, ad(a) is semisimple with
    the spectrum found, and the rest of the certificate is read off
    polynomials in the same integer adjoint: a product of eigenbasis vectors
    lies in the allowed sum exactly when the product of (ad - nu) over the
    allowed eigenvalues kills it, tested by one pass of the block's shifts
    D nu, scaled once per block (`_fusion_violation` forms only the blocks
    of products the others do not imply), and tau and sigma are the sign
    polynomials of ad(a), evaluated on first read.
    """
    v = vec(v)
    if is_zero_vec(v):
        return None, "not_idempotent: zero vector"
    if alg.product(v, v) != v:
        return None, "not_idempotent"
    adjoint = IntegerAdjoint(alg, v, law.values)
    bases = _eigenbases(adjoint, v, law.values)
    total = sum(map(len, bases.values()))
    if total != alg.dim:
        return None, f"bad_spectrum: eigenspaces for the law span {total} of {alg.dim}"
    axis = Axis(v, law, adjoint, tuple(bases), bases)
    violation = _fusion_violation(alg, axis)
    if violation is not None:
        return None, "fusion_violation: {} * {}".format(*violation)
    if len(bases.get(ONE, ())) != 1:
        return None, "not_primitive"
    return axis, None


def check_axis(alg: Algebra, v: Vec, law: FusionLaw) -> Optional[Axis]:
    """Certify v as a primitive axis for the law, or return None."""
    axis, _ = check_axis_verbose(alg, v, law)
    return axis


def is_automorphism(alg: Algebra, g: Mat | IntegerMap) -> bool:
    """Whether g, a dim x dim matrix (else ValueError) or its `IntegerMap`
    G / d, is an automorphism.  With C / D the `integer_table`, it is
    multiplicative when `integer_product`(G_i, G_j) = d sum_k C_ij^k G_k
    for all i <= j, and invertible when its columns' `null_basis` is empty."""
    n, table = alg.dim, alg.integer_table().table
    g = g if isinstance(g, IntegerMap) else IntegerMap.from_matrix(g, n)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        lhs = integer_product(table, g.cols[i], g.cols[j])
        rhs = apply_columns(g.cols, table.get((i, j), ()))
        if {k: v for k, v in lhs.items() if v} != {k: g.denom * v for k, v in rhs.items() if v}:
            return False
    return not null_basis(map(dict, g.cols), n)


def derivation_space(alg: Algebra) -> Subspace:
    """Solutions d of the Leibniz identity on all basis pairs, as n^2 vectors.

    The unknown d[r][c] (the e_r part of d(e_c)) is entry r*n + c.  For an
    idempotent e, d(e) = d(e e) = 2 e d(e), so d(e) lies in the
    1/2-eigenspace of ad(e).  Each basis vector with e_c e_c = e_c is
    screened by `IntegerAdjoint.lacks_eigenvalue(1/2)`: full rank mod p
    proves that space zero, hence column c of every derivation zero, and its
    n unknowns leave the system.  A rank deficit mod p proves nothing, and
    the column stays.  When every column is certified no row is built.

    Each equation d(e_i e_j) = d(e_i) e_j + e_i d(e_j), read at one output
    e_k, is built over the remaining unknowns, numbered in increasing
    (r, c) order, from the scaled constants of the `integer_table`, without
    zero entries, and solved by `sparse_kernel`.  Full rank mod p there
    proves the space zero; on a rank deficit mod p, which proves nothing,
    the rows that raised the rank are solved exactly and the answer is
    checked against the other rows.  Putting the certified columns back as
    zeros keeps the order of the unknowns, so the basis stays canonical.
    A zero space certifies that the automorphism group (an algebraic group
    in characteristic zero) is finite.
    """
    n = alg.dim
    ints = alg.integer_table()
    free = [c for c in range(n) if not _column_is_zero(alg, c)]
    if not free:
        return Subspace(n * n)
    width = len(free)
    position = {c: p for p, c in enumerate(free)}
    rows = []
    for i in range(n):
        for j in range(i, n):
            eqs: list[dict[int, int]] = [{} for _ in range(n)]
            # d(e_i e_j) = sum_m gamma_ij^m d(e_m), whose e_k part is d[k][m]
            for m, c in ints.table.get((i, j), ()):
                if (p := position.get(m)) is not None:
                    for k in range(n):
                        eqs[k][k * width + p] = c
            # minus d(e_i) e_j = sum_r d[r][i] e_r e_j, and e_i d(e_j) likewise
            for col, others in ((i, ints.partners[j]), (j, ints.partners[i])):
                if (p := position.get(col)) is None:
                    continue
                for r, product in others:
                    key = r * width + p
                    for k, c in product:
                        eqs[k][key] = eqs[k].get(key, 0) - c
            rows.extend(row for eq in eqs if (row := {key: c for key, c in eq.items() if c}))
    space = sparse_kernel(rows, n * width)
    if width == n:
        return space

    def unknown(q: int) -> int:
        return q // width * n + free[q % width]

    return canonical_span([tuple((unknown(q), x) for q, x in row) for row in space.rows], n * n)


def _column_is_zero(alg: Algebra, c: int) -> bool:
    """Whether d(e_c) = 0 is proved for every derivation d: e_c is
    idempotent and 1/2 is proved not to be an eigenvalue of ad(e_c)."""
    ints = alg.integer_table()
    if ints.table.get((c, c)) != ((c, ints.denom),):
        return False
    return IntegerAdjoint(alg, unit_vec(alg.dim, c), (HALF,)).lacks_eigenvalue(HALF)


def infer_fusion_law(alg: Algebra, v: Vec) -> Optional[FusionLaw]:
    """Read the star table of an idempotent off its eigenbasis products.

    Returns None unless ad(v) is semisimple over Q with rational spectrum,
    that is, unless the minimal polynomial of the integer adjoint D ad(v)
    splits into distinct linear factors over Q: a repeated factor is found
    by `is_squarefree`, and `linear_factors` then splits off the rational
    roots and leaves any other factor unsplit in a cofactor (sympy is
    loaded only when no prime of `univariate.PRIMES` leaves a squarefree
    image of the polynomial).  Substituting D t for its
    variable gives the polynomial whose roots are the eigenvalues.  Each
    D lam is a rational root of a monic integer polynomial, so an integer,
    and the same adjoint reads every eigenspace; they span A.
    A product has a nonzero nu-part exactly when the product of (ad - kappa)
    over the other eigenvalues kappa does not kill it.  Used to discover
    laws empirically (for example the nearly-Monster laws that show up
    inside joint-zero subalgebras).
    """
    v = vec(v)
    if is_zero_vec(v) or alg.product(v, v) != v:
        return None
    adjoint = IntegerAdjoint(alg, v, ())
    d = adjoint.scale
    poly = [c * d**i for i, c in enumerate(adjoint.minimal_polynomial())]
    if not is_squarefree(poly):
        return None
    factors, cofactors = linear_factors(poly)
    if cofactors:
        return None
    values = sorted((Fraction(-b, a) for (b, a), _ in factors), reverse=True)
    bases = {lam: null_basis(adjoint.shifted_rows(lam), alg.dim) for lam in values}
    others = {nu: [adjoint.scaled(k) for k in values if k != nu] for nu in values}
    table = alg.integer_table().table
    star = {}
    for lam, mu in itertools.combinations_with_replacement(values, 2):
        hit: set[Fraction] = set()
        for p in _block_products(table, bases, lam, mu):
            hit.update([nu for nu in values if nu not in hit and any(adjoint.apply_shifts(others[nu], p).values())])
            if len(hit) == len(values):
                break
        star[(lam, mu)] = frozenset(hit)
    try:
        return FusionLaw(values, star)
    except ValueError:
        return None

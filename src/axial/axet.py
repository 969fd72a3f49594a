"""Closed axis sets, the Miyamoto group, twins, Jordan axes, pair classes.

The group layer works on integer data, in the sparse integer format of
`axial.linalg`.  Involutions are `IntegerMap`s, sparse integer columns over
one denominator, and points are `Point`s, a vector over one denominator in
lowest terms, so they are applied in O(nonzeros) and hashed as integers.
`close_axet` builds each new axis as an `Axis` of its vector, with its own
integer adjoint and the spectrum of the axis it is the image of: the image
of a certified axis under an automorphism needs no certificate, and reading
its involution solves no eigenspace.

The Miyamoto group and the automorphisms permuting an axet are held as
sympy permutation groups on spanning sets of vectors, with one `IntegerMap`
per generator, whose `matrix` is its one dense read; their orders and
orbits come from deterministic Schreier-Sims, and no element is listed or
stored as a matrix.  A candidate automorphism is verified in the axet
frame, on the products of axet vectors and base coordinates, with no matrix
formed.  sympy is imported by the two functions that build these groups, on
their first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence

from axial.algebra import Algebra, AlgebraError, IntegerAdjoint, integer_product
from axial.fusion import (
    Axis,
    FusionLaw,
    MONSTER_QUARTER,
    NS_UNIT_LENGTHS,
    check_axis,
    is_automorphism,
    jordan_law,
)
from axial.groebner import DEFAULT_CAPS, POSITIVE_DIMENSIONAL, CapExceeded, SolverCaps
from axial.linalg import (
    IntegerMap,
    Mat,
    Point,
    Subspace,
    Vec,
    apply_columns,
    canonical_span,
    identity,
    integer_point,
    integer_vectors,
    inverse,
    mat_from_cols,
    mat_sub,
    null_basis,
    point_vector,
    rref,
    transpose,
    unit_vec,
    vscale,
)
from axial.search import axes_from_idempotents, naive_idempotents

if TYPE_CHECKING:
    from sympy.combinatorics import Permutation, PermutationGroup

@dataclass
class Axet:
    """A set of axes closed under all of their graded involutions."""

    axes: tuple[Axis, ...]

    def __len__(self):
        return len(self.axes)

    def vectors(self) -> list[Vec]:
        return [a.vector for a in self.axes]

    def tau_maps(self) -> list[IntegerMap]:
        out = []
        for a in self.axes:
            if a.miyamoto_map is None:
                raise ValueError("axis without a graded involution in the axet")
            out.append(a.miyamoto_map)
        return out

    def spans(self, dim: int) -> bool:
        return Subspace(dim, self.vectors()).dim == dim


def close_axet(alg: Algebra, seed_axes: Sequence[Axis], cap: int = 512) -> Axet:
    """Orbit of the seeds under the group G their involutions generate.

    For an automorphism g the involution of g(a) is g tau_a g^-1, so every
    involution of an axis in the orbit lies in G, and an orbit of G is closed
    under each of them: the orbit is the closure of the seeds under the
    involutions of all axes found.  One pass applies each distinct seed
    involution, an `IntegerMap`, to the `Point` of each axis of a list that
    grows while it is read; points are compared as integer data.  A new
    axis, the image of a certified axis under an automorphism, is an axis
    of the same law with the same spectrum: it is held as its vector, the
    law, its own integer adjoint and that spectrum, and nothing is certified
    again.
    """
    if not seed_axes:
        raise ValueError("need at least one seed axis")
    law = seed_axes[0].law
    if any(a.law != law for a in seed_axes):
        raise ValueError("seed axes must share one fusion law")
    n = alg.dim
    axes: list[Axis] = []
    points: list[Point] = []
    seen: set[Point] = set()
    for a in seed_axes:
        p = integer_point(a.vector)
        if p not in seen:
            seen.add(p)
            points.append(p)
            axes.append(a)
    taus = list(dict.fromkeys(a.miyamoto_map for a in axes if a.miyamoto_map is not None))
    for a, p in zip(axes, points):  # both lists grow while they are read
        for g in taus:
            w = g.image(p)
            if w in seen:
                continue
            if len(axes) >= cap:
                raise CapExceeded(f"axis closure exceeded cap {cap}")
            seen.add(w)
            points.append(w)
            v = point_vector(w, n)
            axes.append(Axis(v, law, IntegerAdjoint(alg, v, law.values), a.present))
    return Axet(tuple(axes))


@dataclass
class MiyGroup:
    """The group generated by the axet's involutions, as permutations of points.

    The points are the axet vectors and, when the axet does not span the
    algebra, the orbits of the unit vectors appended after them.  The points
    span, and a linear map is fixed by its action on a spanning set, so the
    action is faithful: `group.order()` is the order of the Miyamoto group.
    `faithful` records whether the axet alone spans.  `maps` holds the
    distinct involutions as `IntegerMap`s.
    """

    maps: list[IntegerMap]
    points: list[Vec]
    group: PermutationGroup
    faithful: bool

    @property
    def order(self) -> int:
        return self.group.order()


def miyamoto_group(alg: Algebra, axet: Axet, cap: int = 200_000) -> MiyGroup:
    """The Miyamoto group, from the permutations its involutions induce.

    Each involution is applied as an `IntegerMap` to `Point`s, which key the
    points as integer data.  `cap` bounds the number of points; an infinite
    group has an infinite orbit, so the cap is what makes the call return.
    """
    from sympy.combinatorics import Permutation, PermutationGroup

    n = alg.dim
    maps = list(dict.fromkeys(axet.tau_maps()))
    vectors = axet.vectors()
    points = [integer_point(v) for v in vectors]
    faithful = axet.spans(n)
    if not faithful:
        units = (integer_point(unit_vec(n, j)) for j in range(n))
        points += [e for e in units if e not in points]
    index = {p: i for i, p in enumerate(points)}
    images: list[list[int]] = [[] for _ in maps]
    for p in points:  # the list grows while it is read
        for g, image in zip(maps, images):
            w = g.image(p)
            if w not in index:
                if faithful:
                    raise AlgebraError("involution does not preserve the axet")
                if len(points) >= cap:
                    raise CapExceeded(f"Miyamoto group points exceeded cap {cap}")
                index[w] = len(points)
                points.append(w)
            image.append(index[w])
    perms = [Permutation(image) for image in images] or [Permutation(len(points) - 1)]
    vectors += [point_vector(p, n) for p in points[len(vectors) :]]
    return MiyGroup(maps, vectors, PermutationGroup(perms), faithful)


def twins_of(alg: Algebra, a: Axis, caps: SolverCaps = DEFAULT_CAPS) -> list[Axis]:
    """All axes sharing a's involution, found inside a + Ann(minus part).

    The search space is the annihilator of the negated eigenspace, so the
    quadratic solve runs in a few variables even in large algebras.  A
    positive-dimensional restricted variety is surfaced as an error carrying
    the basis, for manual relation injection.
    """
    minus = a.minus_space()
    ann = alg.annihilator(minus)
    if ann.is_zero():
        return []
    result = naive_idempotents(alg, subspace=ann, offset=a.vector, caps=caps)
    if result.status == POSITIVE_DIMENSIONAL:
        raise AlgebraError(
            "twin variety is positive-dimensional; inject extra relations "
            f"(basis size {len(result.basis)})"
        )
    twins = []
    for axis in axes_from_idempotents(alg, result, a.law):
        if axis.vector != a.vector and axis.miyamoto_map == a.miyamoto_map:
            twins.append(axis)
    return twins


def tau_realizer(
    alg: Algebra, tau: Mat, law: FusionLaw, caps: SolverCaps = DEFAULT_CAPS
) -> list[Axis]:
    """Axes whose involution equals the given automorphism.

    A realizing axis x satisfies x - lam*1 in Ann([A, tau]) for lam the
    negated eigenvalue of the law, so candidates are searched on that affine
    coset (within the span of Ann and the unit when the negated eigenvalue is
    not unique); each rational idempotent is filtered through the axis check
    and a tau comparison.  tau is read once as an `IntegerMap`, so its rows
    may be tuples or lists and its entries ints, strings or Fractions (any
    shape but dim x dim is a ValueError), and the automorphism and
    involution checks and the comparisons are on integer data.
    Realizers of the identity are Jordan axes; prefer `jordan_axes`, which
    searches the much smaller fixed subalgebra.
    """
    one = alg.require_unit()
    n = alg.dim
    t = IntegerMap.from_matrix(tau, n)
    if not is_automorphism(alg, t):
        raise AlgebraError("tau is not an algebra automorphism")
    if t.compose(t) != IntegerMap.from_matrix(identity(n)):
        raise AlgebraError("tau is not an involution")
    commutator_image = Subspace(n, transpose(mat_sub(t.matrix(), identity(n))))
    ann = alg.annihilator(commutator_image)
    _, minus = law.c2_grading()
    if len(minus) == 1:
        (lam,) = minus
        result = naive_idempotents(
            alg, subspace=ann, offset=vscale(lam, one), caps=caps
        )
    else:
        space = Subspace(n, ann.basis + (one,))
        result = naive_idempotents(alg, subspace=space, caps=caps)
    if result.status == POSITIVE_DIMENSIONAL:
        raise AlgebraError("realizer variety is positive-dimensional")
    found = []
    for axis in axes_from_idempotents(alg, result, law):
        if axis.miyamoto_map == t:
            found.append(axis)
    return found


def fixed_subalgebra(alg: Algebra, group: MiyGroup) -> Subspace:
    """Common fixed space of the group generators (hence of the group).

    One null space of the rows of denom g - denom I
    (`IntegerMap.shifted_rows`), stacked over the generators; with no
    generators every vector is fixed.
    """
    rows = [row for g in group.maps for row in g.shifted_rows()]
    return canonical_span(null_basis(rows, alg.dim), alg.dim)


def jordan_axes(
    alg: Algebra,
    group: MiyGroup,
    law: FusionLaw = MONSTER_QUARTER,
    caps: SolverCaps = DEFAULT_CAPS,
) -> list[Axis]:
    """Axes with trivial negated part, searched in the group's fixed space.

    Returned axes satisfy the Jordan law at the middle eigenvalue.  For
    Monster type (1/4, 1/32) the two-generated classification puts every such
    axis inside the fixed subalgebra, so the search is complete; for other
    laws it reports the Jordan axes of the fixed subalgebra only.
    """
    plus, minus = law.c2_grading()
    if not minus:
        raise ValueError("law carries no sign grading")
    inner = [v for v in law.values if v not in (Fraction(1), Fraction(0)) and v not in minus]
    if len(inner) != 1:
        raise ValueError("law does not single out a middle eigenvalue")
    alpha = inner[0]
    fixed = fixed_subalgebra(alg, group)
    if fixed.is_zero():
        return []
    result = naive_idempotents(alg, subspace=fixed, caps=caps)
    if result.status == POSITIVE_DIMENSIONAL:
        raise AlgebraError("fixed-space idempotent variety is positive-dimensional")
    found = []
    for point in result.points:
        if check_axis(alg, point, jordan_law(alpha)) is None:
            continue
        # re-certify under the ambient law so the axis carries the trivial
        # tau and the sign involution on the middle eigenspace
        axis = check_axis(alg, point, law)
        if axis is not None:
            found.append(axis)
    return found


@dataclass
class PairClass:
    """Invariants of a two-generated subalgebra, with an optional label."""

    subalgebra_dim: int
    tau_product_order: Optional[int]
    form_value: Optional[Fraction]
    unit_length: Optional[Fraction]
    label: Optional[str] = None


def _product_order(g: IntegerMap, h: IntegerMap, n: int, cap: int = 64) -> Optional[int]:
    """The order of g h when it is at most `cap`, else None.

    (g h)^k is the identity exactly when every orbit length of a unit
    vector under g h divides k, so the order is the lcm of those lengths,
    each found by applying h and then g to the unit vector's `Point`.
    """
    order = 1
    for j in range(n):
        start = p = integer_point(unit_vec(n, j))
        for k in range(1, cap + 1):
            p = g.image(h.image(p))
            if p == start:
                break
        else:
            return None
        order = lcm(order, k)
        if order > cap:
            return None
    return order


def classify_pair(
    alg: Algebra,
    a: Axis,
    b: Axis,
    reference: Optional[dict[str, dict]] = None,
) -> PairClass:
    """Record the invariants of <<a, b>> and label them when unambiguous.

    Built-in labelling knowledge is limited to the identity-length row for
    Monster type (1/4, 1/32) and the fact that a zero product means 2B; richer
    matching requires a loaded reference table.
    """
    if a.vector == b.vector:
        raise ValueError("the two axes must be distinct")
    sub = alg.subalgebra_closure([a.vector, b.vector])
    tau_order = None
    if a.miyamoto_map is not None and b.miyamoto_map is not None:
        tau_order = _product_order(a.miyamoto_map, b.miyamoto_map, alg.dim)
    form_value = alg.form_value(a.vector, b.vector) if alg.gram is not None else None
    unit_length = None
    if alg.gram is not None and alg.find_unit() is not None:
        try:
            one_b = alg.unit_of_subalgebra(sub)
            unit_length = alg.length(one_b)
        except AlgebraError:
            unit_length = None

    label = None
    if reference:
        matches = [
            name
            for name, row in reference.items()
            if _row_matches(row, sub.dim, tau_order, form_value, unit_length)
        ]
        if len(matches) == 1:
            label = matches[0]
    if label is None and alg.product(a.vector, b.vector) == tuple([Fraction(0)] * alg.dim):
        label = "2B"
    if label is None and unit_length is not None and a.law == MONSTER_QUARTER:
        matches = [name for name, val in NS_UNIT_LENGTHS.items() if val == unit_length]
        if len(matches) == 1:
            label = matches[0]
    return PairClass(sub.dim, tau_order, form_value, unit_length, label)


def _row_matches(row: dict, dim, tau_order, form_value, unit_length) -> bool:
    checks = [
        ("dim", dim),
        ("tau_order", tau_order),
        ("form_value", form_value),
        ("unit_length", unit_length),
    ]
    for key, actual in checks:
        if key in row and actual is not None and row[key] != actual:
            return False
    return True


@dataclass
class AutGroup:
    """Automorphisms permuting a spanning axet, held by strong generators.

    `group` acts on the positions of the axet; `maps` are its generators as
    `IntegerMap`s, in the same order.
    """

    maps: list[IntegerMap]
    group: PermutationGroup

    @property
    def order(self) -> int:
        return self.group.order()


def aut_from_axis_permutations(alg: Algebra, axet: Axet) -> AutGroup:
    """The stabiliser of a spanning closed axis set in Aut(A).

    This is all of Aut(A) only when the axet holds every axis of its type,
    for example as certified by `nuanced_axes`; otherwise it may be a proper
    subgroup.  The greedy spanning axes b_0, b_1, ... form a base, since a
    map fixing them fixes A.  Working from the deepest level up, each
    image of b_l outside the orbit found so far is tried in turn, and the
    first map fixing b_0 ... b_(l-1) that sends b_l there becomes a strong
    generator.  Candidate assignments are pruned by form values (an
    edge-colored graph isomorphism constraint) and zero products.  Each
    assignment b_i -> a_pi(i) determines a unique linear map g, which is
    verified exactly in the axet frame, with no matrix formed:
    - g is multiplicative: with b_i b_j = sum_k c_ijk b_k, computed once in
      base coordinates, a_pi(i) a_pi(j) = sum_k c_ijk a_pi(k) for all
      i <= j, the products of axet vectors computed once each, sparsely;
    - g permutes the axet: each axet vector, held in base coordinates, goes
      to an axet vector, and no two to the same one.  The axet spans, so
      such a g is bijective.
    It preserves the form too: the colours compare the form value of every
    pair of base axes, each with itself included, with that of their
    images, and a bilinear form is fixed by its values on a basis.  Only an
    accepted generator is built as a map.
    """
    from sympy.combinatorics import Permutation, PermutationGroup

    vectors = axet.vectors()
    m = len(vectors)
    # the greedy spanning subset: the pivot columns
    basis_positions = rref(mat_from_cols(vectors))[2]
    if len(basis_positions) != alg.dim:
        raise AlgebraError("axet does not span the algebra")
    frame = _AxetFrame(alg, vectors, basis_positions)

    # edge colours: (form value, all scaled by one positive integer, or
    # None; whether the product is zero); the diagonal flag is always False,
    # as a_i a_i = a_i
    forms = frame.form_values(alg.integer_gram()) if alg.gram is not None else None
    color = [[(forms[p][q] if forms else None, not frame.product(p, q)) for q in range(m)] for p in range(m)]

    def consistent(assigned: list[int], candidate: int) -> bool:
        i_new = basis_positions[len(assigned)]
        return all(
            color[i][i_new] == color[img][candidate]
            for i, img in zip(basis_positions, assigned + [candidate])
        )

    def first_map(assigned: list[int]) -> Optional[tuple[list[int], list[int]]]:
        """The first verified assignment that extends this one, and its permutation."""
        if len(assigned) < len(basis_positions):
            for candidate in range(m):
                if candidate not in assigned and consistent(assigned, candidate):
                    found = first_map(assigned + [candidate])
                    if found is not None:
                        return found
            return None
        perm = frame.permutation(assigned)
        return None if perm is None else (assigned, perm)

    maps: list[IntegerMap] = []
    perms: list[Permutation] = []
    group = PermutationGroup([Permutation(m - 1)])
    for level in reversed(range(len(basis_positions))):
        fixed = basis_positions[:level]
        orbit = group.orbit(basis_positions[level])
        for candidate in range(m):
            if candidate in orbit or candidate in fixed or not consistent(fixed, candidate):
                continue
            found = first_map(fixed + [candidate])
            if found is not None:
                maps.append(frame.integer_map(found[0]))
                perms.append(Permutation(found[1]))
                group = PermutationGroup(perms)
                orbit = group.orbit(basis_positions[level])
    return AutGroup(maps, group)


class _AxetFrame:
    """A spanning axet in the coordinates of its base, where a candidate
    automorphism, given by the images of the base axes, is verified in
    integer arithmetic.

    Each axet vector a_p is held as the sparse integer vector A_p = D a_p,
    D the common denominator of the axet, and the product of every pair is
    held as the integer product P_pq of the `integer_table`, which is
    a_p a_q times one positive integer.  `inverse` is the inverse of the
    base b_0, b_1, ... (the axet vectors at `basis_positions`) as an
    `IntegerMap`, and the base coordinates of x / D are its image of the
    `Point` (D, x).  `base_products` holds for each i <= j the base
    coordinates of P_pq / D (p, q the positions of b_i and b_j), and
    `others` those of A_k / D for each axet vector off the base, each as
    (g, G): integers G_k over one denominator g.
    """

    def __init__(self, alg: Algebra, vectors: Sequence[Vec], basis_positions: Sequence[int]):
        m = len(vectors)
        self.scale, self.ints = integer_vectors(vectors)
        self.index = {x: k for k, x in enumerate(self.ints)}
        table = alg.integer_table().table
        self.products = {
            (p, q): {k: v for k, v in integer_product(table, self.ints[p], self.ints[q]).items() if v}
            for p in range(m)
            for q in range(p, m)
        }
        self.basis_positions = list(basis_positions)
        self.inverse = IntegerMap.from_matrix(inverse(mat_from_cols([vectors[k] for k in basis_positions])))
        self.base_products = {
            (i, j): self.inverse.image((self.scale, self.product(p, q).items()))
            for i, p in enumerate(basis_positions)
            for j, q in enumerate(basis_positions[i:], i)
        }
        in_base = set(basis_positions)
        self.others = {k: self.inverse.image((self.scale, self.ints[k])) for k in range(m) if k not in in_base}

    def product(self, p: int, q: int) -> dict[int, int]:
        """P_pq, the integer product of axet vectors p and q, without zeros."""
        return self.products[(p, q) if p <= q else (q, p)]

    def form_values(self, gram: IntegerMap) -> list[list[int]]:
        """(a_p, a_q) for every pair of axet vectors, all times one positive
        integer: the columns of the algebra's `integer_gram` applied to
        each A_q, dotted with each A_p."""
        columns = [apply_columns(gram.cols, x) for x in self.ints]
        return [[sum(x * w.get(i, 0) for i, x in u) for w in columns] for u in self.ints]

    def _combine(self, terms, assigned: Sequence[int]) -> dict[int, int]:
        """sum G_k A_assigned[k] over the terms (k, G_k), without zeros."""
        out = apply_columns(self.ints, ((assigned[k], c) for k, c in terms))
        return {i: x for i, x in out.items() if x}

    def permutation(self, assigned: Sequence[int]) -> Optional[list[int]]:
        """The permutation of the axet by the map b_i -> a_assigned[i], when
        that map is an automorphism that permutes the axet; else None.

        The map sends b_i b_j to sum_k c_ijk a_assigned[k], so it is
        multiplicative exactly when g P_(assigned[i], assigned[j]) =
        sum_k G_ijk A_assigned[k] for every base pair; it sends an axet
        vector off the base with coordinates G / g to sum_k G_k
        A_assigned[k] / (g D), which must be some A_t / D.
        """
        for (i, j), (g, terms) in self.base_products.items():
            product = self.product(assigned[i], assigned[j])
            if self._combine(terms, assigned) != (product if g == 1 else {r: g * x for r, x in product.items()}):
                return None
        perm: list[Optional[int]] = [None] * len(self.ints)
        for k, image in zip(self.basis_positions, assigned):
            perm[k] = image
        for k, (g, terms) in self.others.items():
            lhs = self._combine(terms, assigned)
            if any(x % g for x in lhs.values()):
                return None
            perm[k] = self.index.get(tuple(sorted((i, x // g) for i, x in lhs.items())))
        if None in perm or len(set(perm)) != len(perm):
            return None
        return perm

    def integer_map(self, assigned: Sequence[int]) -> IntegerMap:
        """The map b_i -> a_assigned[i]: the map with columns
        A_assigned[i] / D, composed with `inverse`."""
        images = IntegerMap.from_columns(self.scale, [dict(self.ints[k]) for k in assigned])
        return images.compose(self.inverse)

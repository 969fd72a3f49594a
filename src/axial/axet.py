"""Closed axis sets, the Miyamoto group, twins, Jordan axes, pair classes.

The Miyamoto group and the automorphisms permuting an axet are held as
sympy permutation groups on spanning sets of vectors, with one matrix per
generator; their orders and orbits come from deterministic Schreier-Sims,
and no element is listed or stored as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sympy.combinatorics import Permutation, PermutationGroup

from axial.algebra import Algebra, AlgebraError
from axial.fusion import (
    Axis,
    FusionLaw,
    MONSTER_QUARTER,
    check_axis,
    is_automorphism,
    jordan_law,
)
from axial.groebner import DEFAULT_CAPS, POSITIVE_DIMENSIONAL, CapExceeded, SolverCaps
from axial.linalg import (
    Mat,
    Subspace,
    Vec,
    full_space,
    identity,
    inverse,
    kernel,
    mat,
    mat_from_cols,
    mat_mul,
    mat_sub,
    mat_vec,
    rref,
    transpose,
    unit_vec,
    vdot,
    vscale,
    zero_vec,
)
from axial.search import axes_from_idempotents, naive_idempotents

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


@dataclass
class Axet:
    """A set of axes closed under all of their graded involutions."""

    axes: tuple[Axis, ...]

    def __len__(self):
        return len(self.axes)

    def vectors(self) -> list[Vec]:
        return [a.vector for a in self.axes]

    def taus(self) -> list[Mat]:
        out = []
        for a in self.axes:
            if a.miyamoto is None:
                raise ValueError("axis without a graded involution in the axet")
            out.append(a.miyamoto)
        return out

    def spans(self, dim: int) -> bool:
        return Subspace(dim, self.vectors()).dim == dim


def transport_axis(axis: Axis, g: Mat, g_inv: Mat) -> Axis:
    """Image of a verified axis under a verified automorphism.

    Eigendata and involutions move by conjugation, which preserves every
    certified property exactly.
    """
    n = len(axis.vector)
    new_eigendata = tuple(
        (lam, Subspace(n, [mat_vec(g, b) for b in space.basis]))
        for lam, space in axis.eigendata
    )

    def conj(m):
        return mat_mul(mat_mul(g, m), g_inv)

    return Axis(
        vector=mat_vec(g, axis.vector),
        law=axis.law,
        eigendata=new_eigendata,
        primitive=axis.primitive,
        miyamoto=conj(axis.miyamoto) if axis.miyamoto is not None else None,
        sigma=conj(axis.sigma) if axis.sigma is not None else None,
    )


def close_axet(alg: Algebra, seed_axes: Sequence[Axis], cap: int = 512) -> Axet:
    """Orbit of the seeds under the group G their involutions generate.

    For an automorphism g the involution of g(a) is g tau_a g^-1, so every
    involution of an axis in the orbit lies in G, and an orbit of G is closed
    under each of them: the orbit is the closure of the seeds under the
    involutions of all axes found.  One pass applies each distinct seed
    involution to each axis of a list that grows while it is read; new axes
    are produced by conjugation transport.
    """
    if not seed_axes:
        raise ValueError("need at least one seed axis")
    law = seed_axes[0].law
    if any(a.law != law for a in seed_axes):
        raise ValueError("seed axes must share one fusion law")
    axes: list[Axis] = []
    seen: set[Vec] = set()
    for a in seed_axes:
        if a.vector not in seen:
            seen.add(a.vector)
            axes.append(a)
    taus = list(dict.fromkeys(a.miyamoto for a in axes if a.miyamoto is not None))
    for a in axes:  # the list grows while it is read
        for g in taus:
            w = mat_vec(g, a.vector)
            if w in seen:
                continue
            if len(axes) >= cap:
                raise CapExceeded(f"axis closure exceeded cap {cap}")
            seen.add(w)
            axes.append(transport_axis(a, g, g))  # involutions are self-inverse
    return Axet(tuple(axes))


@dataclass
class MiyGroup:
    """The group generated by the axet's involutions, as permutations of points.

    The points are the axet vectors and, when the axet does not span the
    algebra, the orbits of the unit vectors appended after them.  The points
    span, and a linear map is fixed by its action on a spanning set, so the
    action is faithful: `group.order()` is the order of the Miyamoto group.
    `faithful` records whether the axet alone spans.
    """

    generators: list[Mat]
    points: list[Vec]
    group: PermutationGroup
    faithful: bool

    @property
    def order(self) -> int:
        return self.group.order()


def miyamoto_group(alg: Algebra, axet: Axet, cap: int = 200_000) -> MiyGroup:
    """The Miyamoto group, from the permutations its involutions induce.

    `cap` bounds the number of points; an infinite group has an infinite
    orbit, so the cap is what makes the call return.
    """
    n = alg.dim
    taus = list(dict.fromkeys(axet.taus()))
    points = axet.vectors()
    faithful = axet.spans(n)
    if not faithful:
        points += [e for e in (unit_vec(n, j) for j in range(n)) if e not in points]
    index = {v: i for i, v in enumerate(points)}
    images: list[list[int]] = [[] for _ in taus]
    for v in points:  # the list grows while it is read
        for g, image in zip(taus, images):
            w = mat_vec(g, v)
            if w not in index:
                if faithful:
                    raise AlgebraError("involution does not preserve the axet")
                if len(points) >= cap:
                    raise CapExceeded(f"Miyamoto group points exceeded cap {cap}")
                index[w] = len(points)
                points.append(w)
            image.append(index[w])
    perms = [Permutation(image) for image in images] or [Permutation(len(points) - 1)]
    return MiyGroup(taus, points, PermutationGroup(perms), faithful)


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
        if axis.vector != a.vector and axis.miyamoto == a.miyamoto:
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
    and a tau comparison.  Realizers of the identity are Jordan axes; prefer
    `jordan_axes`, which searches the much smaller fixed subalgebra.
    """
    one = alg.require_unit()
    n = alg.dim
    if not is_automorphism(alg, tau):
        raise AlgebraError("tau is not an algebra automorphism")
    if mat_mul(tau, tau) != identity(n):
        raise AlgebraError("tau is not an involution")
    commutator_image = Subspace(n, transpose(mat_sub(tau, identity(n))))
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
        if axis.miyamoto == tau:
            found.append(axis)
    return found


def fixed_subalgebra(alg: Algebra, group: MiyGroup) -> Subspace:
    """Common fixed space of the group generators (hence of the group).

    One kernel of the rows of g - I stacked over the generators; with no
    generators every vector is fixed.
    """
    n = alg.dim
    rows = tuple(row for g in group.generators for row in mat_sub(g, identity(n)))
    return kernel(rows) if rows else full_space(n)


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


def _matrix_order(m: Mat, cap: int = 64) -> Optional[int]:
    n = len(m)
    ident = identity(n)
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul(power, m)
    return None


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
    if a.miyamoto is not None and b.miyamoto is not None:
        tau_order = _matrix_order(mat_mul(a.miyamoto, b.miyamoto))
    form_value = None
    if alg.gram is not None:
        form_value = alg.form_value(a.vector, b.vector)
    unit_length = None
    if alg.gram is not None and alg.find_unit() is not None:
        try:
            one_b = alg.unit_of_subalgebra(sub)
            unit_length = alg.form_value(one_b, one_b)
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

    `group` acts on the positions of the axet; `generators` are the
    matrices of its generators, in the same order.
    """

    generators: list[Mat]
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
    edge-colored graph isomorphism constraint) and zero products; each
    assignment determines a unique linear map, which is verified exactly:
    multiplicative, bijective on the axet, form-preserving.
    """
    n = alg.dim
    vectors = axet.vectors()
    m = len(vectors)
    # the greedy spanning subset: the pivot columns
    basis_positions = rref(mat_from_cols(vectors))[2]
    if len(basis_positions) != n:
        raise AlgebraError("axet does not span the algebra")

    # edge colours: (form value or None, whether the product is zero); the
    # diagonal flag is always False, as a_i a_i = a_i
    zero = zero_vec(n)
    gram_images = [mat_vec(alg.gram, v) for v in vectors] if alg.gram is not None else [None] * m
    color = [
        [
            (vdot(u, w) if w is not None else None, alg.product(u, v) == zero)
            for v, w in zip(vectors, gram_images)
        ]
        for u in vectors
    ]

    index = {v: i for i, v in enumerate(vectors)}
    basis_inv = inverse(mat_from_cols([vectors[i] for i in basis_positions]))
    assert basis_inv is not None

    def consistent(assigned: list[int], candidate: int) -> bool:
        i_new = basis_positions[len(assigned)]
        return all(
            color[i][i_new] == color[img][candidate]
            for i, img in zip(basis_positions, assigned + [candidate])
        )

    def first_map(assigned: list[int]) -> Optional[tuple[Mat, Permutation]]:
        """The first verified map that extends the assignment, and its permutation."""
        if len(assigned) < len(basis_positions):
            for candidate in range(m):
                if candidate not in assigned and consistent(assigned, candidate):
                    found = first_map(assigned + [candidate])
                    if found is not None:
                        return found
            return None
        g = mat_mul(mat_from_cols([vectors[k] for k in assigned]), basis_inv)
        if not is_automorphism(alg, g):
            return None
        perm = [index.get(mat_vec(g, v)) for v in vectors]
        if None in perm or len(set(perm)) != m:
            return None
        if alg.gram is not None and mat_mul(mat(tuple(zip(*g))), mat_mul(alg.gram, g)) != alg.gram:
            return None
        return g, Permutation(perm)

    matrices: list[Mat] = []
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
                matrices.append(found[0])
                perms.append(found[1])
                group = PermutationGroup(perms)
                orbit = group.orbit(basis_positions[level])
    return AutGroup(matrices, group)

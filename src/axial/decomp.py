"""Joint eigenspace decompositions, extension spaces, sign-kernel analysis.

Relative to a set Y of axes whose involutions fix each other, the algebra
splits into joint eigenspaces indexed by eigenvalue tuples.  The joint zero
component is a subalgebra, every component is a module over it, and linear
algebra on those modules (extension spaces, probe pairings) bounds which
automorphisms of the small subalgebra extend to the whole algebra.  Parts
are refined axis by axis; the zero part's `products_in` table on each part
serves the module checks and extension spaces; the completion is the
`perp_space` of the `integer_gram`; sign kernels come off a GF(2) null space.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from axial._backend import kernels
from axial.algebra import Algebra, AlgebraError, DegenerateFormError, IntegerAdjoint, MissingFormError
from axial.fusion import Axis, FusionLaw
from axial.linalg import (
    Mat,
    Subspace,
    Vec,
    combination,
    full_space,
    integer_point,
    intersect,
    mat_vec,
    null_space,
    perp_space,
    subspace_sum,
    zero_vec,
)

# Random probe elements have integer coefficients in [-COEFF_BOUND, COEFF_BOUND],
# and each probe is drawn at most PROBE_RETRIES times.
COEFF_BOUND = 3
PROBE_RETRIES = 16


@dataclass
class JointDecomposition:
    """Joint eigenspace data for a tuple of mutually-fixed axes.

    `modules[key]` holds the w-coordinates of every u_r w_j, u the zero
    component and w the component at key, or None when one leaves w.
    `zero_adjoints` holds the `IntegerAdjoint` of each u_r, which the
    tables are read off.
    """

    axes: tuple[Axis, ...]
    law: FusionLaw
    components: dict[tuple[Fraction, ...], Subspace]
    complete: bool
    a_circ: Subspace
    a_sharp: Optional[Subspace] = None
    modules: dict[tuple[Fraction, ...], Optional[list[list[Vec]]]] = field(default_factory=dict)
    zero_adjoints: list[IntegerAdjoint] = field(default_factory=list, repr=False)

    @property
    def zero_component(self) -> Subspace:
        key = (Fraction(0),) * len(self.axes)
        ambient = len(self.axes[0].vector)
        return self.components.get(key, Subspace(ambient))


def axis_conflict(axes: Sequence[Axis], names: Sequence) -> Optional[Exception]:
    """The error for the first ordered pair of axes that breaks a
    precondition of `decompose_joint`, or None.

    Two axes at positions i and j break it when they are the same vector
    (a ValueError) or when the involution of axis i moves axis j (an
    AlgebraError).  The message names them as names[i] and names[j].
    """
    points = [integer_point(b.vector) for b in axes]
    for i, a in enumerate(axes):
        for j, b in enumerate(axes):
            if i == j:
                continue
            if a.vector == b.vector:
                return ValueError(f"axis {names[i]} and axis {names[j]} are the same vector")
            if a.miyamoto_map is not None and a.miyamoto_map.image(points[j]) != points[j]:
                return AlgebraError(f"involution of axis {names[i]} does not fix axis {names[j]}")
    return None


def decompose_joint(alg: Algebra, axes: Sequence[Axis]) -> JointDecomposition:
    """Intersect the eigenspaces of the given axes, under the law of the
    first, over all value tuples.

    Preconditions are checked exactly: the axes are distinct, and each axis
    involution fixes every other axis.  `modules` keeps one `products_in`
    table per component, the zero one first, all read off the adjoints of
    the zero part's basis, built once and kept as `zero_adjoints`; under a
    Seress law a None table raises, as the zero part is a subalgebra with
    every component a module.
    """
    if not axes:
        raise ValueError("need at least one axis")
    law = axes[0].law
    n = alg.dim
    conflict = axis_conflict(axes, range(len(axes)))
    if conflict is not None:
        raise conflict
    # Refine axis by axis: the parts for axes[:i+1] are the nonzero meets of
    # each part for axes[:i] with each eigenspace of axis i, in law.values
    # order, so the keys come out in itertools.product order.
    components = {(): full_space(n)}
    for a in axes:
        meets = (
            (key + (lam,), intersect(space, a.eigenspace(lam)))
            for key, space in components.items()
            for lam in law.values
        )
        components = {key: space for key, space in meets if not space.is_zero()}
    a_circ = subspace_sum(list(components.values()), ambient=n)
    complete = sum(space.dim for space in components.values()) == n
    decomposition = JointDecomposition(tuple(axes), law, components, complete, a_circ)
    adjoints = [IntegerAdjoint(alg, x, ()) for x in decomposition.zero_component.basis]
    decomposition.zero_adjoints = adjoints
    for key in sorted(components, key=any):  # the zero key, all zeros, first
        space = components[key]
        table = decomposition.modules[key] = alg.products_in(adjoints, space.basis, space)
        if table is None and law.is_seress():
            raise AlgebraError(_not_a_module(key))
    return decomposition


def _not_a_module(key) -> str:
    """Why the zero component's table on the component at key is None."""
    if any(key):
        return f"component {key} is not a module over the zero part"
    return "joint zero component is not a subalgebra"


def partial_decomposition(alg: Algebra, axes: Sequence[Axis]) -> JointDecomposition:
    """Joint decomposition completed by the orthogonal complement of its sum.

    Needs the form, nondegenerate on the span of the components; the
    complement is verified to be a module over the joint zero subalgebra,
    on the adjoints `decompose_joint` built.
    """
    if alg.gram is None:
        raise MissingFormError("partial decomposition needs the Frobenius form")
    decomposition = decompose_joint(alg, axes)
    a_circ = decomposition.a_circ
    sharp = perp_space(a_circ, alg.integer_gram())
    if a_circ.dim + sharp.dim != alg.dim or not intersect(a_circ, sharp).is_zero():
        raise DegenerateFormError("form is degenerate on the component sum")
    if alg.products_in(decomposition.zero_adjoints, sharp.basis, sharp) is None:
        raise AlgebraError("orthogonal complement is not a module over the zero part")
    decomposition.a_sharp = sharp
    return decomposition


def complement_in(alg: Algebra, outer: Subspace, inner: Subspace) -> Subspace:
    """{u in outer | u orthogonal to inner}, exactly."""
    if alg.gram is None:
        raise MissingFormError("complement needs the Frobenius form")
    if not outer.contains_subspace(inner):
        raise AlgebraError("inner subspace is not contained in the outer one")
    return intersect(outer, perp_space(inner, alg.integer_gram()))


@dataclass
class ExtensionSpace:
    """Solutions psi of phi(u) . psi(w) = psi(u w) on a module W.

    The system is linear and homogeneous in psi, so the solutions form a
    linear space of maps, stored flattened row-major over a basis of W.  For
    phi the identity the space always contains the identity map.
    """

    phi: Mat
    space: Subspace
    w_dim: int

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains_identity(self) -> bool:
        m = self.w_dim
        return self.space.point_coordinates((1, [(i * m + i, 1) for i in range(m)])) is not None


def extension_space(decomposition: JointDecomposition, key, phi: Mat) -> ExtensionSpace:
    """Extensions of an automorphism phi of the zero subalgebra u to the
    component w at the eigenvalue tuple `key`, read off the decomposition's
    `modules` tables.

    `phi` is given in coordinates of the basis of u and must be multiplicative
    on it, which u's own table checks.  Unknowns are the entries of psi in
    the basis of w; w's table gives the system's right-hand sides.
    """
    if key not in decomposition.components:
        raise ValueError(f"no component with key {key}")
    l, m = decomposition.zero_component.dim, decomposition.components[key].dim
    if len(phi) != l or any(len(r) != l for r in phi):
        raise ValueError("phi size does not match the subalgebra dimension")
    zero = (Fraction(0),) * len(key)
    table = decomposition.modules.get(zero, [])  # no zero component: l = 0
    module = decomposition.modules[key]
    if table is None or module is None:
        raise AlgebraError(_not_a_module(key if table is not None else zero))
    phi_cols = list(zip(*phi))
    for r in range(l):
        for s in range(r, l):
            # u-coordinates of phi(u_r) phi(u_s) against those of phi(u_r u_s)
            terms = [
                (x * y, table[i][j])
                for i, x in enumerate(phi_cols[r])
                if x
                for j, y in enumerate(phi_cols[s])
                if y
            ]
            lhs = combination([c for c, _ in terms], [v for _, v in terms], l)
            if lhs != mat_vec(phi, table[r][s]):
                raise AlgebraError("phi is not an automorphism of the subalgebra")

    rows = []
    for r in range(l):
        # W-coordinates of phi(u_r) w_c for each c
        action = [combination(phi_cols[r], [row[c] for row in module], m) for c in range(m)]
        for j in range(m):
            for out_row in range(m):
                # LHS: sum_c psi[c][j] (phi(u_r) w_c)_outrow
                row = {c * m + j: action[c][out_row] for c in range(m)}
                # RHS: sum_c q_c psi[out_row][c], q the coordinates of u_r w_j
                for c, q in enumerate(module[r][j]):
                    row[out_row * m + c] = row.get(out_row * m + c, 0) - q
                rows.append(row.items())
    return ExtensionSpace(phi, null_space(rows, m * m), m)


@dataclass(frozen=True)
class SquareProbe:
    """(w^2, u) with w in a component and u in the zero subalgebra.

    A nonzero value certifies that a scalar action mu on the component
    satisfies mu^2 = 1.
    """

    component: int
    w: Vec
    u: Vec

    def value(self, alg: Algebra) -> Fraction:
        return alg.form_value(alg.product(self.w, self.w), self.u)


@dataclass(frozen=True)
class PairingProbe:
    """A product pairing tying together the signs of several components.

    kind 'triple' evaluates (w_a w_b, w_c); kind 'long' evaluates
    ((w_a w_b)(w_a w_c), w_a).  A nonzero value forces the product of the
    corresponding signs to be 1 (each component counted with parity).
    """

    components: tuple[int, ...]
    vectors: tuple[Vec, ...]
    kind: str = "triple"

    def value(self, alg: Algebra) -> Fraction:
        wa, wb, wc = self.vectors
        if self.kind == "triple":
            return alg.form_value(alg.product(wa, wb), wc)
        return alg.form_value(alg.product(alg.product(wa, wb), alg.product(wa, wc)), wa)

    def parity(self, count: int) -> tuple[int, ...]:
        exponents = [0] * count
        if self.kind == "triple":
            for c in self.components:
                exponents[c] += 1
        elif self.kind == "long":
            a, b, c = self.components
            exponents[a] += 3
            exponents[b] += 1
            exponents[c] += 1
        else:
            raise ValueError(f"unknown probe kind {self.kind!r}")
        return tuple(e % 2 for e in exponents)


@dataclass
class ProbeRecord:
    probe: object
    value: Fraction
    used: bool


@dataclass
class SignKernelResult:
    """Admissible sign tuples plus the exact probe evaluations behind them."""

    admissible: list[tuple[int, ...]]
    records: list[ProbeRecord]
    certified: set[int]

    @property
    def order(self) -> int:
        return len(self.admissible)


def sign_kernel(
    alg: Algebra,
    components: Sequence[Subspace],
    probes: Sequence[object],
) -> SignKernelResult:
    """Subgroup of sign tuples compatible with the nonzero probe pairings.

    Probes evaluating to zero are skipped (recorded with used=False); the
    caller decides whether to re-randomize.  The result is closed under
    coordinatewise products by construction.
    """
    k = len(components)
    constraints: list[tuple[int, ...]] = []
    records: list[ProbeRecord] = []
    certified: set[int] = set()
    for probe in probes:
        if not isinstance(probe, (SquareProbe, PairingProbe)):
            raise TypeError(f"unknown probe {probe!r}")
        value = probe.value(alg)
        used = value != 0
        if used and isinstance(probe, SquareProbe):
            certified.add(probe.component)
        elif used:
            constraints.append(probe.parity(k))
        records.append(ProbeRecord(probe, value, used))
    # The parities are solved over GF(2), a sign -1 read as 1, with the
    # components reversed, so each pivot is the last component of its row and
    # its sign is fixed by the signs before it.  Listing the free signs in
    # product order so lists the solutions in product order.
    pivots: dict[int, dict[int, int]] = {}
    for parity in constraints:
        kernels.insert(pivots, {k - 1 - i: 1 for i, e in enumerate(parity) if e}, 2)
    rows = sorted((k - 1 - c, [k - 1 - j for j in row if j != c]) for c, row in pivots.items())
    free = [i for i in range(k) if k - 1 - i not in pivots]
    admissible = []
    for choice in itertools.product((1, -1), repeat=len(free)):
        signs = dict(zip(free, choice))
        for h, others in rows:
            signs[h] = math.prod(signs[i] for i in others)
        admissible.append(tuple(signs[i] for i in range(k)))
    return SignKernelResult(admissible, records, certified)


def random_component_element(space: Subspace, rng: random.Random) -> Vec:
    """A random nonzero combination of the basis, coefficients in [-COEFF_BOUND, COEFF_BOUND]."""
    for _ in range(64):
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in space.basis]
        if any(coeffs):
            return combination(coeffs, space.basis, space.ambient)
    raise AlgebraError("could not draw a nonzero element")


def generate_probes(
    alg: Algebra,
    u_space: Subspace,
    components: Sequence[Subspace],
    seed: int = 0,
    long_probes: Sequence[tuple[int, int, int]] = (),
) -> list[object]:
    """Draw random probes with nonzero pairings, deterministically per seed.

    Each square probe is retried until (w^2, u) is nonzero (at most
    PROBE_RETRIES draws); pairing probes likewise, a triple probe for every
    three components and a long probe for each of `long_probes`, triples
    of distinct positions in `components`.  Vanishing probes are kept out of
    the returned set; sign_kernel records whatever it is given.
    """
    for combo in long_probes:
        if len(combo) != 3 or len(set(combo) & set(range(len(components)))) != 3:
            raise ValueError(
                f"long probe {tuple(combo)} is not three distinct component "
                f"positions in 0..{len(components) - 1}"
            )
    rng = random.Random(seed)

    def u_element() -> Vec:
        if u_space.is_zero():
            return zero_vec(alg.dim)
        return random_component_element(u_space, rng)

    triples = itertools.combinations(range(len(components)), 3)
    squares = [
        _nonzero_probe(
            alg, lambda: SquareProbe(i, random_component_element(comp, rng), u_element())
        )
        for i, comp in enumerate(components)
    ]
    pairings = [
        _nonzero_probe(
            alg,
            lambda: PairingProbe(
                combo, tuple(random_component_element(components[c], rng) for c in combo), kind
            ),
        )
        for combos, kind in ((triples, "triple"), (long_probes, "long"))
        for combo in combos
    ]
    return [probe for probe in squares + pairings if probe is not None]


def _nonzero_probe(alg: Algebra, draw: Callable[[], object]) -> Optional[object]:
    """The first of at most PROBE_RETRIES probes `draw()` whose value is nonzero."""
    for _ in range(PROBE_RETRIES):
        probe = draw()
        if probe.value(alg) != 0:
            return probe
    return None

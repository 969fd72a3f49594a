"""Joint eigenspace decompositions, extension spaces, sign-kernel analysis.

Relative to a set Y of axes whose involutions fix each other, the algebra
splits into joint eigenspaces indexed by eigenvalue tuples.  The joint zero
component is a subalgebra, every component is a module over it, and linear
algebra on those modules (extension spaces, probe pairings) bounds which
automorphisms of the small subalgebra extend to the whole algebra.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from axial.algebra import Algebra, AlgebraError, DegenerateFormError, MissingFormError
from axial.fusion import Axis, FusionLaw
from axial.linalg import (
    Mat,
    Subspace,
    Vec,
    combination,
    identity,
    intersect,
    kernel,
    mat,
    mat_vec,
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
    """Joint eigenspace data for a tuple of mutually-fixed axes."""

    axes: tuple[Axis, ...]
    law: FusionLaw
    components: dict[tuple[Fraction, ...], Subspace]
    complete: bool
    a_circ: Subspace
    a_sharp: Optional[Subspace] = None

    @property
    def zero_component(self) -> Subspace:
        key = (Fraction(0),) * len(self.axes)
        ambient = len(self.axes[0].vector)
        return self.components.get(key, Subspace(ambient))

    def dims(self) -> dict[tuple[Fraction, ...], int]:
        return {key: space.dim for key, space in self.components.items()}


def decompose_joint(
    alg: Algebra, axes: Sequence[Axis], law: Optional[FusionLaw] = None
) -> JointDecomposition:
    """Intersect the eigenspaces of the given axes over all value tuples.

    Preconditions are checked exactly: each axis involution must fix every
    other axis in the set.  The joint zero component is verified to be a
    subalgebra and every component to be a module over it (Seress laws).
    """
    if not axes:
        raise ValueError("need at least one axis")
    law = law or axes[0].law
    n = alg.dim
    for i, a in enumerate(axes):
        for j, b in enumerate(axes):
            if i == j or a.miyamoto is None:
                continue
            if mat_vec(a.miyamoto, b.vector) != b.vector:
                raise AlgebraError(
                    f"involution of axis {i} does not fix axis {j}"
                )
    components: dict[tuple[Fraction, ...], Subspace] = {}
    total = 0
    for combo in itertools.product(law.values, repeat=len(axes)):
        space = axes[0].eigenspace(combo[0])
        for a, lam in zip(axes[1:], combo[1:]):
            if space.is_zero():
                break
            space = intersect(space, a.eigenspace(lam))
        if not space.is_zero():
            components[combo] = space
            total += space.dim
    a_circ = subspace_sum(list(components.values()), ambient=n)
    complete = total == n
    decomposition = JointDecomposition(tuple(axes), law, components, complete, a_circ)
    if law.is_seress():
        u = decomposition.zero_component
        if not alg.is_product_closed(u):
            raise AlgebraError("joint zero component is not a subalgebra")
        for key, space in components.items():
            if not _is_module(alg, u, space):
                raise AlgebraError(f"component {key} is not a module over the zero part")
    return decomposition


def _is_module(alg: Algebra, u: Subspace, w: Subspace) -> bool:
    return all(
        w.contains(alg.product(x, y)) for x in u.basis for y in w.basis
    )


def partial_decomposition(
    alg: Algebra, axes: Sequence[Axis], law: Optional[FusionLaw] = None
) -> JointDecomposition:
    """Joint decomposition completed by the orthogonal complement of its sum.

    Needs the form, nondegenerate on the span of the components; the
    complement is verified to be a module over the joint zero subalgebra.
    """
    if alg.gram is None:
        raise MissingFormError("partial decomposition needs the Frobenius form")
    decomposition = decompose_joint(alg, axes, law)
    a_circ = decomposition.a_circ
    sharp = perp_space(a_circ, alg.gram)
    if a_circ.dim + sharp.dim != alg.dim or not intersect(a_circ, sharp).is_zero():
        raise DegenerateFormError("form is degenerate on the component sum")
    u = decomposition.zero_component
    if not _is_module(alg, u, sharp):
        raise AlgebraError("orthogonal complement is not a module over the zero part")
    decomposition.a_sharp = sharp
    return decomposition


def complement_in(alg: Algebra, outer: Subspace, inner: Subspace) -> Subspace:
    """{u in outer | u orthogonal to inner}, exactly."""
    if alg.gram is None:
        raise MissingFormError("complement needs the Frobenius form")
    if not outer.contains_subspace(inner):
        raise AlgebraError("inner subspace is not contained in the outer one")
    return intersect(outer, perp_space(inner, alg.gram))


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
        flat = tuple(
            Fraction(1) if i == j else Fraction(0)
            for i in range(m)
            for j in range(m)
        )
        return self.space.contains(flat)

    def matrices(self) -> list[Mat]:
        m = self.w_dim
        return [
            tuple(tuple(b[r * m + c] for c in range(m)) for r in range(m))
            for b in self.space.basis
        ]


def extension_space(alg: Algebra, u: Subspace, w: Subspace, phi: Mat) -> ExtensionSpace:
    """Extensions of an automorphism of the zero subalgebra to a module.

    `phi` is given in coordinates of the basis of u and must be multiplicative
    on it; `w` must satisfy u w inside w.  Unknowns are the entries of psi in
    the basis of w.
    """
    l, m = u.dim, w.dim
    if len(phi) != l or any(len(r) != l for r in phi):
        raise ValueError("phi size does not match the subalgebra dimension")
    if not alg.is_product_closed(u):
        raise AlgebraError("first subspace is not a subalgebra")
    if not _is_module(alg, u, w):
        raise AlgebraError("second subspace is not a module over the first")
    phi_vectors = [combination(column, u.basis, alg.dim) for column in zip(*phi)]
    for r in range(l):
        for s in range(r, l):
            lhs = alg.product(phi_vectors[r], phi_vectors[s])
            product_coords = _coords_in(u, alg.product(u.basis[r], u.basis[s]))
            if lhs != combination(product_coords, phi_vectors, alg.dim):
                raise AlgebraError("phi is not an automorphism of the subalgebra")

    rows = []
    if m == 0:
        return ExtensionSpace(phi, Subspace(0), 0)
    for r in range(l):
        # W-coordinates of phi(u_r) * w_c for each c
        action = []
        for c in range(m):
            p = alg.product(phi_vectors[r], w.basis[c])
            coords = w.coordinates(p)
            if coords is None:
                raise AlgebraError("module violation under phi")
            action.append(coords)
        module_coords = []
        for j in range(m):
            q = w.coordinates(alg.product(u.basis[r], w.basis[j]))
            assert q is not None
            module_coords.append(q)
        for j in range(m):
            for out_row in range(m):
                row = [Fraction(0)] * (m * m)
                # LHS: sum_c psi[c][j] (phi(u_r) w_c)_outrow
                for c in range(m):
                    coeff = action[c][out_row]
                    if coeff:
                        row[c * m + j] += coeff
                # RHS: sum_c q_c psi[out_row][c]
                for c in range(m):
                    coeff = module_coords[j][c]
                    if coeff:
                        row[out_row * m + c] -= coeff
                rows.append(tuple(row))
    if not rows:
        space = Subspace(m * m, identity(m * m))
    else:
        space = kernel(mat(rows))
    return ExtensionSpace(phi, space, m)


def _coords_in(space: Subspace, v: Vec) -> Vec:
    coords = space.coordinates(v)
    if coords is None:
        raise AlgebraError("vector left the subspace")
    return coords


@dataclass(frozen=True)
class SquareProbe:
    """(w^2, u) with w in a component and u in the zero subalgebra.

    A nonzero value certifies that a scalar action mu on the component
    satisfies mu^2 = 1.
    """

    component: int
    w: Vec
    u: Vec


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
        if isinstance(probe, SquareProbe):
            value = alg.form_value(alg.product(probe.w, probe.w), probe.u)
            used = value != 0
            if used:
                certified.add(probe.component)
            records.append(ProbeRecord(probe, value, used))
        elif isinstance(probe, PairingProbe):
            if probe.kind == "triple":
                wa, wb, wc = probe.vectors
                value = alg.form_value(alg.product(wa, wb), wc)
            else:
                wa, wb, wc = probe.vectors
                value = alg.form_value(
                    alg.product(alg.product(wa, wb), alg.product(wa, wc)), wa
                )
            used = value != 0
            if used:
                constraints.append(probe.parity(k))
            records.append(ProbeRecord(probe, value, used))
        else:
            raise TypeError(f"unknown probe {probe!r}")
    admissible = []
    for signs in itertools.product((1, -1), repeat=k):
        ok = True
        for parity in constraints:
            prod = 1
            for s, e in zip(signs, parity):
                if e:
                    prod *= s
            if prod != 1:
                ok = False
                break
        if ok:
            admissible.append(signs)
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
    triples: Optional[Sequence[tuple[int, int, int]]] = None,
    long_probes: Sequence[tuple[int, int, int]] = (),
) -> list[object]:
    """Draw random probes with nonzero pairings, deterministically per seed.

    Each square probe is retried until (w^2, u) is nonzero (at most
    PROBE_RETRIES draws); pairing probes likewise.  Vanishing probes are
    kept out of the returned set; sign_kernel records whatever it is given.
    """
    rng = random.Random(seed)
    probes: list[object] = []
    for i, comp in enumerate(components):
        for _ in range(PROBE_RETRIES):
            w = random_component_element(comp, rng)
            u = random_component_element(u_space, rng) if not u_space.is_zero() else zero_vec(alg.dim)
            if alg.form_value(alg.product(w, w), u) != 0:
                probes.append(SquareProbe(i, w, u))
                break
    if triples is None:
        triples = list(itertools.combinations(range(len(components)), 3))
    for combo in triples:
        a, b, c = combo
        for _ in range(PROBE_RETRIES):
            wa = random_component_element(components[a], rng)
            wb = random_component_element(components[b], rng)
            wc = random_component_element(components[c], rng)
            if alg.form_value(alg.product(wa, wb), wc) != 0:
                probes.append(PairingProbe(combo, (wa, wb, wc), "triple"))
                break
    for combo in long_probes:
        a, b, c = combo
        for _ in range(PROBE_RETRIES):
            wa = random_component_element(components[a], rng)
            wb = random_component_element(components[b], rng)
            wc = random_component_element(components[c], rng)
            value = alg.form_value(
                alg.product(alg.product(wa, wb), alg.product(wa, wc)), wa
            )
            if value != 0:
                probes.append(PairingProbe(combo, (wa, wb, wc), "long"))
                break
    return probes

"""Matsuo algebras from 3-transposition groups, double axes, flip subalgebras.

Permutations are tuples p with p[i] the image of point i (0-based).  A
3-transposition datum is entered as group generators plus one class
representative; the class and the Fischer incidences are computed by closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from axial.algebra import Algebra, AlgebraError
from axial.linalg import Vec, frac, mat_from_cols, rref, unit_vec, vadd

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition acting left to right: (p*q)[i] = q[p[i]]."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def perm_conj(c: Perm, g: Perm) -> Perm:
    """Conjugate c^g = g^-1 c g."""
    return perm_mul(perm_mul(perm_inv(g), c), g)


def perm_order(p: Perm, cap: int = 1000) -> int:
    e = identity_perm(len(p))
    q = p
    for k in range(1, cap + 1):
        if q == e:
            return k
        q = perm_mul(q, p)
    raise ValueError("order cap exceeded")


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append(tuple(cycle))
    return cycles


def cycle_string(p: Perm) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(i + 1) for i in c) + ")" for c in cycles)


class ThreeTranspositionError(AlgebraError):
    """The supplied data is not a 3-transposition class."""


@dataclass(frozen=True)
class ThreeTranspositionData:
    """A conjugacy class of involutions with |cd| <= 3 for all pairs.

    `transpositions` is the sorted class; `orders[i][j]` is |c_i c_j| and
    `third[i][j]` is the index of c_i^{c_j} when the order is 3.
    """

    degree: int
    transpositions: tuple[Perm, ...]
    orders: tuple[tuple[int, ...], ...]
    third: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, degree: int, gens: Sequence[Perm], class_rep: Perm):
        rep = tuple(class_rep)
        if perm_mul(rep, rep) != identity_perm(degree):
            raise ThreeTranspositionError("class representative is not an involution")
        seen = {rep}
        queue = [rep]
        while queue:
            c = queue.pop()
            for g in gens:
                image = perm_conj(c, tuple(g))
                if image not in seen:
                    seen.add(image)
                    queue.append(image)
        transpositions = tuple(sorted(seen))
        size = len(transpositions)
        index = {c: i for i, c in enumerate(transpositions)}
        orders = [[0] * size for _ in range(size)]
        third = [[-1] * size for _ in range(size)]
        for i, c in enumerate(transpositions):
            for j, d in enumerate(transpositions):
                if j < i:
                    continue
                try:
                    order = perm_order(perm_mul(c, d), cap=4) if i != j else 1
                except ValueError:
                    order = 4
                if order > 3:
                    raise ThreeTranspositionError(
                        f"|cd| > 3 for class elements {i}, {j}"
                    )
                orders[i][j] = orders[j][i] = order
                if order == 3:
                    e = perm_conj(c, d)
                    if e not in index:
                        raise ThreeTranspositionError("class is not closed under conjugation")
                    third[i][j] = third[j][i] = index[e]
        return cls(
            degree,
            transpositions,
            tuple(tuple(r) for r in orders),
            tuple(tuple(r) for r in third),
        )

    @property
    def size(self) -> int:
        return len(self.transpositions)

    def index_of(self, c: Perm) -> int:
        try:
            return self.transpositions.index(tuple(c))
        except ValueError:
            raise ThreeTranspositionError("permutation is not in the class") from None

    def labels(self) -> tuple[str, ...]:
        return tuple(cycle_string(c) for c in self.transpositions)


def matsuo_algebra(data: ThreeTranspositionData, eta) -> Algebra:
    """The Matsuo algebra on the transposition class with parameter eta.

    Product: c*c = c, c*d = 0 when |cd| = 2, (eta/2)(c + d - e) when |cd| = 3
    with e the third point of the line.  The form gives axes length 1:
    (c,c) = 1, (c,d) = 0 or eta/2 matching the product rule.
    """
    eta = frac(eta)
    if eta in (Fraction(0), Fraction(1)):
        raise ValueError("eta must avoid 0 and 1")
    n = data.size
    half = eta / 2
    gamma = []
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        gamma.append((i, i, i, Fraction(1)))
        gram[i][i] = Fraction(1)
        for j in range(i + 1, n):
            order = data.orders[i][j]
            if order == 3:
                k = data.third[i][j]
                gamma.extend(
                    [(i, j, i, half), (i, j, j, half), (i, j, k, -half)]
                )
                gram[i][j] = gram[j][i] = half
    return Algebra.from_gamma(n, gamma, gram=gram, labels=data.labels())


@dataclass
class FlipResult:
    """Flip subalgebra data: the induced algebra plus its axis generators.

    `basis` holds the chosen basis as coordinate vectors of the ambient Matsuo
    algebra; the first `len(single_axes) + len(double_axes)` entries are the
    generating axes themselves whenever they are linearly independent.
    """

    algebra: Algebra
    basis: tuple[Vec, ...]
    single_axes: list[int]
    double_axes: list[int]
    ambient: Algebra


def double_axes_and_flip(
    data: ThreeTranspositionData, eta, sigma: Perm
) -> FlipResult:
    """Single axes fixed by the flip, orthogonal double axes, and the
    subalgebra they generate.

    `sigma` must be an involutory automorphism of the class (an element of the
    symmetric group of the points that is its own inverse and normalizes the
    class under conjugation); the identity is allowed and yields the whole
    Matsuo algebra generated by singles.
    """
    sigma = tuple(sigma)
    if perm_mul(sigma, sigma) != identity_perm(data.degree):
        raise ValueError("sigma is not an involution (or identity)")
    images = []
    for c in data.transpositions:
        image = perm_conj(c, sigma)
        try:
            images.append(data.index_of(image))
        except ThreeTranspositionError:
            raise ValueError("sigma does not normalize the transposition class") from None

    ambient = matsuo_algebra(data, eta)
    n = data.size
    singles: list[Vec] = []
    doubles: list[Vec] = []
    used = set()
    for i in range(n):
        j = images[i]
        if j == i:
            singles.append(unit_vec(n, i))
        elif i not in used and j not in used:
            # paired points contribute a double axis only when orthogonal
            if data.orders[i][j] == 2:
                doubles.append(vadd(unit_vec(n, i), unit_vec(n, j)))
                used.update((i, j))

    gens = singles + doubles
    if not gens:
        raise AlgebraError("flip has no single or double axes")
    closure = ambient.subalgebra_closure(gens)

    # the generators span part of the closure; its canonical basis completes
    # them, and the greedy choice is the pivot columns of one RREF
    candidates = gens + list(closure.basis)
    tags = [f"s{k + 1}" for k in range(len(singles))] + [f"d{k + 1}" for k in range(len(doubles))]
    basis: list[Vec] = []
    labels: list[str] = []
    for i in rref(mat_from_cols(candidates))[2]:
        basis.append(candidates[i])
        labels.append(tags[i] if i < len(tags) else f"b{len(basis)}")

    restricted = ambient.restrict(basis, labels=tuple(labels))
    single_idx = [basis.index(v) for v in singles if v in basis]
    double_idx = [basis.index(v) for v in doubles if v in basis]
    return FlipResult(restricted, tuple(basis), single_idx, double_idx, ambient)


def symmetric_transpositions(m: int) -> ThreeTranspositionData:
    """The symmetric group S_m acting on m points with its transposition class."""
    if m < 2:
        raise ValueError("need at least two points")
    gens = []
    for i in range(m - 1):
        p = list(range(m))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    rep = gens[0]
    return ThreeTranspositionData.from_generators(m, gens, rep)


def transposition_perm(m: int, a: int, b: int) -> Perm:
    """The transposition (a b) on m points, 1-based arguments."""
    p = list(range(m))
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return tuple(p)


def double_transposition_perm(m: int, a: int, b: int, c: int, d: int) -> Perm:
    return perm_mul(transposition_perm(m, a, b), transposition_perm(m, c, d))

"""Buchberger engine over Q under lex order, with exact point enumeration.

All searches in the library bottom out here: idempotent systems are handed in
as generators, a reduced lexicographic Groebner basis is computed, and for
zero-dimensional ideals every rational point is extracted by eliminant
root finding and back substitution, off that one basis: substituting a
partial root into a lex Groebner basis leaves a Groebner basis of the branch
in the elements whose leading coefficient survives (Gianni 1989, Kalkbrener
1989, both EUROCAL '87, LNCS 378).  A solve keeps one format, `PackedPolys`
(primitive integer polynomials on packed exponents), from the generators
through the reduced basis to the points, and builds an `MPoly` only when a
caller reads one.  A branch substitutes the numerators and denominators of
its partial root, and each distinct eliminant of a level is split once per
extraction.  Solutions that would live in a proper extension of Q are
never approximated; the eliminant cofactors with no rational root are
returned as witnesses instead, and split into irreducible factors only when
a caller reads them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import getitem, itemgetter
from time import monotonic
from typing import Callable, Optional, Sequence

from axial._backend import kernels
from axial.linalg import Vec, combination, kernel as matrix_kernel, mat
from axial.mpoly import MPoly
from axial.univariate import irreducible_factors, linear_factors, primitive_part


class CapExceeded(Exception):
    """A configured resource cap was hit; the result would be incomplete."""


class NotZeroDimensional(Exception):
    """Point extraction met a level with no eliminant at a partial point.

    `enumerate_points` trusts the leading-term test on the basis it is
    given and reads every branch off it; when that basis is not a Groebner
    basis, a level can specialise to zero and leave no eliminant to factor.
    """


@dataclass(frozen=True)
class SolverCaps:
    """Hard limits for a single Groebner computation.

    `max_pairs` counts the critical pairs whose S-polynomial is reduced;
    pairs the product and chain criteria discard do not count.  `max_degree`
    bounds the total degree of each element the pair loop adds, and
    `max_basis` the number of basis elements before autoreduction.
    `max_seconds`, when set, bounds the wall time of each `buchberger` call:
    the clock is read for each popped pair and before each reduction step
    of the normal form, since one reduction can run for minutes.  Unset, no
    clock is read.
    """

    max_basis: int = 512
    max_degree: int = 64
    max_pairs: int = 250_000
    max_seconds: Optional[float] = None


DEFAULT_CAPS = SolverCaps()

FINITE = "finite"
POSITIVE_DIMENSIONAL = "positive_dimensional"
NEEDS_EXTENSION = "needs_extension"


@dataclass
class SolveResult:
    """Rational solutions of a polynomial system, or the reason they stop.

    `cofactors` holds, in the order extraction met them, the distinct parts
    of the eliminants left after their linear factors: integer coefficients,
    lowest degree first, each of degree at least 2 with no rational root.
    `points` is complete over the algebraic closure exactly when the status is
    `finite` and `cofactors` is empty: then every eliminant along the
    extraction split into linear factors.  `eliminant_factors` splits the
    cofactors into irreducible factors on first read.  `basis` is the basis
    the points were read off, as `PackedPolys`: an unread basis builds no
    `MPoly`.
    """

    status: str
    points: list[Vec] = field(default_factory=list)
    cofactors: list[tuple[int, ...]] = field(default_factory=list)
    basis: Sequence[MPoly] = field(default_factory=list)

    @property
    def complete_over_closure(self) -> bool:
        return self.status == FINITE and not self.cofactors

    @functools.cached_property
    def eliminant_factors(self) -> list[tuple[int, ...]]:
        """The distinct irreducible factors of the cofactors, in their order.

        Each cofactor has no rational root, so each factor has degree >= 2.
        """
        factors: list[tuple[int, ...]] = []
        for cofactor in self.cofactors:
            for factor, _mult in irreducible_factors(cofactor):
                if factor not in factors:
                    factors.append(factor)
        return factors


def _pack(p: MPoly) -> dict[int, int]:
    """The terms of p keyed by packed exponents, scaled by `primitive_part`."""
    return dict(zip(map(kernels.pack, p.terms), primitive_part(list(p.terms.values()))))


class PackedPolys(Sequence[MPoly]):
    """A read-only sequence of polynomials in one packed integer format.

    Element i is `scales[i]` times `rows[i]`, a dict from packed exponents
    (see `axial._kernels_py`) to coprime ints, empty for 0.  The solver
    reads the rows; the `MPoly` of an element is built on its first read.
    It compares equal to a list of the same `MPoly`s.
    """

    __slots__ = ("nvars", "rows", "scales", "_polys")

    def __init__(self, nvars: int, rows: list[dict[int, int]], scales: list[Fraction], polys=None):
        self.nvars = nvars
        self.rows = rows
        self.scales = scales
        self._polys: list[Optional[MPoly]] = [None] * len(rows) if polys is None else polys

    @classmethod
    def of(cls, polys: Sequence[MPoly]) -> "PackedPolys":
        """The polynomials as a `PackedPolys`, each `MPoly` packed once."""
        if isinstance(polys, PackedPolys):
            return polys
        polys = list(polys)
        terms = [dict(zip(map(kernels.pack, p.terms), p.terms.values())) for p in polys]
        packed = cls.from_terms(polys[0].nvars if polys else 0, terms)
        packed._polys = polys
        return packed

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[dict[int, Fraction]]) -> "PackedPolys":
        """The polynomials with the given rational terms, keyed by packed exponents."""
        rows, scales = [], []
        for t in terms:
            values = list(t.values())
            ints = primitive_part(values)
            rows.append(dict(zip(t, ints)))
            scales.append(values[0] / ints[0] if values else Fraction(1))
        return cls(nvars, rows, scales)

    def nonzero(self) -> "PackedPolys":
        """The nonzero elements, in order; self when none is zero."""
        if all(self.rows):
            return self
        keep = [i for i, row in enumerate(self.rows) if row]
        return PackedPolys(self.nvars, *([xs[i] for i in keep] for xs in (self.rows, self.scales, self._polys)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.rows)))]
        p = self._polys[i]
        if p is None:
            num, den, nvars = self.scales[i].numerator, self.scales[i].denominator, self.nvars
            terms = {kernels.unpack(e, nvars): Fraction(c * num, den) for e, c in self.rows[i].items()}
            p = self._polys[i] = MPoly(nvars, terms, _clean=False)
        return p

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))

    def __add__(self, other: Sequence[MPoly]) -> "PackedPolys":
        other = PackedPolys.of(other)
        return PackedPolys(
            self.nvars, self.rows + other.rows, self.scales + other.scales, self._polys + other._polys
        )

    def __eq__(self, other):
        if isinstance(other, (PackedPolys, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


def _divisor(terms: dict[int, int]) -> tuple[int, int, list[tuple[int, int]]]:
    """The (lead, lead_coeff, tail) triple of a primitive integer polynomial.

    `terms` maps packed exponents to coprime ints; the triple holds the same
    terms, negated when needed so that lead_coeff > 0.  `buchberger` keeps
    each basis element as this triple, from its entry into the basis to the
    final autoreduction, and `kernels.normal_form` divides by it.
    """
    lead = max(terms)
    sign = -1 if terms[lead] < 0 else 1
    return lead, sign * terms[lead], [(e, sign * c) for e, c in terms.items() if e != lead]


def _reduce(
    work: dict[int, int], divisors: Sequence[tuple], guard: int, check: Optional[Callable] = None
) -> dict[int, int]:
    if not work or not divisors:
        return work
    return kernels.normal_form(work, divisors, guard, None, check)


def _deadline_check(caps: SolverCaps) -> Optional[Callable[[], None]]:
    """A callable raising CapExceeded once caps.max_seconds have passed, or None."""
    if caps.max_seconds is None:
        return None
    deadline = monotonic() + caps.max_seconds

    def check() -> None:
        if monotonic() > deadline:
            raise CapExceeded(f"deadline of {caps.max_seconds} s exceeded")

    return check


def _s_pair(f: tuple, g: tuple, guard: int) -> tuple[dict[int, int], int]:
    """The S-polynomial of two divisor triples as a primitive integer polynomial.

    With L = lcm of the leads, h = gcd(cf, cg) and shift_f = L / lead_f,
    the leading terms of (cg / h) shift_f f and (cf / h) shift_g g cancel, so
    their difference is taken over the tails in one dict.  Returns it
    divided by its content, and that content.
    """
    ef, cf, tail_f = f
    eg, cg, tail_g = g
    shift_f = kernels.lcm(ef, eg, guard) - ef
    shift_g = shift_f + ef - eg
    h = gcd(cf, cg)
    mf, mg = cg // h, cf // h
    out = {}
    for e, c in tail_f:
        out[e + shift_f] = mf * c
    for e, c in tail_g:
        key = e + shift_g
        s = out.get(key, 0) - mg * c
        if s:
            out[key] = s
        else:
            del out[key]
    if any(e & guard for e in out):
        kernels.overflow()
    content = gcd(*out.values())
    if content > 1:
        out = {e: c // content for e, c in out.items()}
    return out, content


def normal_form(p: MPoly, basis: Sequence[MPoly]) -> MPoly:
    """Fully reduce p modulo the basis (every term of the result is reduced).

    Packs p and the basis, reduces with `kernels.normal_form` and carries
    the kernel's scale back, so the result is the exact normal form over Q.
    """
    divisors = [_divisor(row) for row in PackedPolys.of(basis).rows if row]
    if not p or not divisors:
        return p
    work = _pack(p)
    start = next(iter(work.values())) / next(iter(p.terms.values()))
    scale = [start.numerator, start.denominator]
    r = kernels.normal_form(work, divisors, kernels.guard_mask(p.nvars), scale)
    return PackedPolys(p.nvars, [r], [Fraction(scale[1], scale[0])])[0]


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    """lcm/lt(f) * f - lcm/lt(g) * g, with lcm the LCM of the two leads.

    Computed by the integer pair step `buchberger` uses on its basis
    triples; the result is scaled back to the exact rational S-polynomial.
    """
    df, dg = _divisor(_pack(f)), _divisor(_pack(g))
    terms, content = _s_pair(df, dg, kernels.guard_mask(f.nvars))
    scale = Fraction(content * gcd(df[1], dg[1]), df[1] * dg[1])  # content / lcm(cf, cg)
    return PackedPolys(f.nvars, [terms], [scale])[0]


def buchberger(gens: Sequence[MPoly], caps: SolverCaps = DEFAULT_CAPS) -> PackedPolys:
    """Reduced lexicographic Groebner basis of the ideal the generators span.

    The generators are read as `PackedPolys` rows, packed once when they
    are plain `MPoly`s: every basis element is a primitive integer
    `_divisor` triple keyed by packed exponents, and the reduced basis is
    returned as `PackedPolys`, each element monic once read.  Pending
    pairs wait in a heap ordered by the degree of their LCM, then the LCM
    itself.  Each new basis element passes through the Gebauer-Moeller
    update (Buchberger's product and chain criteria), so only pairs the
    criteria cannot discard are reduced.

    Raises CapExceeded instead of returning a silently truncated basis when a
    resource limit is hit, an exponent overflow and the deadline included.
    """
    packed = PackedPolys.of(gens).nonzero()
    if not packed.rows:
        raise ValueError("empty generator list")
    check = _deadline_check(caps)
    nvars = packed.nvars
    guard = kernels.guard_mask(nvars)
    lcm_of = kernels.lcm
    divisors: list[tuple[int, int, list]] = []  # the basis, in order
    leads: list[int] = []
    queue: list[tuple[int, int, int, int]] = []  # (degree of lcm, lcm, i, j)

    def add(divisor: tuple) -> None:
        new = len(divisors)
        eh = divisor[0]
        divisors.append(divisor)
        leads.append(eh)
        # Chain criterion among the new pairs (k, new): drop a pair when
        # another pending or kept new pair's LCM divides its LCM (the packed
        # divisibility test, inline).  Pairs with coprime leads
        # (lcm == product) stay as witnesses here and are dropped below.
        candidates = [(lcm_of(leads[k], eh, guard), k) for k in range(new)]
        kept: list[tuple[int, int]] = []
        for idx, (pair_lcm, k) in enumerate(candidates):
            probe = pair_lcm | guard
            if pair_lcm == leads[k] + eh or not any(
                (probe - other) & guard == guard
                for other, _ in itertools.chain(candidates[idx + 1 :], kept)
            ):
                kept.append((pair_lcm, k))
        # An old pair (i, j) is redundant when the new lead divides its LCM
        # and that LCM equals neither lcm(i, new) nor lcm(j, new).
        queue[:] = [
            entry
            for entry in queue
            if ((entry[1] | guard) - eh) & guard != guard
            or lcm_of(leads[entry[2]], eh, guard) == entry[1]
            or lcm_of(leads[entry[3]], eh, guard) == entry[1]
        ]
        heapq.heapify(queue)
        for pair_lcm, k in kept:
            if pair_lcm != leads[k] + eh:  # product criterion
                heapq.heappush(queue, (kernels.degree(pair_lcm), pair_lcm, k, new))

    for row in packed.rows:
        r = _reduce(dict(row), divisors, guard, check)
        if r:
            add(_divisor(r))
    reduced_pairs = 0
    while queue:
        _, _, i, j = heapq.heappop(queue)
        if check:
            check()
        reduced_pairs += 1
        if reduced_pairs > caps.max_pairs:
            raise CapExceeded(f"pair limit {caps.max_pairs} exceeded")
        r = _reduce(_s_pair(divisors[i], divisors[j], guard)[0], divisors, guard, check)
        if not r:
            continue
        if max(map(kernels.degree, r)) > caps.max_degree:
            raise CapExceeded(f"degree limit {caps.max_degree} exceeded")
        if len(divisors) >= caps.max_basis:
            raise CapExceeded(f"basis size limit {caps.max_basis} exceeded")
        add(_divisor(r))
    return _autoreduce(divisors, nvars, guard, check)


def _autoreduce(basis: list[tuple], nvars: int, guard: int, check=None) -> PackedPolys:
    # Minimal basis: drop elements whose lead is divisible by another lead.
    basis = sorted(basis, key=lambda d: d[0])
    leads = [d[0] for d in basis]
    minimal = [
        d
        for idx, (d, eg) in enumerate(zip(basis, leads))
        if not any(
            jdx < idx if eh == eg else kernels.divides(eh, eg, guard)
            for jdx, eh in enumerate(leads)
            if jdx != idx
        )
    ]
    # Reduced basis: each element fully reduced against the others, and
    # scaled by the inverse of its lead coefficient, in decreasing lead
    # order.  A minimal basis keeps every lead, so no element reduces to 0.
    reduced = []
    for idx, (lead, lead_coeff, tail) in enumerate(minimal):
        work = {lead: lead_coeff}
        work.update(tail)
        reduced.append(_reduce(work, minimal[:idx] + minimal[idx + 1 :], guard, check))
    reduced.sort(key=max, reverse=True)
    return PackedPolys(nvars, reduced, [Fraction(1, r[max(r)]) for r in reduced])


def is_groebner_basis(basis: Sequence[MPoly]) -> bool:
    """Directly checkable certificate: every S-polynomial reduces to zero."""
    packed = PackedPolys.of(basis)
    divisors = [_divisor(row) for row in packed.rows if row]
    guard = kernels.guard_mask(packed.nvars)
    for f, g in itertools.combinations(divisors, 2):
        if _reduce(_s_pair(f, g, guard)[0], divisors, guard):
            return False
    return True


def ideal_dimension_zero(gb: Sequence[MPoly]) -> bool:
    """Standard zero-dimensionality test on a Groebner basis.

    True iff for every variable some leading term is a pure power of it.  A
    basis containing a nonzero constant (empty variety) counts as
    zero-dimensional.
    """
    packed = PackedPolys.of(gb)
    leads = [kernels.unpack(max(row), packed.nvars) for row in packed.rows if row]
    supports = [[i for i, e in enumerate(lead) if e] for lead in leads]
    pure_powers = {support[0] for support in supports if len(support) == 1}
    return bool(leads) and ([] in supports or len(pure_powers) == packed.nvars)


def enumerate_points(gb: Sequence[MPoly]) -> SolveResult:
    """All rational points of a zero-dimensional ideal, by lex elimination.

    `gb` must be a lex Groebner basis, reduced or not: the zero-dimensionality
    test and every branch are read off its `PackedPolys` rows, packed once
    when it is a list of `MPoly`s.  An element has level k when x_k is its
    greatest variable (`_levels`).  From the least variable on, the partial
    point (a_{k+1}, ...) is substituted into the level-k elements as
    numerators and denominators (`_specialise`): each result is the rational
    specialisation times a positive integer, so its primitive form is the
    same.  The linear factors over Z of the nonzero result of least degree
    in x_k, the first in level order, are split off (`linear_factors`): by
    Gianni-Kalkbrener it is a scalar multiple of the branch's eliminant, as
    an element whose leading coefficient vanishes specialises to 0 or to a
    multiple of it.  Branches that meet the same primitive eliminant at the
    same level reuse its split, so each is split once per extraction.  Each
    rational root opens a branch.  What is left, with no rational root, is
    kept unsplit in `cofactors` as an extension witness and flagged via the
    status; `SolveResult.eliminant_factors` factors it only when read.
    """
    gb = PackedPolys.of(gb).nonzero()
    if not gb.rows:
        raise ValueError("empty basis")
    if not ideal_dimension_zero(gb):
        return SolveResult(POSITIVE_DIMENSIONAL, basis=gb)
    points: list[Vec] = []
    cofactors: list[tuple[int, ...]] = []
    if all(max(row) for row in gb.rows):  # no nonzero constant
        _extract(_levels(gb), (), points, cofactors, {})
    _sort_points(points)
    status = NEEDS_EXTENSION if cofactors else FINITE
    return SolveResult(status, points, cofactors, gb)


def _sort_points(points: list[Vec]) -> None:
    """Sort the points as `list.sort` would, on integer rank tuples.

    Extraction makes each root once per eliminant it splits, so a column
    holds few distinct Fraction objects.  They are ranked once by value,
    equal values sharing a rank, and the points are then sorted by their
    ranks, looked up by `id`: no Fraction is compared or hashed per point.
    """
    ranks = []
    for column in zip(*points):
        objects = sorted({id(x): x for x in column}.items(), key=itemgetter(1))
        groups = itertools.groupby(objects, key=itemgetter(1))
        ranks.append({i: r for r, (_, group) in enumerate(groups) for i, _x in group})
    points.sort(key=lambda p: tuple(map(getitem, ranks, map(id, p))))


def _levels(gb: PackedPolys) -> list[list[tuple]]:
    """The nonconstant rows grouped by level, each exponent unpacked once.

    An element of level k is (degree, higher, degrees, terms): its degree in
    x_k, the greater indices j of the variables it uses beside x_k, its
    degree in each, and its terms as (exponents, c), c the row's ints.
    """
    nvars = gb.nvars
    unpack = kernels.unpack
    levels: list[list[tuple]] = [[] for _ in range(nvars)]
    for row in gb.rows:
        terms = [(unpack(e, nvars), c) for e, c in row.items()]
        tops = [max(column) for column in zip(*(e for e, _ in terms))]
        k, *higher = (j for j in range(nvars) if tops[j])
        levels[k].append((tops[k], higher, [tops[j] for j in higher], terms))
    return levels


def _specialise(element: tuple, k: int, point: tuple) -> list[int]:
    """The level-k element at the partial point, as integer coefficients in
    x_k, lowest degree first, without trailing zeros.

    Each higher variable x_j = p/q of degree D in the element contributes
    p^e q^(D - e) to a term with exponent e in x_j, so the result is the
    rational specialisation times the product of the q^D, a positive
    integer.
    """
    degree, higher, degrees, terms = element
    weights = []
    for j, top in zip(higher, degrees):
        a = point[j - k - 1]
        p, q = a.numerator, a.denominator
        weights.append((j, [p**e * q ** (top - e) for e in range(top + 1)]))
    out = [0] * (degree + 1)
    for e, c in terms:
        for j, w in weights:
            c *= w[e[j]]
        out[e[k]] += c
    while out and not out[-1]:
        out.pop()
    return out


def _extract(levels: list[list[tuple]], point: tuple, points: list, cofactors: list, splits: dict) -> None:
    """Extend the partial point (a_{k+1}, ...) by every rational root a_k.

    `splits` keeps the split of each eliminant met, its rational roots and
    the cofactors of `linear_factors`, keyed by its level and its primitive
    coefficients with a positive leading one.
    """
    k = len(levels) - len(point) - 1
    elim: list[int] = []
    for element in levels[k]:
        coeffs = _specialise(element, k, point)
        if coeffs and (not elim or len(coeffs) < len(elim)):
            elim = coeffs
    if not elim:
        raise NotZeroDimensional("no eliminant found; the basis is not a Groebner basis")
    content = gcd(*elim) if elim[-1] > 0 else -gcd(*elim)
    key = (k, tuple(c // content for c in elim))
    if key not in splits:
        linear, rest = linear_factors(key[1])
        splits[key] = [Fraction(-b, a) for (b, a), _mult in linear], rest
    roots, rest = splits[key]
    if k:
        for root in roots:
            _extract(levels, (root,) + point, points, cofactors, splits)
    else:
        points += [(root,) + point for root in roots]
    for cofactor, _mult in rest:
        if cofactor not in cofactors:
            cofactors.append(cofactor)


@dataclass(frozen=True)
class ConstantCertificate:
    """A rational combination of polynomials equal to a nonzero constant.

    Witnesses that the polynomials have no common root over any field where
    the constant stays nonzero; the integer content of the numerator names the
    characteristics that must be excluded.
    """

    coefficients: tuple[int, ...]
    constant: Fraction


MAX_CERTIFICATE_KERNEL_DIM = 5  # 7**5 = 16807 combinations


def certify_no_common_root(polys: Sequence[MPoly]) -> Optional[ConstantCertificate]:
    """Search for an integer combination of univariate polynomials equal to a
    nonzero constant.

    The combination must kill every coefficient of degree >= 1, a small exact
    linear system; among the kernel vectors the one touching the most
    polynomials with the smallest integer entries and a nonzero constant term
    is returned, sign-normalized so the constant is positive.  Absence of such
    a combination returns None.

    The search tries 7**k combinations for a k-dimensional kernel, so it
    raises CapExceeded, naming k, when k exceeds MAX_CERTIFICATE_KERNEL_DIM.
    """
    if len(polys) < 2:
        raise ValueError("need at least two polynomials")
    variables = set()
    for p in polys:
        variables |= p.variables_used()
    if len(variables) > 1:
        raise ValueError("polynomials must share a single variable")
    var = variables.pop() if variables else 0
    coeff_lists = [p.univariate_coeffs(var) if p else [Fraction(0)] for p in polys]
    degree = max(len(c) for c in coeff_lists) - 1
    if degree < 1:
        return None
    rows = []
    for d in range(1, degree + 1):
        rows.append([c[d] if d < len(c) else Fraction(0) for c in coeff_lists])
    null = matrix_kernel(mat(rows))
    if null.is_zero():
        return None
    if null.dim > MAX_CERTIFICATE_KERNEL_DIM:
        raise CapExceeded(
            f"certificate search over a kernel of dimension {null.dim} exceeds "
            f"the limit {MAX_CERTIFICATE_KERNEL_DIM}"
        )
    constants = [c[0] for c in coeff_lists]
    best = None
    for combo in itertools.product(range(-3, 4), repeat=null.dim):
        if all(c == 0 for c in combo):
            continue
        ints = primitive_part(combination(combo, null.basis, len(polys)))
        if not any(ints):
            continue
        constant = sum((i * c for i, c in zip(ints, constants)), Fraction(0))
        if not constant:
            continue
        if constant < 0:
            ints = [-x for x in ints]
            constant = -constant
        support = sum(1 for x in ints if x)
        key = (
            -support,
            max(abs(x) for x in ints),
            sum(abs(x) for x in ints),
            tuple(ints),
        )
        if best is None or key < best[0]:
            best = (key, tuple(ints), constant)
    if best is None:
        return None
    _, ints, constant = best
    check = sum((p.scale(c) for p, c in zip(polys, ints)), MPoly.zero(polys[0].nvars))
    assert check.is_constant() and check.constant_term() == constant
    return ConstantCertificate(ints, constant)


def content_primes(value: Fraction) -> list[int]:
    """Prime factors of the numerator of a certificate constant.

    These are the positive characteristics in which the certificate fails,
    i.e. where the certified system could acquire common roots.
    """
    from sympy import factorint

    n = abs(value.numerator)
    if n in (0, 1):
        return []
    return sorted(factorint(n))


__all__ = [
    "CapExceeded",
    "NotZeroDimensional",
    "SolverCaps",
    "DEFAULT_CAPS",
    "SolveResult",
    "FINITE",
    "POSITIVE_DIMENSIONAL",
    "NEEDS_EXTENSION",
    "PackedPolys",
    "normal_form",
    "s_polynomial",
    "buchberger",
    "is_groebner_basis",
    "ideal_dimension_zero",
    "enumerate_points",
    "ConstantCertificate",
    "certify_no_common_root",
    "content_primes",
]

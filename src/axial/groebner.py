"""Buchberger engine over Q under lex order, with exact point enumeration.

All searches in the library bottom out here: idempotent systems are handed in
as generators, a reduced lexicographic Groebner basis is computed, and for
zero-dimensional ideals every rational point is extracted by eliminant
factoring and back substitution.  Solutions that would live in a proper
extension of Q are never approximated; the irreducible eliminant factors are
returned as witnesses instead.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from sympy import factorint

from axial._backend import kernels
from axial.linalg import Vec, combination, kernel as matrix_kernel, mat
from axial.mpoly import Exponent, MPoly
from axial.univariate import irreducible_factors, primitive_part


class CapExceeded(Exception):
    """A configured resource cap was hit; the result would be incomplete."""


@dataclass(frozen=True)
class SolverCaps:
    """Hard limits for a single Groebner computation.

    `max_pairs` counts the critical pairs whose S-polynomial is reduced;
    pairs the product and chain criteria discard do not count.  `max_degree`
    bounds the total degree of each element the pair loop adds, and
    `max_basis` the number of basis elements before autoreduction.
    """

    max_basis: int = 512
    max_degree: int = 64
    max_pairs: int = 250_000


DEFAULT_CAPS = SolverCaps()

FINITE = "finite"
POSITIVE_DIMENSIONAL = "positive_dimensional"
NEEDS_EXTENSION = "needs_extension"


@dataclass
class SolveResult:
    """Rational solutions of a polynomial system, or the reason they stop.

    `points` is complete over the algebraic closure exactly when the status is
    `finite` and `eliminant_factors` is empty: then every eliminant along the
    extraction split into linear factors.
    """

    status: str
    points: list[Vec] = field(default_factory=list)
    eliminant_factors: list[tuple[int, ...]] = field(default_factory=list)
    basis: list[MPoly] = field(default_factory=list)

    @property
    def complete_over_closure(self) -> bool:
        return self.status == FINITE and not self.eliminant_factors


def _divisor(g: MPoly) -> tuple[Exponent, int, list]:
    """The (lead_exp, lead_coeff, tail) triple `kernels.normal_form` divides by.

    Scaling g by a nonzero rational leaves every normal form modulo it
    unchanged, so the kernel gets g as the coprime integers of
    `primitive_part`, negated when needed to make the lead coefficient
    positive, and reduces fraction-free.
    """
    lead_exp = max(g.terms)
    tail_exps = [e for e in g.terms if e != lead_exp]
    ints = primitive_part([g.terms[lead_exp]] + [g.terms[e] for e in tail_exps])
    if ints[0] < 0:
        ints = [-v for v in ints]
    return lead_exp, ints[0], list(zip(tail_exps, ints[1:]))


def _reduce(p: MPoly, divisors: Sequence[tuple]) -> MPoly:
    if not p.terms or not divisors:
        return p
    return MPoly(p.nvars, kernels.normal_form(p.terms, divisors), _clean=False)


def normal_form(p: MPoly, basis: Sequence[MPoly]) -> MPoly:
    """Fully reduce p modulo the basis (every term of the result is reduced)."""
    return _reduce(p, [_divisor(g) for g in basis if g])


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    """lcm/lt(f) * f - lcm/lt(g) * g, with lcm the LCM of the two leads.

    Both shifted polynomials are accumulated in one dict.  Coefficients are
    divided by their lead coefficient only when it is not 1, so the monic
    elements `buchberger` keeps need no multiplication or division.
    """
    ef, cf = f.lead()
    eg, cg = g.lead()
    lcm = _lcm_exp(ef, eg)
    shift_f = kernels.exp_div(lcm, ef)
    shift_g = kernels.exp_div(lcm, eg)
    out = {
        kernels.exp_mul(e, shift_f): c if cf == 1 else c / cf for e, c in f.terms.items()
    }
    for e, c in g.terms.items():
        key = kernels.exp_mul(e, shift_g)
        s = out.get(key, 0) - (c if cg == 1 else c / cg)
        if s:
            out[key] = s
        else:
            del out[key]
    return MPoly(f.nvars, out, _clean=False)


def _lcm_exp(e1: Exponent, e2: Exponent) -> Exponent:
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _is_product(e1: Exponent, e2: Exponent) -> bool:
    return all(min(a, b) == 0 for a, b in zip(e1, e2))


def buchberger(gens: Sequence[MPoly], caps: SolverCaps = DEFAULT_CAPS) -> list[MPoly]:
    """Reduced lexicographic Groebner basis of the ideal the generators span.

    Pending pairs wait in a heap ordered by the degree of their LCM, then the
    LCM itself.  Each new basis element passes through the Gebauer-Moeller
    update (Buchberger's product and chain criteria), so only pairs the
    criteria cannot discard are reduced.

    Raises CapExceeded instead of returning a silently truncated basis when a
    resource limit is hit.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    nvars = gens[0].nvars
    basis: list[MPoly] = []
    divisors: list[tuple[Exponent, int, list]] = []  # one per element, in basis order
    leads: list[Exponent] = []
    queue: list[tuple[int, Exponent, int, int]] = []  # (degree of lcm, lcm, i, j)

    def add(g: MPoly) -> None:
        new = len(basis)
        divisor = _divisor(g)
        eh = divisor[0]
        basis.append(g)
        divisors.append(divisor)
        leads.append(eh)
        # Chain criterion among the new pairs (k, new): drop a pair when
        # another pending or kept new pair's LCM divides its LCM.  Pairs with
        # coprime leads stay as witnesses here and are dropped below.
        candidates = [(_lcm_exp(leads[k], eh), k) for k in range(new)]
        kept: list[tuple[Exponent, int]] = []
        for idx, (lcm, k) in enumerate(candidates):
            if _is_product(leads[k], eh) or not any(
                kernels.exp_divides(other, lcm)
                for other, _ in itertools.chain(candidates[idx + 1 :], kept)
            ):
                kept.append((lcm, k))
        # An old pair (i, j) is redundant when the new lead divides its LCM
        # and that LCM equals neither lcm(i, new) nor lcm(j, new).
        queue[:] = [
            entry
            for entry in queue
            if not kernels.exp_divides(eh, entry[1])
            or _lcm_exp(leads[entry[2]], eh) == entry[1]
            or _lcm_exp(leads[entry[3]], eh) == entry[1]
        ]
        heapq.heapify(queue)
        for lcm, k in kept:
            if not _is_product(leads[k], eh):  # product criterion
                heapq.heappush(queue, (sum(lcm), lcm, k, new))

    for g in gens:
        r = _reduce(g, divisors)
        if r:
            add(r.monic())
    reduced_pairs = 0
    while queue:
        _, _, i, j = heapq.heappop(queue)
        reduced_pairs += 1
        if reduced_pairs > caps.max_pairs:
            raise CapExceeded(f"pair limit {caps.max_pairs} exceeded")
        r = _reduce(s_polynomial(basis[i], basis[j]), divisors)
        if not r:
            continue
        if r.total_degree() > caps.max_degree:
            raise CapExceeded(f"degree limit {caps.max_degree} exceeded")
        if len(basis) >= caps.max_basis:
            raise CapExceeded(f"basis size limit {caps.max_basis} exceeded")
        add(r.monic())
    return _autoreduce(basis, nvars)


def _autoreduce(basis: list[MPoly], nvars: int) -> list[MPoly]:
    # Minimal basis: drop generators whose lead is divisible by another lead.
    basis = sorted((g for g in basis if g), key=lambda g: g.lead()[0])
    leads = [g.lead()[0] for g in basis]
    minimal = []
    for idx, (g, eg) in enumerate(zip(basis, leads)):
        divisible = False
        for jdx, eh in enumerate(leads):
            if jdx == idx:
                continue
            if eh == eg and jdx < idx:
                divisible = True
                break
            if eh != eg and kernels.exp_divides(eh, eg):
                divisible = True
                break
        if not divisible:
            minimal.append(g)
    # Reduced basis: each element fully reduced against the others, monic.
    divisors = [_divisor(g) for g in minimal]
    reduced = []
    for idx, g in enumerate(minimal):
        r = _reduce(g, divisors[:idx] + divisors[idx + 1 :])
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.lead()[0], reverse=True)
    if not reduced:
        return [MPoly.zero(nvars)]
    return reduced


def is_groebner_basis(basis: Sequence[MPoly]) -> bool:
    """Directly checkable certificate: every S-polynomial reduces to zero."""
    nonzero = [g for g in basis if g]
    divisors = [_divisor(g) for g in nonzero]
    for f, g in itertools.combinations(nonzero, 2):
        if _reduce(s_polynomial(f, g), divisors):
            return False
    return True


def ideal_dimension_zero(gb: Sequence[MPoly]) -> bool:
    """Standard zero-dimensionality test on a Groebner basis.

    True iff for every variable some leading term is a pure power of it.  A
    basis containing a nonzero constant (empty variety) counts as
    zero-dimensional.
    """
    nonzero = [g for g in gb if g]
    if not nonzero:
        return False
    nvars = nonzero[0].nvars
    if nvars == 0:
        return True
    covered = set()
    for g in nonzero:
        exp = g.lead()[0]
        support = [i for i, e in enumerate(exp) if e]
        if not support:
            return True  # 1 is in the ideal
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == nvars


def _contains_nonzero_constant(polys: Sequence[MPoly]) -> bool:
    return any(p and p.is_constant() for p in polys)


def enumerate_points(gb: Sequence[MPoly], caps: SolverCaps = DEFAULT_CAPS) -> SolveResult:
    """All rational points of a zero-dimensional ideal, by lex elimination.

    `gb` must be a lex Groebner basis: the zero-dimensionality test is only
    valid on one, and it is used as given.  The least variable's eliminant is
    factored over Z; rational roots are substituted back breadth-first,
    recomputing a basis for each branch.
    Irreducible factors of degree >= 2 found along consistent branches are
    collected as extension witnesses and flagged via the status.
    """
    gb = [g for g in gb if g]
    if not gb:
        raise ValueError("empty basis")
    basis = list(gb)
    if not _contains_nonzero_constant(basis) and not ideal_dimension_zero(basis):
        return SolveResult(POSITIVE_DIMENSIONAL, basis=basis)
    nvars = basis[0].nvars
    points: list[Vec] = []
    factors: list[tuple[int, ...]] = []
    _extract(basis, list(range(nvars)), {}, points, factors, caps)
    points.sort()
    status = NEEDS_EXTENSION if factors else FINITE
    return SolveResult(status, points, factors, list(gb))


def _extract(gens, active, fixed, points, factors, caps):
    if _contains_nonzero_constant(gens):
        return
    if not active:
        nvars = gens[0].nvars if gens else len(fixed)
        points.append(tuple(fixed[i] for i in range(nvars)))
        return
    gb = buchberger(gens, caps) if fixed and gens else gens
    if _contains_nonzero_constant(gb):
        return
    if not gb or all(not g for g in gb):
        # Zero ideal on the remaining variables: positive-dimensional section.
        raise CapExceeded("unexpected positive-dimensional branch")
    last = active[-1]
    univariate = [g for g in gb if g.variables_used() <= {last}]
    if not univariate:
        raise CapExceeded("no eliminant found; branch not zero-dimensional")
    elim = min(univariate, key=lambda g: g.lead()[0])
    coeffs = elim.univariate_coeffs(last)
    for factor, _mult in irreducible_factors(coeffs):
        if len(factor) == 2:
            b, a = factor
            root = Fraction(-b, a)
            substituted = [g.substitute({last: root}) for g in gb]
            substituted = [g for g in substituted if g]
            new_fixed = dict(fixed)
            new_fixed[last] = root
            _extract(substituted, active[:-1], new_fixed, points, factors, caps)
        else:
            if factor not in factors:
                factors.append(factor)


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
    n = abs(value.numerator)
    if n in (0, 1):
        return []
    return sorted(factorint(n))


__all__ = [
    "CapExceeded",
    "SolverCaps",
    "DEFAULT_CAPS",
    "SolveResult",
    "FINITE",
    "POSITIVE_DIMENSIONAL",
    "NEEDS_EXTENSION",
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

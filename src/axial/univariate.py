"""Univariate helpers over Z: primitive parts, rational roots, factor lists.

Factorization of integer polynomials is delegated to sympy; everything built
on top of it (root extraction, eliminant certificates) stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy

IntPoly = tuple[int, ...]  # coefficients, lowest degree first


def primitive_integer(coeffs) -> IntPoly:
    """Clear denominators and common content; normalize the leading sign."""
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if not fracs:
        return (0,)
    denom = 1
    for c in fracs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in fracs]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _to_sympy(ints: IntPoly):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(ints)), x)


def irreducible_factors(coeffs) -> list[tuple[IntPoly, int]]:
    """Irreducible factors over Z of the primitive part, with multiplicities.

    Each factor is returned as primitive integer coefficients, lowest degree
    first; the rational content is dropped.
    """
    ints = primitive_integer(coeffs)
    if len(ints) == 1:
        return []
    _, factors = _to_sympy(ints).factor_list()
    out = []
    for poly, mult in factors:
        fc = tuple(int(c) for c in reversed(poly.all_coeffs()))
        if len(fc) > 1:
            out.append((fc, int(mult)))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def rational_roots(coeffs) -> dict[Fraction, int]:
    """Rational roots with multiplicities, read off the linear factors."""
    roots: dict[Fraction, int] = {}
    for factor, mult in irreducible_factors(coeffs):
        if len(factor) == 2:
            b, a = factor
            roots[Fraction(-b, a)] = mult
    return roots

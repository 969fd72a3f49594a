"""Univariate helpers over Z: primitive parts, rational roots, factor lists.

`primitive_part` is the package's one rational-to-integer scaling: every
site that clears denominators and common content calls it.

Factorization of integer polynomials is delegated to sympy's dense
univariate factoring over ZZ; everything built on top of it (root
extraction, eliminant certificates) stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

IntPoly = tuple[int, ...]  # coefficients, lowest degree first


def primitive_part(values) -> list[int]:
    """Coprime integers that are a positive rational multiple of `values`.

    `values` is a collection of Fractions or ints (read twice).  Multiplies
    by the lcm of the denominators, then divides by the gcd of the integers
    when that is above 1; all zeros stay all zeros.
    """
    denom = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (denom // x.denominator) for x in values]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def primitive_integer(coeffs) -> IntPoly:
    """Clear denominators and common content; normalize the leading sign."""
    ints = primitive_part(coeffs)
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return (0,)
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def irreducible_factors(coeffs) -> list[tuple[IntPoly, int]]:
    """Irreducible factors over Z of the primitive part, with multiplicities.

    Each factor is returned as primitive integer coefficients, lowest degree
    first; the rational content is dropped.
    """
    ints = primitive_integer(coeffs)
    if len(ints) == 1:
        return []
    # dup_factor_list takes and returns coefficients highest degree first
    _, factors = dup_factor_list([ZZ(c) for c in reversed(ints)], ZZ)
    out = []
    for factor, mult in factors:
        fc = tuple(int(c) for c in reversed(factor))
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

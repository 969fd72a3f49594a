"""Univariate helpers over Z: primitive parts, a squarefree test, rational
roots, factor lists.

`primitive_part` scales rationals to coprime integers, and sparse rows by
`kernels.primitive_row`; sites that keep the denominator they clear scale
with `linalg.integer_vectors`, and `IntegerAdjoint` scales on its own.

Factoring is done in two halves, for the common shape of a lex
eliminant, x^k times a squarefree polynomial with few rational roots and
at most one nonlinear factor.  `linear_factors` is the first half: x^k,
then rational roots by p-adic lifting (Loos 1983): the roots of the
squarefree part modulo a prime are Newton-lifted until they determine a
rational candidate, and each candidate is kept only when exact integer
evaluation confirms it.  It leaves the cofactor with no rational root
unsplit, which is all point extraction and `fusion.infer_fusion_law`
need.  `irreducible_factors` adds the second half: a cofactor of degree 2
or 3 has no rational root, so it is irreducible, and one of degree 4 or
more is factored by sympy's dense Zassenhaus factoring over ZZ.  An
input with no squarefree image modulo the primes of PRIMES, as every input
with a repeated factor, is factored whole by the same routine, once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

IntPoly = tuple[int, ...]  # coefficients, lowest degree first

# Primes of the modular steps, in the order they are tried.  Small primes
# keep root finding by evaluation cheap; 2 is left out because x^2 - x
# vanishes on all of F_2, so few polynomials are squarefree there.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


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


def linear_factors(coeffs) -> tuple[list[tuple[IntPoly, int]], list[tuple[IntPoly, int]]]:
    """The linear factors over Z of the primitive part, and the rest unsplit.

    Returns (linear, cofactors), each a list of (factor, multiplicity) in
    the form of `irreducible_factors`.  `linear` holds x^k and the rational
    roots, sorted by coefficients.  `cofactors` holds polynomials of degree
    at least 2 with no rational root, whose irreducible factors, with the
    multiplicities multiplied, are the nonlinear factors of the input.

    x^k is split off first.  When the rest, g, is squarefree modulo one of
    the primes of PRIMES that do not divide its leading coefficient (which
    proves g squarefree over Q), its rational roots are found by p-adic
    lifting and divided out, and what is left of g, when its degree is at
    least 2, is the one cofactor.  Otherwise the whole input is factored by
    sympy's `dup_factor_list`, and its nonlinear factors, each irreducible,
    are the cofactors.
    """
    linear, cofactors, _ = _split_linear(coeffs)
    return linear, cofactors


def _split_linear(coeffs):
    """`linear_factors`, and whether its cofactors are known irreducible
    (they are when sympy factored the whole input)."""
    ints = primitive_integer(coeffs)
    if len(ints) == 1:
        return [], [], True
    k = next(i for i, c in enumerate(ints) if c)
    g = list(ints[k:])
    linear = [((0, 1), k)] if k else []
    if len(g) > 2:
        split = _split_squarefree(g)
        if split is None:
            factors = _zassenhaus(ints)
            return [f for f in factors if len(f[0]) == 2], [f for f in factors if len(f[0]) > 2], True
        roots, g = split
        linear += roots
    if len(g) == 2:
        linear.append((tuple(g), 1))
    linear.sort()
    return linear, [(tuple(g), 1)] if len(g) > 2 else [], False


def irreducible_factors(coeffs) -> list[tuple[IntPoly, int]]:
    """Irreducible factors over Z of the primitive part, with multiplicities.

    Each factor is returned as primitive integer coefficients, lowest degree
    first, with a positive leading coefficient; the rational content is
    dropped.  The list is sorted by degree, then by coefficients.

    The linear factors are those of `linear_factors`, and each of its
    cofactors is split in turn, unless sympy already factored the whole
    input: one of degree 2 or 3 has no rational root, so it is irreducible,
    and one of degree 4 or more is factored by sympy's `dup_factor_list`.
    """
    factors, cofactors, irreducible = _split_linear(coeffs)
    for h, mult in cofactors:
        if len(h) > 4 and not irreducible:
            factors += [(f, mult * m) for f, m in _zassenhaus(h)]
        else:
            factors.append((h, mult))
    return factors


def is_squarefree(coeffs) -> bool:
    """Whether a nonzero polynomial over Q has no repeated factor: its gcd
    with its derivative, by exact Euclid on Fractions, is a constant."""
    f = _trim([Fraction(c) for c in coeffs])
    g = _trim([i * c for i, c in enumerate(f)][1:])
    while g:
        while len(f) >= len(g):
            q, shift = f[-1] / g[-1], len(f) - len(g)
            f = _trim([c - q * g[i - shift] if i >= shift else c for i, c in enumerate(f)])
        f, g = g, f
    return len(f) == 1


def _zassenhaus(ints: IntPoly) -> list[tuple[IntPoly, int]]:
    """The factor list of a primitive polynomial by sympy's factoring over ZZ."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    # dup_factor_list takes and returns coefficients highest degree first
    _, factors = dup_factor_list([ZZ(c) for c in reversed(ints)], ZZ)
    out = []
    for factor, mult in factors:
        fc = tuple(int(c) for c in reversed(factor))
        if len(fc) > 1:
            out.append((fc, int(mult)))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def _split_squarefree(g: list[int]):
    """The linear factors of g and their cofactor, or None.

    g is primitive, of degree at least 2, with a positive leading
    coefficient and a nonzero constant term.  Returns (linear factors, h)
    when g is squarefree modulo a prime of PRIMES not dividing its leading
    coefficient, h being the cofactor of g's rational roots: primitive,
    squarefree, with a positive leading coefficient and no rational root.
    Returns None when no such prime is found, as for every g with a repeated
    factor: each image test is a gcd over a small field, cheap next to the
    fallback.
    """
    for p in PRIMES:
        if g[-1] % p == 0:
            continue
        image = [c % p for c in g]
        if _is_squarefree(image, p):
            break
    else:
        return None
    roots = []
    for r in _roots_mod(image, p):
        root = _rational_root(g, r, p)
        if root is not None:
            b, a = root
            g = _divide_linear(g, a, b)
            roots.append(((-b, a), 1))
    return roots, g


def _rational_root(g: list[int], r: int, p: int):
    """The rational root of g lying over the simple root r mod p, or None.

    Lifts r by Newton's iteration to q = p^m > 2|lc const|.  A rational root
    b/a of g has a | lc and b | const, so lc·b/a is an integer of size at
    most |lc const|, and it is the symmetric residue of lc·r mod q; the
    candidate is returned as (b, a), a > 0, only when g(b/a) is exactly 0.
    """
    lc = g[-1]
    bound = 2 * abs(lc * g[0])
    deriv = [i * c for i, c in enumerate(g)][1:]
    q = p
    while q <= bound:
        q *= q
        r = (r - _eval(g, r) * pow(_eval(deriv, r), -1, q)) % q
    s = lc * r % q
    if 2 * s > q:
        s -= q
    d = gcd(s, lc)
    b, a = s // d, lc // d
    acc, apow = g[-1], 1
    for c in reversed(g[:-1]):  # sum of g_i b^i a^(n-i), by Horner
        apow *= a
        acc = acc * b + c * apow
    return (b, a) if acc == 0 else None


def _eval(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _divide_linear(g: list[int], a: int, b: int) -> list[int]:
    """The exact quotient of g by a x - b over Z, for a root b/a of g."""
    quotient = [0] * (len(g) - 1)
    carry = 0
    for i in range(len(g) - 1, 0, -1):
        quotient[i - 1] = (g[i] + carry) // a
        carry = b * quotient[i - 1]
    return quotient


# Polynomials over F_p: lists of residues, lowest degree first, with a
# nonzero last entry (the zero polynomial is the empty list).


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _rem(f: list[int], m: list[int], p: int) -> list[int]:
    """The remainder of f by a monic m over F_p."""
    f = list(f)
    dm = len(m) - 1
    for i in range(len(f) - 1, dm - 1, -1):
        c = f[i] % p
        if c:
            for j in range(dm):
                f[i - dm + j] -= c * m[j]
    return _trim([c % p for c in f[:dm]])


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of f and a nonzero g."""
    while g:
        g = _monic(g, p)
        f, g = g, _rem(f, g, p)
    return f


def _is_squarefree(image: list[int], p: int) -> bool:
    """Whether a polynomial over F_p of full degree has no repeated factor."""
    deriv = _trim([i * c % p for i, c in enumerate(image)][1:])
    return bool(deriv) and len(_gcd(image, deriv, p)) == 1


def _roots_mod(image: list[int], p: int) -> list[int]:
    """The roots in F_p of a polynomial over F_p, by evaluation."""
    return [x for x in range(p) if _eval(image, x) % p == 0]

"""Factor lists over Z agree with sympy's Poly.factor_list."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from axial.univariate import irreducible_factors, primitive_integer, rational_roots


def reference_factors(coeffs):
    """The factor list as computed through sympy's Poly, lowest degree first."""
    ints = primitive_integer(coeffs)
    if len(ints) == 1:
        return []
    _, factors = sympy.Poly(list(reversed(ints)), sympy.Symbol("x")).factor_list()
    out = []
    for poly, mult in factors:
        fc = tuple(int(c) for c in reversed(poly.all_coeffs()))
        if len(fc) > 1:
            out.append((fc, int(mult)))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


small = st.integers(-4, 4)
# linear factors, and quadratics such as x^2 + 2 that stay irreducible
factors = st.one_of(
    st.tuples(small, st.integers(1, 4)),
    st.tuples(st.integers(1, 5), small, st.integers(1, 3)),
)


@st.composite
def factored_polynomials(draw):
    coeffs = [1]
    for factor in draw(st.lists(factors, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):  # repeated factors
            coeffs = times(coeffs, list(factor))
    content = draw(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool))
    return [content * c for c in coeffs]


@settings(max_examples=200, deadline=None)
@given(factored_polynomials())
@example([Fraction(6), Fraction(0), Fraction(3)])  # 3 (x^2 + 2): content and a quadratic
@example([Fraction(1), Fraction(-2), Fraction(1)])  # (x - 1)^2
@example([Fraction(5, 2)])  # a constant has no factors
def test_irreducible_factors_match_sympy_poly(coeffs):
    assert irreducible_factors(coeffs) == reference_factors(coeffs)


def test_rational_roots_with_multiplicities():
    # (2x - 1)^2 (x + 3) (x^2 + 1) / 7
    coeffs = times(times(times([-1, 2], [-1, 2]), [3, 1]), [1, 0, 1])
    assert rational_roots([Fraction(c, 7) for c in coeffs]) == {Fraction(1, 2): 2, Fraction(-3): 1}

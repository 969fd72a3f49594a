"""Factor lists over Z agree with sympy's Poly.factor_list."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from axial import groebner, univariate
from axial.algebra import Algebra
from axial.search import naive_idempotents
from axial.univariate import PRIMES, irreducible_factors, is_squarefree, primitive_integer


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


def times(*polys):
    out = [1]
    for q in polys:
        product = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(q):
                product[i + j] += a * b
        out = product
    return out


def x_power(k):
    return [0] * k + [1]


small = st.integers(-4, 4)
# linear factors, and quadratics such as x^2 + 2 that stay irreducible
factors = st.one_of(
    st.tuples(small, st.integers(1, 4)),
    st.tuples(st.integers(1, 5), small, st.integers(1, 3)),
)


@st.composite
def eisenstein(draw):
    """A polynomial of degree 3-8 that is irreducible by Eisenstein's criterion at 2."""
    degree = draw(st.integers(3, 8))
    middle = [2 * draw(st.integers(-3, 3)) for _ in range(degree - 1)]
    return [2 * draw(st.sampled_from([-3, -1, 1, 3]))] + middle + [draw(st.sampled_from([1, 3, 5]))]


# degree 3-8 with small coefficients: nearly always irreducible
dense = st.integers(3, 8).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d).map(
        lambda c: c + [1] if c[0] else [1] + c[1:] + [1]
    )
)


@st.composite
def factored_polynomials(draw):
    parts = []
    for factor in draw(st.lists(factors, max_size=4)):
        parts += [list(factor)] * draw(st.integers(1, 3))  # repeated factors
    content = draw(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool))
    return [content * c for c in times(*parts)]


@st.composite
def eliminant_shaped(draw):
    """x^k times rational roots and up to two nonlinear factors of degree 3-8."""
    parts = [x_power(draw(st.integers(0, 4)))]
    parts += [list(f) for f in draw(st.lists(factors, max_size=3))]
    parts += draw(st.lists(st.one_of(eisenstein(), dense), max_size=2))
    content = draw(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool))
    return [content * c for c in times(*parts)]


@settings(max_examples=200, deadline=None)
@given(factored_polynomials())
@example([Fraction(6), Fraction(0), Fraction(3)])  # 3 (x^2 + 2): content and a quadratic
@example([Fraction(1), Fraction(-2), Fraction(1)])  # (x - 1)^2
@example([Fraction(5, 2)])  # a constant has no factors
def test_irreducible_factors_match_sympy_poly(coeffs):
    assert irreducible_factors(coeffs) == reference_factors(coeffs)


@settings(max_examples=300, deadline=None)
@given(eliminant_shaped())
@example([1, 0, -10, 0, 1])  # irreducible, reducible mod every prime: only the fallback decides
@example([1, 0, 0, 0, 1])  # x^4 + 1, the same
@example(times(x_power(1), [-2, 0, 0, 1], [-3, 0, 0, 0, 1]))  # x (x^3 - 2)(x^4 - 3)
@example(times([-1, 1], x_power(3), [-1, 4], [-1, 4]))  # Matsuo-shaped: (x - 1) x^3 (4x - 1)^2
@example(times(x_power(2), [-2, 0, 1]))  # x^2 (x^2 - 2): roots mod p that are not rational
@example(times([-1, PRIMES[0]], [1, 0, 1]))  # (3x - 1)(x^2 + 1): the first prime divides lc
@example(times([-1, PRIMES[0] * PRIMES[1]], [-2, 0, 0, 0, 1]))  # lc divisible by two primes
@example(times([-2, 4, 15], [-2, -3, 15]))  # two quadratics, both leads divisible by 3 and 5
@example(times([-2, 0, 1], [-3, 0, 1], [-5, 0, 1]))  # degree 6, two quadratic factors mod p
def test_eliminant_shaped_factors_match_sympy_poly(coeffs):
    assert irreducible_factors(coeffs) == reference_factors(coeffs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(factored_polynomials(), eliminant_shaped()))
@example([Fraction(5, 2)])  # a constant: no factor of either kind
@example(times(x_power(2), [-2, 0, 1]))  # x^2 (x^2 - 2): one cofactor
@example(times([-1, 1], [-1, 1], [1, 0, 1], [1, 0, 1]))  # no squarefree image: sympy's cofactors
def test_linear_factors_leave_the_nonlinear_factors_in_the_cofactors(coeffs):
    reference = reference_factors(coeffs)
    linear, cofactors = univariate.linear_factors(coeffs)
    assert linear == [item for item in reference if len(item[0]) == 2]
    assert all(len(h) > 2 for h, _ in cofactors)
    split = [(f, m * mf) for h, m in cofactors for f, mf in irreducible_factors(h)]
    assert sorted(split) == sorted(item for item in reference if len(item[0]) > 2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(factored_polynomials(), eliminant_shaped()))
@example([Fraction(1), Fraction(-2), Fraction(1)])  # (x - 1)^2
@example(times(x_power(2), [-2, 0, 1]))  # x^2 (x^2 - 2)
@example([Fraction(5, 2)])  # a constant
def test_is_squarefree_matches_the_multiplicities(coeffs):
    assert is_squarefree(coeffs) == all(mult == 1 for _, mult in reference_factors(coeffs))


def test_factors_of_rational_coefficients_with_multiplicities():
    # (2x - 1)^2 (x + 3) (x^2 + 1) / 7
    coeffs = times([-1, 2], [-1, 2], [3, 1], [1, 0, 1])
    assert irreducible_factors([Fraction(c, 7) for c in coeffs]) == [
        ((-1, 2), 2),
        ((3, 1), 1),
        ((1, 0, 1), 1),
    ]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls of the fallback, sympy's factoring of one polynomial.

    `_zassenhaus` is patched rather than sympy, whose own `factor_list` (the
    reference of these tests) would be counted too.
    """
    calls = []
    original = univariate._zassenhaus

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(univariate, "_zassenhaus", counted)
    return calls


def test_the_certificate_proves_irreducible_without_the_fallback(fallbacks):
    # x (x - 2)(3x + 1)(x^7 - 2 x + 2): x and the roots are split off in
    # house, and the fallback receives only the septic
    septic = (2, -2, 0, 0, 0, 0, 0, 1)
    coeffs = times(x_power(1), [-2, 1], [1, 3], list(septic))
    assert irreducible_factors(coeffs) == reference_factors(coeffs)
    assert ((0, 1), 1) in reference_factors(coeffs)
    assert fallbacks == [(septic,)]


def test_an_inconclusive_pattern_reaches_the_fallback(fallbacks):
    # x^4 - 10x^2 + 1 splits into factors of degree at most 2 modulo every
    # prime, yet is irreducible: the quartic cofactor goes to the fallback
    h = [1, 0, -10, 0, 1]
    assert irreducible_factors(h) == [((1, 0, -10, 0, 1), 1)] == reference_factors(h)
    assert len(fallbacks) == 1


def test_the_fallback_factors_only_the_uncertified_cofactor(fallbacks):
    # x (x - 1)(x^4 - 10x^2 + 1): x and the root 1 are split off first, and
    # only the quartic cofactor reaches sympy
    coeffs = times(x_power(1), [-1, 1], [1, 0, -10, 0, 1])
    assert irreducible_factors(coeffs) == reference_factors(coeffs)
    assert [len(args[0]) - 1 for args in fallbacks] == [4]


def test_the_factors_of_a_factored_input_are_not_factored_again(fallbacks):
    # (x - 1)^2 (x^4 - 10x^2 + 1) has no squarefree image, so sympy factors
    # it whole; the quartic it returns is irreducible and is kept as it is
    coeffs = times([-1, 1], [-1, 1], [1, 0, -10, 0, 1])
    got = irreducible_factors(coeffs)
    assert fallbacks == [(tuple(coeffs),)]
    assert got == reference_factors(coeffs) == [((-1, 1), 2), ((1, 0, -10, 0, 1), 1)]


def test_a_non_squarefree_input_tries_a_bounded_number_of_primes(fallbacks, monkeypatch):
    tested = []
    original = univariate._is_squarefree

    def counted(image, p):
        tested.append(p)
        return original(image, p)

    monkeypatch.setattr(univariate, "_is_squarefree", counted)
    # a repeated factor leaves no squarefree image: every prime of PRIMES
    # is tried once, then the whole input goes to the fallback once
    coeffs = times([-1, 1], x_power(3), [-1, 4], [-1, 4])  # (x - 1) x^3 (4x - 1)^2
    assert irreducible_factors(coeffs) == [((-1, 1), 1), ((-1, 4), 2), ((0, 1), 3)]
    assert tested == list(univariate.PRIMES)
    assert len(fallbacks) == 1
    # primes dividing the leading coefficient are skipped
    tested.clear()
    coeffs = times([-1, 3], [-1, 5], [-1, 5])  # (3x - 1)(5x - 1)^2
    assert irreducible_factors(coeffs) == [((-1, 3), 1), ((-1, 5), 2)]
    assert tested == [p for p in univariate.PRIMES if p not in (3, 5)]
    assert len(fallbacks) == 2


def criterion_9_algebras(count):
    """The seeded 3-dimensional algebras of acceptance criterion 9, in draw order."""
    rng = random.Random(20240806)
    for _ in range(count):
        gamma = []
        for i in range(3):
            for j in range(i, 3):
                for k in range(3):
                    c = rng.randint(-2, 2)
                    if c:
                        gamma.append((i, j, k, c))
        yield Algebra.from_gamma(3, gamma)


def test_solver_eliminants_match_sympy_and_rarely_reach_the_fallback(fallbacks, monkeypatch):
    eliminants = []
    original = groebner.linear_factors

    def recorded(coeffs):
        halves = original(coeffs)
        eliminants.append((list(coeffs), halves))
        return halves

    monkeypatch.setattr(groebner, "linear_factors", recorded)
    results = [naive_idempotents(alg) for alg in criterion_9_algebras(150)]
    # Extraction splits off the rational roots only, and every eliminant
    # here has a squarefree image modulo some prime of PRIMES, so none is
    # factored whole
    assert len(fallbacks) == 0
    for result in results:
        result.eliminant_factors
    # every cofactor has degree 5 to 7, and each is factored once
    cofactors = [(h,) for result in results for h in result.cofactors]
    assert {len(h) - 1 for (h,) in cofactors} == {5, 6, 7}
    assert fallbacks == cofactors and len(cofactors) == 150
    for coeffs, (linear, cofactors) in eliminants:
        split = [(f, m * mf) for h, m in cofactors for f, mf in irreducible_factors(h)]
        assert sorted(linear + split, key=lambda item: (len(item[0]), item[0])) == (
            reference_factors(coeffs)
        )
    # Sympy's factoring once ran on every one of the 480 eliminants the
    # branches meet (none is constant); now none needs it during the solves,
    # and the 150 cofactors when the factors are read.  An extraction splits
    # each distinct eliminant of a level once: 19 branches meet one already
    # split at their level and reuse that split.
    assert len(eliminants) == 461
    assert all(len(primitive_integer(c)) > 1 for c, _ in eliminants)
    assert max(len(primitive_integer(c)) - 1 for c, _ in eliminants) == 8


def test_extraction_certifies_no_cofactor_until_the_factors_are_read(fallbacks):
    results = [naive_idempotents(alg) for alg in criterion_9_algebras(20)]
    assert any(len(h) > 4 for result in results for h in result.cofactors)
    assert not fallbacks
    factors = [result.eliminant_factors for result in results]
    assert fallbacks
    # the list is kept: a second read splits nothing
    count = len(fallbacks)
    assert [result.eliminant_factors for result in results] == factors
    assert len(fallbacks) == count

"""Properties of the hot kernels: RREF output is reduced and equals sympy's,
primitive parts are coprime multiples, normal forms are irreducible and equal
the Fraction-arithmetic reference, as do S-polynomials."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from axial import _kernels_py, groebner
from axial.mpoly import MPoly
from axial.univariate import primitive_part
from oracles import reference_normal_form, reference_s_polynomial

fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(fractions) for _ in range(cols)] for _ in range(rows)]


@st.composite
def reduction_instances(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])

    def poly():
        terms = draw(
            st.dictionaries(exps, fractions.filter(bool), min_size=1, max_size=5)
        )
        return terms

    target = MPoly(nvars, poly())
    # leads are drawn from [-6, 6] with denominators up to 8, so negative and
    # non-unit leads are common
    basis = [MPoly(nvars, poly()) for _ in range(draw(st.integers(1, 3)))]
    return target, basis


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_is_reduced(rows):
    work = [list(r) for r in rows]
    pivots = _kernels_py.rref(work)
    for r, c in enumerate(pivots):
        assert work[r][c] == 1
        for i in range(len(work)):
            if i != r:
                assert work[i][c] == 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    work = [list(r) for r in rows]
    pivots = _kernels_py.rref(work)
    shape = (len(rows), len(rows[0]))
    qq = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows], shape, QQ)
    reduced, want_pivots = qq.rref()
    assert pivots == list(want_pivots)
    assert work == [
        [Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in reduced.to_list()
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions, max_size=6))
def test_primitive_part_is_a_coprime_positive_multiple(values):
    ints = primitive_part(values)
    assert len(ints) == len(values)
    if not any(values):
        assert ints == [0] * len(values)
        return
    assert gcd(*ints) == 1
    x, v = next((x, v) for x, v in zip(values, ints) if x)
    ratio = v / x
    assert ratio > 0
    assert all(v == ratio * x for x, v in zip(values, ints))


@settings(max_examples=100, deadline=None)
@given(reduction_instances())
def test_divisor_is_primitive_with_positive_lead(instance):
    _, basis = instance
    for g in basis:
        lead, lead_coeff, tail = groebner._divisor(g)
        assert lead == g.lead()[0] and lead_coeff > 0
        assert gcd(lead_coeff, *(c for _, c in tail)) == 1
        ratio = Fraction(lead_coeff) / g.lead()[1]
        assert dict(tail) == {e: c * ratio for e, c in g.terms.items() if e != lead}


@settings(max_examples=100, deadline=None)
@given(reduction_instances())
def test_normal_form_terms_are_irreducible(instance):
    target, basis = instance
    divisors = [groebner._divisor(g) for g in basis]
    result = _kernels_py.normal_form(dict(target.terms), divisors)
    for exp, coeff in result.items():
        assert coeff != 0
        for lead, _, _ in divisors:
            assert not _kernels_py.exp_divides(lead, exp)


@settings(max_examples=200, deadline=None)
@given(reduction_instances())
def test_normal_form_matches_reference(instance):
    target, basis = instance
    want = reference_normal_form(target, basis)
    divisors = [groebner._divisor(g) for g in basis]
    result = _kernels_py.normal_form(dict(target.terms), divisors)
    # same Fractions, emitted in the same order
    assert list(result.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in result.values())
    assert groebner.normal_form(target, basis) == want


@settings(max_examples=200, deadline=None)
@given(reduction_instances())
def test_s_polynomial_matches_reference(instance):
    target, basis = instance
    for f in basis:
        for g in (target, *basis):
            assert groebner.s_polynomial(f, g) == reference_s_polynomial(f, g)
            monic = (f.monic(), g.monic())
            assert groebner.s_polynomial(*monic) == reference_s_polynomial(*monic)


def test_backend_reports_something():
    from axial import kernel_backend

    assert kernel_backend() == "pure"

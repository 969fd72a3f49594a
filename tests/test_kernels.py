"""Properties of the hot kernels: RREF output is reduced and equals sympy's
and the dense reference loop's, primitive parts are coprime multiples, packed exponents agree with exponent
tuples, normal forms are irreducible and equal the Fraction-arithmetic
reference, as do S-polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from axial import _kernels_py, groebner
from axial.groebner import CapExceeded, buchberger
from axial.mpoly import MPoly
from axial.univariate import primitive_part
from oracles import reference_normal_form, reference_rref, reference_s_polynomial

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


@st.composite
def rational_matrices(draw):
    """Dense or mostly-zero rational matrices, with zero rows and 0 x k shapes."""
    ncols = draw(st.integers(1, 7))
    zero = st.just(Fraction(0))
    entry = draw(st.sampled_from([fractions, st.one_of(zero, zero, zero, fractions)]))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(st.one_of(row, st.just([Fraction(0)] * ncols)), max_size=7))


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example([])
@example([[Fraction(0)] * 3, [Fraction(0)] * 3])
def test_rref_matches_the_dense_reference(rows):
    got = [list(r) for r in rows]
    want = [list(r) for r in rows]
    assert _kernels_py.rref(got) == reference_rref(want)
    assert got == want
    assert all(type(x) is Fraction for r in got for x in r)


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=6))
@example([0, 0])  # all zeros: an empty row
@example([-12, 0, 18])  # content 6, the negative entry kept negative
def test_primitive_row_of_ints_equals_the_primitive_part(values):
    row = _kernels_py.primitive_row(enumerate(values))
    nonzero = [(c, v) for c, v in enumerate(values) if v]
    assert row == dict(zip([c for c, _ in nonzero], primitive_part([v for _, v in nonzero])))
    assert all(type(v) is int for v in row.values())


@settings(max_examples=100, deadline=None)
@given(reduction_instances())
def test_divisor_is_primitive_with_positive_lead(instance):
    _, basis = instance
    for g in basis:
        lead, lead_coeff, tail = groebner._divisor(groebner._pack(g))
        assert lead == _kernels_py.pack(g.lead()[0]) and lead_coeff > 0
        assert gcd(lead_coeff, *(c for _, c in tail)) == 1
        assert all(type(c) is int for _, c in tail)
        ratio = Fraction(lead_coeff) / g.lead()[1]
        want = {_kernels_py.pack(e): c * ratio for e, c in g.terms.items() if e != g.lead()[0]}
        assert dict(tail) == want


def kernel_inputs(target, basis):
    divisors = [groebner._divisor(groebner._pack(g)) for g in basis]
    return groebner._pack(target), divisors, _kernels_py.guard_mask(target.nvars)


@settings(max_examples=100, deadline=None)
@given(reduction_instances())
def test_normal_form_terms_are_irreducible(instance):
    target, basis = instance
    work, divisors, guard = kernel_inputs(target, basis)
    result = _kernels_py.normal_form(work, divisors, guard)
    assert list(result) == sorted(result, reverse=True)
    assert not result or gcd(*result.values()) == 1
    for exp, coeff in result.items():
        assert type(coeff) is int and coeff != 0
        for lead, _, _ in divisors:
            assert not _kernels_py.divides(lead, exp, guard)


@settings(max_examples=200, deadline=None)
@given(reduction_instances())
def test_normal_form_matches_reference(instance):
    target, basis = instance
    want = reference_normal_form(target, basis)
    work, divisors, guard = kernel_inputs(target, basis)
    start = next(iter(work.values())) / next(iter(target.terms.values()))
    scale = [start.numerator, start.denominator]
    result = _kernels_py.normal_form(work, divisors, guard, scale)
    # the integer remainder is num / den times the normal form over Q, term
    # by term and in the same order
    num, den = scale
    exact = [(_kernels_py.unpack(e, target.nvars), Fraction(c * den, num)) for e, c in result.items()]
    assert exact == list(want.terms.items())
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


@st.composite
def exponent_pairs(draw):
    nvars = draw(st.integers(1, 4))
    # small exponents make equal fields common; the limit is reachable
    field = st.one_of(st.integers(0, 3), st.integers(0, _kernels_py.exponent_limit()))
    exps = st.tuples(*[field for _ in range(nvars)])
    return nvars, draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(exponent_pairs())
def test_packed_exponents_agree_with_tuples(instance):
    nvars, a, b = instance
    pa, pb = _kernels_py.pack(a), _kernels_py.pack(b)
    guard = _kernels_py.guard_mask(nvars)
    assert _kernels_py.unpack(pa, nvars) == a and _kernels_py.unpack(pb, nvars) == b
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    assert not pa & guard
    assert _kernels_py.degree(pa) == sum(a)
    assert _kernels_py.divides(pa, pb, guard) == all(x <= y for x, y in zip(a, b))
    lcm = _kernels_py.lcm(pa, pb, guard)
    assert _kernels_py.unpack(lcm, nvars) == tuple(max(x, y) for x, y in zip(a, b))
    coprime = all(min(x, y) == 0 for x, y in zip(a, b))
    assert (lcm == pa + pb) == coprime
    if _kernels_py.divides(pa, pb, guard):
        assert _kernels_py.unpack(pb - pa, nvars) == tuple(y - x for x, y in zip(a, b))
    product = pa + pb
    if all(x + y <= _kernels_py.exponent_limit() for x, y in zip(a, b)):
        assert _kernels_py.unpack(product, nvars) == tuple(x + y for x, y in zip(a, b))
    else:
        assert product & guard  # an overflowing field sets its guard bit


def test_exponent_overflow_is_a_cap(monkeypatch):
    # With 4-bit fields each exponent is at most 7.  x^7 = y, x^3 y = 1
    # gives the reduced basis [x - y^3, y^10 - 1], whose y^10 outgrows a
    # field: buchberger stops instead of wrapping into the next field.
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    gens = [x**7 - y, x**3 * y - 1]
    assert buchberger(gens) == [x - y**3, y**10 - 1]
    monkeypatch.setattr(_kernels_py, "FIELD_BITS", 4)
    with pytest.raises(CapExceeded, match="exponent limit 7"):
        buchberger(gens)
    with pytest.raises(CapExceeded, match="exponent limit 7"):
        buchberger([x**8 - y])


def test_normal_form_and_s_polynomial_refuse_an_overflowing_shift():
    # y^limit times y leaves its field: the reduction step shifting the tail
    # of x - y^limit by y, and the S-pair of x - y^limit and y, both raise.
    limit = _kernels_py.exponent_limit()
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    f = x - MPoly.var(2, 1, limit)
    with pytest.raises(CapExceeded, match=f"exponent limit {limit}"):
        groebner.normal_form(x * y, [f])
    with pytest.raises(CapExceeded, match=f"exponent limit {limit}"):
        groebner.s_polynomial(f, y)
    with pytest.raises(CapExceeded, match=f"exponent limit {limit}"):
        groebner.normal_form(MPoly.var(2, 1, limit + 1), [f])


def test_backend_reports_something():
    from axial import kernel_backend

    assert kernel_backend() == "pure"

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from axial.algebra import diagonal_algebra
from axial.groebner import (
    CapExceeded,
    NEEDS_EXTENSION,
    POSITIVE_DIMENSIONAL,
    SolverCaps,
    buchberger,
    certify_no_common_root,
    content_primes,
    enumerate_points,
    ideal_dimension_zero,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from axial.mpoly import MPoly
from axial.search import idempotent_system


def xvar(n, i):
    return MPoly.var(n, i)


def test_mpoly_arithmetic_roundtrip():
    x, y = xvar(2, 0), xvar(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.evaluate([F(3), F(2)]) == 5
    assert p.substitute({1: F(2)}) == x * x - 4


def test_mpoly_lex_leading_term():
    x, y = xvar(2, 0), xvar(2, 1)
    p = y * y * y + x  # x is lex-larger than any power of y
    assert p.lead() == ((1, 0), F(1))


def test_buchberger_fixed_point():
    x = xvar(1, 0)
    gb = buchberger([x * x - x])
    assert gb == [x * x - x]


def test_buchberger_reduces_linear_pair():
    x, y = xvar(2, 0), xvar(2, 1)
    gb = buchberger([x + y, y - 1])
    assert gb == [x + 1, y - 1]


def test_buchberger_empty_rejected():
    with pytest.raises(ValueError):
        buchberger([])


def test_buchberger_2b_idempotent_system():
    alg = diagonal_algebra(2)
    gens = idempotent_system(alg, [(F(1), F(0)), (F(0), F(1))])
    gb = buchberger(gens)
    result = enumerate_points(gb)
    assert result.status == "finite"
    assert len(result.points) == 4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_buchberger_output_is_groebner(term_dicts):
    gens = [MPoly(2, terms) for terms in term_dicts]
    gens = [g for g in gens if g]
    if not gens:
        return
    gb = buchberger(gens, SolverCaps(max_basis=64, max_degree=24, max_pairs=5000))
    assert is_groebner_basis(gb)
    # ideal membership: every generator reduces to zero
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_spoly_of_coprime_leads_reduces():
    x, y = xvar(2, 0), xvar(2, 1)
    f, g = x * x - 1, y * y - 1
    assert normal_form(s_polynomial(f, g), [f, g]).is_zero()


def test_dimension_zero_criterion():
    x, y = xvar(2, 0), xvar(2, 1)
    assert ideal_dimension_zero([x * x - x, y * y - y])
    assert not ideal_dimension_zero([x * y])


def test_enumerate_simple_roots():
    x = xvar(1, 0)
    res = enumerate_points([x * x - x])
    assert res.points == [(F(0),), (F(1),)]
    assert res.complete_over_closure


def test_enumerate_flags_extension():
    x = xvar(1, 0)
    res = enumerate_points([x * x - 2])
    assert res.status == NEEDS_EXTENSION
    assert res.points == []
    assert res.eliminant_factors == [(-2, 0, 1)]
    assert not res.complete_over_closure


def test_enumerate_rejects_positive_dimensional():
    x, y = xvar(2, 0), xvar(2, 1)
    res = enumerate_points(buchberger([x * y]))
    assert res.status == POSITIVE_DIMENSIONAL


def test_enumerate_mixed_branches():
    # (x^2 - 2)(x - 3) = 0: one rational root plus an extension witness
    x = xvar(1, 0)
    res = enumerate_points(buchberger([(x * x - 2) * (x - 3)]))
    assert res.status == NEEDS_EXTENSION
    assert res.points == [(F(3),)]
    assert res.eliminant_factors == [(-2, 0, 1)]


def test_points_satisfy_generators():
    x, y = xvar(2, 0), xvar(2, 1)
    gens = [x * x + y * y - 2, x - y]
    res = enumerate_points(buchberger(gens))
    assert res.points  # (1,1) and (-1,-1)
    for p in res.points:
        for g in gens:
            assert g.evaluate(p) == 0


def test_bezout_count_for_diagonal_algebras():
    for n in range(1, 5):
        alg = diagonal_algebra(n)
        basis = [tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)]
        gb = buchberger(idempotent_system(alg, basis))
        res = enumerate_points(gb)
        assert len(res.points) == 2**n


def test_cap_exceeded_is_loud():
    x, y = xvar(2, 0), xvar(2, 1)
    with pytest.raises(CapExceeded):
        buchberger(
            [x * x * x - y, x * y * y - x - 1, y * y * y - x * x],
            SolverCaps(max_basis=2, max_degree=64, max_pairs=100000),
        )


def test_certificate_trivial_pair():
    x = xvar(1, 0)
    cert = certify_no_common_root([x, x - 1])
    assert cert is not None
    assert cert.coefficients == (1, -1)
    assert cert.constant == 1


def test_certificate_absent_when_common_root_exists():
    x = xvar(1, 0)
    assert certify_no_common_root([x, x * x]) is None


def test_certificate_rejects_single_polynomial():
    x = xvar(1, 0)
    with pytest.raises(ValueError):
        certify_no_common_root([x])


def test_content_primes():
    assert content_primes(F(49, 128)) == [7]
    assert content_primes(F(12, 5)) == [2, 3]


def test_content_primes_of_large_primes_and_trivial_values():
    m61 = 2**61 - 1
    assert content_primes(F(m61)) == [m61]
    assert content_primes(F((2**31 - 1) * m61)) == [2**31 - 1, m61]
    assert content_primes(F(0)) == []
    assert content_primes(F(360, 7)) == [2, 3, 5]

import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from axial.algebra import (
    Algebra,
    AlgebraError,
    DegenerateFormError,
    IntegerAdjoint,
    MissingFormError,
    diagonal_algebra,
    direct_sum,
)
from axial.io import parse_algebra
from axial.linalg import (
    MODULUS,
    Subspace,
    combination,
    det,
    full_space,
    identity,
    is_zero_vec,
    mat_mul,
    unit_vec,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from axial.matsuo import matsuo_algebra, symmetric_transpositions
from oracles import (
    reference_ad_matrix,
    reference_annihilator,
    reference_frobenius_violation,
    reference_rref,
    reference_semisimple_spectrum,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_q2_products_match_table(q2):
    s1, s2, d1, d2 = (unit_vec(4, i) for i in range(4))
    assert q2.product(s1, d1) == vec([F(1, 4), 0, F(1, 8), F(-1, 8)])
    assert q2.product(d1, d2) == vec([F(-1, 4), F(-1, 4), F(1, 4), F(1, 4)])
    assert q2.product(s1, s2) == zero_vec(4)
    assert q2.product(s1, zero_vec(4)) == zero_vec(4)


def test_q2_form_values(q2):
    s1, d1 = unit_vec(4, 0), unit_vec(4, 2)
    assert q2.form_value(s1, s1) == 1
    assert q2.form_value(d1, d1) == 2
    assert q2.form_value(s1, d1) == F(1, 4)
    assert q2.form_value(s1, zero_vec(4)) == 0
    assert det(q2.gram) == F(27, 8)


def test_q2_adjoint_trace(q2):
    # trace equals the eigenvalue sum 1 + 0 + 1/4 + 0 of the single axis
    ad = q2.ad_matrix(unit_vec(4, 0))
    assert sum(ad[i][i] for i in range(4)) == F(5, 4)


def test_ad_of_unit_is_identity(q2):
    one = q2.find_unit()
    assert one == vec([F(2, 3)] * 4)
    ad = q2.ad_matrix(one)
    assert all(ad[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))
    assert all(x == 0 for row in q2.ad_matrix(zero_vec(4)) for x in row)


def test_find_unit_cases(q2):
    assert diagonal_algebra(2).find_unit() == vec([1, 1])
    zero_alg = Algebra.from_gamma(1, [])
    assert zero_alg.find_unit() is None


def test_find_unit_solves_once_with_or_without_a_unit(monkeypatch):
    import axial.algebra as algebra_module

    calls = []
    original = algebra_module.solve

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(algebra_module, "solve", counting)
    no_unit = Algebra.from_gamma(2, [(0, 0, 0, 1)], gram=identity(2))
    assert [no_unit.find_unit() for _ in range(5)] == [None] * 5
    assert len(calls) == 1
    calls.clear()
    diagonal = Algebra.from_gamma(2, [(0, 0, 0, 1), (1, 1, 1, 1)])
    assert [diagonal.find_unit() for _ in range(5)] == [vec([1, 1])] * 5
    assert len(calls) == 1


def test_subalgebra_closure(q2):
    one = q2.find_unit()
    assert q2.subalgebra_closure([one]).dim == 1
    assert q2.subalgebra_closure([unit_vec(4, 0), unit_vec(4, 1)]).dim == 2
    assert q2.subalgebra_closure([unit_vec(4, 0), unit_vec(4, 2)]).dim == 4


def test_annihilator_cases(q2, two_b):
    from axial.linalg import full_space

    assert q2.annihilator(Subspace(4)).dim == 4
    assert q2.annihilator(full_space(4)).is_zero()
    ann = two_b.annihilator(Subspace(2, [[1, 0]]))
    assert ann.basis == (unit_vec(2, 1),)


def test_radical_cases(q2):
    assert q2.radical().is_zero()
    degenerate = Algebra.from_gamma(2, [(0, 0, 0, 1)], gram=[[1, 0], [0, 0]])
    assert degenerate.radical().basis == (unit_vec(2, 1),)
    no_form = Algebra.from_gamma(1, [(0, 0, 0, 1)])
    with pytest.raises(MissingFormError):
        no_form.radical()
    zero_form = Algebra.from_gamma(1, [], gram=[[0]])
    with pytest.raises(ValueError):
        zero_form.radical()


def test_connectivity(q2, two_b):
    axes = [unit_vec(4, i) for i in range(4)]
    assert q2.connectivity_components(axes) == [[0, 1, 2, 3]]
    assert two_b.connectivity_components([unit_vec(2, 0), unit_vec(2, 1)]) == [[0], [1]]
    assert q2.connectivity_components([unit_vec(4, 0)]) == [[0]]


def test_unit_of_subalgebra(q2):
    from axial.linalg import full_space

    one = q2.find_unit()
    assert q2.unit_of_subalgebra(full_space(4)) == one
    line = Subspace(4, [unit_vec(4, 0)])
    assert q2.unit_of_subalgebra(line) == unit_vec(4, 0)


def test_unit_of_subalgebra_degenerate_form():
    # unit plus a square-zero line on which the form must vanish
    alg = Algebra.from_gamma(
        2,
        [(0, 0, 0, 1), (0, 1, 1, 1)],
        gram=[[1, 0], [0, 0]],
        unit=[1, 0],
    )
    with pytest.raises(DegenerateFormError):
        alg.unit_of_subalgebra(Subspace(2, [[0, 1]]))


def test_has_nondegenerate_form_states_its_direction(q2):
    assert q2.has_nondegenerate_form()
    diagonal = [(0, 0, 0, 1), (1, 1, 1, 1)]
    p = F(MODULUS)
    # no form, a degenerate one, and one unchecked at construction that is
    # not Frobenius (e0 e0 = e0, but (e0 e0, e1) = 1 and (e0, e0 e1) = 0)
    assert not Algebra.from_gamma(2, diagonal).has_nondegenerate_form()
    assert not Algebra.from_gamma(2, diagonal, gram=[[1, 0], [0, 0]]).has_nondegenerate_form()
    unchecked = Algebra.from_gamma(2, diagonal, gram=[[1, 1], [1, 2]], check=False)
    assert not unchecked.has_nondegenerate_form()
    unchecked = Algebra.from_gamma(2, diagonal, gram=[[1, 0], [0, 2]], check=False)
    assert unchecked.has_nondegenerate_form()
    # on the zero algebra every form is Frobenius; this one has determinant
    # p, so it is nondegenerate over Q but singular mod p: no proof, False
    assert not Algebra.from_gamma(2, [], gram=[[1, 1], [1, 1 + p]]).has_nondegenerate_form()


def test_commutativity_is_structural():
    alg = Algebra.from_gamma(2, [(1, 0, 0, F(1, 2))])
    assert alg.product(unit_vec(2, 0), unit_vec(2, 1)) == alg.product(
        unit_vec(2, 1), unit_vec(2, 0)
    )


def test_frobenius_violation_rejected():
    # e0*e0 = e1, e0*e1 = 0: then (e0 e0, e1) = 1 but (e0, e0 e1) = 0
    with pytest.raises(ValueError, match="not Frobenius"):
        Algebra.from_gamma(2, [(0, 0, 1, 1)], gram=[[1, 0], [0, 1]])


# mostly zero entries: three draws in four are 0
sparse_entries = st.tuples(st.integers(0, 3), st.fractions(-2, 2, max_denominator=3)).map(
    lambda p: p[1] if p[0] == 0 else F(0)
)


@st.composite
def algebras_with_forms(draw):
    n = draw(st.integers(1, 4))
    gamma = [
        (i, j, k, draw(sparse_entries)) for i in range(n) for j in range(i, n) for k in range(n)
    ]
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(sparse_entries)
    return gamma, gram


@settings(max_examples=100, deadline=None)
@given(algebras_with_forms())
def test_sparse_frobenius_check_matches_triple_loop(case):
    gamma, gram = case
    n = len(gram)
    alg = Algebra.from_gamma(n, gamma, gram=gram, check=False)
    bad = reference_frobenius_violation(alg)
    assert alg._frobenius_violation() == bad
    if bad is None:
        Algebra.from_gamma(n, gamma, gram=gram)
    else:
        i, j, k = bad
        message = f"form is not Frobenius: (e{i}*e{j}, e{k}) != (e{i}, e{j}*e{k})"
        with pytest.raises(ValueError) as err:
            Algebra.from_gamma(n, gamma, gram=gram)
        assert str(err.value) == message


@st.composite
def products_cases(draw):
    """An algebra without form, two short lists of vectors and a subspace,
    which holds every product of the two lists when `closed` is drawn."""
    n = draw(st.integers(1, 4))
    gamma = [
        (i, j, k, draw(sparse_entries)) for i in range(n) for j in range(i, n) for k in range(n)
    ]
    alg = Algebra.from_gamma(n, gamma)
    vectors = st.lists(st.tuples(*[sparse_entries] * n).map(vec), max_size=3)
    xs, ys, gens = draw(vectors), draw(vectors), draw(vectors)
    if draw(st.booleans()):
        gens += [alg.product(x, y) for x in xs for y in ys]
    return alg, xs, ys, Subspace(n, gens)


@settings(max_examples=150, deadline=None)
@given(products_cases())
def test_products_in_and_ad_matrix_match_their_references(case):
    alg, xs, ys, w = case
    expected = [[w.coordinates(alg.product(x, y)) for y in ys] for x in xs]
    got = alg.products_in(xs, ys, w)
    if any(None in row for row in expected):
        assert got is None
    else:
        assert got == expected
    for x in xs:
        assert alg.ad_matrix(x) == reference_ad_matrix(alg, x)


def assert_minimal_polynomial(alg, v):
    """p = minimal_polynomial() of D ad(v) is primitive with a positive
    leading coefficient, p(M) = 0 for M = D times the reference adjoint, and
    I, M, ..., M^(d-1) are independent, so no lower degree works."""
    adjoint = IntegerAdjoint(alg, v, ())
    p = adjoint.minimal_polynomial()
    assert p[-1] > 0 and gcd(*p) == 1
    m = tuple(tuple(adjoint.scale * x for x in row) for row in reference_ad_matrix(alg, v))
    powers = [identity(alg.dim)]
    for _ in range(len(p) - 1):
        powers.append(mat_mul(powers[-1], m))
    flat = [tuple(x for row in power for x in row) for power in powers]
    assert is_zero_vec(combination(p, flat, alg.dim**2))
    assert len(reference_rref([list(row) for row in flat[:-1]])) == len(p) - 1


@pytest.mark.parametrize("eta", ["1/2", "1/4", "1/3", "2/5", "3/8", "2"])
@pytest.mark.parametrize("degree", [4, 5, 6])
def test_minimal_polynomial_on_matsuo(degree, eta):
    alg = matsuo_algebra(symmetric_transpositions(degree), F(eta))
    u = vec(F(i % 5 - 2, i % 3 + 1) for i in range(alg.dim))
    for v in (u, unit_vec(alg.dim, 0)):
        assert_minimal_polynomial(alg, v)


@settings(max_examples=150, deadline=None)
@given(products_cases())
def test_minimal_polynomial_on_random_algebras(case):
    alg, xs, ys, _ = case
    for v in xs + ys + [zero_vec(alg.dim)]:
        assert_minimal_polynomial(alg, v)


@pytest.mark.parametrize("name", ["q2.alg", "triple2b.alg", "matsuo-s4"])
def test_annihilator_matches_reference_kernel(name):
    if name == "matsuo-s4":
        alg = matsuo_algebra(symmetric_transpositions(4), F(1, 4))
    else:
        alg = parse_algebra(FIXTURES / name).algebra
    n = alg.dim
    rng = random.Random(11)
    spaces = [Subspace(n), full_space(n)]
    spaces += [Subspace(n, [unit_vec(n, i)]) for i in range(n)]
    entries = (0, 0, 1, -1, F(1, 2))
    for size in (1, 2, 3):
        spaces.append(Subspace(n, [vec(rng.choice(entries) for _ in range(n)) for _ in range(size)]))
    for w in spaces:
        assert alg.annihilator(w) == reference_annihilator(alg, w)


def test_declared_unit_checked():
    with pytest.raises(ValueError, match="unit"):
        Algebra.from_gamma(2, [(0, 0, 0, 1)], unit=[1, 1])


def test_perp_module_property(q2):
    # B-perp is a B-module for random subalgebras B and random vectors
    rng = random.Random(5)
    from axial.linalg import perp_space

    for _ in range(10):
        gens = [
            vec([rng.randint(-2, 2) for _ in range(4)]) for _ in range(rng.randint(1, 2))
        ]
        b = q2.subalgebra_closure([g for g in gens if not is_zero_vec(g)] or [unit_vec(4, 0)])
        bperp = perp_space(b, q2.gram)
        for u in bperp.basis:
            for v in b.basis:
                assert bperp.contains(q2.product(u, v))


def test_unit_complement_annihilates_subalgebra(q2):
    one = q2.find_unit()
    b = q2.subalgebra_closure([unit_vec(4, 0), unit_vec(4, 1)])
    one_b = q2.unit_of_subalgebra(b)
    rest = vec([a - b_ for a, b_ in zip(one, one_b)])
    for w in b.basis:
        assert is_zero_vec(q2.product(rest, w))


def test_restrict_rejects_open_subspace(q2):
    with pytest.raises(AlgebraError):
        q2.restrict([unit_vec(4, 2), unit_vec(4, 3)])  # d1*d2 leaves the span


def test_q2_single_axis_spectrum(q2):
    from axial.linalg import eigenspace

    ad = q2.ad_matrix(unit_vec(4, 0))
    assert eigenspace(ad, F(1)).dim == 1  # primitive
    assert eigenspace(ad, F(1, 2)).is_zero()  # Jordan type 1/4, no 1/2 part
    pairs, defect = reference_semisimple_spectrum(ad)
    assert defect == 0
    assert [lam for lam, _ in pairs] == [F(1), F(1, 4), F(0)]


def test_q2_perp_of_fixed_triple(q2):
    # the complement of <s1, s2, 1 - s1 - s2> is the line through d1 - d2
    from axial.linalg import perp_space

    one = q2.find_unit()
    s = vec([a - b - c for a, b, c in zip(one, unit_vec(4, 0), unit_vec(4, 1))])
    triple = Subspace(4, [unit_vec(4, 0), unit_vec(4, 1), s])
    perp = perp_space(triple, q2.gram)
    assert perp == Subspace(4, [vec([0, 0, 1, -1])])


def test_direct_sum_blocks(q2, two_b):
    total = direct_sum(q2, two_b)
    assert total.dim == 6
    assert total.find_unit() == tuple(q2.find_unit()) + (F(1), F(1))
    left = q2.product(unit_vec(4, 2), unit_vec(4, 3))
    embedded = total.product(unit_vec(6, 2), unit_vec(6, 3))
    assert embedded == tuple(left) + (F(0), F(0))

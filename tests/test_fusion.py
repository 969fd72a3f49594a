import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from axial.algebra import Algebra, diagonal_algebra
from axial.fusion import (
    FusionLaw,
    MONSTER_QUARTER,
    check_axis,
    check_axis_verbose,
    derivation_space,
    infer_fusion_law,
    is_automorphism,
    jordan_law,
    miyamoto_involution,
    monster_law,
)
from axial.io import parse_algebra, parse_law_spec
from axial.linalg import (
    Subspace,
    identity,
    mat_mul,
    mat_vec,
    subspace_sum,
    unit_vec,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from axial.matsuo import matsuo_algebra, symmetric_transpositions, transposition_perm
from oracles import reference_graded_involution


def test_law_construction_rejects_bad_unit_row():
    with pytest.raises(ValueError):
        FusionLaw([1, 0], {(1, 0): {0}})  # 1*0 must be empty


def test_law_rejects_values_outside():
    with pytest.raises(ValueError):
        FusionLaw([1, 0], {(0, 0): {F(1, 2)}})


def test_seress_laws():
    assert MONSTER_QUARTER.is_seress()
    assert jordan_law(F(1, 4)).is_seress()
    bad = FusionLaw(
        [1, 0, F(1, 2)],
        {(0, 0): {0}, (0, F(1, 2)): {0}, (F(1, 2), F(1, 2)): {1, 0}},
    )
    assert not bad.is_seress()


def test_c2_grading():
    plus, minus = MONSTER_QUARTER.c2_grading()
    assert plus == frozenset({F(1), F(0), F(1, 4)})
    assert minus == frozenset({F(1, 32)})
    plus, minus = jordan_law(F(1, 4)).c2_grading()
    assert minus == frozenset({F(1, 4)})
    associative = FusionLaw([1, 0], {(0, 0): {0}})
    assert associative.c2_grading()[1] == frozenset()


def test_check_axis_q2_cases(q2, q2_law):
    s1 = check_axis(q2, unit_vec(4, 0), jordan_law(F(1, 4)))
    assert s1 is not None and s1.primitive
    d1 = check_axis(q2, unit_vec(4, 2), q2_law)
    assert d1 is not None
    assert d1.spectrum() == (F(1), F(1, 2), F(1, 4), F(0))
    one = q2.find_unit()
    axis, reason = check_axis_verbose(q2, one, q2_law)
    assert axis is None and reason == "not_primitive"


def test_check_axis_reason_codes(two_b, q2):
    _, reason = check_axis_verbose(two_b, vec([2, 0]), MONSTER_QUARTER)
    assert reason == "not_idempotent"
    _, reason = check_axis_verbose(two_b, zero_vec(2), MONSTER_QUARTER)
    assert reason.startswith("not_idempotent")
    # d1 has eigenvalue 1/2, outside the Jordan law at 1/4
    _, reason = check_axis_verbose(q2, unit_vec(4, 2), jordan_law(F(1, 4)))
    assert reason.startswith("bad_spectrum")


def test_check_axis_fusion_violation():
    # e0 acts on e1 with eigenvalue 1/4 but A_{1/4}^2 hits A_{1/4}:
    # e1*e1 = e1 breaks 1/4 * 1/4 <= {1, 0}
    alg = Algebra.from_gamma(2, [(0, 0, 0, 1), (0, 1, 1, F(1, 4)), (1, 1, 1, 1)])
    axis, reason = check_axis_verbose(alg, unit_vec(2, 0), jordan_law(F(1, 4)))
    assert axis is None and reason.startswith("fusion_violation")


def test_jordan_axis_trivial_involution(two_b):
    axis = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    assert axis.miyamoto == identity(2)
    assert axis.is_jordan_type()
    # sigma would negate the 1/4-part, which is empty too
    assert axis.sigma is None or axis.sigma == identity(2)


def test_miyamoto_on_matsuo_s3(matsuo_s3_quarter, s3_data):
    law = jordan_law(F(1, 4))
    i = s3_data.index_of(transposition_perm(3, 1, 2))
    j = s3_data.index_of(transposition_perm(3, 1, 3))
    k = s3_data.index_of(transposition_perm(3, 2, 3))
    axis = check_axis(matsuo_s3_quarter, unit_vec(3, i), law)
    tau = miyamoto_involution(axis)
    assert mat_vec(tau, unit_vec(3, j)) == unit_vec(3, k)
    assert mat_vec(tau, unit_vec(3, k)) == unit_vec(3, j)
    assert mat_vec(tau, axis.vector) == axis.vector
    assert mat_mul(tau, tau) == identity(3)
    assert is_automorphism(matsuo_s3_quarter, tau)


def test_tau_is_automorphism_on_q2(q2, q2_axes):
    for axis in q2_axes:
        tau = axis.miyamoto
        assert is_automorphism(q2, tau)
        assert mat_mul(tau, tau) == identity(4)


def test_commutator_space_is_beta_part(q2, q2_axes):
    from axial.linalg import mat_sub

    for axis in q2_axes:
        tau = axis.miyamoto
        image = Subspace(
            4, [mat_vec(mat_sub(tau, identity(4)), unit_vec(4, j)) for j in range(4)]
        )
        assert image == axis.eigenspace(F(1, 4))


def test_axis_image_under_automorphism(q2, q2_axes, q2_law):
    # swapping s1,s2 and d1,d2 simultaneously is an automorphism
    g = tuple(
        tuple(F(1) if (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2)) else F(0) for j in range(4))
        for i in range(4)
    )
    assert is_automorphism(q2, g)
    for axis in q2_axes:
        image = check_axis(q2, mat_vec(g, axis.vector), q2_law)
        assert image is not None


def test_seress_association_property(q2, q2_axes):
    rng = random.Random(11)
    for axis in q2_axes:
        plus_part = subspace_sum(
            [axis.eigenspace(F(1)), axis.eigenspace(F(0))], ambient=4
        )
        for _ in range(25):
            coeffs = [rng.randint(-3, 3) for _ in plus_part.basis]
            v = zero_vec(4)
            for c, b in zip(coeffs, plus_part.basis):
                v = vadd(v, vscale(c, b))
            w = vec([rng.randint(-3, 3) for _ in range(4)])
            lhs = q2.product(axis.vector, q2.product(w, v))
            rhs = q2.product(q2.product(axis.vector, w), v)
            assert lhs == rhs


def test_derivation_space_q2(q2):
    assert derivation_space(q2).is_zero()


def test_derivation_space_zero_product_algebra():
    alg = Algebra.from_gamma(1, [])
    assert derivation_space(alg).dim == 1


def test_derivation_space_matsuo(s3_data):
    for eta in (F(1, 4), F(2)):
        m = matsuo_algebra(s3_data, eta)
        assert derivation_space(m).is_zero()


def test_infer_fusion_law(q2, matsuo_s3_quarter):
    law = infer_fusion_law(matsuo_s3_quarter, unit_vec(3, 0))
    assert law is not None
    assert set(law.values) == {F(1), F(0), F(1, 4)}
    # inferred table is contained in the Jordan law
    reference = jordan_law(F(1, 4))
    for lam in law.values:
        for mu in law.values:
            assert law.star(lam, mu) <= reference.star(lam, mu)
    # a non-idempotent has no law
    assert infer_fusion_law(q2, vec([2, 0, 0, 0])) is None


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _s5_quarter_axes():
    """Every axis of Matsuo S5 at 1/4, under its Jordan law (tau) and under
    the Monster (1/4, 1/32) law, where it is of Jordan type (sigma)."""
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    return [
        (alg, check_axis(alg, unit_vec(data.size, i), law))
        for law in (jordan_law(F(1, 4)), MONSTER_QUARTER)
        for i in range(data.size)
    ]


def _fixture_axes():
    out = []
    for name in ("q2.alg", "triple2b.alg"):
        parsed = parse_algebra(FIXTURES / name)
        for tag, v in parsed.axes:
            out.append((parsed.algebra, check_axis(parsed.algebra, v, parse_law_spec(tag, parsed.law))))
    return out


def test_graded_involutions_match_reference_solves():
    checked_sigma = 0
    for alg, axis in _s5_quarter_axes() + _fixture_axes():
        assert axis is not None
        n = alg.dim
        _, minus = axis.law.c2_grading()
        present = {lam for lam, _ in axis.eigendata}
        expected_tau = (
            reference_graded_involution(axis.eigendata, minus, n) if present & minus else identity(n)
        )
        assert axis.miyamoto == expected_tau
        involutions = [axis.miyamoto]
        if axis.sigma is not None:
            inner = frozenset(present - {F(1), F(0)})
            assert axis.sigma == reference_graded_involution(axis.eigendata, inner, n)
            involutions.append(axis.sigma)
            checked_sigma += 1
        for g in involutions:
            assert mat_mul(g, g) == identity(n)
            assert is_automorphism(alg, g)
    assert checked_sigma > 0

import sys
from fractions import Fraction as F

import pytest

import axial.axet
from axial import linalg
from axial._backend import kernels
from axial.algebra import Algebra, AlgebraError, diagonal_algebra
from axial.axet import (
    Axet,
    NS_UNIT_LENGTHS,
    aut_from_axis_permutations,
    classify_pair,
    close_axet,
    fixed_subalgebra,
    jordan_axes,
    miyamoto_group,
    tau_realizer,
    twins_of,
)
from axial.fusion import (
    MONSTER_QUARTER,
    check_axis,
    is_automorphism,
    jordan_law,
    monster_law,
)
from axial.groebner import CapExceeded
from axial.linalg import (
    IntegerMap,
    Subspace,
    identity,
    intersect,
    inverse,
    kernel,
    mat,
    mat_from_cols,
    mat_mul,
    mat_sub,
    mat_vec,
    rref,
    unit_vec,
    vec,
)
from axial.matsuo import matsuo_algebra, symmetric_transpositions, transposition_perm
from oracles import (
    dense,
    reference_aut_from_axis_permutations,
    reference_close_axet,
    reference_miyamoto_group,
    reference_transport_axis,
)

BENCHMARK_ETAS = ("1/2", "1/4", "1/3", "2/5", "3/8", "2")


def test_close_axet_matsuo_s3(matsuo_s3_quarter):
    law = jordan_law(F(1, 4))
    seeds = [check_axis(matsuo_s3_quarter, unit_vec(3, i), law) for i in (0, 1)]
    axet = close_axet(matsuo_s3_quarter, seeds)
    assert len(axet) == 3
    assert {a.vector for a in axet.axes} == {unit_vec(3, i) for i in range(3)}


def test_close_axet_q2_already_closed(q2, q2_axes):
    axet = close_axet(q2, q2_axes)
    assert len(axet) == 4


def test_close_axet_trivial_tau(two_b):
    axis = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    axet = close_axet(two_b, [axis])
    assert len(axet) == 1


def test_transport_preserves_certificate(q2, q2_axes, q2_law):
    # the conjugation oracle against a full axis check of the image
    g = q2_axes[2].miyamoto_map.matrix()  # swaps s1 and s2
    image = reference_transport_axis(q2_axes[0], g, g)
    assert image.vector == unit_vec(4, 1)
    fresh = check_axis(q2, image.vector, q2_law)
    assert fresh is not None
    assert dict(image.eigendata) == dict(fresh.eigendata)
    assert image.miyamoto_map.matrix() == fresh.miyamoto_map.matrix()


def test_miyamoto_group_matsuo_s3(matsuo_s3_quarter):
    law = jordan_law(F(1, 4))
    seeds = [check_axis(matsuo_s3_quarter, unit_vec(3, i), law) for i in (0, 1)]
    axet = close_axet(matsuo_s3_quarter, seeds)
    group = miyamoto_group(matsuo_s3_quarter, axet)
    assert group.order == 6
    assert group.faithful


def test_miyamoto_group_2b_trivial(two_b):
    axes = [check_axis(two_b, unit_vec(2, i), MONSTER_QUARTER) for i in range(2)]
    group = miyamoto_group(two_b, Axet(tuple(axes)))
    assert group.order == 1


def test_miyamoto_group_q2(q2, q2_axes):
    # all four involutions are nontrivial: the single-axis taus swap the
    # doubles and vice versa, so the group is 2 x 2
    full = miyamoto_group(q2, Axet(tuple(q2_axes)))
    assert full.order == 4
    doubles = miyamoto_group(q2, Axet((q2_axes[2], q2_axes[3])))
    assert doubles.order == 2


def test_twins_q2(q2, q2_axes):
    assert [a.vector for a in twins_of(q2, q2_axes[2])] == [unit_vec(4, 3)]
    assert [a.vector for a in twins_of(q2, q2_axes[0])] == [unit_vec(4, 1)]


def test_twins_2b(two_b):
    a = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    twins = twins_of(two_b, a)
    assert [t.vector for t in twins] == [unit_vec(2, 1)]


def test_twins_conjugation_invariant(q2, q2_axes, q2_law):
    # g b in twins(g a) for an automorphism g
    g = q2_axes[0].miyamoto_map.matrix()  # swaps d1, d2
    a = q2_axes[2]
    twins = twins_of(q2, a)
    image_axis = check_axis(q2, mat_vec(g, a.vector), q2_law)
    image_twins = {t.vector for t in twins_of(q2, image_axis)}
    assert {mat_vec(g, t.vector) for t in twins} == image_twins


def test_twins_empty_in_matsuo_s3(matsuo_s3_quarter):
    law = jordan_law(F(1, 4))
    a = check_axis(matsuo_s3_quarter, unit_vec(3, 0), law)
    assert twins_of(matsuo_s3_quarter, a) == []


def test_tau_realizer_q2(q2, q2_axes, q2_law):
    realizers = tau_realizer(q2, q2_axes[2].miyamoto_map.matrix(), q2_law)
    assert {a.vector for a in realizers} == {unit_vec(4, 2), unit_vec(4, 3)}
    realizers = tau_realizer(q2, q2_axes[0].miyamoto_map.matrix(), q2_law)
    assert {a.vector for a in realizers} == {unit_vec(4, 0), unit_vec(4, 1)}


def test_tau_realizer_rejects_non_automorphism(q2, q2_law):
    # swapping s1 with d1 breaks multiplicativity: s1*s2 = 0 but d1*s2 != 0
    bad = tuple(
        tuple(
            F(1) if (i, j) in ((0, 2), (2, 0), (1, 1), (3, 3)) else F(0)
            for j in range(4)
        )
        for i in range(4)
    )
    with pytest.raises(AlgebraError):
        tau_realizer(q2, bad, q2_law)


def test_tau_realizer_rejects_a_matrix_of_the_wrong_shape(q2, q2_law):
    # a 4 x 3 matrix is a ValueError naming the size, not "tau is not an
    # algebra automorphism"
    with pytest.raises(ValueError, match="4 x 4"):
        tau_realizer(q2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], q2_law)


def test_tau_realizer_reads_tau_written_as_lists(q2, q2_axes, q2_law):
    # axis 3's tau as tuples of Fractions, as lists of lists and with int
    # entries: one map, so the same two realizers
    tau = q2_axes[2].miyamoto_map.matrix()
    forms = [tau, [list(row) for row in tau], [[int(x) for x in row] for row in tau]]
    found = [{a.vector for a in tau_realizer(q2, form, q2_law)} for form in forms]
    assert found == [{unit_vec(4, 2), unit_vec(4, 3)}] * 3


def test_tau_realizer_rejects_non_involution(matsuo_s3_quarter):
    # the 3-cycle e0 -> e1 -> e2 -> e0 permutes the axes of Matsuo S3: an
    # automorphism of order 3
    cycle = [[1 if i == (j + 1) % 3 else 0 for j in range(3)] for i in range(3)]
    assert is_automorphism(matsuo_s3_quarter, mat(cycle))
    with pytest.raises(AlgebraError, match="tau is not an involution"):
        tau_realizer(matsuo_s3_quarter, cycle, jordan_law(F(1, 4)))


def test_fixed_subalgebra_and_jordan_axes(q2, q2_axes, q2_law):
    group = miyamoto_group(q2, Axet(tuple(q2_axes)))
    fixed = fixed_subalgebra(q2, group)
    assert fixed.dim == 2  # vectors with equal s and equal d coordinates
    found = jordan_axes(q2, group, q2_law)
    # the only Miyamoto-fixed Jordan-type axis is 1 - s1 - s2
    assert [a.vector for a in found] == [vec([F(-1, 3), F(-1, 3), F(2, 3), F(2, 3)])]


def test_jordan_axes_diagonal():
    alg = diagonal_algebra(2)
    axes = [check_axis(alg, unit_vec(2, i), MONSTER_QUARTER) for i in range(2)]
    group = miyamoto_group(alg, Axet(tuple(axes)))
    found = jordan_axes(alg, group)
    assert {a.vector for a in found} == {unit_vec(2, 0), unit_vec(2, 1)}


def test_jordan_axes_none_in_triple_fixture(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    group = miyamoto_group(triple_2b, Axet(tuple(axes)))
    assert jordan_axes(triple_2b, group) == []


def test_sigma_centralizes_miyamoto(q2, q2_axes, q2_law):
    group = miyamoto_group(q2, Axet(tuple(q2_axes)))
    for axis in jordan_axes(q2, group, q2_law):
        assert axis.sigma_map is not None
        sigma = axis.sigma_map.matrix()
        for g in group.maps:
            assert mat_mul(sigma, g.matrix()) == mat_mul(g.matrix(), sigma)


def test_jordan_dichotomy_orthogonal_direction():
    # a Jordan axis annihilates exactly the axes its sign involution fixes;
    # with an empty middle eigenspace the involution is trivial and every
    # other axis must be orthogonal
    alg = diagonal_algebra(3)
    axes = [check_axis(alg, unit_vec(3, i), MONSTER_QUARTER) for i in range(3)]
    group = miyamoto_group(alg, Axet(tuple(axes)))
    for a in jordan_axes(alg, group):
        sigma = a.sigma_map.matrix() if a.sigma_map is not None else identity(3)
        for b in axes:
            if b.vector == a.vector:
                continue
            fixed = mat_vec(sigma, b.vector) == b.vector
            orthogonal = alg.product(a.vector, b.vector) == (F(0),) * 3
            assert fixed == orthogonal


def test_classify_pair_q2(q2, q2_axes):
    pc = classify_pair(q2, q2_axes[0], q2_axes[1])
    assert pc.subalgebra_dim == 2
    assert pc.form_value == 0
    assert pc.label == "2B"
    with pytest.raises(ValueError):
        classify_pair(q2, q2_axes[0], q2_axes[0])


def test_classify_pair_2b_unit_length(two_b):
    axes = [check_axis(two_b, unit_vec(2, i), MONSTER_QUARTER) for i in range(2)]
    pc = classify_pair(two_b, axes[0], axes[1])
    assert pc.label == "2B"
    assert pc.unit_length == NS_UNIT_LENGTHS["2B"] == 2
    assert pc.tau_product_order == 1


def test_classify_pair_with_reference(q2, q2_axes):
    reference = {"pair-of-doubles": {"dim": 3, "form_value": F(1, 2)}}
    pc = classify_pair(q2, q2_axes[2], q2_axes[3], reference)
    assert pc.form_value == F(1, 2)
    assert pc.label == "pair-of-doubles"


def test_aut_q2_order_four(q2, q2_axes):
    aut = aut_from_axis_permutations(q2, Axet(tuple(q2_axes)))
    assert aut.order == 4
    perms = _perms(aut.group)
    assert (0, 1, 2, 3) in perms
    assert (1, 0, 3, 2) in perms


def test_aut_matsuo_s3(matsuo_s3_quarter):
    law = jordan_law(F(1, 4))
    seeds = [check_axis(matsuo_s3_quarter, unit_vec(3, i), law) for i in (0, 1)]
    axet = close_axet(matsuo_s3_quarter, seeds)
    aut = aut_from_axis_permutations(matsuo_s3_quarter, axet)
    group = miyamoto_group(matsuo_s3_quarter, axet)
    assert aut.order >= group.order == 6
    # the axet spans, so both groups permute the same points
    assert group.points == axet.vectors()
    assert _perms(group.group) <= _perms(aut.group)


def test_aut_preserves_form_and_axet(q2, q2_axes):
    aut = aut_from_axis_permutations(q2, Axet(tuple(q2_axes)))
    assert len(aut.maps) == len(aut.group.generators)
    for g in aut.maps:
        assert _preserves(q2, g.matrix(), [a.vector for a in q2_axes])


def test_aut_requires_spanning_axet(two_b):
    axis = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    with pytest.raises(AlgebraError):
        aut_from_axis_permutations(two_b, Axet((axis,)))


def test_single_axis_spanning_trivial_group():
    alg = diagonal_algebra(1)
    axis = check_axis(alg, unit_vec(1, 0), MONSTER_QUARTER)
    aut = aut_from_axis_permutations(alg, Axet((axis,)))
    assert aut.order == 1


def _axis_record(a):
    return (a.vector, a.eigendata, dense(a.miyamoto_map), dense(a.sigma_map))


def _coxeter_seeds(m, eta):
    """Matsuo S_m at eta with the axes of the transpositions (a, a+1)."""
    data = symmetric_transpositions(m)
    alg = matsuo_algebra(data, F(eta))
    law = jordan_law(F(eta))
    seeds = [data.index_of(transposition_perm(m, a, a + 1)) for a in range(1, m)]
    return alg, [check_axis(alg, unit_vec(data.size, i), law) for i in seeds]


def test_close_axet_transport_agrees_with_axis_check(q2, q2_axes):
    # every orbit axis, read off its own integer adjoint, is what a full
    # axis check of its vector finds, and what conjugating the axis it was
    # found from finds: the same eigendata, tau and sigma; on Matsuo S4-S6
    # at each benchmark eta from the Coxeter seeds, and on q2 from one
    # single and one double axis
    cases = [_coxeter_seeds(m, eta) for m in (4, 5, 6) for eta in BENCHMARK_ETAS]
    for alg, seeds in cases + [(q2, [q2_axes[0], q2_axes[2]])]:
        axes = close_axet(alg, seeds).axes
        assert len(axes) > len(seeds)
        taus = list(dict.fromkeys(a.miyamoto_map.matrix() for a in seeds))
        for position, b in enumerate(axes):
            checked = check_axis(alg, b.vector, b.law)
            assert checked is not None
            assert _axis_record(b) == _axis_record(checked)
            if position < len(seeds):
                continue
            a, g = next((a, g) for a in axes[:position] for g in taus if mat_vec(g, a.vector) == b.vector)
            assert _axis_record(b) == _axis_record(reference_transport_axis(a, g, g))


def test_close_axet_reads_no_eigenspace_and_multiplies_no_matrix(monkeypatch):
    # S5 at 1/4 from its 4 Coxeter seeds: the 6 orbit axes are built from
    # their vectors alone and carry their seeds' spectrum, so reading their
    # taus solves no eigenspace (no echelon at all), and the group needs no
    # matrix product
    alg, seeds = _coxeter_seeds(5, "1/4")
    echelons, products = [], []
    original_echelon = kernels.echelon

    def counting_echelon(rows):
        echelons.append(1)
        return original_echelon(rows)

    def counting_mat_mul(a, b):
        products.append(1)
        return linalg.mat_mul(a, b)

    for module in [m for name, m in sys.modules.items() if name.startswith("axial")]:
        if getattr(module, "mat_mul", None) is linalg.mat_mul and module is not linalg:
            monkeypatch.setattr(module, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(kernels, "echelon", counting_echelon)
    axet = close_axet(alg, seeds)
    assert (len(axet), len(echelons), len(products)) == (10, 0, 0)
    assert all(a.miyamoto_map is not None for a in axet.axes)
    assert (len(echelons), len(products)) == (0, 0)
    assert miyamoto_group(alg, axet).order == 120
    assert len(products) == 0


def test_group_layer_applies_no_dense_matrix_on_matsuo_s5(monkeypatch):
    # closing the axet, the Miyamoto group and the Aut search apply the
    # involutions and the candidate maps sparsely: no dense mat_vec
    alg, seeds = _coxeter_seeds(5, "1/4")
    calls = []

    def counting_mat_vec(m, v):
        calls.append(1)
        return linalg.mat_vec(m, v)

    for module in [m for name, m in sys.modules.items() if name.startswith("axial")]:
        if getattr(module, "mat_vec", None) is linalg.mat_vec and module is not linalg:
            monkeypatch.setattr(module, "mat_vec", counting_mat_vec)
    axet = close_axet(alg, seeds)
    assert miyamoto_group(alg, axet).order == 120
    assert aut_from_axis_permutations(alg, axet).order == 120
    assert calls == []


def _assert_same_closure(alg, seeds):
    # the two closures list the axes in different orders; compare by vector
    closed = {a.vector: _axis_record(a) for a in close_axet(alg, seeds).axes}
    expected = {a.vector: _axis_record(a) for a in reference_close_axet(alg, seeds).axes}
    assert closed == expected


@pytest.mark.parametrize("eta", BENCHMARK_ETAS)
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_close_axet_matches_fixpoint_loop_on_matsuo(m, eta):
    _assert_same_closure(*_coxeter_seeds(m, eta))


def test_close_axet_matches_fixpoint_loop_on_q2_pairs(q2, q2_axes):
    for a in q2_axes:
        for b in q2_axes:
            if a is not b:
                _assert_same_closure(q2, [a, b])


def test_close_axet_forms_one_image_per_seed_tau_and_axis(monkeypatch):
    # S6 from its 5 Coxeter seeds: 15 axes, each moved once by each seed
    # involution
    alg, seeds = _coxeter_seeds(6, "1/4")
    images = []
    original = IntegerMap.image

    def counting(self, p):
        if sys._getframe(1).f_code.co_name == "close_axet":
            images.append(p)
        return original(self, p)

    monkeypatch.setattr(IntegerMap, "image", counting)
    assert len(close_axet(alg, seeds)) == 15
    assert len(images) == 5 * 15


def test_fixed_subalgebra_is_the_intersection_of_fixed_spaces(q2, q2_axes):
    s4, seeds = _coxeter_seeds(4, "1/4")
    cases = [(q2, Axet(tuple(q2_axes))), (q2, Axet((q2_axes[2],))), (s4, close_axet(s4, seeds))]
    for alg, axet in cases:
        group = miyamoto_group(alg, axet)
        n = alg.dim
        expected = Subspace(n, identity(n))
        for g in group.maps:
            expected = intersect(expected, kernel(mat_sub(g.matrix(), identity(n))))
        assert fixed_subalgebra(alg, group) == expected
    # no generators: every vector is fixed
    assert fixed_subalgebra(q2, miyamoto_group(q2, Axet(()))) == Subspace(4, identity(4))


def test_close_axet_cap_is_a_cap(q2, q2_axes):
    with pytest.raises(CapExceeded, match="cap 2"):
        close_axet(q2, [q2_axes[0], q2_axes[2]], cap=2)


def _matsuo_s3_skewed():
    """Matsuo S3 at 1/4 in the basis e1, e1 + e2, e3, with its axis e1.

    The involution of e1 swaps e2 and e3, so it moves the unit vectors of
    this basis off the unit vectors: the axet {e1} does not span, and the
    orbits of the unit vectors grow from 3 points to 5.
    """
    plain = matsuo_algebra(symmetric_transpositions(3), F(1, 4))
    cols = [unit_vec(3, 0), vec([1, 1, 0]), unit_vec(3, 2)]
    back = inverse(mat_from_cols(cols))
    gamma = [
        (i, j, k, c)
        for i in range(3)
        for j in range(i, 3)
        for k, c in enumerate(mat_vec(back, plain.product(cols[i], cols[j])))
    ]
    alg = Algebra.from_gamma(3, gamma)
    return alg, Axet((check_axis(alg, unit_vec(3, 0), jordan_law(F(1, 4))),))


def test_miyamoto_group_cap_is_a_cap():
    alg, axet = _matsuo_s3_skewed()
    group = miyamoto_group(alg, axet)
    assert (group.order, len(group.points), group.faithful) == (2, 5, False)
    with pytest.raises(CapExceeded, match="cap 4"):
        miyamoto_group(alg, axet, cap=4)


def _perms(group):
    return {tuple(p.array_form) for p in group.generate()}


def _matrix(points, perm):
    """The linear map sending each point to the point its image names."""
    positions = rref(mat_from_cols(points))[2]
    source = inverse(mat_from_cols([points[i] for i in positions]))
    return mat_mul(mat_from_cols([points[perm[i]] for i in positions]), source)


def _preserves(alg, g, vectors):
    """g is an automorphism that preserves the form and permutes the vectors."""
    form_kept = alg.gram is None or mat_mul(mat(tuple(zip(*g))), mat_mul(alg.gram, g)) == alg.gram
    return is_automorphism(alg, g) and form_kept and {mat_vec(g, v) for v in vectors} == set(vectors)


def _check_against_oracles(alg, axet):
    miy = miyamoto_group(alg, axet)
    elements, spans = reference_miyamoto_group(alg, axet)
    assert miy.faithful == spans
    assert miy.points[: len(axet)] == axet.vectors()
    matrices = {_matrix(miy.points, p.array_form) for p in miy.group.generate()}
    if spans:
        assert _perms(miy.group) == set(elements)
        assert matrices == set(elements.values())
    else:
        assert matrices == set(elements)
    generators = [g.matrix() for g in miy.maps]
    assert set(generators) == {g.matrix() for g in axet.tau_maps()}
    assert all(_preserves(alg, g, axet.vectors()) for g in generators)
    if not spans:
        return
    aut = aut_from_axis_permutations(alg, axet)
    _, perms = reference_aut_from_axis_permutations(alg, axet)
    assert _perms(aut.group) == set(perms)
    for g, perm in zip(aut.maps, aut.group.generators):
        g = g.matrix()
        assert _matrix(axet.vectors(), perm.array_form) == g
        assert _preserves(alg, g, axet.vectors())


@pytest.mark.parametrize("eta", BENCHMARK_ETAS)
@pytest.mark.parametrize("m", [3, 4, 5])
def test_groups_match_enumeration_on_matsuo(m, eta):
    data = symmetric_transpositions(m)
    alg = matsuo_algebra(data, F(eta))
    axes = [check_axis(alg, unit_vec(data.size, i), jordan_law(F(eta))) for i in range(data.size)]
    _check_against_oracles(alg, close_axet(alg, axes))


def test_groups_match_enumeration_on_small_algebras(q2, q2_axes, two_b):
    _check_against_oracles(q2, Axet(tuple(q2_axes)))
    _check_against_oracles(q2, Axet((q2_axes[2], q2_axes[3])))  # does not span
    _check_against_oracles(*_matsuo_s3_skewed())  # does not span; the orbits grow
    axes = [check_axis(two_b, unit_vec(2, i), MONSTER_QUARTER) for i in range(2)]
    _check_against_oracles(two_b, Axet(tuple(axes)))
    one = diagonal_algebra(1)
    _check_against_oracles(one, Axet((check_axis(one, unit_vec(1, 0), MONSTER_QUARTER),)))


def _in_basis(plain, cols):
    """The algebra `plain` in the basis of the given columns."""
    n = plain.dim
    back = inverse(mat_from_cols(cols))
    gamma = [
        (i, j, k, c)
        for i in range(n)
        for j in range(i, n)
        for k, c in enumerate(mat_vec(back, plain.product(cols[i], cols[j])))
    ]
    gram = None if plain.gram is None else [[plain.form_value(x, y) for y in cols] for x in cols]
    return Algebra.from_gamma(n, gamma, gram=gram), back


def test_groups_match_enumeration_off_the_unit_vectors():
    # The axet frame with a base that is not the unit vectors: Matsuo S4 at
    # 1/4 in a unitriangular basis, where every axis is a dense vector; and
    # Matsuo S3 at -1 modulo the radical of its form, e0 + e1 + e2, where
    # the three axes e0, e1 and -e0 - e1 span a 2-dimensional algebra, so
    # one axet vector lies off the base.
    data = symmetric_transpositions(4)
    cols = [vec([1 if a == i or (a < i and (a + i) % 3 == 0) else 0 for a in range(6)]) for i in range(6)]
    alg, back = _in_basis(matsuo_algebra(data, F(1, 4)), cols)
    law = jordan_law(F(1, 4))
    seeds = [data.index_of(transposition_perm(4, a, a + 1)) for a in range(1, 4)]
    axet = close_axet(alg, [check_axis(alg, mat_vec(back, unit_vec(6, i)), law) for i in seeds])
    assert len(axet) == 6 and axet.spans(6)
    _check_against_oracles(alg, axet)
    assert aut_from_axis_permutations(alg, axet).order == 24
    half = F(-1, 2)
    quotient = Algebra.from_gamma(
        2, [(0, 0, 0, 1), (1, 1, 1, 1), (0, 1, 0, -1), (0, 1, 1, -1)], gram=[[1, half], [half, 1]]
    )
    law = jordan_law(-1)
    axes = [check_axis(quotient, v, law) for v in (vec([1, 0]), vec([0, 1]), vec([-1, -1]))]
    axet = close_axet(quotient, axes[:2])
    assert len(axet) == 3
    _check_against_oracles(quotient, axet)
    assert aut_from_axis_permutations(quotient, axet).order == 6


@pytest.mark.parametrize("m, order", [(6, 720), (7, 5040), (8, 40320)])
def test_group_orders_beyond_enumeration(m, order):
    # the symmetric group S_m, out of reach of listing its elements
    alg, seeds = _coxeter_seeds(m, "1/4")
    axet = close_axet(alg, seeds)
    assert len(axet) == alg.dim
    assert miyamoto_group(alg, axet).order == order
    assert aut_from_axis_permutations(alg, axet).order == order


def test_aut_verifies_one_map_per_strong_generator(monkeypatch):
    # listing S5 verified all 120 candidate maps; the strong generators need
    # 4, each verified in the axet frame
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    law = jordan_law(F(1, 4))
    axet = close_axet(alg, [check_axis(alg, unit_vec(10, i), law) for i in range(10)])
    calls = []
    original = axial.axet._AxetFrame.permutation

    def counting(self, assigned):
        calls.append(assigned)
        return original(self, assigned)

    monkeypatch.setattr(axial.axet._AxetFrame, "permutation", counting)
    assert aut_from_axis_permutations(alg, axet).order == 120
    assert 4 <= len(calls) <= 6

from fractions import Fraction as F

import pytest

import axial
import axial.algebra
import axial.axet
import axial.fusion
import axial.linalg
import axial.search
from axial.algebra import diagonal_algebra
from axial.axet import classify_pair, twins_of
from axial.fusion import MONSTER_QUARTER, check_axis, jordan_law
from axial.groebner import POSITIVE_DIMENSIONAL
from axial.linalg import Subspace, eigenspace, intersect, is_zero_vec, unit_vec, vec, vsub, zero_vec
from axial.mpoly import MPoly
from axial.search import (
    Z_LENGTHS,
    SearchConfig,
    axes_from_idempotents,
    determinant_relation,
    idempotent_system,
    length_equation,
    naive_idempotents,
    nuanced_axes,
    symbolic_coordinates,
)
from oracles import total_degree


def test_z_lengths_are_the_unit_lengths_less_one():
    # (z, z) = (1, 1) - (a, a) for z = 1 - a in each two-generated algebra,
    # in the order of NS_UNIT_LENGTHS: 2A 2B 3A 3C 4A 4B 5A 6A
    expected = (F(7, 5), F(1), F(81, 35), F(21, 11), F(3), F(14, 5), F(25, 7), F(41, 10))
    assert Z_LENGTHS == expected
    assert SearchConfig().z_lengths == expected
    # the table lives in axial.fusion and stays importable where it was
    assert axial.NS_UNIT_LENGTHS is axial.axet.NS_UNIT_LENGTHS is axial.fusion.NS_UNIT_LENGTHS


IDEMPOTENT_BASIS = [vec([1, 0, 0, 0, F(1, 2), 0, 0]), unit_vec(7, 4), vec([0, F(-2, 3), 0, 1, 0, 0, 3])]


@pytest.mark.parametrize("offset", [None, vec([F(1, 3), 0, F(-1, 2), 1, 0, 0, 2])])
def test_idempotent_system_is_the_symbolic_square(triple_2b, offset):
    """Polynomial k is coordinate k of u u - u for the symbolic coordinates
    u, expanded over every pair of basis products in `MPoly` arithmetic."""
    coords = symbolic_coordinates(triple_2b, IDEMPOTENT_BASIS, offset)
    expected = [-c for c in coords]
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            for k, c in triple_2b.basis_product(i, j):
                expected[k] = expected[k] + (x * y).scale(c)
    assert idempotent_system(triple_2b, IDEMPOTENT_BASIS, offset) == expected


def test_idempotent_system_clears_each_vector_once(monkeypatch, triple_2b):
    """Work counter: m basis vectors and an offset are cleared to points
    m + 1 times; a product per pair cleared them once per pair."""
    calls = []
    point = axial.linalg.integer_point
    for module in (axial.algebra, axial.search):
        monkeypatch.setattr(module, "integer_point", lambda v: calls.append(1) or point(v), raising=False)
    idempotent_system(triple_2b, IDEMPOTENT_BASIS, vec([F(1, 3), 0, F(-1, 2), 1, 0, 0, 2]))
    assert len(calls) <= len(IDEMPOTENT_BASIS) + 1


def _no_unit_algebra():
    # e0 e0 = e0, e1 e1 = e1 and e2 annihilates everything: a Frobenius
    # form and no unit, so the length equation takes its quadratic branch
    gram = [[1, 0, 0], [0, F(3, 2), 0], [0, 0, 5]]
    return axial.algebra.Algebra.from_gamma(3, [(0, 0, 0, 1), (1, 1, 1, 1)], gram=gram)


LENGTH_CASES = [
    ("unit", [vec([1, 0, 0, 0, F(1, 2), 0, 0]), unit_vec(7, 4)], vec([F(1, 3), 0, F(-1, 2), 1, 0, 0, 2])),
    ("unit", IDEMPOTENT_BASIS, None),
    ("none", [vec([1, F(-2, 3), 0]), vec([0, F(1, 2), 3])], vec([F(1, 3), 0, F(-1, 5)])),
    ("none", [unit_vec(3, i) for i in range(3)], None),
]


@pytest.mark.parametrize("unit, basis, offset", LENGTH_CASES)
def test_length_equation_is_the_symbolic_form(triple_2b, unit, basis, offset):
    """(1, u) - r with a unit and (u, u) - r without, for the symbolic
    coordinates u, expanded over the Gram matrix in `MPoly` arithmetic."""
    alg = triple_2b if unit == "unit" else _no_unit_algebra()
    coords = symbolic_coordinates(alg, basis, offset)
    one = alg.find_unit()
    assert (one is None) == (unit == "none")
    left = coords if one is None else [MPoly.const(len(basis), c) for c in one]
    expected = MPoly.const(len(basis), F(-3, 2))
    for k, x in enumerate(left):
        for j, y in enumerate(coords):
            expected = expected + (x * y).scale(alg.gram[k][j])
    assert length_equation(alg, basis, F(3, 2), offset) == [expected]


@pytest.mark.parametrize("unit, basis, offset", LENGTH_CASES)
def test_length_equation_clears_each_vector_once(monkeypatch, triple_2b, unit, basis, offset):
    """Work counter: the m basis vectors, the unit and the offset are
    cleared to points at most m + 2 times; a form value per basis vector or
    pair cleared them once per value."""
    alg = triple_2b if unit == "unit" else _no_unit_algebra()
    alg.find_unit()  # kept on the algebra, like its integer_gram: built outside the count
    alg.integer_gram()
    calls = []
    point = axial.linalg.integer_point
    for module in (axial.algebra, axial.search):
        monkeypatch.setattr(module, "integer_point", lambda v: calls.append(1) or point(v), raising=False)
    length_equation(alg, basis, 1, offset)
    assert len(calls) <= len(basis) + 2


def test_naive_2b_no_length(two_b):
    result = naive_idempotents(two_b)
    assert result.status == "finite"
    assert result.points == sorted(
        [zero_vec(2), unit_vec(2, 0), unit_vec(2, 1), vec([1, 1])]
    )


def test_naive_counts_on_diagonal():
    for n in (1, 2, 3, 4):
        alg = diagonal_algebra(n)
        assert len(naive_idempotents(alg).points) == 2**n
        with_length = naive_idempotents(alg, length=1)
        assert len(with_length.points) == n


def test_naive_subspace_search(q2):
    # idempotents on the line through d1
    line = Subspace(4, [unit_vec(4, 2)])
    result = naive_idempotents(q2, subspace=line)
    assert result.points == sorted([zero_vec(4), unit_vec(4, 2)])


def test_naive_q2_length_one_jordan_axes(q2):
    result = naive_idempotents(q2, length=1)
    assert result.status == "finite"
    axes = axes_from_idempotents(q2, result, jordan_law(F(1, 4)))
    assert {a.vector for a in axes} == {unit_vec(4, 0), unit_vec(4, 1)}


def test_naive_positive_dimensional_reported(q2):
    # the full idempotent variety of the 4-dim flip algebra contains a
    # one-parameter family, all of length 2
    result = naive_idempotents(q2)
    assert result.status == POSITIVE_DIMENSIONAL
    assert result.basis
    still = naive_idempotents(q2, length=2)
    assert still.status == POSITIVE_DIMENSIONAL


def test_axes_filter_2b(two_b):
    result = naive_idempotents(two_b)
    axes = axes_from_idempotents(two_b, result, MONSTER_QUARTER)
    assert {a.vector for a in axes} == {unit_vec(2, 0), unit_vec(2, 1)}
    empty = axes_from_idempotents(
        two_b, naive_idempotents(two_b, length=F(5)), MONSTER_QUARTER
    )
    assert empty == []


def test_z_complement_idempotent_properties(two_b):
    # z = 1_B - a for the 2-generated pair: idempotent, kills a, length 1 less
    a = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    b = check_axis(two_b, unit_vec(2, 1), MONSTER_QUARTER)
    pair = two_b.subalgebra_closure([a.vector, b.vector])
    one_b = two_b.unit_of_subalgebra(pair)
    z = vsub(one_b, a.vector)
    assert two_b.product(z, z) == z
    assert is_zero_vec(two_b.product(z, a.vector))
    assert two_b.length(z) == two_b.length(one_b) - 1
    pc = classify_pair(two_b, a, b)
    assert pc.unit_length - 1 == two_b.length(z) == 1


def test_eigenvalue_transfer(two_b):
    # z has eigenvalue 1 - lambda on A_lambda(a) within the pair algebra
    a = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    z = unit_vec(2, 1)
    for lam in (F(1), F(0)):
        space = intersect(
            a.eigenspace(lam), two_b.subalgebra_closure([unit_vec(2, 0), z])
        )
        for w in space.basis:
            assert two_b.product(z, w) == vec([(1 - lam) * x for x in w])


def test_nuanced_single_generated():
    alg = diagonal_algebra(1)
    a = check_axis(alg, unit_vec(1, 0), MONSTER_QUARTER)
    result = nuanced_axes(alg, a)
    assert [ax.vector for ax in result.axes] == [unit_vec(1, 0)]
    assert not result.unresolved


def test_nuanced_2b_finds_partner(two_b):
    a = check_axis(two_b, unit_vec(2, 0), MONSTER_QUARTER)
    result = nuanced_axes(two_b, a)
    assert {ax.vector for ax in result.axes} == {unit_vec(2, 0), unit_vec(2, 1)}


def test_nuanced_triple_2b(triple_2b):
    a = check_axis(triple_2b, unit_vec(7, 0), MONSTER_QUARTER)
    cfg = SearchConfig(z_lengths=(F(1), F(2)))
    result = nuanced_axes(triple_2b, a, cfg)
    found = {ax.vector for ax in result.axes}
    assert {unit_vec(7, 0), unit_vec(7, 1), unit_vec(7, 2)} <= found


def test_nuanced_q2_cross_check(q2, q2_axes, q2_law):
    """The 0-eigenspace route plus the twin search recovers the whole axet.

    The branch z = 1 - d1 leads to a length-2 idempotent search over the full
    algebra, which is genuinely positive-dimensional here (the one-parameter
    idempotent family has constant length 2), so d2 is reached as the twin of
    d1 rather than through that branch; the branch itself is reported.
    """
    d1 = q2_axes[2]
    found = set()
    unresolved = 0
    for length in (F(1), F(2)):
        cfg = SearchConfig(target_law=q2_law, length=length, z_lengths=None)
        result = nuanced_axes(q2, d1, cfg)
        found |= {ax.vector for ax in result.axes}
        unresolved += len(result.unresolved)
    for axis in list(found):
        verified = check_axis(q2, axis, q2_law)
        for twin in twins_of(q2, verified):
            found.add(twin.vector)
    assert found == {unit_vec(4, i) for i in range(4)}
    assert unresolved == 1


def test_determinant_relation_linear_case(triple_2b):
    a = check_axis(triple_2b, unit_vec(7, 0), MONSTER_QUARTER)
    u_space = a.eigenspace(0)
    z_symbolic = symbolic_coordinates(triple_2b, u_space.basis)
    w = a.eigenspace(F(1, 4))
    assert w.dim == 1
    relation = determinant_relation(triple_2b, z_symbolic, w, F(1, 32))
    assert total_degree(relation) == 1


def test_determinant_relation_rejects_unit_eigenvalue(triple_2b):
    a = check_axis(triple_2b, unit_vec(7, 0), MONSTER_QUARTER)
    u_space = a.eigenspace(0)
    z_symbolic = symbolic_coordinates(triple_2b, u_space.basis)
    with pytest.raises(ValueError):
        determinant_relation(triple_2b, z_symbolic, a.eigenspace(F(1, 4)), 1)


def test_determinant_relation_matches_cofactor_oracle(triple_2b):
    # 2x2 case: the 1/32-eigenspace of a1 is span{w2, w3}
    a = check_axis(triple_2b, unit_vec(7, 0), MONSTER_QUARTER)
    u_space = a.eigenspace(0)
    z_symbolic = symbolic_coordinates(triple_2b, u_space.basis)
    w = a.eigenspace(F(1, 32))
    assert w.dim == 2
    relation = determinant_relation(triple_2b, z_symbolic, w, F(1, 32))

    # independent cofactor expansion det [[a,b],[c,d]] = ad - bc
    from axial.linalg import mat_from_cols, solve, unit_vec as uv

    cols = mat_from_cols(w.basis)
    entries = [[MPoly.zero(u_space.dim) for _ in range(2)] for _ in range(2)]
    for m, coeff in enumerate(z_symbolic):
        if coeff.is_zero():
            continue
        for j in range(2):
            coords = solve(cols, triple_2b.product(uv(7, m), w.basis[j]))
            for t in range(2):
                if coords[t]:
                    entries[t][j] = entries[t][j] + coeff.scale(coords[t])
    shift = MPoly.const(u_space.dim, 1 - F(1, 32))
    a11 = entries[0][0] - shift
    a22 = entries[1][1] - shift
    expected = a11 * a22 - entries[0][1] * entries[1][0]
    assert relation == expected


def test_nuanced_reports_unresolved_branch(q2):
    # glue the 4-dim flip algebra (whose length-2 idempotents form a curve)
    # into the 0-eigenspace of a fresh axis: the z-solve at length 2 stays
    # positive-dimensional, the determinant retry finds no usable eigenspace,
    # and the branch is reported with its basis instead of being dropped
    from axial.algebra import direct_sum

    big = direct_sum(q2, diagonal_algebra(1))
    a = check_axis(big, unit_vec(5, 4), MONSTER_QUARTER)
    cfg = SearchConfig(z_lengths=(F(2),))
    result = nuanced_axes(big, a, cfg)
    assert [ax.vector for ax in result.axes] == [unit_vec(5, 4)]
    assert len(result.unresolved) == 1
    assert result.unresolved[0]["z_length"] == 2

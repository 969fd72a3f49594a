import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from axial import fusion, linalg
from axial._backend import kernels
from axial.algebra import Algebra, IntegerAdjoint, diagonal_algebra
from axial.fusion import (
    FusionLaw,
    MONSTER_QUARTER,
    check_axis,
    check_axis_verbose,
    derivation_space,
    infer_fusion_law,
    is_automorphism,
    jordan_law,
    monster_law,
)
from axial.io import parse_algebra, parse_algebra_text, parse_law_spec
from axial.linalg import (
    MODULUS,
    Subspace,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    subspace_sum,
    unit_vec,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from axial.matsuo import (
    double_axes_and_flip,
    matsuo_algebra,
    symmetric_transpositions,
    transposition_perm,
)
from oracles import (
    dense,
    reference_ad_matrix,
    reference_check_axis,
    reference_derivation_space,
    reference_graded_involution,
    reference_infer_fusion_law,
    reference_is_automorphism,
    reference_leibniz_rows,
)


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


@pytest.mark.parametrize(
    "law",
    [
        MONSTER_QUARTER,
        jordan_law(F(1, 4)),
        parse_algebra_text(
            "AXIAL 1\nDIM 1\nGAMMA\n1 1 1 1\nEND\n"
            "LAW\nVALUES 1 0 1/3 -1/2\n0 0 : 0\n0 1/3 : 1/3\n1/3 1/3 : 1 0\n"
            "0 -1/2 : -1/2\n1/3 -1/2 : -1/2\n-1/2 -1/2 : 1 0 1/3\nEND\n"
        ).law,
    ],
    ids=["monster", "jordan", "io"],
)
def test_c2_grading_is_kept_and_equals_a_fresh_computation(law):
    twin = FusionLaw(law.values, {pair: law.star(*pair) for pair in law._star})
    assert twin == law and hash(twin) == hash(law)
    kept = law.c2_grading()
    assert law.c2_grading() is kept
    assert kept == law._find_grading() == twin.c2_grading()
    assert kept[1]  # each law has a nontrivial grading
    # keeping the grading leaves equality and hashing unchanged
    assert twin == law and hash(twin) == hash(law)


def test_laws_are_built_once():
    assert jordan_law(F(1, 4)) is jordan_law(F(1, 4))
    assert monster_law(F(1, 4), F(1, 32)) is MONSTER_QUARTER


def test_check_axis_q2_cases(q2, q2_law):
    s1 = check_axis(q2, unit_vec(4, 0), jordan_law(F(1, 4)))
    assert s1 is not None and s1.primitive
    d1 = check_axis(q2, unit_vec(4, 2), q2_law)
    assert d1 is not None
    assert d1.present == (F(1), F(1, 2), F(1, 4), F(0))
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
    assert axis.miyamoto_map.matrix() == identity(2)
    assert axis.is_jordan_type()
    # sigma would negate the 1/4-part, which is empty too
    assert axis.sigma_map is None or axis.sigma_map.matrix() == identity(2)


def test_miyamoto_on_matsuo_s3(matsuo_s3_quarter, s3_data):
    law = jordan_law(F(1, 4))
    i = s3_data.index_of(transposition_perm(3, 1, 2))
    j = s3_data.index_of(transposition_perm(3, 1, 3))
    k = s3_data.index_of(transposition_perm(3, 2, 3))
    axis = check_axis(matsuo_s3_quarter, unit_vec(3, i), law)
    tau = axis.miyamoto_map.matrix()
    assert mat_vec(tau, unit_vec(3, j)) == unit_vec(3, k)
    assert mat_vec(tau, unit_vec(3, k)) == unit_vec(3, j)
    assert mat_vec(tau, axis.vector) == axis.vector
    assert mat_mul(tau, tau) == identity(3)
    assert is_automorphism(matsuo_s3_quarter, tau)


def test_tau_is_automorphism_on_q2(q2, q2_axes):
    for axis in q2_axes:
        tau = axis.miyamoto_map.matrix()
        assert is_automorphism(q2, tau)
        assert mat_mul(tau, tau) == identity(4)


def test_commutator_space_is_beta_part(q2, q2_axes):
    from axial.linalg import mat_sub

    for axis in q2_axes:
        tau = axis.miyamoto_map.matrix()
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


@pytest.mark.parametrize("name", ["q2", "s3", "s4"])
def test_is_automorphism_matches_the_dense_check(name, q2, matsuo_s3_quarter, s4_data):
    """The integer check against `reference_is_automorphism`: on the tau and
    sigma maps of every basis axis under the Monster (1/2, 1/4), Jordan 1/4
    and Monster (1/4, 1/32) laws, on those maps with one entry perturbed, on
    permutation matrices and on the zero map, which is multiplicative but
    singular."""
    alg = matsuo_algebra(s4_data, F(1, 4)) if name == "s4" else {"q2": q2, "s3": matsuo_s3_quarter}[name]
    n = alg.dim
    maps = []
    for law in (monster_law(F(1, 2), F(1, 4)), jordan_law(F(1, 4)), MONSTER_QUARTER):
        for i in range(n):
            axis = check_axis(alg, unit_vec(n, i), law)
            if axis is not None:
                maps += [g.matrix() for g in (axis.miyamoto_map, axis.sigma_map) if g is not None]
    assert maps
    for g in maps:
        assert is_automorphism(alg, g) and reference_is_automorphism(alg, g)
        bent = [list(row) for row in g]
        bent[0][n - 1] += F(1, 3)
        assert not is_automorphism(alg, bent) and not reference_is_automorphism(alg, bent)
    rng = random.Random(7)
    perms = list(itertools.islice(itertools.permutations(range(n)), 60))
    perms += [rng.sample(range(n), n) for _ in range(60)]
    found = 0
    for perm in perms:
        g = tuple(tuple(F(1 if perm[j] == i else 0) for j in range(n)) for i in range(n))
        expected = reference_is_automorphism(alg, g)
        assert is_automorphism(alg, g) == expected
        found += expected
    assert found > 1
    zero = ((F(0),) * n,) * n
    assert not is_automorphism(alg, zero) and not reference_is_automorphism(alg, zero)


def test_is_automorphism_rejects_a_singular_multiplicative_map(two_b):
    # the projection onto the first summand of Q + Q keeps every product
    g = ((F(1), F(0)), (F(0), F(0)))
    assert not is_automorphism(two_b, g)
    assert not reference_is_automorphism(two_b, g)
    assert is_automorphism(two_b, ((F(0), F(1)), (F(1), F(0))))


def test_is_automorphism_forms_no_fraction_product(monkeypatch, q2, q2_axes):
    # the check reads the integer table: Algebra.product is never called
    taus = [axis.miyamoto_map.matrix() for axis in q2_axes]

    def fail(self, u, v):
        raise AssertionError("Algebra.product called")

    monkeypatch.setattr(Algebra, "product", fail)
    assert all(is_automorphism(q2, tau) for tau in taus)


@pytest.mark.parametrize(
    "g",
    [
        [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [],
    ],
    ids=["ragged", "4x3", "3x3", "empty"],
)
def test_is_automorphism_rejects_a_matrix_of_the_wrong_shape(q2, g):
    # a malformed matrix is an error naming the size, not "no automorphism"
    with pytest.raises(ValueError, match="4 x 4"):
        is_automorphism(q2, g)


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


DERIVATION_ETAS = ("1/2", "1/4", "1/3", "2/5", "3/8", "2")


def _derivation_cases():
    s4, s5 = symmetric_transpositions(4), symmetric_transpositions(5)
    cases = [(f"S4 at {eta}", matsuo_algebra(s4, F(eta))) for eta in DERIVATION_ETAS]
    cases += [(f"S5 at {eta}", matsuo_algebra(s5, F(eta))) for eta in ("1/2", "1/4")]
    for name in ("q2.alg", "triple2b.alg"):
        cases.append((name, parse_algebra(FIXTURES / name).algebra))
    cases.append(("zero algebra", Algebra.from_gamma(1, [])))
    return cases


def test_derivation_space_matches_dense_reference():
    dims = {}
    for name, alg in _derivation_cases():
        space = derivation_space(alg)
        assert space == reference_derivation_space(alg), name
        dims[name] = space.dim
    assert dims["S4 at 1/2"] == 3 and dims["S5 at 1/2"] == 6 and dims["zero algebra"] == 1
    assert sum(dims.values()) == 10


# structure constants, mostly zero: three draws in four are 0
sparse_constants = st.tuples(st.integers(0, 3), st.fractions(-2, 2, max_denominator=3)).map(
    lambda p: p[1] if p[0] == 0 else F(0)
)


@st.composite
def sparse_algebras(draw):
    n = draw(st.integers(1, 4))
    gamma = [
        (i, j, k, draw(sparse_constants))
        for i in range(n)
        for j in range(i, n)
        for k in range(n)
    ]
    return Algebra.from_gamma(n, gamma)


@settings(max_examples=40, deadline=None)
@given(sparse_algebras())
def test_derivation_space_matches_reference_on_random_algebras(alg):
    assert derivation_space(alg) == reference_derivation_space(alg)


@pytest.mark.parametrize("value", [F(MODULUS), 1 / F(MODULUS)], ids=["p", "1/p"])
def test_derivation_space_with_the_screening_prime_as_a_constant(value):
    # e0 e0 = e0 and e1 e1 = value e1.  With value = p the rows that fix the
    # e1 part of d(e1) vanish mod p, so the screen sees a deficit that is not
    # there and the exact solve of the whole system must find 0; 1/p has no
    # inverse mod p.
    alg = Algebra.from_gamma(2, [(0, 0, 0, 1), (1, 1, 1, value)])
    space = derivation_space(alg)
    assert space == reference_derivation_space(alg)
    assert space.is_zero()


def test_derivation_space_matsuo_s7_is_zero():
    assert derivation_space(matsuo_algebra(symmetric_transpositions(7), F(1, 4))).is_zero()


@pytest.mark.parametrize("m", [5, 6])
def test_derivation_space_at_one_half_solves_the_kept_rows_only(monkeypatch, m):
    # At 1/2 the Leibniz system of Matsuo S_m is rank deficient, so the
    # exact stage runs.  It echelons only the rows that raised the rank mod p
    # (at most m(m-1)/2 squared, the unknowns: 225 on S6, where the whole
    # system has 1800 rows), and its answer is the null space of every row.
    alg = matsuo_algebra(symmetric_transpositions(m), F(1, 2))
    n = alg.dim
    sizes = []
    original = kernels.echelon

    def counting(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(kernels, "echelon", counting)
    space = derivation_space(alg)
    assert len(sizes) == 1 and sizes[0] <= n * n
    assert space.dim == (m - 1) * (m - 2) // 2
    rows = []
    monkeypatch.setattr(fusion, "sparse_kernel", lambda r, ncols: rows.extend(r))
    derivation_space(alg)
    assert len(rows) > sizes[0]
    assert space == linalg.null_space((row.items() for row in rows), n * n)


def test_derivation_space_s5_needs_no_dense_rref(monkeypatch):
    # Work counter: at 1/4 the derivation space of Matsuo S5 (100 unknowns)
    # is certified zero with no RREF over Q at all.  The dense solve ran one
    # 550 x 100 RREF.
    alg = matsuo_algebra(symmetric_transpositions(5), F(1, 4))
    calls = []
    original = kernels.rref

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(kernels, "rref", counting)
    assert derivation_space(alg).is_zero()
    assert len(calls) == 0


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("eta", DERIVATION_ETAS)
def test_derivation_space_matches_reference_on_matsuo(m, eta):
    # Every column is certified zero at eta != 1/2 and none at 1/2
    alg = matsuo_algebra(symmetric_transpositions(m), F(eta))
    assert derivation_space(alg) == reference_derivation_space(alg)


def _sparse_kernel_calls(monkeypatch):
    """Record (rows, ncols) of each `sparse_kernel` call of `derivation_space`."""
    calls = []
    original = fusion.sparse_kernel

    def recorded(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return original(rows, ncols)

    monkeypatch.setattr(fusion, "sparse_kernel", recorded)
    return calls


@pytest.mark.parametrize("name, certified", [("q2.alg", 2), ("triple2b.alg", 4)])
def test_derivation_space_solves_only_the_uncertified_columns(monkeypatch, name, certified):
    # q2 has two basis axes with no 1/2-eigenvalue (and two with one), and
    # triple2b four of seven: the Leibniz system keeps only the other columns
    calls = _sparse_kernel_calls(monkeypatch)
    alg = parse_algebra(FIXTURES / name).algebra
    n = alg.dim
    space = derivation_space(alg)
    assert space == reference_derivation_space(alg) and space.is_zero()
    assert [ncols for _, ncols in calls] == [n * (n - certified)]


@pytest.mark.parametrize("eta", ["1/4", "1/2", "1/3"])
@pytest.mark.parametrize("m, sigma", [(5, (1, 0, 3, 2, 4)), (6, (1, 0, 3, 2, 5, 4))])
def test_derivation_space_matches_reference_on_flip_subalgebras(m, sigma, eta):
    # flip subalgebras mix single axes, double axes and other basis vectors
    alg = double_axes_and_flip(symmetric_transpositions(m), F(eta), sigma).algebra
    assert derivation_space(alg) == reference_derivation_space(alg)


def test_derivation_space_matsuo_s6_at_a_quarter_builds_no_system(monkeypatch):
    # Work counter: each of the 15 axes of Matsuo S6 at 1/4 has spectrum
    # {1, 0, 1/4}, so every column is certified zero and no Leibniz row is
    # built, where the whole system has 1800 rows over 225 unknowns.
    calls = _sparse_kernel_calls(monkeypatch)
    assert derivation_space(matsuo_algebra(symmetric_transpositions(6), F(1, 4))).is_zero()
    assert calls == []


def test_derivation_space_at_one_half_solves_the_whole_system(monkeypatch):
    # At 1/2 no column is certified, so `sparse_kernel` receives the whole
    # Leibniz system: its nonzero rows, in order, scaled by the table's
    # denominator.
    calls = _sparse_kernel_calls(monkeypatch)
    alg = matsuo_algebra(symmetric_transpositions(5), F(1, 2))
    n, denom = alg.dim, alg.integer_table().denom
    assert derivation_space(alg).dim == 6
    [(rows, ncols)] = calls
    dense = []
    for row in rows:
        out = [F(0)] * (n * n)
        for key, c in row.items():
            out[key] = F(c, denom)
        dense.append(tuple(out))
    assert ncols == n * n
    assert dense == [row for row in reference_leibniz_rows(alg) if any(row)]


# products of the basis vectors that are not forced idempotent; 1/2 is
# drawn often, so some forced idempotents keep a 1/2-eigenvalue
idempotent_mix_constants = st.sampled_from(
    [F(0)] * 6 + [F(1, 2)] * 3 + [F(1), F(-1), F(1, 4), F(2, 3), F(-3, 2)]
)


@st.composite
def algebras_with_idempotent_basis_vectors(draw):
    n = draw(st.integers(2, 4))
    idempotent = draw(st.sets(st.integers(0, n - 1), min_size=1))
    gamma = []
    for i in range(n):
        for j in range(i, n):
            if i == j and i in idempotent:
                gamma.append((i, i, i, 1))
            else:
                gamma += [(i, j, k, draw(idempotent_mix_constants)) for k in range(n)]
    return Algebra.from_gamma(n, gamma)


@settings(max_examples=60, deadline=None)
@given(algebras_with_idempotent_basis_vectors())
@example(
    # e0 e1 = 1/2 e1 keeps column 0; e2 (spectrum {1, 0}) is certified
    Algebra.from_gamma(3, [(0, 0, 0, 1), (0, 1, 1, F(1, 2)), (2, 2, 2, 1), (1, 1, 0, 1)])
)
def test_derivation_space_matches_reference_with_idempotent_basis_vectors(alg):
    assert derivation_space(alg) == reference_derivation_space(alg)


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


@pytest.mark.parametrize(
    "block",
    [
        [(0, 1, 1, F(1, 2)), (0, 1, 2, 1), (0, 2, 2, F(1, 2))],  # a Jordan block at 1/2
        [(0, 1, 2, 1), (0, 2, 1, 2)],  # eigenvalues +-sqrt(2)
        [(0, 1, 2, 1)],  # ad(e0) e1 = e2, ad(e0) e2 = 0: a Jordan block at 0
    ],
    ids=["repeated-half", "irrational", "repeated-zero"],
)
def test_infer_fusion_law_needs_a_semisimple_rational_adjoint(block):
    alg = Algebra.from_gamma(3, [(0, 0, 0, 1)] + block)
    assert infer_fusion_law(alg, unit_vec(3, 0)) is None
    assert reference_infer_fusion_law(alg, unit_vec(3, 0)) is None


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
        tau, sigma = dense(axis.miyamoto_map), dense(axis.sigma_map)
        assert tau == expected_tau
        involutions = [tau]
        if sigma is not None:
            inner = frozenset(present - {F(1), F(0)})
            assert sigma == reference_graded_involution(axis.eigendata, inner, n)
            involutions.append(sigma)
            checked_sigma += 1
        for g in involutions:
            assert mat_mul(g, g) == identity(n)
            assert is_automorphism(alg, g)
    assert checked_sigma > 0


def _outcome(alg, v, law):
    """`check_axis_verbose` in the shape `reference_check_axis` returns."""
    axis, reason = check_axis_verbose(alg, v, law)
    if axis is None:
        return reason
    assert axis.vector == vec(v) and axis.law == law and axis.primitive
    return axis.eigendata, dense(axis.miyamoto_map), dense(axis.sigma_map)


def _narrow_jordan_law(eta):
    """The Jordan law at eta with eta * eta = {1}: Matsuo axes break it."""
    return FusionLaw([1, 0, eta], {(0, 0): {0}, (0, eta): {eta}, (eta, eta): {1}})


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("eta", DERIVATION_ETAS)
def test_check_axis_matches_reference_on_matsuo(m, eta):
    eta = F(eta)
    data = symmetric_transpositions(m)
    alg = matsuo_algebra(data, eta)
    n = data.size
    orthogonal = vadd(
        unit_vec(n, data.index_of(transposition_perm(m, 1, 2))),
        unit_vec(n, data.index_of(transposition_perm(m, 3, 4))),
    )
    not_idempotent = vadd(unit_vec(n, 0), unit_vec(n, 1))
    vectors = [unit_vec(n, i) for i in range(n)] + [orthogonal, not_idempotent]
    reasons = set()
    for law in (jordan_law(eta), monster_law(eta, F(1, 32)), _narrow_jordan_law(eta)):
        for v in vectors:
            outcome = _outcome(alg, v, law)
            assert outcome == reference_check_axis(alg, v, law), (law, v)
            reasons.add(outcome if isinstance(outcome, str) else None)
    assert {None, "not_idempotent", f"fusion_violation: {eta} * {eta}"} <= reasons


def test_check_axis_matches_reference_on_fixture_axes():
    for name in ("q2.alg", "triple2b.alg"):
        parsed = parse_algebra(FIXTURES / name)
        for tag, v in parsed.axes:
            law = parse_law_spec(tag, parsed.law)
            outcome = _outcome(parsed.algebra, v, law)
            assert not isinstance(outcome, str), (name, tag)
            assert outcome == reference_check_axis(parsed.algebra, v, law), (name, tag)


AXIS_CASE_LAWS = (jordan_law(F(1, 4)), MONSTER_QUARTER, monster_law(F(1, 2), F(1, 4)))


def _seen_in_another_basis(draw, plain):
    """The algebra `plain` in a drawn unitriangular basis P (its columns),
    with its Gram matrix, if any, carried to P^T G P, and the coordinates of
    e0 in that basis, sometimes doubled, with a drawn law."""
    n = plain.dim
    above = st.sampled_from([F(0), F(1), F(-1), F(1, 2)])
    change = tuple(
        tuple(F(1) if a == i else draw(above) if a < i else F(0) for i in range(n))
        for a in range(n)
    )
    back = inverse(change)
    cols = [tuple(row[i] for row in change) for i in range(n)]
    new_gamma = [
        (i, j, k, c)
        for i in range(n)
        for j in range(i, n)
        for k, c in enumerate(mat_vec(back, plain.product(cols[i], cols[j])))
    ]
    gram = None if plain.gram is None else [[plain.form_value(x, y) for y in cols] for x in cols]
    alg = Algebra.from_gamma(n, new_gamma, gram=gram)
    v = vscale(draw(st.sampled_from([1, 1, 1, 2])), mat_vec(back, unit_vec(n, 0)))
    return alg, v, draw(st.sampled_from(AXIS_CASE_LAWS))


@st.composite
def axis_cases(draw):
    """An algebra where e0 is idempotent with diagonal adjoint, seen in another basis.

    e0 e_j = lam_j e_j with lam_j drawn from a menu wider than the laws, the
    other constants mostly zero; a unitriangular change of basis makes the
    eigenvectors dense.  The vector is e0 in the new basis, sometimes doubled.
    """
    n = draw(st.integers(1, 4))
    menu = st.sampled_from([F(1), F(0), F(1, 4), F(1, 32), F(1, 2)])
    lams = [F(1)] + [draw(menu) for _ in range(1, n)]
    gamma = [(0, j, j, lam) for j, lam in enumerate(lams)]
    gamma += [
        (i, j, k, draw(sparse_constants)) for i in range(1, n) for j in range(i, n) for k in range(n)
    ]
    return _seen_in_another_basis(draw, Algebra.from_gamma(n, gamma))


def test_check_axis_matches_reference_on_random_algebras():
    kinds = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(axis_cases())
    def compare(case):
        outcome = _outcome(*case)
        assert outcome == reference_check_axis(*case)
        kinds.append(outcome.split(":")[0] if isinstance(outcome, str) else "axis")

    compare()
    # The comparison is only as good as its draws: they must reach passes
    # and every kind of failure, not only passes.
    assert set(kinds) == {
        "axis", "fusion_violation", "bad_spectrum", "not_primitive", "not_idempotent"
    }


@st.composite
def frobenius_axis_cases(draw):
    """An algebra with a nondegenerate Frobenius form where e0 is idempotent
    with diagonal adjoint, seen in another basis.

    Under the identity Gram matrix the form is Frobenius exactly when the
    constants c_ijk = (e_i e_j, e_k) are symmetric in i, j and k.
    e0 e_j = lam_j e_j fixes every constant with an index 0 (e_j e_j has
    lam_j e0), and the others are a random symmetric tensor, mostly zero.
    A unitriangular change of basis P makes the eigenvectors dense and
    carries the Gram matrix to P^T P.  The vector is e0 in the new basis,
    sometimes doubled.
    """
    n = draw(st.integers(2, 5))
    menu = st.sampled_from([F(1), F(0), F(1, 4), F(1, 32), F(1, 2)])
    lams = [F(1)] + [draw(menu) for _ in range(1, n)]
    tensor = {
        key: draw(sparse_constants)
        for key in itertools.combinations_with_replacement(range(1, n), 3)
    }
    gamma = [(0, j, j, lam) for j, lam in enumerate(lams)]
    gamma += [(j, j, 0, lam) for j, lam in enumerate(lams) if j]
    gamma += [
        (i, j, k, tensor[tuple(sorted((i, j, k)))])
        for i in range(1, n)
        for j in range(i, n)
        for k in range(1, n)
    ]
    return _seen_in_another_basis(draw, Algebra.from_gamma(n, gamma, gram=identity(n)))


def test_check_axis_matches_reference_on_frobenius_algebras(monkeypatch):
    # With a proved nondegenerate Frobenius form, check_axis forms only the
    # blocks that cover a forbidden eigenvalue triple no other block covers;
    # the reference forms every product, so outcomes and reasons must agree.
    formed = []
    original = fusion._block_products

    def recording(table, bases, lam, mu):
        formed.append((lam, mu))
        return original(table, bases, lam, mu)

    monkeypatch.setattr(fusion, "_block_products", recording)
    kinds, pruned = [], []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(frobenius_axis_cases())
    def compare(case):
        alg, v, law = case
        assert alg.has_nondegenerate_form()
        formed.clear()
        outcome = _outcome(alg, v, law)
        assert outcome == reference_check_axis(alg, v, law)
        kinds.append(outcome.split(":")[0] if isinstance(outcome, str) else "axis")
        if kinds[-1] == "axis":
            present = [lam for lam, _ in outcome[0]]
            checkable = {
                (lam, mu)
                for lam, mu in itertools.combinations_with_replacement(present, 2)
                if F(1) not in (lam, mu) and not law.star(lam, mu).issuperset(present)
            }
            pruned.append(bool(checkable - set(formed)))

    compare()
    assert {"axis", "fusion_violation"} <= set(kinds)
    assert any(pruned)


def test_check_axis_names_the_first_failing_block_after_pruning(monkeypatch):
    # e0 has eigenvalue 1/4 on e1, e2 and 0 on e3, under the identity form;
    # e1 e1 has an e1 part and e3 e3 an e1 part, which breaks both
    # 1/4 * 1/4 <= {1, 0} and 0 * 0 <= {0}.  The cheapest block (0, 0) is
    # formed first and fails, so (1/4, 1/4), earlier in the full order, is
    # formed next and named, as the reference names it.
    q = F(1, 4)
    gamma = [(0, 0, 0, 1), (0, 1, 1, q), (0, 2, 2, q), (1, 1, 0, q), (2, 2, 0, q)]
    gamma += [(1, 1, 1, 1), (1, 3, 3, 1), (3, 3, 1, 1)]
    alg = Algebra.from_gamma(4, gamma, gram=identity(4))
    formed = []
    original = fusion._block_products

    def recording(table, bases, lam, mu):
        formed.append((lam, mu))
        return original(table, bases, lam, mu)

    monkeypatch.setattr(fusion, "_block_products", recording)
    law = jordan_law(q)
    _, reason = check_axis_verbose(alg, unit_vec(4, 0), law)
    assert reason == reference_check_axis(alg, unit_vec(4, 0), law) == "fusion_violation: 1/4 * 1/4"
    assert formed == [(F(0), F(0)), (q, q)]


def test_check_axis_forms_one_block_per_forbidden_triple(monkeypatch):
    # Work counter: a Jordan axis of Matsuo S5 at 1/4 has eigenspaces of
    # dimension 1, 6 and 3 for 1, 0 and 1/4, so 55 eigenbasis products.
    # The (1, mu) blocks hold as A_1 = <a>; under the Frobenius form the
    # (1/4, 1/4) block (6 products) covers {1/4, 1/4, 1/4} and the (0, 1/4)
    # block (18) covers {0, 0, 1/4}, so the (0, 0) block (21) is not formed.
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    calls = []
    original = fusion.integer_product

    def counting(table, x, y):
        calls.append(1)
        return original(table, x, y)

    monkeypatch.setattr(fusion, "integer_product", counting)
    for law in (jordan_law(F(1, 4)), MONSTER_QUARTER):
        calls.clear()
        assert check_axis(alg, unit_vec(data.size, 0), law) is not None
        assert len(calls) == 24, law


def test_check_axis_builds_involutions_on_first_read(monkeypatch):
    # Work counter: the certificate calls no sign_map; the first read of
    # `miyamoto_map` calls it once and keeps the map, and a second read calls
    # none.
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    calls = []
    original = IntegerAdjoint.sign_map

    def counting(self, present, negated):
        calls.append(negated)
        return original(self, present, negated)

    monkeypatch.setattr(IntegerAdjoint, "sign_map", counting)
    axis = check_axis(alg, unit_vec(data.size, 0), jordan_law(F(1, 4)))
    assert calls == []
    tau = axis.miyamoto_map
    assert calls == [frozenset({F(1, 4)})]
    assert axis.miyamoto_map is tau and axis.sigma_map is None
    assert len(calls) == 1
    assert tau.matrix() == reference_graded_involution(axis.eigendata, frozenset({F(1, 4)}), data.size)


def test_check_axis_inverts_nothing_and_tests_no_membership(monkeypatch):
    # Work counter: the fusion check, tau and sigma are polynomials in the
    # adjoint, so no matrix is inverted and Subspace.contains is never asked.
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    counts = {"inverse": 0, "contains": 0}

    def counting(name, original):
        def wrapped(*args):
            counts[name] += 1
            return original(*args)

        return wrapped

    for module in (fusion, linalg):
        if hasattr(module, "inverse"):
            monkeypatch.setattr(module, "inverse", counting("inverse", module.inverse))
    monkeypatch.setattr(Subspace, "contains", counting("contains", Subspace.contains))
    for law, graded in ((jordan_law(F(1, 4)), "miyamoto_map"), (MONSTER_QUARTER, "sigma_map")):
        counts.update(inverse=0, contains=0)
        axis = check_axis(alg, unit_vec(data.size, 0), law)
        assert getattr(axis, graded).matrix() != identity(data.size)
        assert counts == {"inverse": 0, "contains": 0}, law


def test_check_axis_reads_each_eigenspace_off_one_echelon(monkeypatch):
    # Work counter: each eigenspace of the certificate is the null space of
    # one integer shift of the adjoint, read off one echelon with no RREF,
    # except A_1, which the other eigenspaces' dimensions prove to be <a>
    # with no echelon.
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(1, 4))
    counts = {"rref": 0, "echelon": 0}

    def counting(name, original):
        def wrapped(rows):
            counts[name] += 1
            return original(rows)

        return wrapped

    for name in counts:
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    for law in (jordan_law(F(1, 4)), MONSTER_QUARTER):
        counts.update(rref=0, echelon=0)
        assert check_axis(alg, unit_vec(data.size, 0), law) is not None
        assert counts == {"rref": 0, "echelon": len(law.values) - 1}, law


BENCHMARK_ETAS = ("1/2", "1/4", "1/3", "2/5", "3/8", "2")


def _fallback_cases():
    """(build, vectors, laws) on Matsuo S3-S6 at each benchmark eta, the
    fixtures and the flip subalgebras of S5; `build` makes a fresh algebra."""
    for m in (3, 4, 5, 6):
        data = symmetric_transpositions(m)
        for eta in map(F, BENCHMARK_ETAS):
            vectors = [unit_vec(data.size, i) for i in range(data.size)]
            vectors.append(vadd(vectors[0], vectors[1]))
            laws = (jordan_law(eta), _narrow_jordan_law(eta))
            yield (lambda data=data, eta=eta: matsuo_algebra(data, eta)), vectors, laws
    for name in ("q2.alg", "triple2b.alg"):
        parsed = parse_algebra(FIXTURES / name)
        laws = tuple(dict.fromkeys(parse_law_spec(tag, parsed.law) for tag, _ in parsed.axes))
        n = parsed.algebra.dim
        vectors = [v for _, v in parsed.axes] + [unit_vec(n, i) for i in range(n)]
        yield (lambda name=name: parse_algebra(FIXTURES / name).algebra), vectors, laws
    for eta in map(F, BENCHMARK_ETAS[1:]):
        flip = double_axes_and_flip(symmetric_transpositions(5), eta, (1, 0, 3, 2, 4))
        n = flip.algebra.dim
        vectors = [unit_vec(n, i) for i in range(n)]
        yield (lambda eta=eta: double_axes_and_flip(symmetric_transpositions(5), eta, (1, 0, 3, 2, 4)).algebra), vectors, (monster_law(2 * eta, eta),)


def _recording_shifts(monkeypatch) -> list:
    """Patch `IntegerAdjoint.shifted_rows` to record each eigenvalue whose
    null space is solved; returns the record."""
    shifts = []
    original = IntegerAdjoint.shifted_rows

    def recording(self, nu):
        shifts.append(nu)
        return original(self, nu)

    monkeypatch.setattr(IntegerAdjoint, "shifted_rows", recording)
    return shifts


def test_check_axis_solves_no_principal_eigenspace_on_matsuo_axes(monkeypatch):
    # Work counter: on every axis of Matsuo S5 and S6 at the benchmark etas
    # the eigenspaces for 0 and eta span n - 1, which proves A_1 = <a>, so
    # no null space is solved for the eigenvalue 1.
    cases = [
        (matsuo_algebra(data, eta), data.size, jordan_law(eta))
        for data in map(symmetric_transpositions, (5, 6))
        for eta in map(F, BENCHMARK_ETAS)
    ]
    shifts = _recording_shifts(monkeypatch)
    for alg, n, law in cases:
        for i in range(n):
            assert check_axis(alg, unit_vec(n, i), law) is not None
    assert len(shifts) == 2 * sum(n for _, n, _ in cases)
    assert F(1) not in shifts


def test_check_axis_solves_the_principal_eigenspace_when_the_others_fall_short(monkeypatch):
    # A_1 is solved exactly on an idempotent whose eigenspaces for the law's
    # other values span less than n - 1, and on no other vector; every
    # outcome is the reference's.  e0 + e1 of the diagonal algebra has
    # A_1 of dimension 2, and the law at 1/3 misses the 1/4-eigenspace of
    # an axis of Matsuo S4 at 1/4.
    s4 = matsuo_algebra(symmetric_transpositions(4), F(1, 4))
    extra = [
        (diagonal_algebra(3), [vadd(unit_vec(3, 0), unit_vec(3, 1))], (jordan_law(F(1, 4)),)),
        (s4, [unit_vec(s4.dim, 0), s4.find_unit()], (jordan_law(F(1, 3)), jordan_law(F(1, 4)))),
    ]
    cases = [(build(), vectors, laws) for build, vectors, laws in _fallback_cases()] + extra
    shifts = _recording_shifts(monkeypatch)
    solved, reasons = [], set()
    for alg, vectors, laws in cases:
        for law in laws:
            for v in vectors:
                shifts.clear()
                outcome = _outcome(alg, v, law)
                assert outcome == reference_check_axis(alg, v, law), (law, v)
                reasons.add(outcome.split(":")[0] if isinstance(outcome, str) else "axis")
                if alg.product(vec(v), vec(v)) == vec(v):
                    ad = reference_ad_matrix(alg, v)
                    others = sum(linalg.eigenspace(ad, lam).dim for lam in law.values if lam != 1)
                    assert (F(1) in shifts) == (others < alg.dim - 1), (law, v)
                    solved.append(F(1) in shifts)
                else:
                    assert shifts == []
    assert {"axis", "not_primitive", "bad_spectrum", "fusion_violation", "not_idempotent"} <= reasons
    assert True in solved and False in solved


@st.composite
def perturbed_vectors(draw):
    """An idempotent of Matsuo S3 or S4 built from its axes, sometimes
    perturbed, with a drawn law.

    The idempotent is an axis, the unit, the unit minus an axis, or, in S4,
    the sum of two orthogonal axes; the perturbation adds a small multiple
    of a basis vector.  These reach every outcome of the axis check.
    """
    m = draw(st.sampled_from([3, 4]))
    eta = draw(st.sampled_from([F(1, 4), F(1, 2), F(1, 3), F(2)]))
    data, alg = _matsuo(m, eta)
    n = data.size
    i = draw(st.integers(0, n - 1))
    axis = unit_vec(n, i)
    one = alg.find_unit()
    kinds = ["axis", "unit", "unit minus axis"] + (["orthogonal pair"] if m == 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "axis":
        v = axis
    elif kind == "unit":
        v = one
    elif kind == "unit minus axis":
        v = vadd(one, vscale(-1, axis))
    else:
        j = next(j for j in range(n) if data.orders[i][j] == 2)
        v = vadd(axis, unit_vec(n, j))
    if draw(st.booleans()):
        c = draw(st.sampled_from([F(1), F(-1, 2), F(1, 3)]))
        v = vadd(v, vscale(c, unit_vec(n, draw(st.integers(0, n - 1)))))
    laws = [jordan_law(eta), monster_law(eta, F(1, 32)), _narrow_jordan_law(eta)]
    if eta != F(1, 2):
        laws.append(monster_law(2 * eta, eta))
    return alg, v, draw(st.sampled_from(laws))


_MATSUO = {}


def _matsuo(m, eta):
    if (m, eta) not in _MATSUO:
        data = symmetric_transpositions(m)
        _MATSUO[m, eta] = data, matsuo_algebra(data, eta)
    return _MATSUO[m, eta]


def test_check_axis_matches_reference_on_perturbed_vectors():
    kinds = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(perturbed_vectors())
    def compare(case):
        outcome = _outcome(*case)
        assert outcome == reference_check_axis(*case)
        kinds.append(outcome.split(":")[0] if isinstance(outcome, str) else "axis")

    compare()
    assert set(kinds) == {
        "axis", "fusion_violation", "bad_spectrum", "not_primitive", "not_idempotent"
    }


@pytest.mark.parametrize("eta", ["1/4", "1/3", "2"])
def test_infer_fusion_law_on_matsuo_s5_axes(eta):
    data = symmetric_transpositions(5)
    alg = matsuo_algebra(data, F(eta))
    for i in (0, data.size - 1):
        assert infer_fusion_law(alg, unit_vec(data.size, i)) == jordan_law(F(eta))


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("eta", ["1/4", "2"])
def test_infer_fusion_law_matches_reference_on_matsuo(m, eta):
    data = symmetric_transpositions(m)
    alg = matsuo_algebra(data, F(eta))
    n = data.size
    # every axis, and the sum of two orthogonal axes: an idempotent that is
    # not primitive, with a larger table
    orthogonal = vadd(
        unit_vec(n, data.index_of(transposition_perm(m, 1, 2))),
        unit_vec(n, data.index_of(transposition_perm(m, 3, 4))),
    )
    for v in [unit_vec(n, i) for i in range(n)] + [orthogonal]:
        law = infer_fusion_law(alg, v)
        assert law is not None
        assert law == reference_infer_fusion_law(alg, v), v


def test_infer_fusion_law_matches_reference_on_fixture_axes():
    for name in ("q2.alg", "triple2b.alg"):
        parsed = parse_algebra(FIXTURES / name)
        for tag, v in parsed.axes:
            law = infer_fusion_law(parsed.algebra, v)
            assert law is not None, (name, tag)
            assert law == reference_infer_fusion_law(parsed.algebra, v), (name, tag)


def test_infer_fusion_law_matches_reference_on_random_algebras():
    inferred = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(axis_cases())
    def compare(case):
        alg, v, _ = case
        law = infer_fusion_law(alg, v)
        assert law == reference_infer_fusion_law(alg, v)
        inferred.append(law is not None)

    compare()
    # draws that fail idempotency give None on both sides; the rest must
    # reach the comparison of two tables
    assert any(inferred) and not all(inferred)

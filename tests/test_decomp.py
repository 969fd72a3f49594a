import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import axial.decomp
from axial._backend import kernels
from axial.algebra import Algebra, AlgebraError, IntegerAdjoint, direct_sum
from axial.decomp import (
    PairingProbe,
    SquareProbe,
    complement_in,
    decompose_joint,
    extension_space,
    generate_probes,
    partial_decomposition,
    sign_kernel,
)
from axial.fusion import MONSTER_QUARTER, FusionLaw, check_axis, jordan_law
from axial.linalg import Subspace, identity, subspace_sum, transpose, unit_vec
from axial.matsuo import (
    double_transposition_perm,
    matsuo_algebra,
    perm_conj,
    symmetric_transpositions,
    transposition_perm,
)
from oracles import reference_decompose_joint, reference_extension_space, reference_sign_filter


def test_single_axis_components_are_eigenspaces(q2, q2_axes):
    a = q2_axes[2]
    dec = decompose_joint(q2, [a])
    assert dec.complete
    for (lam,), space in dec.components.items():
        assert space == a.eigenspace(lam)


def test_precondition_identifies_pair(matsuo_s3_quarter):
    law = jordan_law(F(1, 4))
    axes = [check_axis(matsuo_s3_quarter, unit_vec(3, i), law) for i in (0, 1)]
    with pytest.raises(AlgebraError, match="axis 0 does not fix axis 1"):
        decompose_joint(matsuo_s3_quarter, axes)


def test_repeated_axis_is_rejected(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    with pytest.raises(ValueError, match="axis 0 and axis 2 are the same vector"):
        decompose_joint(triple_2b, [axes[0], axes[1], axes[0]])
    with pytest.raises(ValueError, match="axis 1 and axis 2 are the same vector"):
        decompose_joint(triple_2b, axes[1:] + axes[2:])


def test_triple_2b_complete(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    assert dec.complete
    assert sum(space.dim for space in dec.components.values()) == 7
    assert dec.zero_component.dim == 1
    # module property over the zero component on every part, checked exactly
    u = dec.zero_component
    for space in dec.components.values():
        for x in u.basis:
            for y in space.basis:
                assert space.contains(triple_2b.product(x, y))


def test_components_invariant_under_taus(triple_2b):
    from axial.linalg import mat_vec

    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    for axis in axes:
        for space in dec.components.values():
            for b in space.basis:
                assert space.contains(mat_vec(axis.miyamoto_map.matrix(), b))


def test_partial_decomposition_complete_case(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = partial_decomposition(triple_2b, axes)
    assert dec.a_sharp is not None and dec.a_sharp.is_zero()


def test_partial_decomposition_matsuo_pair(matsuo_s3_quarter, two_b):
    """Non-orthogonal mutually-fixing pair: the component sum is proper.

    The two generating axes of the 3-transposition algebra have trivial sign
    involutions under the ambient Monster law, so they fix each other even
    though their product is nonzero; the direct 2B summand provides the joint
    zero part, and everything else lands in the orthogonal complement.
    """
    total = direct_sum(matsuo_s3_quarter, two_b)
    axes = [check_axis(total, unit_vec(5, i), MONSTER_QUARTER) for i in (0, 1)]
    assert all(a is not None for a in axes)
    assert all(a.miyamoto_map.matrix() == identity(5) for a in axes)
    dec = partial_decomposition(total, axes)
    assert not dec.complete
    assert dec.zero_component.dim == 2
    assert dec.a_circ.dim < 5
    assert dec.a_sharp is not None and not dec.a_sharp.is_zero()
    assert dec.a_circ.dim + dec.a_sharp.dim == 5
    pair_span = Subspace(5, [axes[0].vector, axes[1].vector])
    assert dec.a_sharp.contains_subspace(pair_span)
    # the complement is a module over the zero component
    u = dec.zero_component
    for x in u.basis:
        for y in dec.a_sharp.basis:
            assert dec.a_sharp.contains(total.product(x, y))


def test_complement_in(triple_2b):
    outer = Subspace(7, [unit_vec(7, i) for i in range(4)])
    inner = Subspace(7, [unit_vec(7, 0)])
    comp = complement_in(triple_2b, outer, inner)
    assert comp.dim == 3
    assert complement_in(triple_2b, outer, outer).is_zero()
    assert complement_in(triple_2b, outer, Subspace(7)) == outer
    with pytest.raises(AlgebraError):
        complement_in(triple_2b, inner, outer)


def test_extension_space_zero_action():
    # e0 is an axis of Jordan type 1/2 with u = <e3> acting as zero on the
    # 1/2-component <e1, e2>: psi is unconstrained, all of End(W)
    alg = Algebra.from_gamma(4, [(0, 0, 0, 1), (0, 1, 1, F(1, 2)), (0, 2, 2, F(1, 2))])
    dec = decompose_joint(alg, [check_axis(alg, unit_vec(4, 0), jordan_law(F(1, 2)))])
    assert dec.modules[(F(1, 2),)] == [[(0, 0), (0, 0)]]
    ext = extension_space(dec, (F(1, 2),), identity(1))
    assert ext.dim == 4
    assert ext.contains_identity()


def test_extension_space_reads_the_tables_of_a_non_seress_law():
    # Under a law with 0 * 1/2 = 1, u = <e1> is a subalgebra but e1 e2 = e0
    # leaves the 1/2-component <e2>: decompose_joint keeps the None table and
    # extension_space raises its message
    law = FusionLaw((1, 0, F(1, 2)), {(0, 0): {0}, (0, F(1, 2)): {1}})
    assert not law.is_seress()
    alg = Algebra.from_gamma(3, [(0, 0, 0, 1), (0, 2, 2, F(1, 2)), (1, 2, 0, 1)])
    dec = decompose_joint(alg, [check_axis(alg, unit_vec(3, 0), law)])
    half = (F(1, 2),)
    assert dec.modules[half] is None
    with pytest.raises(AlgebraError, match=r"component \(Fraction\(1, 2\),\) is not a module"):
        extension_space(dec, half, identity(1))
    assert extension_space(dec, (F(1),), identity(1)).dim == 1
    with pytest.raises(ValueError, match="no component with key"):
        extension_space(dec, (F(1, 4),), identity(1))


def test_extension_space_scalar_line(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    u = dec.zero_component
    q, t = F(1, 4), F(1, 32)
    for key in [(q, t, t), (t, q, t), (t, t, q)]:
        ext = extension_space(dec, key, identity(u.dim))
        assert ext.dim == 1
        assert ext.contains_identity()


def test_extension_space_checks_phi(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    assert dec.zero_component.dim == 1  # spanned by the idempotent u
    not_multiplicative = ((F(2),),)  # u -> 2u is not an algebra map
    with pytest.raises(AlgebraError):
        extension_space(dec, (F(1, 4), F(1, 32), F(1, 32)), not_multiplicative)


def test_sign_kernel_trivial_cases(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    q, t = F(1, 4), F(1, 32)
    comps = [dec.components[k] for k in [(q, t, t), (t, q, t), (t, t, q)]]
    # no probes: the full sign group survives
    res = sign_kernel(triple_2b, comps, [])
    assert len(res.admissible) == 8
    # a single square probe certifies a component without cutting signs
    u = dec.zero_component.basis[0]
    res = sign_kernel(
        triple_2b, comps[:1], [SquareProbe(0, comps[0].basis[0], u)]
    )
    assert res.admissible == [(1,), (-1,)]
    assert res.certified == {0}


def test_sign_kernel_triple_probe(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    q, t = F(1, 4), F(1, 32)
    comps = [dec.components[k] for k in [(q, t, t), (t, q, t), (t, t, q)]]
    probes = generate_probes(triple_2b, dec.zero_component, comps, seed=3)
    res = sign_kernel(triple_2b, comps, probes)
    assert set(res.admissible) == {
        (1, 1, 1),
        (1, -1, -1),
        (-1, 1, -1),
        (-1, -1, 1),
    }
    # closure under coordinatewise products: it is a subgroup
    for s1 in res.admissible:
        for s2 in res.admissible:
            assert tuple(a * b for a, b in zip(s1, s2)) in res.admissible


def test_sign_kernel_long_probe_parity(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    q, t = F(1, 4), F(1, 32)
    comps = [dec.components[k] for k in [(q, t, t), (t, q, t), (t, t, q)]]
    probe = PairingProbe(
        (0, 1, 2),
        (comps[0].basis[0], comps[1].basis[0], comps[2].basis[0]),
        "long",
    )
    assert probe.parity(3) == (1, 1, 1)
    res = sign_kernel(triple_2b, comps, [probe])
    # ((w1 w2)(w1 w3), w1): w1w2 = w3, w1w3 = w2, w3w2 = w1, (w1, w1) = 32
    value = next(r.value for r in res.records)
    assert value == 32
    assert len(res.admissible) == 4


@pytest.mark.parametrize("triple", [(0, 1, 9), (0, 1), (-1, 0, 1), (0, 0, 1), (0, 1, 2, 0)])
def test_generate_probes_rejects_bad_long_probes(triple_2b, triple):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    q, t = F(1, 4), F(1, 32)
    comps = [dec.components[k] for k in [(q, t, t), (t, q, t), (t, t, q)]]
    message = f"long probe {triple} is not three distinct component positions in 0..2"
    with pytest.raises(ValueError) as err:
        generate_probes(triple_2b, dec.zero_component, comps, long_probes=[(0, 1, 2), triple])
    assert str(err.value) == message


def test_sign_kernel_skips_vanishing_probe(triple_2b):
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    dec = decompose_joint(triple_2b, axes)
    q, t = F(1, 4), F(1, 32)
    comps = [dec.components[k] for k in [(q, t, t), (t, q, t), (t, t, q)]]
    # (w1^2, a1) pairing with u drawn from an orthogonal line: w1^2 has no
    # component pairing with w2, so (w1 w1, w2) = 0
    vanishing = PairingProbe((0, 0, 1), (comps[0].basis[0], comps[0].basis[0], comps[1].basis[0]))
    res = sign_kernel(triple_2b, comps, [vanishing])
    assert not res.records[0].used
    assert len(res.admissible) == 8


@functools.lru_cache(maxsize=None)
def commuting_axes(m, k, eta):
    """The Matsuo algebra of S_m at eta with the Jordan axes of the commuting
    transpositions (1,2), (3,4), ..., (2k-1,2k)."""
    data = symmetric_transpositions(m)
    alg = matsuo_algebra(data, eta)
    law = jordan_law(eta)
    indices = [data.index_of(transposition_perm(m, 2 * i + 1, 2 * i + 2)) for i in range(k)]
    return alg, [check_axis(alg, unit_vec(alg.dim, i), law) for i in indices]


JOINT_CASES = ["q2 s1,s2", "q2 d1,d2", "triple2b"] + [
    f"S{m} {k} axes eta={eta}" for m, k in ((6, 3), (8, 3), (8, 4)) for eta in ("1/4", "1/2")
]


@pytest.fixture(scope="module", params=JOINT_CASES)
def joint_case(request):
    name = request.param
    if name.startswith("q2"):
        axes = request.getfixturevalue("q2_axes")
        return request.getfixturevalue("q2"), axes[:2] if "s1" in name else axes[2:]
    if name == "triple2b":
        alg = request.getfixturevalue("triple_2b")
        return alg, [check_axis(alg, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    group, k, _, eta = name.split()
    return commuting_axes(int(group[1:]), int(k), F(eta.split("=")[1]))


def canonical(space):
    return space.basis, space.pivots


def test_decompose_joint_matches_reference(joint_case):
    alg, axes = joint_case
    dec = decompose_joint(alg, axes)
    expected = reference_decompose_joint(alg, axes)
    assert [(key, canonical(space)) for key, space in dec.components.items()] == [
        (key, canonical(space)) for key, space in expected.components.items()
    ]
    assert dec.complete == expected.complete
    assert canonical(dec.a_circ) == canonical(expected.a_circ)


def outcome(function, *args):
    """The canonical extension space a call returns, or the error it raises."""
    try:
        ext = function(*args)
    except (AlgebraError, ValueError) as error:
        return type(error), str(error)
    return ext.w_dim, canonical(ext.space)


def test_extension_space_matches_reference(joint_case):
    alg, axes = joint_case
    dec = decompose_joint(alg, axes)
    u = dec.zero_component
    twice = tuple(tuple(2 * x for x in row) for row in identity(u.dim))
    for key, w in dec.components.items():
        for phi in (identity(u.dim), twice, identity(u.dim + 1)):
            expected = outcome(reference_extension_space, alg, u, w, phi)
            assert outcome(extension_space, dec, key, phi) == expected


@pytest.mark.parametrize("m, k, eta", [(6, 3, F(1, 4)), (8, 4, F(1, 2))])
def test_extension_space_under_an_axis_swap_matches_reference(m, k, eta):
    """phi is the automorphism of conjugation by (1,3)(2,4) restricted to the
    joint zero component, which it maps to itself by swapping two axes."""
    alg, axes = commuting_axes(m, k, eta)
    data = symmetric_transpositions(m)
    g = double_transposition_perm(m, 1, 3, 2, 4)
    image = [data.index_of(perm_conj(c, g)) for c in data.transpositions]

    def move(v):
        out = [F(0)] * alg.dim
        for i, x in enumerate(v):
            out[image[i]] = x
        return tuple(out)

    dec = decompose_joint(alg, axes)
    u = dec.zero_component
    phi = transpose(tuple(u.coordinates(move(b)) for b in u.basis))
    assert phi != identity(u.dim)
    dims = []
    for key, w in dec.components.items():
        got = outcome(extension_space, dec, key, phi)
        assert got == outcome(reference_extension_space, alg, u, w, phi)
        dims.append(len(got[1][0]))
    assert any(dims)


def test_extension_space_reads_the_decomposition_tables(monkeypatch):
    """decompose_joint makes one products_in per component of S8 with four
    commuting axes, and extension_space then makes none."""
    alg, axes = commuting_axes(8, 4, F(1, 4))
    calls = []
    products_in = Algebra.products_in
    monkeypatch.setattr(
        Algebra, "products_in", lambda *args: calls.append(1) or products_in(*args)
    )
    dec = decompose_joint(alg, axes)
    assert len(calls) == len(dec.components) == 15
    calls.clear()
    for key in dec.components:
        extension_space(dec, key, identity(dec.zero_component.dim))
    assert calls == []


def test_decompose_joint_builds_each_zero_part_adjoint_once(monkeypatch):
    """decompose_joint reads the 15 component tables of S8 with four
    commuting axes off the adjoints of the zero part's basis, one each;
    building them per table made 15 times as many."""
    alg, axes = commuting_axes(8, 4, F(1, 4))
    calls = []
    init = IntegerAdjoint.__init__
    monkeypatch.setattr(IntegerAdjoint, "__init__", lambda *args: calls.append(1) or init(*args))
    dec = decompose_joint(alg, axes)
    assert len(dec.components) == 15
    assert len(calls) == dec.zero_component.dim > 0


def test_partial_decomposition_reuses_the_zero_part_adjoints(monkeypatch):
    """The complement's module check reads the adjoints decompose_joint
    built: 6 constructions for dim u = 6, where building them again made
    12."""
    alg, axes = commuting_axes(8, 4, F(1, 4))
    calls = []
    init = IntegerAdjoint.__init__
    monkeypatch.setattr(IntegerAdjoint, "__init__", lambda *args: calls.append(1) or init(*args))
    dec = partial_decomposition(alg, axes)
    assert dec.zero_component.dim == 6 and dec.a_sharp is not None
    assert len(calls) == 6


def test_intersect_clears_no_denominators_in_decompose_joint(monkeypatch, triple_2b):
    """Work counter: the equations intersect hands null_basis are integer
    rows read off the canonical rows, and the component sum echelons those
    rows, so decompose_joint runs no kernels.primitive_row; intersect ran
    one per equation row when subspaces held Fraction rows."""
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    calls = []
    primitive_row = kernels.primitive_row
    monkeypatch.setattr(kernels, "primitive_row", lambda entries: calls.append(1) or primitive_row(entries))
    assert decompose_joint(triple_2b, axes).complete
    assert calls == []


def test_perp_space_clears_no_denominators_in_partial_decomposition(monkeypatch, triple_2b):
    """Work counter: perp_space multiplies the Gram matrix's integer columns
    into the canonical rows and reads one null basis, so it runs no
    kernels.primitive_row; it ran one per Fraction constraint row when it
    went through mat_vec and kernel."""
    axes = [check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)]
    calls, inside = [], []
    primitive_row, perp_space = kernels.primitive_row, axial.decomp.perp_space

    def counting_perp(s, gram):
        inside.append(1)
        try:
            return perp_space(s, gram)
        finally:
            inside.pop()

    # each primitive_row call records whether it ran inside perp_space
    monkeypatch.setattr(kernels, "primitive_row", lambda entries: calls.append(bool(inside)) or primitive_row(entries))
    monkeypatch.setattr(axial.decomp, "perp_space", counting_perp)
    dec = partial_decomposition(triple_2b, axes)
    assert dec.a_sharp is not None and dec.a_sharp.dim + dec.a_circ.dim == 7
    assert not any(calls)


def test_decompose_joint_refines_with_few_intersections(monkeypatch):
    """S8 with four commuting axes needs 60 meets when the parts are refined
    axis by axis; intersecting every tuple of eigenvalues took 165."""
    alg, axes = commuting_axes(8, 4, F(1, 4))
    calls = []
    meet = axial.decomp.intersect
    monkeypatch.setattr(axial.decomp, "intersect", lambda s1, s2: calls.append(1) or meet(s1, s2))
    decompose_joint(alg, axes)
    assert len(calls) <= 60


def test_decompose_joint_at_paper_scale():
    """The 66-dimensional Matsuo algebra of S12 splits under the six
    commuting transposition axes into 28 joint eigenspaces."""
    alg, axes = commuting_axes(12, 6, F(1, 4))
    dec = decompose_joint(alg, axes)
    assert len(dec.components) == 28
    assert dec.complete


class _UnitPairing:
    """Stands in for an algebra in which every probe pairing is 1."""

    def product(self, x, y):
        return x

    def form_value(self, x, y):
        return F(1)


probe_kinds = st.sampled_from(["triple", "long"])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sign_kernel_matches_brute_force_filter(data):
    k = data.draw(st.integers(0, 8))
    component = st.integers(0, max(k - 1, 0))
    combos = st.tuples(st.tuples(component, component, component), probe_kinds)
    probes = [
        PairingProbe(combo, ((F(1),),) * 3, kind)
        for combo, kind in data.draw(st.lists(combos, max_size=10 if k else 0))
    ]
    result = sign_kernel(_UnitPairing(), [None] * k, probes)
    assert result.admissible == reference_sign_filter(k, [p.parity(k) for p in probes])


def test_sign_kernel_lists_only_the_answer():
    """Forty components tied by 38 independent triples leave four sign
    tuples; listing them must not walk all 2^40 candidates."""
    k = 40
    probes = [PairingProbe((i, i + 1, i + 2), ((F(1),),) * 3) for i in range(k - 2)]
    result = sign_kernel(_UnitPairing(), [None] * k, probes)
    assert result.order == 4
    for signs in result.admissible:
        assert all(signs[i] * signs[i + 1] * signs[i + 2] == 1 for i in range(k - 2))

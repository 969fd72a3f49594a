from fractions import Fraction as F
from pathlib import Path

import pytest
from math import gcd

from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from axial._backend import kernels
from axial.linalg import (
    MODULUS,
    IntegerMap,
    Subspace,
    canonical_span,
    combination,
    det,
    eigenspace,
    full_space,
    identity,
    integer_point,
    intersect,
    inverse,
    kernel,
    mat,
    mat_mul,
    mat_vec,
    null_basis,
    perp_space,
    rref,
    solve,
    sparse_kernel,
    unit_vec,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from axial.fusion import derivation_space
from axial.io import parse_algebra
from axial.matsuo import matsuo_algebra, symmetric_transpositions
from axial.univariate import irreducible_factors
from oracles import (
    det_fraction,
    reference_char_poly,
    reference_coordinates,
    reference_intersect,
    reference_kernel,
    reference_rational_roots,
    reference_rref,
    reference_semisimple_spectrum,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_rref_identity():
    m = identity(3)
    reduced, rank, pivots = rref(m)
    assert reduced == m
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = mat([[0] * 4, [0] * 4])
    reduced, rank, _ = rref(m)
    assert reduced == m
    assert rank == 0


def test_rref_dependent_rows():
    reduced, rank, _ = rref(mat([[1, 2], [2, 4]]))
    assert reduced == mat([[1, 2], [0, 0]])
    assert rank == 1


def test_kernel_identity_and_zero():
    assert kernel(identity(4)).is_zero()
    assert kernel(mat([[0] * 3 for _ in range(3)])).dim == 3


def test_kernel_line():
    assert kernel(mat([[1, 1]])).basis == (vec([1, -1]),)


def test_eigenspace_diagonal():
    m = mat([[1, 0, 0], [0, 0, 0], [0, 0, F(1, 4)]])
    assert eigenspace(m, F(1, 4)).basis == (unit_vec(3, 2),)
    assert eigenspace(m, F(1, 2)).is_zero()


def test_intersect_basics():
    s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    t = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(s, s) == s
    assert intersect(s, Subspace(3)).is_zero()
    assert intersect(s, t).basis == (unit_vec(3, 1),)


@st.composite
def subspace_pairs(draw):
    """Two subspaces of Q^n, n <= 6, each spanned by up to n + 1 vectors with
    mostly zero entries, so dimensions from 0 to n all occur."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), fractions)

    def space():
        count = draw(st.integers(0, n + 1))
        return Subspace(n, [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(count)])

    return space(), space()


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_intersect_matches_reference(pair):
    s1, s2 = pair
    meet = intersect(s1, s2)
    expected = reference_intersect(s1, s2)
    assert (meet.basis, meet.pivots) == (expected.basis, expected.pivots)
    assert s1.contains_subspace(meet) and s2.contains_subspace(meet)
    assert intersect(s2, s1) == meet


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(Subspace(2, [[1, 0]]), Subspace(3, [[1, 0, 0]]))


def test_perp_full_and_zero():
    g = identity(3)
    assert perp_space(full_space(3), g).is_zero()
    assert perp_space(Subspace(3), g).dim == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=3))
def test_perp_involution(vectors):
    # with a nondegenerate form, (S-perp)-perp recovers S
    g = mat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    s = Subspace(4, vectors)
    assert perp_space(perp_space(s, g), g) == s


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=4)
)
def test_rank_nullity(rows):
    m = mat(rows)
    _, rank, _ = rref(m)
    assert kernel(m).dim + rank == 4


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(F(0)), fractions), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
)
def test_kernel_is_the_canonical_null_basis(rows):
    # kernel reads the canonical basis off one echelon of the column-reversed
    # matrix; the forward read and second RREF it replaced give the same
    # basis and pivots.
    m = mat(rows)
    got = kernel(m)
    expected = reference_kernel(m, len(m[0]))
    assert (got.basis, got.pivots) == expected
    _assert_canonical_null_basis([kernels.primitive_row(enumerate(row)) for row in m], len(m[0]), expected)


def _assert_canonical_null_basis(rows, ncols, expected):
    """`null_basis` of integer rows: each vector primitive, its entries
    sorted by index, its first entry positive and at the free column that is
    the pivot of its canonical basis row; its canonical span is `expected`."""
    basis = null_basis(rows, ncols)
    for x in basis:
        indices = [i for i, _ in x]
        assert indices == sorted(set(indices))
        assert all(c for _, c in x) and gcd(*(c for _, c in x)) == 1 and x[0][1] > 0
    assert tuple(x[0][0] for x in basis) == expected[1]
    got = canonical_span(basis, ncols)
    assert (got.basis, got.pivots) == expected


def test_eigenspace_runs_one_echelon(monkeypatch):
    alg = matsuo_algebra(symmetric_transpositions(4), F(1, 4))
    m = alg.ad_matrix(unit_vec(alg.dim, 0))
    calls = []
    original = kernels.echelon

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(kernels, "echelon", counting)
    dims = [eigenspace(m, lam).dim for lam in (F(1), F(0), F(1, 4), F(1, 2))]
    assert dims == [1, 3, 2, 0]
    assert len(calls) == 4


def test_every_elimination_runs_the_one_reduction_step(monkeypatch):
    # rref, the exact stage of sparse_kernel and its mod-p screen all reduce
    # rows through kernels.eliminate, over Z or modulo MODULUS.
    calls = []
    original = kernels.eliminate

    def counting(work, prow, col, modulus=0):
        calls.append(modulus)
        return original(work, prow, col, modulus)

    monkeypatch.setattr(kernels, "eliminate", counting)
    assert rref(mat([[1, 2], [3, 4]]))[2] == [0, 1]
    assert calls == [0, 0]
    calls.clear()
    # at 1/2 the Leibniz system of Matsuo S5 is rank deficient mod p, so its
    # kernel is solved exactly; no dense rref runs
    monkeypatch.setattr(kernels, "rref", None)
    alg = matsuo_algebra(symmetric_transpositions(5), F(1, 2))
    assert derivation_space(alg).dim == 6
    assert calls.count(MODULUS) > 0 and calls.count(0) > 0
    assert set(calls) == {0, MODULUS}


def test_solve_and_det():
    a = mat([[2, 1], [1, 3]])
    assert det(a) == 5
    x = solve(a, vec([3, 4]))
    assert mat_vec(a, x) == vec([3, 4])
    assert solve(mat([[1, 1], [1, 1]]), vec([0, 1])) is None
    # consistent but underdetermined
    assert solve(mat([[1, 1], [2, 2]]), vec([1, 2])) is None
    assert solve(mat([[1, 2, 3]]), vec([0])) is None
    assert solve((), ()) == ()


def test_char_poly_companion():
    # companion matrix of t^2 - t - 1, whose roots are irrational
    m = mat([[0, 1], [1, 1]])
    assert reference_char_poly(m) == [F(-1), F(-1), F(1)]
    assert reference_rational_roots(reference_char_poly(m)) == []


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return mat([[draw(fractions) for _ in range(n)] for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_det_and_char_poly_match_the_oracles(m):
    assert det(m) == det_fraction(m)


@pytest.mark.parametrize("eta", ["1/2", "1/4", "1/3", "2/5", "3/8", "2"])
@pytest.mark.parametrize("degree", [4, 5, 6])
def test_det_and_char_poly_match_the_oracles_on_matsuo(degree, eta):
    alg = matsuo_algebra(symmetric_transpositions(degree), F(eta))
    u = vec(F(i % 5 - 2, i % 3 + 1) for i in range(alg.dim))
    m = alg.ad_matrix(u)
    assert det(m) == det_fraction(m)


def sympy_det(m):
    """The determinant by sympy's DomainMatrix over QQ."""
    n = len(m)
    d = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m], (n, n), QQ).det()
    return F(int(d.numerator), int(d.denominator))


@st.composite
def sparse_or_singular_matrices(draw):
    """Square matrices up to 7 x 7, mostly zeros or with a dependent row."""
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.just(F(0)), fractions) if draw(st.booleans()) else fractions
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(fractions)
        rows[j] = [c * x for x in rows[i]]
    return mat(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_or_singular_matrices())
def test_det_matches_sympy(m):
    assert det(m) == sympy_det(m)


@pytest.mark.parametrize(
    "source", ["S3", "S4", "S5", "S6", "S7", "q2.alg", "triple2b.alg"]
)
def test_det_matches_sympy_on_gram_matrices(source):
    if source.startswith("S"):
        alg = matsuo_algebra(symmetric_transpositions(int(source[1])), F(1, 4))
    else:
        alg = parse_algebra(FIXTURES / source).algebra
    assert alg.gram is not None
    assert det(alg.gram) == sympy_det(alg.gram)


def test_det_and_char_poly_edge_cases():
    assert det(()) == 1
    assert reference_char_poly(()) == [1]
    with pytest.raises(ValueError, match="non-square"):
        det(mat([[1, 2]]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(fractions, st.lists(fractions, min_size=3, max_size=3)), max_size=4
    )
)
def test_combination_is_the_sum_of_scaled_vectors(terms):
    want = zero_vec(3)
    for c, v in terms:
        want = vadd(want, vscale(c, vec(v)))
    got = combination([c for c, _ in terms], [vec(v) for _, v in terms], 3)
    assert got == want
    assert all(isinstance(x, F) for x in got)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(fractions, max_size=4), st.lists(fractions, max_size=3))
def test_reference_rational_roots_are_the_linear_factors(roots, cofactor):
    # the product of (t - r) over the drawn roots and a drawn monic cofactor,
    # which may add roots, repeat them or have none
    coeffs = [F(1)]
    for factor in [[-r, 1] for r in roots] + [cofactor + [1]]:
        product = [F(0)] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        coeffs = product
    linear = [F(-f[0], f[1]) for f, _ in irreducible_factors(coeffs) if len(f) == 2]
    assert reference_rational_roots(coeffs) == sorted(linear)


def test_spectrum_diagonal():
    pairs, defect = reference_semisimple_spectrum(mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert defect == 0
    dims = {str(lam): space.dim for lam, space in pairs}
    assert dims == {"1": 1, "0": 2}


def test_spectrum_jordan_block_flagged():
    _, defect = reference_semisimple_spectrum(mat([[0, 1], [0, 0]]))
    assert defect == 1


def test_spectrum_irrational_flagged():
    pairs, defect = reference_semisimple_spectrum(mat([[0, 2], [1, 0]]))  # eigenvalues +-sqrt(2)
    assert pairs == [] and defect == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3))
def test_spectrum_exactness(rows):
    pairs, defect = reference_semisimple_spectrum(mat(rows))
    total = 0
    for lam, space in pairs:
        assert not space.is_zero()
        total += space.dim
        for b in space.basis:
            assert mat_vec(mat(rows), b) == vec([lam * x for x in b])
    assert total + defect == 3


def test_subspace_membership_and_coordinates():
    s = Subspace(3, [[1, 2, 0], [0, 0, 1]])
    v = vec([2, 4, 5])
    assert s.contains(v)
    coords = s.coordinates(v)
    assert coords == vec([2, 5])
    assert not s.contains(vec([1, 0, 0]))
    assert s.coordinates(vec([1, 0, 0])) is None


def test_coordinates_and_contains_reject_a_vector_of_the_wrong_length():
    s = Subspace(3, [(1, 0, 0)])
    for v in (vec([1, 0]), vec([1, 0, 0, 0])):
        with pytest.raises(ValueError):
            s.coordinates(v)
        with pytest.raises(ValueError):
            s.contains(v)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.one_of(st.just(F(0)), fractions), min_size=n, max_size=n),
                min_size=0,
                max_size=n + 1,
            ),
            st.lists(st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(5, 7)]), min_size=n + 1, max_size=n + 1),
            st.randoms(use_true_random=False),
        )
    )
)
def test_every_constructor_gives_the_one_canonical_form(case):
    # Subspace(n, vectors) echelons its rows and intersect reads a null basis;
    # rescaled, permuted generators and either route give equal data, whose
    # Fraction rows are the RREF of the dense reference and whose integer
    # rows are primitive with a positive pivot entry.
    vectors, scales, rng = case
    n = len(scales) - 1
    s = Subspace(n, vectors)
    rescaled = [vscale(c, v) for c, v in zip(scales, vectors)]
    rng.shuffle(rescaled)
    others = (Subspace(n, rescaled), intersect(s, full_space(n)))
    rows = [list(vec(v)) for v in vectors]
    pivots = reference_rref(rows)
    expected = tuple(tuple(row) for row in rows[: len(pivots)])
    for t in (s,) + others:
        assert t == s and hash(t) == hash(s)
        assert (t.basis, t.pivots) == (expected, tuple(pivots))
        for row in t.rows:
            assert row[0][1] > 0 and gcd(*(x for _, x in row)) == 1


square_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=80, deadline=None)
@given(square_matrices)
def test_inverse_is_two_sided_or_none(rows):
    m = mat(rows)
    inv = inverse(m)
    if det(m) == 0:
        assert inv is None
    else:
        assert mat_mul(m, inv) == identity(len(m))
        assert mat_mul(inv, m) == identity(len(m))


def test_inverse_of_a_singular_matrix_is_none():
    assert inverse(mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) is None
    assert inverse(mat([[0, 0], [0, 0]])) is None
    with pytest.raises(ValueError):
        inverse(mat([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=0, max_size=4),
    st.lists(fractions, min_size=4, max_size=4),
    st.lists(fractions, min_size=4, max_size=4),
    st.booleans(),
)
def test_coordinates_match_reference_solve(vectors, coeffs, outside, inside):
    s = Subspace(4, vectors)
    if inside:
        v = zero_vec(4)
        for c, b in zip(coeffs, s.basis):
            v = vadd(v, vscale(c, b))
    else:
        v = vec(outside)
    coords = s.coordinates(v)
    assert coords == reference_coordinates(s.basis, v)
    assert s.contains(v) == (coords is not None)
    if inside:
        assert coords == vec(coeffs[: s.dim])


# mostly zero entries: three draws in four are 0
sparse_entries = st.tuples(st.integers(0, 3), fractions).map(lambda p: p[1] if p[0] == 0 else F(0))


@st.composite
def square_pairs(draw):
    """Two sparse square matrices of one size and a vector of that length."""
    n = draw(st.integers(0, 4))

    def matrix():
        return tuple(tuple(draw(sparse_entries) for _ in range(n)) for _ in range(n))

    return matrix(), matrix(), tuple(draw(fractions) for _ in range(n))


def _written(m, form):
    """m as a user may write it: tuples of Fractions, lists of strings, or
    lists of ints where an entry is an integer."""
    if form == "tuples":
        return m
    if form == "strings":
        return [[str(x) for x in row] for row in m]
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in m]


ZERO_3 = ((F(0),) * 3,) * 3


@settings(max_examples=150, deadline=None)
@given(square_pairs(), st.sampled_from(["tuples", "strings", "ints"]))
@example((ZERO_3, ZERO_3, (F(1), F(-1, 2), F(0))), "ints")
@example((ZERO_3, identity(3), (F(0),) * 3), "strings")
def test_integer_map_matches_dense_arithmetic(triple, form):
    # from_matrix, compose, equality, hashing and image against mat, mat_mul
    # and mat_vec, with zero columns and the zero matrix among the inputs
    a, b, v = triple
    g = IntegerMap.from_matrix(_written(a, form))
    h = IntegerMap.from_matrix(b)
    assert g.matrix() == mat(a)
    assert g.compose(h).matrix() == mat_mul(a, b)
    assert g == IntegerMap.from_matrix(a) and hash(g) == hash(IntegerMap.from_matrix(a))
    assert (g == h) == (mat(a) == mat(b))
    assert g.denom > 0 and gcd(g.denom, *(x for col in g.cols for _, x in col)) == 1
    assert g.image(integer_point(v)) == integer_point(mat_vec(a, v))


def test_integer_map_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="not a square matrix"):
        IntegerMap.from_matrix([[1, 0, 0], [0, 1, 0]])


@st.composite
def product_shapes(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(r, c):
        return tuple(tuple(draw(sparse_entries) for _ in range(c)) for _ in range(r))

    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=80, deadline=None)
@given(product_shapes())
def test_mat_mul_matches_triple_loop(pair):
    a, b = pair
    inner = len(b)
    cols = len(b[0]) if b else 0
    want = tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols))
        for row in a
    )
    got = mat_mul(a, b)
    assert got == want
    assert all(type(x) is F for row in got for x in row)
    for j in range(cols):
        column = tuple(b[k][j] for k in range(inner))
        products = mat_vec(a, column)
        assert products == tuple(row[j] for row in want)
        assert all(type(x) is F for x in products)


def _dense(rows, ncols):
    return mat([[row.get(c, 0) for c in range(ncols)] for row in rows])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.tuples(
            st.just(ncols),
            st.lists(
                st.dictionaries(st.integers(0, ncols - 1), fractions, max_size=3),
                max_size=8,
            ),
        )
    )
)
def test_sparse_kernel_matches_dense_kernel(system):
    ncols, rows = system
    got = sparse_kernel(rows, ncols)
    expected = reference_kernel(_dense(rows, ncols), ncols)
    assert (got.basis, got.pivots) == expected
    _assert_canonical_null_basis([kernels.primitive_row(row.items()) for row in rows], ncols, expected)


def test_sparse_kernel_checks_the_kept_rows_against_every_row(monkeypatch):
    # The rows agree mod p, so only the first is kept; its null space is
    # spanned by (-1, 1), which the second row does not kill (it gives p),
    # so the whole system is solved and its null space is zero.
    sizes = []
    original = kernels.echelon

    def counting(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(kernels, "echelon", counting)
    assert sparse_kernel([{0: 1, 1: 1}, {0: 1, 1: 1 + MODULUS}], 2).is_zero()
    assert sizes == [1, 2]


def test_sparse_kernel_certificate_directions():
    # the rows differ by (0, 2**31 - 1), which vanishes mod the prime: the
    # screen sees rank 1, which proves nothing, and the exact solve finds 0.
    p = F(MODULUS)
    assert sparse_kernel([{0: F(1), 1: F(1)}, {0: F(1), 1: 1 + p}], 2).is_zero()
    # 1/(2**31 - 1) has no inverse mod p; the row is scaled to integers first.
    assert sparse_kernel([{0: 1 / p}, {0: F(1), 1: F(2)}], 2).is_zero()
    # a true deficit is solved exactly
    assert sparse_kernel([{0: F(1), 1: p}], 2) == Subspace(2, [vec([-p, 1])])
    assert sparse_kernel([], 3) == full_space(3)
    assert sparse_kernel([], 0) == Subspace(0)

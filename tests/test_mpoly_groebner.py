from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from axial import groebner, search
from axial.algebra import diagonal_algebra
from axial.groebner import (
    CapExceeded,
    NEEDS_EXTENSION,
    POSITIVE_DIMENSIONAL,
    NotZeroDimensional,
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
from axial.linalg import unit_vec
from axial.mpoly import MPoly
from axial.search import idempotent_system
from oracles import reference_buchberger, reference_enumerate_points


def xvar(n, i):
    return MPoly.var(n, i)


def test_mpoly_arithmetic_roundtrip():
    x, y = xvar(2, 0), xvar(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.evaluate([F(3), F(2)]) == 5
    assert p.substitute({1: F(2)}) == x * x - 4


def test_mpoly_evaluate_rejects_a_point_of_the_wrong_length():
    x, y = xvar(2, 0), xvar(2, 1)
    with pytest.raises(ValueError):
        (x + y).evaluate([1])
    with pytest.raises(ValueError):
        (x + y).evaluate([1, 2, 3])


def test_mpoly_rejects_a_negative_power():
    with pytest.raises(ValueError):
        xvar(2, 0) ** -1


def test_mpoly_checks_exponent_length_of_zero_terms():
    with pytest.raises(ValueError):
        MPoly(2, {(1, 0, 0): 0})


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


# Systems on which the all-pairs oracle runs for long, each with the reduced
# basis reference_buchberger computed for it once: the first (135 s) was
# drawn under --hypothesis-seed=1, the second (7 s) is in the draw of
# @seed(1) below.
SLOW_SYSTEMS = [
    (
        [
            {(1, 1, 0): F(-3, 2), (0, 2, 1): F(-9, 4), (2, 1, 2): F(7, 3)},
            {(0, 2, 0): F(-2, 3), (2, 1, 0): F(2, 3), (1, 2, 2): F(1, 3)},
            {(1, 0, 2): F(5, 2), (1, 1, 1): F(-3), (1, 2, 2): F(-5, 2)},
            {(2, 0, 1): F(-2), (1, 1, 1): F(3), (1, 0, 0): F(1)},
        ],
        [{(1, 0, 0): F(1)}, {(0, 2, 0): F(1)}],
    ),
    (
        [
            {
                (1, 2, 0): F(3),
                (2, 0, 0): F(-7, 4),
                (1, 0, 0): F(-5, 3),
            },
            {
                (2, 2, 1): F(2, 3),
                (0, 2, 1): F(-5, 4),
                (2, 2, 0): F(1, 3),
            },
            {
                (0, 2, 0): F(-2, 3),
                (0, 1, 2): F(5, 3),
                (1, 1, 2): F(3),
            },
        ],
        [
            {
                (2, 0, 0): F(1),
                (1, 0, 0): F(20, 21),
                (0, 1, 12): F(-3832065377401966519535, 93281101349393376),
                (0, 1, 11): F(-371632180740532129715, 11660137668674172),
                (0, 1, 10): F(204993049228469055, 55981456571138),
                (0, 1, 9): F(-158255784885893670, 27990728285569),
                (0, 1, 8): F(39743814498318404590, 26235309754516887),
                (0, 1, 7): F(-27767399840401079590, 26235309754516887),
                (0, 1, 6): F(1338814025129970, 3998675469367),
                (0, 1, 5): F(-2099017896687270, 27990728285569),
                (0, 1, 4): F(561088225580700837323, 6611298058138255524),
                (0, 1, 3): F(-144185098056029804365, 13222596116276511048),
            },
            {
                (1, 1, 2): F(1),
                (0, 1, 12): F(-248695588883111204975, 20729133633198528),
                (0, 1, 11): F(-14913646690090244915, 2591141704149816),
                (0, 1, 10): F(-153219140234415, 15994701877468),
                (0, 1, 9): F(-3547765026763245, 3998675469367),
                (0, 1, 8): F(400141142710126415, 2915034417168543),
                (0, 1, 7): F(-380807279219118335, 2915034417168543),
                (0, 1, 6): F(96461463851175, 3998675469367),
                (0, 1, 5): F(37996974450000, 3998675469367),
                (0, 1, 4): F(1488522536524569065, 209882478036135096),
                (0, 1, 3): F(1610082537185122601, 419764956072270192),
            },
            {
                (0, 2, 0): F(1),
                (0, 1, 12): F(-248695588883111204975, 4606474140710784),
                (0, 1, 11): F(-14913646690090244915, 575809267588848),
                (0, 1, 10): F(-1378972262109735, 31989403754936),
                (0, 1, 9): F(-31929885240869205, 7997350938734),
                (0, 1, 8): F(400141142710126415, 647785426037454),
                (0, 1, 7): F(-380807279219118335, 647785426037454),
                (0, 1, 6): F(868153174660575, 7997350938734),
                (0, 1, 5): F(170986385025000, 3998675469367),
                (0, 1, 4): F(1488522536524569065, 46640550674696688),
                (0, 1, 3): F(1610082537185122601, 93281101349393376),
                (0, 1, 2): F(-5, 2),
            },
            {
                (0, 1, 13): F(1),
                (0, 1, 12): F(-40, 203),
                (0, 1, 11): F(400, 41209),
                (0, 1, 9): F(32, 370881),
                (0, 1, 8): F(-1264, 370881),
                (0, 1, 7): F(-640, 370881),
                (0, 1, 5): F(-5464, 16689645),
                (0, 1, 4): F(-172, 16689645),
                (0, 1, 3): F(256, 3337929),
            },
        ],
    ),
]


def _reference_basis(term_dicts, gens, caps):
    for system, basis in SLOW_SYSTEMS:
        if system == term_dicts:
            return [MPoly(3, terms) for terms in basis]
    return reference_buchberger(gens, caps)


@seed(1)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
@example(SLOW_SYSTEMS[0][0])
def test_buchberger_matches_reference_engine(term_dicts):
    gens = [MPoly(3, terms) for terms in term_dicts]
    assume(any(gens))
    caps = SolverCaps(max_basis=64, max_degree=24, max_pairs=5000)
    try:
        want = _reference_basis(term_dicts, gens, caps)
    except CapExceeded:
        assume(False)
    assert buchberger(gens, caps) == want


def test_buchberger_passes_the_degree_cap_where_the_all_pairs_loop_does_not():
    # Drawn under --hypothesis-seed=3.  Under the differential test's caps the
    # all-pairs oracle returns the basis below after 724 s, while the pruned
    # pair order reaches a remainder of degree above 24 within a second; with
    # the default caps buchberger returns the same basis, in about 20 s.  So
    # this system cannot join the differential test; the stored basis is
    # checked to be a Groebner basis of an ideal holding every generator.
    gens = [
        MPoly(3, terms)
        for terms in (
            {(1, 0, 0): F(2), (0, 0, 2): F(-4, 3), (2, 0, 1): F(2)},
            {(1, 2, 2): F(1), (0, 0, 1): F(3, 2), (1, 0, 0): F(-2)},
            {(0, 2, 2): F(7, 4), (0, 2, 0): F(-2), (2, 1, 1): F(3)},
            {(0, 2, 1): F(-7, 3), (2, 1, 0): F(-1), (2, 2, 2): F(-3)},
        )
    ]
    oracle_basis = [
        MPoly(3, terms)
        for terms in (
            {(1, 0, 0): F(1), (0, 0, 1): F(-3, 4)},
            {(0, 2, 0): F(1)},
            {(0, 1, 1): F(1)},
            {(0, 0, 3): F(1), (0, 0, 2): F(-32, 27), (0, 0, 1): F(4, 3)},
        )
    ]
    assert is_groebner_basis(oracle_basis)
    assert all(normal_form(g, oracle_basis).is_zero() for g in gens)
    with pytest.raises(CapExceeded, match="degree limit 24"):
        buchberger(gens, SolverCaps(max_basis=64, max_degree=24, max_pairs=5000))


def test_buchberger_matches_reference_on_diagonal_idempotents():
    gens = idempotent_system(diagonal_algebra(3), [unit_vec(3, i) for i in range(3)])
    assert buchberger(gens) == reference_buchberger(gens)


@pytest.mark.parametrize("dim", [4, 5])
def test_buchberger_matches_reference_on_triple_2b(triple_2b, dim):
    gens = idempotent_system(triple_2b, [unit_vec(7, i) for i in range(dim)])
    assert buchberger(gens) == reference_buchberger(gens)


def test_buchberger_s_polynomial_count(triple_2b, monkeypatch):
    # Work counters: the numbers of S-pairs and of normal forms for the
    # idempotent system of triple2b on e1..e5 are deterministic, so they are
    # pinned exactly.  The all-pairs loop without the chain criterion reduced
    # 37 S-polynomials; 28 normal forms is the count of the Fraction-arithmetic
    # kernel, so the integer one on packed exponents made no other reduction
    # decision.
    calls = {"_s_pair": 0, "normal_form": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(groebner, "_s_pair")
    counting(groebner.kernels, "normal_form")
    gens = idempotent_system(triple_2b, [unit_vec(7, i) for i in range(5)])
    buchberger(gens)
    assert calls == {"_s_pair": 16, "normal_form": 28}


def test_buchberger_keeps_the_basis_integer(triple_2b, monkeypatch):
    # Basis elements stay primitive integer polynomials on packed exponents;
    # only the autoreduction divides by a lead, without MPoly arithmetic.
    gens = idempotent_system(triple_2b, [unit_vec(7, i) for i in range(5)])
    calls = []
    for name in ("monic", "scale"):
        original = getattr(MPoly, name)

        def wrapper(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(MPoly, name, wrapper)
    basis = buchberger(gens)
    assert calls == []
    assert all(g.lead()[1] == 1 for g in basis)


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


def test_a_branch_without_an_eliminant_is_not_a_cap():
    # enumerate_points hands the extraction only bases that pass the
    # leading-term test, so the branch goes to it directly: x0 = x1 has no
    # eliminant in x1.  That is a wrong assumption about the input, not a hit
    # resource limit.
    x0, x1 = xvar(2, 0), xvar(2, 1)
    with pytest.raises(NotZeroDimensional, match="no eliminant found"):
        groebner._extract(groebner._integer_levels([x0 - x1]), (), [], [], {})


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


def test_pair_cap_counts_reduced_pairs():
    x, y = xvar(2, 0), xvar(2, 1)
    gens = [x * x * x - y, x * y * y - x - 1, y * y * y - x * x]
    with pytest.raises(CapExceeded, match="pair limit 1"):
        buchberger(gens, SolverCaps(max_pairs=1))


def test_degree_cap_is_loud():
    x, y = xvar(2, 0), xvar(2, 1)
    # the reduced basis is [x - y**2, y**3 - 1]: it needs degree 3
    gens = [x * x - y, x * y - 1]
    assert buchberger(gens) == [x - y * y, y * y * y - 1]
    with pytest.raises(CapExceeded, match="degree limit 2"):
        buchberger(gens, SolverCaps(max_degree=2))


def test_deadline_is_checked_inside_one_normal_form(monkeypatch):
    import traceback

    x, y = xvar(2, 0), xvar(2, 1)
    gens = [x * x * x - y, x * y * y - x - 1, y * y * y - x * x]
    readings = iter([0.0])  # the start; every later reading is past the deadline
    monkeypatch.setattr(groebner, "monotonic", lambda: next(readings, 100.0))
    with pytest.raises(CapExceeded, match="deadline of 10.0 s exceeded") as info:
        buchberger(gens, SolverCaps(max_seconds=10.0))
    # raised while reducing the second generator, before any pair is popped
    frames = traceback.extract_tb(info.tb)
    assert frames[-2].name == "normal_form" and frames[-2].filename.endswith("_kernels_py.py")


def test_deadline_is_checked_for_each_pair(monkeypatch):
    x, y = xvar(2, 0), xvar(2, 1)
    gens = [x * x * x - y, x * y * y - x - 1, y * y * y - x * x]
    popped = []
    original = groebner._s_pair

    def counted(*args):
        popped.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "_s_pair", counted)
    # a kernel that reads no clock and leaves its input alone
    monkeypatch.setattr(groebner.kernels, "normal_form", lambda work, *a, **k: work)
    readings = iter([0.0, 1.0])  # the start and the first pair, then past the deadline
    monkeypatch.setattr(groebner, "monotonic", lambda: next(readings, 100.0))
    with pytest.raises(CapExceeded, match="deadline of 10.0 s exceeded"):
        buchberger(gens, SolverCaps(max_seconds=10.0))
    assert len(popped) == 1


def test_a_tiny_deadline_stops_buchberger():
    x, y = xvar(2, 0), xvar(2, 1)
    gens = [x * x * x - y, x * y * y - x - 1, y * y * y - x * x]
    with pytest.raises(CapExceeded, match="deadline"):
        buchberger(gens, SolverCaps(max_seconds=1e-9))


def test_no_deadline_reads_no_clock(monkeypatch):
    def clock():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(groebner, "monotonic", clock)
    x, y = xvar(2, 0), xvar(2, 1)
    assert buchberger([x * x - y, x * y - 1]) == [x - y * y, y * y * y - 1]


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


def test_certificate_search_refuses_a_large_kernel():
    # seven polynomials x + i leave a 6-dimensional kernel: 7**6 combinations
    x = xvar(1, 0)
    with pytest.raises(CapExceeded, match="kernel of dimension 6"):
        certify_no_common_root([x + i for i in range(7)])


def test_content_primes():
    assert content_primes(F(49, 128)) == [7]
    assert content_primes(F(12, 5)) == [2, 3]


def test_content_primes_of_large_primes_and_trivial_values():
    m61 = 2**61 - 1
    assert content_primes(F(m61)) == [m61]
    assert content_primes(F((2**31 - 1) * m61)) == [2**31 - 1, m61]
    assert content_primes(F(0)) == []
    assert content_primes(F(360, 7)) == [2, 3, 5]


def test_enumerate_points_reuses_the_given_basis(monkeypatch):
    # x0 = x1, x1^2 = 1: two branches, both read off the basis the caller
    # passes in; no branch needs a basis of its own
    x, y = xvar(2, 0), xvar(2, 1)
    gb = buchberger([x - y, y * y - 1])
    calls = []

    def counting(gens, caps=groebner.DEFAULT_CAPS):
        calls.append(gens)
        return buchberger(gens, caps)

    monkeypatch.setattr(groebner, "buchberger", counting)
    res = enumerate_points(gb)
    assert res.points == [(F(-1), F(-1)), (F(1), F(1))]
    assert calls == []


def test_naive_idempotents_computes_one_basis(monkeypatch):
    calls = []

    def counting(gens, caps=groebner.DEFAULT_CAPS):
        calls.append(gens)
        return buchberger(gens, caps)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(search, "buchberger", counting)
    res = search.naive_idempotents(diagonal_algebra(8))
    assert len(calls) == 1
    assert len(res.points) == 256
    assert res.points == sorted(set(res.points))


def test_extraction_splits_each_distinct_eliminant_once(monkeypatch):
    # Work counter: the 255 branch nodes of diagonal_algebra(8) each meet
    # x^2 - x at their level; it is split once per level, so 8 times, not
    # 255, and the 256 points are unchanged.
    calls = []
    original = groebner.linear_factors

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return original(coeffs)

    monkeypatch.setattr(groebner, "linear_factors", counting)
    res = search.naive_idempotents(diagonal_algebra(8))
    assert calls == [(0, -1, 1)] * 8
    assert len(res.points) == 256 and res.complete_over_closure


def test_a_vanishing_leading_coefficient_is_skipped():
    # V = {(1, 0), (2, 0), (3, 1)} with x0 > x1: at x1 = 0 the element
    # x0 x1 - 3 x1 specialises to 0 and x0^2 - 3 x0 + 2 - 2 x1 gives the
    # eliminant; at x1 = 1 the least degree picks x0 - 3, not x0^2 - 3 x0.
    x0, x1 = xvar(2, 0), xvar(2, 1)
    gb = buchberger([x1 * (x1 - 1), x1 * (x0 - 3), (x0 - 1) * (x0 - 2) * (1 - x1)])
    assert x0 * x1 - 3 * x1 in gb
    res = enumerate_points(gb)
    assert res.points == [(F(1), F(0)), (F(2), F(0)), (F(3), F(1))]
    assert res.complete_over_closure
    assert res == reference_enumerate_points(gb)


@st.composite
def zero_dimensional_systems(draw):
    """A univariate polynomial in each of 2 or 3 variables, with small integer
    roots and sometimes an irreducible quadratic factor, plus up to two
    random polynomials that cut the variety down, often to nothing."""
    nvars = draw(st.integers(2, 3))
    gens = []
    for i in range(nvars):
        x = xvar(nvars, i)
        poly = MPoly.const(nvars, 1)
        for r in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)):
            poly = poly * (x - r)
        if draw(st.booleans()):
            poly = poly * (x * x - draw(st.sampled_from([2, 3, -1])))
        gens.append(poly)
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 1)] * nvars),
                st.integers(-2, 2).filter(bool),
                min_size=1,
                max_size=4,
            )
        )
        gens.append(MPoly(nvars, terms))
    return gens


@settings(max_examples=80, deadline=None, derandomize=True)
@given(zero_dimensional_systems())
def test_enumerate_points_matches_the_branch_recomputing_reference(gens):
    gb = buchberger(gens)
    res = enumerate_points(gb)
    ref = reference_enumerate_points(gb)
    assert (res.status, res.points, res.eliminant_factors) == (
        ref.status,
        ref.points,
        ref.eliminant_factors,
    )
    assert res.basis == ref.basis
    for p in res.points:
        assert all(g.evaluate(p) == 0 for g in gens)
    shuffled = res.points[::-1]
    groebner._sort_points(shuffled)
    assert shuffled == res.points == sorted(res.points)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_rank_sort_orders_points_as_sorted_does(n):
    points = search.naive_idempotents(diagonal_algebra(n)).points
    assert points == sorted(points) and len(points) == 2**n
    for shuffled in (points[::-1], points[1::2] + points[::2]):
        groebner._sort_points(shuffled)
        assert shuffled == points


def test_rank_sort_compares_values_not_numerators():
    # (2, 3) > (1, 1) as pairs but 2/3 < 1 as values
    points = [(F(1), F(-1, 2)), (F(2, 3), F(5)), (F(-7, 2), F(0)), (F(2, 3), F(-1, 3))]
    want = sorted(points)
    groebner._sort_points(points)
    assert points == want


@pytest.mark.parametrize(
    "build, status, npoints",
    [
        # empty variety: the basis is [1]
        (lambda x, y: [x * x - 1, y - 1, x * y - 2], "finite", 0),
        # y^2 = 2 at the root, so no branch reaches x
        (lambda x, y: [(y * y - 2) * (y - 1), x - y], NEEDS_EXTENSION, 1),
        # x^2 = 3 over each rational y
        (lambda x, y: [x * x - 3, y * (y - 1)], NEEDS_EXTENSION, 0),
    ],
)
def test_enumerate_points_matches_the_reference_on_edge_cases(build, status, npoints):
    gb = buchberger(build(xvar(2, 0), xvar(2, 1)))
    res = enumerate_points(gb)
    assert res.status == status and len(res.points) == npoints
    ref = reference_enumerate_points(gb)
    assert (res.status, res.points, res.eliminant_factors) == (
        ref.status,
        ref.points,
        ref.eliminant_factors,
    )

"""Properties of the hot kernels: RREF output is reduced, normal forms are irreducible."""

from hypothesis import given, settings, strategies as st

from axial import _kernels_py

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

    target = poly()
    divisors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = poly()
        lead = max(terms)
        tail = [(e, c) for e, c in terms.items() if e != lead]
        divisors.append((lead, terms[lead], tail))
    return target, divisors


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
@given(reduction_instances())
def test_normal_form_terms_are_irreducible(instance):
    target, divisors = instance
    result = _kernels_py.normal_form(dict(target), divisors)
    for exp, coeff in result.items():
        assert coeff != 0
        for lead, _, _ in divisors:
            assert not _kernels_py.exp_divides(lead, exp)


def test_backend_reports_something():
    from axial import kernel_backend

    assert kernel_backend() == "pure"

"""The integer structure-constant table of an algebra and the paths built on it.

`Algebra.integer_table` feeds the axis certificate, `infer_fusion_law`,
`derivation_space` and the Frobenius check.  These tests compare each path
with its oracle on rational and edge-case constants, and count the work:
the table is built once per algebra and no dense adjoint is formed.
"""

from fractions import Fraction as F
from pathlib import Path

import pytest

from axial import algebra as algebra_module
from axial.algebra import Algebra, IntegerAdjoint, IntegerTable, direct_sum
from axial.fusion import (
    MONSTER_QUARTER,
    check_axis,
    check_axis_verbose,
    derivation_space,
    infer_fusion_law,
    jordan_law,
    monster_law,
)
from axial.io import parse_algebra, parse_law_spec
from axial.linalg import MODULUS, eigenspace, unit_vec, vadd, vec, vsub
from axial.matsuo import matsuo_algebra, symmetric_transpositions, transposition_perm
from oracles import (
    dense,
    reference_ad_matrix,
    reference_check_axis,
    reference_derivation_space,
    reference_frobenius_violation,
    reference_infer_fusion_law,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
P = F(MODULUS)


def rescale(alg: Algebra, factors) -> Algebra:
    """The same algebra in the basis b_i = c_i e_i (constants c_i c_j g_ijk / c_k)."""
    c = [F(x) for x in factors]
    n = alg.dim
    gamma = [(i, j, k, c[i] * c[j] * x / c[k]) for (i, j), row in alg.table.items() for k, x in row]
    gram = [[c[i] * c[j] * alg.gram[i][j] for j in range(n)] for i in range(n)]
    unit = [alg.unit[k] / c[k] for k in range(n)] if alg.unit is not None else None
    return Algebra.from_gamma(n, gamma, gram=gram, unit=unit)


def _outcome(alg, v, law):
    """`check_axis_verbose` in the shape `reference_check_axis` returns."""
    axis, reason = check_axis_verbose(alg, v, law)
    if axis is None:
        return reason
    return axis.eigendata, dense(axis.miyamoto_map), dense(axis.sigma_map)


def _rational_cases():
    """(name, algebra, vectors, laws): fixtures in rescaled bases whose
    constants and axis coordinates have mixed denominators, the screening
    prime p and 1/p among them."""
    cases = []
    for name, factors in (
        ("triple2b", [F(-2, 3), F(3, 2), F(-1, 3), F(5, 7), 1, F(-1, 2), 3]),
        ("q2", [P, 1 / P, F(-2, 3), F(3, 2)]),
    ):
        parsed = parse_algebra(FIXTURES / f"{name}.alg")
        alg = rescale(parsed.algebra, factors)
        n = alg.dim
        axes = [vec(x / c for x, c in zip(v, factors)) for _, v in parsed.axes]
        one = alg.require_unit()
        vectors = axes + [vsub(one, axes[0]), vadd(axes[0], axes[1]), unit_vec(n, n - 1)]
        laws = [parse_law_spec(tag, parsed.law) for tag, _ in parsed.axes[:1]]
        laws += [MONSTER_QUARTER, jordan_law(F(1, 4)), monster_law(F(1, 2), F(1, 4))]
        cases.append((name, alg, vectors, laws))
    # e0 is an axis with e0 e1 = 1/4 e1, and e1 e1 = p e0 + (1/p) e2
    quarter = F(1, 4)
    edge = Algebra.from_gamma(
        3,
        [(0, 0, 0, 1), (0, 1, 1, quarter), (1, 1, 0, P), (1, 1, 2, 1 / P), (2, 2, 2, 1)],
    )
    vectors = [unit_vec(3, 0), unit_vec(3, 2), vec([1, 0, 1]), vec([P, 0, 0])]
    cases.append(("p and 1/p", edge, vectors, [jordan_law(quarter), MONSTER_QUARTER]))
    return cases


@pytest.mark.parametrize("case", _rational_cases(), ids=lambda case: case[0])
def test_integer_paths_match_references_on_rational_constants(case):
    name, alg, vectors, laws = case
    assert derivation_space(alg) == reference_derivation_space(alg)
    outcomes = set()
    for v in vectors:
        assert infer_fusion_law(alg, v) == reference_infer_fusion_law(alg, v), v
        for law in laws:
            outcome = _outcome(alg, v, law)
            assert outcome == reference_check_axis(alg, v, law), (law, v)
            outcomes.add(outcome.split(":")[0] if isinstance(outcome, str) else "axis")
    # the draws reach certified axes and failures alike
    assert "axis" in outcomes and len(outcomes) > 1, outcomes


def _perturbed(alg: Algebra, i: int, j: int, delta) -> Algebra:
    gram = [list(row) for row in alg.gram]
    gram[i][j] += delta
    if i != j:
        gram[j][i] += delta
    return Algebra(alg.dim, alg.table, tuple(tuple(row) for row in gram), check=False)


@pytest.mark.parametrize("case", _rational_cases()[:2], ids=lambda case: case[0])
def test_frobenius_violation_matches_reference_on_rational_grams(case):
    _, alg, _, _ = case
    assert alg._frobenius_violation() is None
    assert reference_frobenius_violation(alg) is None
    n = alg.dim
    failures = 0
    for i, j, delta in ((0, 0, F(1, 3)), (0, n - 1, F(-2, 5)), (1, 2, 1 / P), (n - 1, n - 1, P)):
        bad = _perturbed(alg, i, j, delta)
        got = bad._frobenius_violation()
        assert got == reference_frobenius_violation(bad), (i, j, delta)
        failures += got is not None
    assert failures > 0


def test_adjoint_eigenspace_matches_dense_eigenspace():
    for _, alg, vectors, _ in _rational_cases():
        for v in vectors:
            for lam in (F(1), F(0), F(1, 4), F(1, 32), F(-3, 4)):
                got = IntegerAdjoint(alg, vec(v), (lam,)).eigenspace(lam)
                assert got == eigenspace(reference_ad_matrix(alg, v), lam)


def test_integer_adjoint_rejects_an_eigenvalue_its_scale_does_not_clear():
    # The adjoint of e_0 on Matsuo S4 at 1/4 has scale D = 8, and D / 3 is
    # no integer: rounding D nu down read the 1/4-eigenspace (dimension 2)
    # as the 1/3-eigenspace, whose true dimension is 0.
    alg = matsuo_algebra(symmetric_transpositions(4), F(1, 4))
    adjoint = IntegerAdjoint(alg, unit_vec(alg.dim, 0), ())
    third = F(1, 3)
    for read in (
        lambda: adjoint.eigenspace(third),
        lambda: adjoint.lacks_eigenvalue(third),
        lambda: adjoint.scaled(third),
        lambda: adjoint.shift(third, {0: 1}),
    ):
        with pytest.raises(ValueError, match="1/3"):
            read()
    assert IntegerAdjoint(alg, unit_vec(alg.dim, 0), (third,)).eigenspace(third).is_zero()


def test_matsuo_s7_builds_one_table_and_no_adjoint_matrix(monkeypatch):
    # Work counter: 21 axis certificates and the derivation space of Matsuo
    # S7 at 1/4 read one integer table, built once (by the Frobenius check
    # at construction), and never form the dense adjoint matrix.
    data = symmetric_transpositions(7)
    counts = {"IntegerTable": 0, "ad_matrix": 0}

    def counting(name, original):
        def wrapped(*args):
            counts[name] += 1
            return original(*args)

        return wrapped

    monkeypatch.setattr(algebra_module, "IntegerTable", counting("IntegerTable", IntegerTable))
    monkeypatch.setattr(Algebra, "ad_matrix", counting("ad_matrix", Algebra.ad_matrix))
    alg = matsuo_algebra(data, F(1, 4))
    law = jordan_law(F(1, 4))
    assert all(check_axis(alg, unit_vec(data.size, i), law) for i in range(data.size))
    assert data.size == 21
    assert derivation_space(alg).is_zero()
    assert counts == {"IntegerTable": 1, "ad_matrix": 0}


def test_derived_algebras_build_their_own_tables():
    data = symmetric_transpositions(4)
    alg = matsuo_algebra(data, F(1, 4))
    ints = alg.integer_table()
    assert alg.integer_table() is ints
    assert ints.denom == 8
    assert ints.table == {
        key: tuple((k, int(c * 8)) for k, c in row) for key, row in alg.table.items()
    }
    pairs = ((1, 2), (1, 3), (2, 3))
    s3 = [unit_vec(data.size, data.index_of(transposition_perm(4, a, b))) for a, b in pairs]
    doubled = Algebra.from_gamma(
        alg.dim,
        [(i, j, k, 2 * c) for (i, j), row in alg.table.items() for k, c in row],
    )
    derived = [
        alg.restrict(s3),
        doubled,
        direct_sum(alg, matsuo_algebra(symmetric_transpositions(3), F(1, 3))),
    ]
    for new in derived:
        assert new.integer_table() is not ints
        assert new.integer_table() == Algebra(new.dim, new.table, check=False).integer_table()
        v = unit_vec(new.dim, 0)
        for law in (jordan_law(F(1, 4)), jordan_law(F(1, 2))):
            assert _outcome(new, v, law) == reference_check_axis(new, v, law)
        assert derivation_space(new) == reference_derivation_space(new)
    assert derived[1].integer_table().denom == 4
    partners = derived[2].integer_table().partners
    assert all(j >= alg.dim for i in range(alg.dim, derived[2].dim) for j, _ in partners[i])

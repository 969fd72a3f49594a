"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import os
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import OracleInconclusive, oracle_idempotents

from axial.algebra import diagonal_algebra
from axial.axet import Axet, NS_UNIT_LENGTHS, close_axet, miyamoto_group
from axial.cli import main as cli_main
from axial.decomp import (
    PairingProbe,
    SquareProbe,
    decompose_joint,
    extension_space,
    sign_kernel,
)
from axial.fusion import (
    MONSTER_QUARTER,
    check_axis,
    derivation_space,
    jordan_law,
    monster_law,
)
from axial.groebner import POSITIVE_DIMENSIONAL, certify_no_common_root, content_primes
from axial.io import parse_algebra, emit_algebra, parse_algebra_text
from axial.linalg import Subspace, det, identity, subspace_sum, unit_vec, vadd, vec, vscale, zero_vec
from axial.matsuo import (
    double_axes_and_flip,
    double_transposition_perm,
    matsuo_algebra,
    symmetric_transpositions,
)
from axial.mpoly import MPoly
from axial.search import (
    SearchConfig,
    axes_from_idempotents,
    idempotent_system,
    naive_idempotents,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextlib.contextmanager
def criterion(number, description):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    except BaseException as exc:
        if isinstance(exc, pytest.skip.Exception):
            outcome = "SKIP"
        raise
    finally:
        print(f"\n[acceptance] criterion {number:>2} ({description}): {outcome}")


# Structure constants of the 4-dimensional flip algebra, straight from the
# published multiplication table, basis order s1 s2 d1 d2.
Q2_TABLE = {
    (0, 0): {0: F(1)},
    (0, 1): {},
    (0, 2): {0: F(1, 4), 2: F(1, 8), 3: F(-1, 8)},
    (0, 3): {0: F(1, 4), 2: F(-1, 8), 3: F(1, 8)},
    (1, 1): {1: F(1)},
    (1, 2): {1: F(1, 4), 2: F(1, 8), 3: F(-1, 8)},
    (1, 3): {1: F(1, 4), 2: F(-1, 8), 3: F(1, 8)},
    (2, 2): {2: F(1)},
    (2, 3): {0: F(-1, 4), 1: F(-1, 4), 2: F(1, 4), 3: F(1, 4)},
    (3, 3): {3: F(1)},
}

Q2_GRAM = [
    [F(1), F(0), F(1, 4), F(1, 4)],
    [F(0), F(1), F(1, 4), F(1, 4)],
    [F(1, 4), F(1, 4), F(2), F(1, 2)],
    [F(1, 4), F(1, 4), F(1, 2), F(2)],
]


def test_criterion_1_q2_reconstruction():
    with criterion(1, "flip reconstruction of the 4-dim algebra"):
        start = time.monotonic()
        s4 = symmetric_transpositions(4)
        flip = double_axes_and_flip(
            s4, F(1, 4), double_transposition_perm(4, 1, 2, 3, 4)
        )
        alg = flip.algebra
        assert alg.dim == 4
        for (i, j), expected in Q2_TABLE.items():
            assert dict(alg.basis_product(i, j)) == expected
        assert [list(row) for row in alg.gram] == Q2_GRAM
        assert det(alg.gram) == F(27, 8)
        assert alg.find_unit() == vec([F(2, 3)] * 4)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _idempotency_residual(alg, offset, direction):
    """Coefficient polynomials of s^2 - s along s = offset + t * direction."""
    return idempotent_system(alg, [vec(direction)], offset=vec(offset))


def _unique(polys):
    out = []
    for p in polys:
        if p not in out:
            out.append(p)
    return out


def test_criterion_2_q2_automorphisms(q2, capsys):
    with criterion(2, "automorphism order 4 and no-idempotent certificates"):
        start = time.monotonic()
        code = cli_main(["aut-perm", str(FIXTURES / "q2.alg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "automorphism group order 4" in out

        direction = (0, 0, -1, 1)
        # family (a)
        polys = _idempotency_residual(
            q2, (F(-1, 6), F(-1, 6), F(2, 3), 0), direction
        )
        t = MPoly.var(1, 0)
        assert polys[0] == t * t * F(1, 2) - t * F(1, 3) + F(5, 36)
        assert polys[1] == polys[0]
        assert polys[2] == t * t * F(1, 2) + t * F(1, 6) - F(5, 18)
        assert polys[3] == t * t * F(1, 2) - t * F(5, 6) + F(1, 18)
        cert_a = certify_no_common_root(_unique(polys))
        assert cert_a.coefficients == (2, -1, -1)
        assert cert_a.constant == F(1, 2)

        # family (b)
        polys = _idempotency_residual(
            q2, (F(-7, 48), F(-1, 48), F(7, 12), 0), direction
        )
        assert polys[0] == t * t * F(1, 2) - t * F(7, 24) + F(287, 2304)
        assert polys[1] == t * t * F(1, 2) - t * F(7, 24) + F(35, 2304)
        assert polys[2] == t * t * F(1, 2) + t * F(5, 24) - F(77, 288)
        assert polys[3] == t * t * F(1, 2) - t * F(19, 24) + F(7, 288)
        cert_b = certify_no_common_root(list(polys))
        assert cert_b.coefficients == (1, 1, -1, -1)
        assert cert_b.constant == F(49, 128)
        # the only obstruction prime is 7: the certificate degenerates
        # exactly in characteristic 7
        assert content_primes(cert_b.constant) == [7]
        assert cert_b.constant.numerator == 7 * 7

        # family (d)
        polys = _idempotency_residual(q2, (0, 0, F(1, 2), 0), direction)
        assert polys[0] == t * t * F(1, 2) - t * F(1, 4)
        assert polys[1] == polys[0]
        assert polys[2] == t * t * F(1, 2) + t * F(1, 4) - F(1, 4)
        assert polys[3] == t * t * F(1, 2) - t * F(3, 4)
        cert_d = certify_no_common_root(_unique(polys))
        assert cert_d.coefficients == (2, -1, -1)
        assert cert_d.constant == F(1, 4)

        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_derivation_certificates(q2, s3_data):
    with criterion(3, "derivation-space finiteness certificates"):
        assert derivation_space(q2).is_zero()
        for eta in (F(1, 4), F(2)):
            assert derivation_space(matsuo_algebra(s3_data, eta)).is_zero()
        from axial.algebra import Algebra

        gl1 = derivation_space(Algebra.from_gamma(1, []))
        assert gl1.dim == 1


def test_criterion_4_matsuo_axis_suite(s3_data):
    with criterion(4, "Matsuo axes, involutions, Seress association"):
        rng = random.Random(2024)
        for eta in (F(1, 4), F(2)):
            alg = matsuo_algebra(s3_data, eta)
            law = jordan_law(eta)
            axes = []
            for i in range(3):
                axis = check_axis(alg, unit_vec(3, i), law)
                assert axis is not None and axis.primitive
                axes.append(axis)
            group = miyamoto_group(alg, close_axet(alg, axes))
            assert group.order == 6
            for axis in axes:
                plus_part = subspace_sum(
                    [axis.eigenspace(1), axis.eigenspace(0)], ambient=3
                )
                for _ in range(100):
                    coeffs = [rng.randint(-4, 4) for _ in plus_part.basis]
                    v = zero_vec(3)
                    for c, b in zip(coeffs, plus_part.basis):
                        v = vadd(v, vscale(c, b))
                    w = vec([rng.randint(-4, 4) for _ in range(3)])
                    assert alg.product(axis.vector, alg.product(w, v)) == alg.product(
                        alg.product(axis.vector, w), v
                    )


def test_criterion_5_idempotent_count_law():
    with criterion(5, "2^n idempotents in diagonal algebras, n at length 1"):
        for n in range(1, 7):
            alg = diagonal_algebra(n)
            full = naive_idempotents(alg)
            assert full.status == "finite"
            assert len(full.points) == 2**n
            restricted = naive_idempotents(alg, length=1)
            assert len(restricted.points) == n
            assert set(restricted.points) == {unit_vec(n, i) for i in range(n)}


def test_criterion_6_idempotent_length_identity(q2, triple_2b):
    with criterion(6, "(u,u) = (1,u) on every produced idempotent"):
        produced = 0
        cases = []
        for n in (2, 3):
            alg = diagonal_algebra(n)
            cases.append((alg, naive_idempotents(alg)))
            cases.append((alg, naive_idempotents(alg, length=1)))
        cases.append((q2, naive_idempotents(q2, length=1)))
        cases.append(
            (q2, naive_idempotents(q2, subspace=Subspace(4, [unit_vec(4, 0), unit_vec(4, 1)])))
        )
        d1_axis = check_axis(q2, unit_vec(4, 2), monster_law(F(1, 2), F(1, 4)))
        cases.append((q2, naive_idempotents(q2, subspace=d1_axis.eigenspace(0))))
        cases.append(
            (
                triple_2b,
                naive_idempotents(
                    triple_2b,
                    subspace=Subspace(7, [unit_vec(7, i) for i in range(4)]),
                ),
            )
        )
        cases.append((triple_2b, naive_idempotents(triple_2b, length=F(2))))
        for alg, result in cases:
            assert result.status != POSITIVE_DIMENSIONAL
            one = alg.find_unit()
            assert one is not None
            for u in result.points:
                produced += 1
                assert alg.length(u) == alg.form_value(one, u)
        assert produced >= 30


def test_criterion_7_norton_sakuma_lengths():
    with criterion(7, "ingested two-generated algebra identity lengths"):
        data_dir = os.environ.get("AXIAL_NS_DATA", FIXTURES / "norton_sakuma")
        data_dir = Path(data_dir)
        files = sorted(data_dir.glob("*.alg")) if data_dir.is_dir() else []
        if not files:
            pytest.skip(
                "external two-generated algebra data not supplied "
                "(set AXIAL_NS_DATA or populate fixtures/norton_sakuma); "
                "constants live outside this project and are not fabricated"
            )
        for path in files:
            label = path.stem.upper()
            assert label in NS_UNIT_LENGTHS, f"unknown label {label}"
            parsed = parse_algebra(path)
            alg = parsed.algebra
            one = alg.find_unit()
            assert one is not None
            assert alg.length(one) == NS_UNIT_LENGTHS[label]
            assert parsed.axes, f"{path} carries no AXES section"
            tag, a = parsed.axes[0]
            z = vec([x - y for x, y in zip(one, a)])
            assert alg.product(z, z) == z
            assert alg.length(z) == NS_UNIT_LENGTHS[label] - 1


def test_criterion_8_decomposition_suite(triple_2b):
    with criterion(8, "complete decomposition, scalar extensions, sign kernel"):
        axes = [
            check_axis(triple_2b, unit_vec(7, i), MONSTER_QUARTER) for i in range(3)
        ]
        assert all(a is not None for a in axes)
        dec = decompose_joint(triple_2b, axes)
        assert dec.complete
        assert sum(s.dim for s in dec.components.values()) == 7
        u = dec.zero_component
        for space in dec.components.values():
            for x in u.basis:
                for y in space.basis:
                    assert space.contains(triple_2b.product(x, y))
        q, t = F(1, 4), F(1, 32)
        keys = [(q, t, t), (t, q, t), (t, t, q)]
        comps = [dec.components[k] for k in keys]
        for key, comp in zip(keys, comps):
            assert comp.dim == 1
            ext = extension_space(dec, key, identity(u.dim))
            assert ext.dim == 1 and ext.contains_identity()
        w = [comp.basis[0] for comp in comps]
        probes = [SquareProbe(i, w[i], u.basis[0]) for i in range(3)]
        probes.append(PairingProbe((0, 1, 2), tuple(w), "triple"))
        result = sign_kernel(triple_2b, comps, probes)
        assert all(r.used for r in result.records), "a probe pairing vanished"
        assert set(result.admissible) == {
            (1, 1, 1),
            (1, -1, -1),
            (-1, 1, -1),
            (-1, -1, 1),
        }
        assert result.order == 4


def test_criterion_9_oracle_equivalence():
    with criterion(9, "Groebner route equals the resultant oracle"):
        rng = random.Random(20240806)
        compared = 0
        attempts = 0
        while compared < 25:
            attempts += 1
            assert attempts < 200, "too many degenerate samples"
            gamma = []
            for i in range(3):
                for j in range(i, 3):
                    for k in range(3):
                        c = rng.randint(-2, 2)
                        if c:
                            gamma.append((i, j, k, c))
            from axial.algebra import Algebra

            alg = Algebra.from_gamma(3, gamma)
            result = naive_idempotents(alg)
            if result.status == POSITIVE_DIMENSIONAL:
                continue  # neither route enumerates an infinite set
            try:
                expected = oracle_idempotents(gamma)
            except OracleInconclusive:
                continue  # degenerate elimination chain; resample
            assert {tuple(p) for p in result.points} == expected
            compared += 1
        assert compared == 25


def test_criterion_10_ingestion_path_and_scope():
    with criterion(10, "ingestion exercised; large tables out of scope"):
        for name in ("q2.alg", "triple2b.alg"):
            parsed = parse_algebra(FIXTURES / name)
            text = emit_algebra(parsed.algebra, axes=parsed.axes, law=parsed.law)
            again = parse_algebra_text(text)
            assert again.algebra.table == parsed.algebra.table
            assert again.algebra.gram == parsed.algebra.gram
            assert again.axes == parsed.axes
        big_dir = os.environ.get("AXIAL_BIG_DATA")
        if not big_dir:
            print(
                "\n[acceptance]   note: structure constants for the 46- to "
                "151-dimensional algebras come from the external expansion "
                "toolchain; set AXIAL_BIG_DATA to a directory of .alg files "
                "to run the conditional decomposition checks"
            )
            return
        for path in sorted(Path(big_dir).glob("*.alg")):
            parsed = parse_algebra(path)
            axes = []
            for tag, v in parsed.axes:
                from axial.io import parse_law_spec

                axis = check_axis(parsed.algebra, v, parse_law_spec(tag, parsed.law))
                assert axis is not None
                axes.append(axis)
            print(f"\n[acceptance]   ingested {path.name}: dim {parsed.algebra.dim}, "
                  f"{len(axes)} verified axes")

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from axial.cli import main
from axial.io import (
    AlgebraFileError,
    emit_algebra,
    parse_algebra,
    parse_algebra_text,
    parse_group,
    parse_law_spec,
    parse_permutation,
    parse_reference,
)
from axial.fusion import jordan_law, monster_law
from axial.linalg import det, vec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_q2_fixture():
    parsed = parse_algebra(FIXTURES / "q2.alg")
    alg = parsed.algebra
    assert alg.dim == 4
    assert alg.labels == ("s1", "s2", "d1", "d2")
    assert det(alg.gram) == F(27, 8)
    assert len(parsed.axes) == 4
    assert parsed.axes[0][0] == "m:1/2:1/4"


def test_round_trip_is_lossless():
    parsed = parse_algebra(FIXTURES / "q2.alg")
    text = emit_algebra(parsed.algebra, axes=parsed.axes)
    again = parse_algebra_text(text)
    assert again.algebra.table == parsed.algebra.table
    assert again.algebra.gram == parsed.algebra.gram
    assert again.axes == parsed.axes
    assert emit_algebra(again.algebra, axes=again.axes) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_text("AXIAL 1\nDIM 2\nGAMMA\n1 1 1 nope\nEND\n")
    assert "line 4" in str(err.value)
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_text("AXIAL 1\nDIM 2\nGAMMA\n2 1 1 1\nEND\n")
    assert "i <= j" in str(err.value)


def test_parse_rejects_frobenius_violation():
    text = "AXIAL 1\nDIM 2\nGAMMA\n1 1 2 1\nEND\nGRAM\n1\n0 1\nEND\n"
    with pytest.raises(AlgebraFileError, match="not Frobenius"):
        parse_algebra_text(text)


def test_parse_law_section():
    text = (
        "AXIAL 1\nDIM 1\nGAMMA\n1 1 1 1\nEND\n"
        "LAW\nVALUES 1 0 1/4\n0 0 : 0\n0 1/4 : 1/4\n1/4 1/4 : 1 0\nEND\n"
    )
    parsed = parse_algebra_text(text)
    assert parsed.law == jordan_law(F(1, 4))


def test_law_spec_strings():
    assert parse_law_spec("m:1/4:1/32") == monster_law(F(1, 4), F(1, 32))
    assert parse_law_spec("j:2") == jordan_law(2)
    with pytest.raises(AlgebraFileError):
        parse_law_spec("nope")
    with pytest.raises(AlgebraFileError):
        parse_law_spec("custom")  # no LAW section supplied


def test_parse_permutation_forms():
    assert parse_permutation("(1,2)(3,4)", 4) == (1, 0, 3, 2)
    assert parse_permutation("()", 3) == (0, 1, 2)
    with pytest.raises(AlgebraFileError):
        parse_permutation("(1,5)", 4)
    with pytest.raises(AlgebraFileError):
        parse_permutation("1,2", 4)


def test_parse_group_file():
    data = parse_group(FIXTURES / "s4.grp")
    assert data.degree == 4
    assert data.size == 6


def test_parse_reference(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("REFERENCE 1\n2A 3 2 1/8 12/5\n2B 2 1 - 2\n")
    rows = parse_reference(path)
    assert rows["2A"]["unit_length"] == F(12, 5)
    assert "form_value" not in rows["2B"]


def test_cli_info_and_exit_codes(tmp_path, capsys):
    assert main(["info", str(FIXTURES / "q2.alg")]) == 0
    out = capsys.readouterr().out
    assert "dimension: 4" in out
    assert "gram_determinant: 27/8" in out
    assert main(["info", str(tmp_path / "missing.alg")]) == 4
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_cli_validation_failure_names_triple(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("AXIAL 1\nDIM 2\nGAMMA\n1 1 2 1\nEND\nGRAM\n1\n0 1\nEND\n")
    assert main(["info", str(bad)]) == 4
    assert "not Frobenius" in capsys.readouterr().out


def test_cli_unit_radical_miy_extend(capsys):
    assert main(["unit", str(FIXTURES / "q2.alg")]) == 0
    assert "unit: 2/3 2/3 2/3 2/3" in capsys.readouterr().out
    assert main(["radical", str(FIXTURES / "q2.alg")]) == 0
    assert "radical_dimension: 0" in capsys.readouterr().out
    assert main(["miy", str(FIXTURES / "q2.alg")]) == 0
    assert "Miyamoto group order 4" in capsys.readouterr().out
    assert main(["extend", str(FIXTURES / "triple2b.alg"), "--y", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "identity extensions to (1/4,1/32,1/32): dimension 1" in out


def test_cli_derivations_output(capsys):
    assert main(["derivations", str(FIXTURES / "q2.alg")]) == 0
    out = capsys.readouterr().out
    assert "derivation space dimension 0" in out
    assert "finiteness certificate PASS" in out


def test_cli_axes_naive_with_length(capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--length", "1", "--law", "j:1/4"]) == 0
    out = capsys.readouterr().out
    assert "axis count: 2" in out


def test_cli_axes_nuanced(capsys):
    code = main(
        [
            "axes-nuanced",
            str(FIXTURES / "q2.alg"),
            "--axis",
            "3",
            "--law",
            "m:1/2:1/4",
            "--length",
            "1",
            "--z-lengths",
            "",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "axis count: 3" in out


def test_cli_twins_and_jordan(capsys):
    assert main(["twins", str(FIXTURES / "q2.alg"), "--axis", "1"]) == 0
    assert "twin count: 1" in capsys.readouterr().out
    assert main(["jordan", str(FIXTURES / "q2.alg"), "--law", "m:1/2:1/4"]) == 0
    assert "jordan axis count: 1" in capsys.readouterr().out


def test_cli_classify_pairs(capsys):
    assert main(["classify-pairs", str(FIXTURES / "q2.alg")]) == 0
    out = capsys.readouterr().out
    assert "pair (1,2)" in out
    assert "label 2B" in out
    assert "shape multiset" in out


def test_cli_decompose_partial(capsys):
    code = main(["decompose", str(FIXTURES / "triple2b.alg"), "--y", "1,2,3", "--partial"])
    assert code == 0
    out = capsys.readouterr().out
    assert "complete: True" in out
    assert "orthogonal_complement_dimension: 0" in out


def test_cli_sign_kernel_deterministic(tmp_path, capsys):
    args = [
        "--out",
        str(tmp_path / "report.json"),
        "sign-kernel",
        str(FIXTURES / "triple2b.alg"),
        "--y",
        "1,2,3",
        "--components",
        "1/4,1/32,1/32;1/32,1/4,1/32;1/32,1/32,1/4",
        "--seed",
        "7",
    ]
    assert main(args) == 0
    first_out = capsys.readouterr().out
    first_json = (tmp_path / "report.json").read_text()
    assert main(args) == 0
    assert capsys.readouterr().out == first_out
    assert (tmp_path / "report.json").read_text() == first_json
    data = json.loads(first_json)
    assert data["sign_kernel_order"] == 4
    assert data["exit_code"] == 0


def test_cli_matsuo_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "s3m.alg"
    assert main(["matsuo", str(FIXTURES / "s3.grp"), "--eta", "1/4", "--out-alg", str(out_path)]) == 0
    parsed = parse_algebra(out_path)
    assert parsed.algebra.dim == 3
    assert len(parsed.axes) == 3
    assert main(["matsuo", str(FIXTURES / "s3.grp"), "--eta", "1"]) == 4


def test_cli_flip_reproduces_q2(tmp_path, capsys):
    out_path = tmp_path / "flip.alg"
    code = main(
        [
            "flip",
            str(FIXTURES / "s4.grp"),
            "--eta",
            "1/4",
            "--sigma",
            "(1,2)(3,4)",
            "--out-alg",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gram_determinant: 27/8" in out
    produced = parse_algebra(out_path)
    shipped = parse_algebra(FIXTURES / "q2.alg")
    assert produced.algebra.table == shipped.algebra.table
    assert produced.algebra.gram == shipped.algebra.gram


def test_cli_cap_exit_code(tmp_path, capsys):
    assert (
        main(
            [
                "axes-naive",
                str(FIXTURES / "triple2b.alg"),
                "--length",
                "1",
                "--caps",
                "basis=1,degree=2,pairs=3",
            ]
        )
        == 3
    )
    assert "cap exceeded: basis size limit 1 exceeded" in capsys.readouterr().out.splitlines()


def test_cli_closure_cap_exits_as_a_cap(tmp_path, monkeypatch, capsys):
    import functools

    import axial.cli

    # only s1 and d1: the closure adds s2 and d2
    text = (FIXTURES / "q2.alg").read_text()
    path = tmp_path / "q2_two_axes.alg"
    path.write_text(text.replace("m:1/2:1/4 0 1 0 0\n", "").replace("m:1/2:1/4 0 0 0 1\n", ""))
    assert main(["miy", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(axial.cli, "close_axet", functools.partial(axial.cli.close_axet, cap=2))
    assert main(["miy", str(path)]) == 3
    assert "cap exceeded: axis closure exceeded cap 2" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("spec", ["pair=1", "pairs", "pairs=x"])
def test_cli_rejects_bad_caps_as_usage_error(spec, capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", spec]) == 2
    assert f"bad caps entry '{spec}'" in capsys.readouterr().err


def test_cli_caps_pairs_key_is_applied(capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", "pairs=1"]) == 3
    assert "cap exceeded: pair limit 1 exceeded" in capsys.readouterr().out.splitlines()

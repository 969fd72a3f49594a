import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from axial import cli
from axial.algebra import Algebra, AlgebraError
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


@pytest.mark.parametrize(
    "body, message",
    [
        ("GAMMA\n1 1 1 1\n", "GAMMA section not closed by END (line 4)"),
        ("GAMMA\n1 1 1\nEND\n", "expected 'i j k value' (line 4)"),
        ("GAMMA\n1 x 1 1\nEND\n", "malformed index (line 4)"),
        ("GAMMA\n1 1 3 1\nEND\n", "index out of range (line 4)"),
        ("AXES\nj:1/4 1 0\n", "AXES section not closed by END (line 4)"),
        ("AXES\nj:1/4 1\nEND\n", "axis line needs a law tag and coordinates (line 4)"),
        ("LAW\n0 0 : 0\nEND\n", "LAW section must start with VALUES (line 4)"),
        ("LAW\nVALUES 1 0\n0 0 : 0\n", "LAW section not closed by END (line 5)"),
        ("LAW\nVALUES 1 0\n0 0 0\nEND\n", "law row needs 'lam mu : values' (line 5)"),
        ("LAW\nVALUES 1 0\n0 : 0\nEND\n", "law row needs two eigenvalues (line 5)"),
    ],
)
def test_section_row_errors_name_the_line(body, message):
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra_text("AXIAL 1\nDIM 2\n" + body)
    assert str(err.value) == message


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


def _group_file(tmp_path, text):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "text, line",
    [
        ("GROUP 1\nDEGREE\nGEN (1,2)\nCLASS (1,2)\n", 2),
        ("GROUP 1\nDEGREE 3\nGEN\nCLASS (1,2)\n", 3),
        ("GROUP 1\nDEGREE 3\nGEN (1,2)\nCLASS\n", 4),
    ],
    ids=["DEGREE", "GEN", "CLASS"],
)
def test_parse_group_rejects_a_key_without_value(tmp_path, text, line):
    with pytest.raises(AlgebraFileError) as err:
        parse_group(_group_file(tmp_path, text))
    assert err.value.line == line


@pytest.mark.parametrize("value", ["x", "-2", "0"])
def test_parse_group_degree_must_be_a_positive_integer(tmp_path, value):
    text = f"GROUP 1\nDEGREE {value}\nGEN (1,2)\nCLASS (1,2)\n"
    with pytest.raises(AlgebraFileError, match="DEGREE needs one positive integer") as err:
        parse_group(_group_file(tmp_path, text))
    assert err.value.line == 2


def test_cli_matsuo_rejects_negative_degree(tmp_path, capsys):
    path = _group_file(tmp_path, "GROUP 1\nDEGREE -2\nGEN (1,2)\nCLASS (1,2)\n")
    out_path = tmp_path / "out.alg"
    assert main(["matsuo", str(path), "--eta", "1/4", "--out-alg", str(out_path)]) == 4
    assert "(line 2)" in capsys.readouterr().out
    assert not out_path.exists()


@pytest.mark.parametrize("token", ["(1,2)(2,3)", "(1,2)(1,2)"])
def test_parse_permutation_rejects_overlapping_cycles(token):
    with pytest.raises(AlgebraFileError, match="not disjoint") as err:
        parse_permutation(token, 3, line=5)
    assert err.value.line == 5


@pytest.mark.parametrize("value", ["-1", "0"])
def test_parse_algebra_dim_must_be_positive(tmp_path, capsys, value):
    text = f"AXIAL 1\nDIM {value}\nGAMMA\nEND\n"
    with pytest.raises(AlgebraFileError, match="DIM needs one positive integer") as err:
        parse_algebra_text(text)
    assert err.value.line == 2
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert main(["info", str(path)]) == 4
    assert "dimension:" not in capsys.readouterr().out


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


def test_cli_calls_share_the_parser_and_nothing_else(tmp_path, capsys, monkeypatch):
    # main builds its parser once; a call's options must not reach the next
    caps = []
    solve = cli.naive_idempotents
    monkeypatch.setattr(cli, "naive_idempotents", lambda *a, **kw: caps.append(kw["caps"]) or solve(*a, **kw))
    q2 = str(FIXTURES / "q2.alg")
    naive = ["axes-naive", q2, "--length", "1", "--law", "m:1/2:1/4"]
    out = tmp_path / "report.json"
    assert main(["--out", str(out), *naive, "--caps", "deadline=5"]) == 0
    assert caps == [cli.SolverCaps(max_seconds=5.0)]
    assert json.loads(out.read_text())["exit_code"] == 0
    capsys.readouterr()
    assert main(["info", q2]) == 0
    assert "dimension: 4" in capsys.readouterr().out
    assert main(naive) == 0
    assert "axis count: 2" in capsys.readouterr().out.splitlines()
    assert caps[1:] == [cli.DEFAULT_CAPS]
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize(
    "spec, triple", [("0,1,9", "(0, 1, 9)"), ("0,1", "(0, 1)"), ("-1,0,1", "(-1, 0, 1)")]
)
def test_cli_sign_kernel_rejects_bad_long_probes(capsys, spec, triple):
    args = [
        "sign-kernel",
        str(FIXTURES / "triple2b.alg"),
        "--y",
        "1,2,3",
        "--components",
        "1/4,1/32,1/32;1/32,1/4,1/32;1/32,1/32,1/4",
        f"--long-probes={spec}",
    ]
    assert main(args) == 4
    out = capsys.readouterr().out
    assert f"error: long probe {triple} is not three distinct component positions in 0..2" in out


def test_verified_axes_parse_each_law_tag_once(monkeypatch):
    # q2 tags its four axes with one law: one parse, one law object shared
    parsed = parse_algebra(FIXTURES / "q2.alg")
    calls = []

    def counted(tag, custom=None):
        calls.append(tag)
        return parse_law_spec(tag, custom)

    monkeypatch.setattr(cli, "parse_law_spec", counted)
    axes = cli._verified_axes(parsed.algebra, parsed.axes, parsed.law)
    assert len(axes) == 4 and calls == ["m:1/2:1/4"]
    assert all(axis.law is axes[0].law for axis in axes)
    # a bad tag still raises where it first appears, after the axes before it
    vectors = [v for _, v in parsed.axes]
    tagged = [("m:1/2:1/4", vectors[0]), ("m:1/2:1/4", vectors[1]), ("nope", vectors[2])]
    calls.clear()
    with pytest.raises(AlgebraFileError, match="unknown law spec 'nope'"):
        cli._verified_axes(parsed.algebra, tagged, parsed.law)
    assert calls == ["m:1/2:1/4", "nope"]
    # and an axis that fails its law is named by its position
    tagged = [("m:1/2:1/4", vectors[0]), ("j:1/3", vectors[1]), ("nope", vectors[2])]
    with pytest.raises(AlgebraError, match="axis 2 fails verification"):
        cli._verified_axes(parsed.algebra, tagged, parsed.law)


def test_cli_reports_a_bad_axis_tag(capsys, tmp_path):
    text = (FIXTURES / "q2.alg").read_text().replace("m:1/2:1/4 0 0 1 0", "nope 0 0 1 0")
    path = tmp_path / "bad_tag.alg"
    path.write_text(text)
    assert main(["miy", str(path)]) == 4
    assert "unknown law spec 'nope'" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["twins", "axes-nuanced"])
def test_cli_axis_takes_one_index(capsys, command):
    assert main([command, str(FIXTURES / "q2.alg"), "--axis", "1,2"]) == 4
    assert "error: --axis takes one axis index, got '1,2'" in capsys.readouterr().out


def test_cli_rejects_a_repeated_axis(capsys):
    assert main(["decompose", str(FIXTURES / "triple2b.alg"), "--y", "1,1"]) == 4
    assert "error: --y names axis 1 twice" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["decompose", "extend", "sign-kernel"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ("1,3", "involution of axis 1 does not fix axis 3"),
        ("3,3", "--y names axis 3 twice"),
        ("4,2,4", "--y names axis 4 twice"),
    ],
)
def test_cli_y_errors_name_the_file_indices(capsys, command, spec, message):
    args = [command, str(FIXTURES / "q2.alg"), "--y", spec]
    if command == "sign-kernel":
        args += ["--components", "0"]
    assert main(args) == 4
    assert f"error: {message}" in capsys.readouterr().out


def test_cli_y_names_two_file_axes_with_one_vector(tmp_path, capsys):
    # a fifth AXES line repeats d2, the fourth
    text = (FIXTURES / "q2.alg").read_text()
    path = tmp_path / "twice.alg"
    path.write_text(text.replace("0 0 0 1\nEND", "0 0 0 1\nm:1/2:1/4 0 0 0 1\nEND"))
    assert main(["decompose", str(path), "--y", "5,4"]) == 4
    assert "error: axis 5 and axis 4 are the same vector" in capsys.readouterr().out


def test_cli_sign_kernel_names_a_missing_component(capsys):
    args = ["sign-kernel", str(FIXTURES / "triple2b.alg"), "--y", "1,2,3", "--components", "1/4,1/32"]
    assert main(args) == 4
    assert "error: no component with eigenvalues (1/4,1/32)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, option, spec, token",
    [
        ("decompose", "--y", "1,2,3,x", "'x'"),
        ("decompose", "--y", "", "''"),
        ("twins", "--axis", "x", "'x'"),
    ],
)
def test_cli_axis_indices_must_be_integers(capsys, command, option, spec, token):
    fixture = "triple2b.alg" if option == "--y" else "q2.alg"
    assert main([command, str(FIXTURES / fixture), option, spec]) == 4
    assert f"error: {option}: {token} is not an axis index" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--components", "1/4,x", "--components: 'x' is not an eigenvalue"),
        ("--components", "1/0,1/4,1/32", "--components: '1/0' is not an eigenvalue"),
        ("--long-probes", "0,1,x", "--long-probes: 'x' is not a component position"),
    ],
)
def test_cli_sign_kernel_names_the_option_of_a_bad_token(capsys, option, spec, message):
    args = [
        "sign-kernel",
        str(FIXTURES / "triple2b.alg"),
        "--y",
        "1,2,3",
        "--components",
        "1/4,1/32,1/32;1/32,1/4,1/32;1/32,1/32,1/4",
        f"{option}={spec}",
    ]
    assert main(args) == 4
    assert f"error: {message}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["matsuo", str(FIXTURES / "s3.grp"), "--eta", "1/0"], "--eta"),
        (["flip", str(FIXTURES / "s4.grp"), "--eta", "1/0", "--sigma", "(1,2)(3,4)"], "--eta"),
        (["axes-naive", str(FIXTURES / "q2.alg"), "--length", "1/0"], "--length"),
        (["axes-nuanced", str(FIXTURES / "q2.alg"), "--axis", "3", "--length", "1/0"], "--length"),
        (["axes-nuanced", str(FIXTURES / "q2.alg"), "--axis", "3", "--z-lengths", "1,1/0"], "--z-lengths"),
    ],
)
def test_cli_names_the_option_of_a_zero_denominator(capsys, argv, option):
    assert main(argv) == 4
    assert f"error: {option}: '1/0' is not a rational number" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, argv, message",
    [
        (("1 1 1 1\n", "1 1 1 1/0\n"), ["info"], "malformed rational '1/0' (line 6)"),
        (("m:1/2:1/4 1 0", "j:1/0 1 0"), ["miy"], "malformed rational '1/0' in law spec 'j:1/0'"),
        (None, ["axes-naive", "--law", "j:1/0"], "malformed rational '1/0' in law spec 'j:1/0'"),
        (None, ["axes-naive", "--law", "m:x:1/4"], "malformed rational 'x' in law spec 'm:x:1/4'"),
    ],
    ids=["gamma-row", "axes-tag", "law-zero-denominator", "law-not-a-rational"],
)
def test_cli_names_a_malformed_rational_of_a_file_or_a_law(tmp_path, capsys, edit, argv, message):
    path = FIXTURES / "q2.alg"
    if edit is not None:
        text = path.read_text()
        assert edit[0] in text
        path = tmp_path / "bad.alg"
        path.write_text(text.replace(edit[0], edit[1], 1))
    assert main([argv[0], str(path), *argv[1:]]) == 4
    out = capsys.readouterr().out
    assert f"error: {message}" in out
    # the law is parsed before the solve runs
    assert "idempotent count" not in out


def test_cli_axes_naive_reports_the_irreducible_eliminant_factors(tmp_path, capsys):
    # Algebra 54 of the seeded criterion-9 draws: its one nonlinear
    # eliminant, of degree 7, splits into a quadratic and a quintic
    gamma = [
        (0, 0, 0, -1), (0, 0, 2, -2), (0, 1, 0, -2), (0, 1, 1, 1), (0, 1, 2, -1), (0, 2, 0, 1),
        (0, 2, 1, 1), (0, 2, 2, -2), (1, 1, 0, 2), (1, 1, 1, 1), (1, 1, 2, -2), (1, 2, 1, 1),
        (1, 2, 2, 2), (2, 2, 0, 2), (2, 2, 1, -1), (2, 2, 2, 1),
    ]
    path = tmp_path / "random.alg"
    path.write_text(emit_algebra(Algebra.from_gamma(3, gamma)))
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "axes-naive", str(path)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "needs_extension"
    assert report["idempotents"] == [["0", "0", "0"]]
    assert report["eliminant_factors"] == [[4, -32, 103], [26, 35, -1078, 6304, -18300, 27541]]


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


def test_cli_flip_refuses_eta_one_half(tmp_path, capsys):
    # the double axes' law (2 eta, eta) would be m:1:1/2, which no law parses
    out_path = tmp_path / "flip.alg"
    args = ["flip", str(FIXTURES / "s4.grp"), "--eta", "1/2", "--sigma", "(1,2)(3,4)"]
    assert main(args + ["--out-alg", str(out_path)]) == 4
    assert "error: flip at eta = 1/2 has no axis law" in capsys.readouterr().out
    assert not out_path.exists()


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


def test_cli_reports_a_branch_that_is_not_zero_dimensional(monkeypatch, capsys):
    import axial.cli
    from axial.groebner import NotZeroDimensional

    def failing_search(*args, **kwargs):
        raise NotZeroDimensional("no eliminant found; branch not zero-dimensional")

    monkeypatch.setattr(axial.cli, "naive_idempotents", failing_search)
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--length", "1"]) == 5
    out = capsys.readouterr().out.splitlines()
    assert "solver error: no eliminant found; branch not zero-dimensional" in out


@pytest.mark.parametrize("spec", ["pair=1", "pairs", "pairs=x"])
def test_cli_rejects_bad_caps_as_usage_error(spec, capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", spec]) == 2
    assert f"bad caps entry '{spec}'" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["deadline=0", "deadline=-1", "deadline=nan", "deadline=inf", "deadline=x"])
def test_cli_rejects_a_deadline_that_is_not_positive_seconds(spec, capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", spec]) == 2
    assert f"bad caps entry '{spec}'" in capsys.readouterr().err


def test_cli_caps_deadline_key_is_applied(capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", "pairs=1000,deadline=1e-9"]) == 3
    assert "cap exceeded: deadline of 1e-09 s exceeded" in capsys.readouterr().out.splitlines()


def test_cli_caps_pairs_key_is_applied(capsys):
    assert main(["axes-naive", str(FIXTURES / "q2.alg"), "--caps", "pairs=1"]) == 3
    assert "cap exceeded: pair limit 1 exceeded" in capsys.readouterr().out.splitlines()

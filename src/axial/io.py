"""Plain-text algebra files, permutation-group files, reference tables.

The algebra format is line oriented and hand-auditable: exact rationals in
lowest terms, 1-based indices, sparse structure constants `i j k value` with
i <= j, optional lower-triangular GRAM, UNIT, AXES and LAW sections.  Parsing
validates everything the in-memory constructor validates and reports the
offending line on failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from axial.algebra import Algebra
from axial.fusion import FusionLaw, jordan_law, monster_law
from axial.linalg import Vec, frac, vec
from axial.matsuo import Perm, ThreeTranspositionData


class AlgebraFileError(Exception):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def parse_rational(token: str, line: Optional[int] = None) -> Fraction:
    if not re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", token):
        raise AlgebraFileError(f"malformed rational {token!r}", line)
    return Fraction(token)


def _positive_int(parts: list[str], line: int) -> int:
    """The value of a 'KEY n' line such as DIM or DEGREE; n must be a positive integer."""
    if len(parts) != 2 or not re.fullmatch(r"[0-9]+", parts[1]) or int(parts[1]) == 0:
        raise AlgebraFileError(f"{parts[0]} needs one positive integer", line)
    return int(parts[1])


def format_rational(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class AlgebraFile:
    """Parsed contents of an algebra file."""

    algebra: Algebra
    axes: list[tuple[str, Vec]]
    law: Optional[FusionLaw]


def parse_law_spec(spec: str, custom: Optional[FusionLaw] = None) -> FusionLaw:
    """Parse 'm:alpha:beta', 'j:eta', or 'custom' (the file's LAW section).

    A parameter is any `Fraction` literal; one that is not, or has a zero
    denominator, raises AlgebraFileError naming it and the spec.
    """
    kind, *params = spec.split(":")
    if (kind, len(params)) in (("m", 2), ("j", 1)):
        values = []
        for token in params:
            try:
                values.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise AlgebraFileError(f"malformed rational {token!r} in law spec {spec!r}") from None
        return monster_law(*values) if kind == "m" else jordan_law(*values)
    if kind == "custom":
        if custom is None:
            raise AlgebraFileError("axis tagged 'custom' but no LAW section present")
        return custom
    raise AlgebraFileError(f"unknown law spec {spec!r}")


def parse_algebra_text(text: str) -> AlgebraFile:
    lines = text.splitlines()
    idx = 0

    def next_content():
        nonlocal idx
        while idx < len(lines):
            raw = lines[idx]
            idx += 1
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return stripped, idx
        return None, idx

    def section_rows(name):
        """The (row, line) pairs of a section up to its END line."""
        while True:
            row, row_line = next_content()
            if row is None:
                raise AlgebraFileError(f"{name} section not closed by END", row_line)
            if row == "END":
                return
            yield row, row_line

    header, line_no = next_content()
    if header is None or not header.startswith("AXIAL"):
        raise AlgebraFileError("missing AXIAL header", line_no)
    dim_line, line_no = next_content()
    if dim_line is None or not dim_line.startswith("DIM"):
        raise AlgebraFileError("missing DIM line", line_no)
    dim = _positive_int(dim_line.split(), line_no)

    labels = None
    gamma: list[tuple[int, int, int, Fraction]] = []
    gram = None
    unit = None
    axes: list[tuple[str, Vec]] = []
    law_values: Optional[list[Fraction]] = None
    law_star: dict = {}
    saw_law = False

    while True:
        token, line_no = next_content()
        if token is None:
            break
        key = token.split()[0]
        if key == "BASIS":
            labels = token.split()[1:]
            if len(labels) != dim:
                raise AlgebraFileError("BASIS label count does not match DIM", line_no)
        elif key == "GAMMA":
            for row, row_line in section_rows("GAMMA"):
                parts = row.split()
                if len(parts) != 4:
                    raise AlgebraFileError("expected 'i j k value'", row_line)
                try:
                    i, j, k = (int(p) for p in parts[:3])
                except ValueError:
                    raise AlgebraFileError("malformed index", row_line) from None
                if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                    raise AlgebraFileError("index out of range", row_line)
                if i > j:
                    raise AlgebraFileError("structure constants need i <= j", row_line)
                gamma.append((i - 1, j - 1, k - 1, parse_rational(parts[3], row_line)))
        elif key == "GRAM":
            rows = []
            for r in range(dim):
                row, row_line = next_content()
                if row is None or row == "END":
                    raise AlgebraFileError("GRAM needs one row per dimension", row_line)
                parts = row.split()
                if len(parts) != r + 1:
                    raise AlgebraFileError(
                        f"GRAM row {r + 1} must have {r + 1} entries", row_line
                    )
                rows.append([parse_rational(p, row_line) for p in parts])
            end, end_line = next_content()
            if end != "END":
                raise AlgebraFileError("GRAM section not closed by END", end_line)
            gram = [
                [rows[max(i, j)][min(i, j)] for j in range(dim)] for i in range(dim)
            ]
        elif key == "UNIT":
            parts = token.split()[1:]
            if len(parts) != dim:
                raise AlgebraFileError("UNIT needs one entry per dimension", line_no)
            unit = [parse_rational(p, line_no) for p in parts]
        elif key == "AXES":
            for row, row_line in section_rows("AXES"):
                parts = row.split()
                if len(parts) != dim + 1:
                    raise AlgebraFileError("axis line needs a law tag and coordinates", row_line)
                axes.append(
                    (parts[0], vec(parse_rational(p, row_line) for p in parts[1:]))
                )
        elif key == "LAW":
            saw_law = True
            values_line, vline = next_content()
            if values_line is None or not values_line.startswith("VALUES"):
                raise AlgebraFileError("LAW section must start with VALUES", vline)
            law_values = [parse_rational(p, vline) for p in values_line.split()[1:]]
            for row, row_line in section_rows("LAW"):
                if ":" not in row:
                    raise AlgebraFileError("law row needs 'lam mu : values'", row_line)
                left, right = row.split(":", 1)
                lp = left.split()
                if len(lp) != 2:
                    raise AlgebraFileError("law row needs two eigenvalues", row_line)
                pair = (parse_rational(lp[0], row_line), parse_rational(lp[1], row_line))
                out = {parse_rational(p, row_line) for p in right.split()}
                law_star[pair] = out
        else:
            raise AlgebraFileError(f"unknown section {key!r}", line_no)

    try:
        algebra = Algebra.from_gamma(dim, gamma, gram=gram, unit=unit, labels=labels)
    except ValueError as exc:
        raise AlgebraFileError(str(exc)) from None
    law = None
    if saw_law:
        assert law_values is not None
        try:
            law = FusionLaw(law_values, law_star)
        except ValueError as exc:
            raise AlgebraFileError(f"bad LAW section: {exc}") from None
    return AlgebraFile(algebra, axes, law)


def parse_algebra(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())


def emit_algebra(
    alg: Algebra,
    axes: Sequence[tuple[str, Vec]] = (),
    law: Optional[FusionLaw] = None,
) -> str:
    out = ["AXIAL 1", f"DIM {alg.dim}"]
    if alg.labels:
        out.append("BASIS " + " ".join(alg.labels))
    out.append("GAMMA")
    for (i, j), row in sorted(alg.table.items()):
        for k, c in row:
            out.append(f"{i + 1} {j + 1} {k + 1} {format_rational(c)}")
    out.append("END")
    if alg.gram is not None:
        out.append("GRAM")
        for i in range(alg.dim):
            out.append(" ".join(format_rational(alg.gram[i][j]) for j in range(i + 1)))
        out.append("END")
    if alg.unit is not None:
        out.append("UNIT " + " ".join(format_rational(x) for x in alg.unit))
    if axes:
        out.append("AXES")
        for tag, v in axes:
            out.append(tag + " " + " ".join(format_rational(x) for x in v))
        out.append("END")
    if law is not None:
        out.append("LAW")
        out.append("VALUES " + " ".join(format_rational(v) for v in law.values))
        for lam, mu in sorted(law._star, reverse=True):
            vals = " ".join(format_rational(v) for v in sorted(law._star[(lam, mu)], reverse=True))
            out.append(f"{format_rational(lam)} {format_rational(mu)} : {vals}")
        out.append("END")
    return "\n".join(out) + "\n"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(token: str, degree: int, line: Optional[int] = None) -> Perm:
    """Cycle notation like (1,2)(3,4), 1-based points; () is the identity.

    The cycles must be disjoint.
    """
    token = token.replace(" ", "")
    if token == "()":
        return tuple(range(degree))
    cycles = _CYCLE_RE.findall(token)
    if not cycles or "(" + ")(".join(cycles) + ")" != token:
        raise AlgebraFileError(f"malformed permutation {token!r}", line)
    perm = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        if not cycle:
            continue
        try:
            points = [int(p) - 1 for p in cycle.split(",")]
        except ValueError:
            raise AlgebraFileError(f"malformed cycle ({cycle})", line) from None
        if any(not (0 <= p < degree) for p in points) or len(set(points)) != len(points):
            raise AlgebraFileError(f"bad cycle ({cycle}) for degree {degree}", line)
        if seen.intersection(points):
            raise AlgebraFileError(f"cycles of {token!r} are not disjoint", line)
        seen.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


def parse_group(path) -> ThreeTranspositionData:
    """Group file: DEGREE n, GEN lines in cycle notation, one CLASS line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    degree = None
    gens: list[Perm] = []
    rep: Optional[Perm] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split(None, 1)
        key = parts[0]
        if key == "GROUP":
            continue
        if key in ("GEN", "CLASS") and len(parts) == 1:
            raise AlgebraFileError(f"{key} needs a permutation", line_no)
        if key == "DEGREE":
            degree = _positive_int(stripped.split(), line_no)
        elif key == "GEN":
            if degree is None:
                raise AlgebraFileError("DEGREE must precede GEN", line_no)
            gens.append(parse_permutation(parts[1], degree, line_no))
        elif key == "CLASS":
            if degree is None:
                raise AlgebraFileError("DEGREE must precede CLASS", line_no)
            rep = parse_permutation(parts[1], degree, line_no)
        else:
            raise AlgebraFileError(f"unknown group-file key {key!r}", line_no)
    if degree is None or not gens or rep is None:
        raise AlgebraFileError("group file needs DEGREE, GEN lines, and CLASS")
    return ThreeTranspositionData.from_generators(degree, gens, rep)


def parse_reference(path) -> dict[str, dict]:
    """Pair-class reference rows: label dim tau_order form_value unit_length.

    Use '-' for fields that should not constrain the match.
    """
    rows: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped or stripped.startswith("REFERENCE"):
                continue
            parts = stripped.split()
            if len(parts) != 5:
                raise AlgebraFileError(
                    "reference row needs: label dim tau_order form unit_length", line_no
                )
            label = parts[0]
            row: dict = {}
            if parts[1] != "-":
                row["dim"] = int(parts[1])
            if parts[2] != "-":
                row["tau_order"] = int(parts[2])
            if parts[3] != "-":
                row["form_value"] = parse_rational(parts[3], line_no)
            if parts[4] != "-":
                row["unit_length"] = parse_rational(parts[4], line_no)
            rows[label] = row
    return rows

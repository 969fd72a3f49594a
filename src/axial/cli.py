"""Command-line interface: inspect algebra files, search axes, decompose.

Exit codes: 0 success, 2 usage, 3 cap exceeded, 4 validation failure, 5 solver
error (point extraction found a level with no eliminant).
Reports go to stdout as text; --out writes the same data as JSON.  Runs are
deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from axial.algebra import Algebra, AlgebraError
from axial.axet import (
    aut_from_axis_permutations,
    classify_pair,
    close_axet,
    jordan_axes,
    miyamoto_group,
    twins_of,
)
from axial.decomp import (
    axis_conflict,
    decompose_joint,
    extension_space,
    generate_probes,
    partial_decomposition,
    sign_kernel,
)
from axial.fusion import Axis, FusionLaw, check_axis_verbose, derivation_space
from axial.groebner import (
    DEFAULT_CAPS,
    POSITIVE_DIMENSIONAL,
    CapExceeded,
    NotZeroDimensional,
    SolverCaps,
)
from axial.io import (
    AlgebraFileError,
    emit_algebra,
    format_rational,
    parse_algebra,
    parse_group,
    parse_law_spec,
    parse_permutation,
    parse_reference,
)
from axial.linalg import det, identity
from axial.matsuo import double_axes_and_flip, matsuo_algebra
from axial.search import SearchConfig, axes_from_idempotents, naive_idempotents, nuanced_axes

USAGE_ERROR, CAP_ERROR, VALIDATION_ERROR, SOLVER_ERROR = 2, 3, 4, 5


class Report:
    """Human lines plus a machine-readable mirror of every claim."""

    def __init__(self, command: str):
        self.data: dict = {"command": command}
        self.lines: list[str] = []

    def add(self, key: str, value, text: str | None = None):
        self.data[key] = _jsonable(value)
        self.lines.append(text if text is not None else f"{key}: {_pretty(value)}")

    def note(self, text: str):
        self.lines.append(text)

    def render(self) -> str:
        return "\n".join(self.lines)


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return value


def _pretty(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_pretty(v) for v in value) + "]"
    return str(value)


def _vector_str(v) -> str:
    return " ".join(format_rational(x) for x in v)


_CAPS_FIELDS = {
    "basis": ("max_basis", int),
    "degree": ("max_degree", int),
    "pairs": ("max_pairs", int),
    "deadline": ("max_seconds", float),
}


def _parse_caps(spec: str) -> SolverCaps:
    """The argparse type of `--caps`: comma-separated `key=value` entries.

    `deadline` takes positive seconds, the others ints.
    """
    values = {}
    for part in spec.split(","):
        key, _, raw = part.partition("=")
        try:
            name, kind = _CAPS_FIELDS[key.strip()]
            value = kind(raw)
            if kind is float and not 0 < value < math.inf:
                raise ValueError(raw)
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(
                f"bad caps entry {part!r}; expected basis=N, degree=N, pairs=N "
                "or deadline=SECONDS (positive)"
            ) from None
        values[name] = value
    return SolverCaps(**values)


def _load(args) -> tuple[Algebra, list[tuple[str, tuple]], FusionLaw | None]:
    parsed = parse_algebra(args.file)
    return parsed.algebra, parsed.axes, parsed.law


def _verified_axes(alg, tagged_axes, custom_law) -> list[Axis]:
    """Certify each tagged axis in order, parsing each distinct law tag once."""
    axes = []
    laws: dict[str, FusionLaw] = {}
    for position, (tag, v) in enumerate(tagged_axes, start=1):
        if tag not in laws:
            laws[tag] = parse_law_spec(tag, custom_law)
        law = laws[tag]
        axis, reason = check_axis_verbose(alg, v, law)
        if axis is None:
            raise AlgebraError(f"axis {position} fails verification: {reason}")
        axes.append(axis)
    return axes


def _parse_token(token: str, kind, option: str, what: str):
    """`kind(token)`, or an AlgebraError naming the option and the token."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise AlgebraError(f"{option}: {token!r} is not {what}") from None


def _parse_rational(token: str, option: str) -> Fraction:
    return _parse_token(token, Fraction, option, "a rational number")


def _axis_indices(axes, spec: str, option: str) -> list[int]:
    """The 1-based axis indices in `spec`, each checked against the file."""
    indices = []
    for token in spec.split(","):
        index = _parse_token(token, int, option, "an axis index")
        if not (1 <= index <= len(axes)):
            raise AlgebraError(f"axis index {index} out of range (file has {len(axes)})")
        indices.append(index)
    return indices


def _pick_axis(axes, spec: str) -> Axis:
    """The one axis that `--axis` names."""
    indices = _axis_indices(axes, spec, "--axis")
    if len(indices) != 1:
        raise AlgebraError(f"--axis takes one axis index, got {spec!r}")
    return axes[indices[0] - 1]


def cmd_info(args, report):
    alg, tagged, law = _load(args)
    report.add("dimension", alg.dim)
    report.add("labels", list(alg.labels) if alg.labels else None)
    report.add("has_form", alg.gram is not None)
    report.add("has_unit_section", alg.unit is not None)
    if alg.gram is not None:
        report.add("gram_determinant", det(alg.gram))
    report.add("axes_listed", len(tagged))
    if tagged and alg.gram is not None:
        components = alg.connectivity_components([v for _, v in tagged])
        report.add("axis_connectivity_components", components)


def cmd_unit(args, report):
    alg, _, _ = _load(args)
    unit = alg.find_unit()
    if unit is None:
        report.add("unit", None, "no unit")
    else:
        report.add("unit", list(unit), f"unit: {_vector_str(unit)}")
        if alg.gram is not None:
            report.add("unit_length", alg.length(unit))


def cmd_radical(args, report):
    alg, _, _ = _load(args)
    radical = alg.radical()
    report.add("radical_dimension", radical.dim)
    for b in radical.basis:
        report.note(f"radical basis vector: {_vector_str(b)}")


def cmd_derivations(args, report):
    alg, _, _ = _load(args)
    space = derivation_space(alg)
    report.add(
        "derivation_dimension",
        space.dim,
        f"derivation space dimension {space.dim}; finiteness certificate "
        + ("PASS" if space.is_zero() else "INCONCLUSIVE"),
    )


def cmd_axes_naive(args, report):
    alg, _, custom = _load(args)
    length = _parse_rational(args.length, "--length") if args.length else None
    law = parse_law_spec(args.law, custom)
    result = naive_idempotents(alg, length=length, caps=args.caps)
    report.add("status", result.status)
    report.add("idempotents", [list(p) for p in result.points])
    report.note(f"idempotent count: {len(result.points)}")
    if result.eliminant_factors:
        report.add("eliminant_factors", [list(f) for f in result.eliminant_factors])
    if result.status == POSITIVE_DIMENSIONAL:
        report.note("variety is positive-dimensional; add relations and retry")
        return
    axes = axes_from_idempotents(alg, result, law)
    report.add("axes", [list(a.vector) for a in axes])
    report.note(f"axis count: {len(axes)}")


def cmd_axes_nuanced(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    seed_axis = _pick_axis(axes, args.axis)
    law = parse_law_spec(args.law, custom)
    if args.z_lengths == "auto":
        z_lengths = SearchConfig.z_lengths
    elif args.z_lengths == "":
        z_lengths = None  # enumerate idempotents of the 0-eigenspace directly
    else:
        z_lengths = tuple(_parse_rational(t, "--z-lengths") for t in args.z_lengths.split(","))
    cfg = SearchConfig(
        target_law=law,
        length=_parse_rational(args.length, "--length") if args.length else None,
        z_lengths=z_lengths,
        caps=args.caps,
    )
    result = nuanced_axes(alg, seed_axis, cfg)
    report.add("axes", [list(a.vector) for a in result.axes])
    report.note(f"axis count: {len(result.axes)}")
    report.add("unresolved_branches", len(result.unresolved))
    for branch in result.unresolved:
        key = "z_length" if "z_length" in branch else "z"
        report.note(f"unresolved branch at {key} = {_pretty(branch[key])}")


def cmd_twins(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    axis = _pick_axis(axes, args.axis)
    twins = twins_of(alg, axis, caps=args.caps)
    report.add("twins", [list(t.vector) for t in twins])
    report.note(f"twin count: {len(twins)}")


def cmd_jordan(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    axet = close_axet(alg, axes)
    group = miyamoto_group(alg, axet)
    law = parse_law_spec(args.law, custom)
    found = jordan_axes(alg, group, law, caps=args.caps)
    report.add("jordan_axes", [list(a.vector) for a in found])
    report.note(f"jordan axis count: {len(found)}")


def cmd_miy(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    axet = close_axet(alg, axes)
    group = miyamoto_group(alg, axet)
    report.add("axet_size", len(axet))
    report.add("miyamoto_order", group.order, f"Miyamoto group order {group.order}")
    report.add("faithful_on_axet", group.faithful)


def cmd_classify_pairs(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    reference = parse_reference(args.reference) if args.reference else None
    rows = []
    labels = []
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            pc = classify_pair(alg, axes[i], axes[j], reference)
            rows.append(
                {
                    "pair": [i + 1, j + 1],
                    "dim": pc.subalgebra_dim,
                    "tau_order": pc.tau_product_order,
                    "form_value": pc.form_value,
                    "unit_length": pc.unit_length,
                    "label": pc.label,
                }
            )
            labels.append(pc.label or "?")
            report.note(
                f"pair ({i + 1},{j + 1}): dim {pc.subalgebra_dim}"
                f" |tt'| {pc.tau_product_order} (a,b) {_pretty(pc.form_value)}"
                f" (1B,1B) {_pretty(pc.unit_length)} label {pc.label or '-'}"
            )
    report.add("pairs", rows, "")
    report.add("shape_multiset", sorted(labels), "shape multiset: " + " ".join(sorted(labels)))


def cmd_aut_perm(args, report):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    axet = close_axet(alg, axes)
    aut = aut_from_axis_permutations(alg, axet)
    report.add("axet_size", len(axet))
    report.add("aut_order", aut.order, f"automorphism group order {aut.order}")
    report.add("generators", [p.array_form for p in aut.group.generators])
    report.note(
        "note: this is the stabiliser of the axet in Aut(A); it is all of Aut(A)"
        " only if the axet holds every axis of its type"
    )


def _key_label(key) -> str:
    """A component's eigenvalue tuple as the component lines print it."""
    return ",".join(format_rational(x) for x in key)


def _decomposition(args, report, partial=False):
    alg, tagged, custom = _load(args)
    axes = _verified_axes(alg, tagged, custom)
    indices = _axis_indices(axes, args.y, "--y")
    repeated = next((i for p, i in enumerate(indices) if i in indices[:p]), None)
    if repeated is not None:
        raise AlgebraError(f"--y names axis {repeated} twice")
    chosen = [axes[i - 1] for i in indices]
    conflict = axis_conflict(chosen, indices)
    if conflict is not None:
        raise conflict
    decomposition = (
        partial_decomposition(alg, chosen) if partial else decompose_joint(alg, chosen)
    )
    dims = {
        _key_label(key): space.dim
        for key, space in sorted(decomposition.components.items(), reverse=True)
    }
    report.add("component_dimensions", dims, "")
    for key, dim in dims.items():
        report.note(f"component ({key}): dimension {dim}")
    report.add("complete", decomposition.complete)
    report.add("zero_component_dimension", decomposition.zero_component.dim)
    return alg, decomposition


def cmd_decompose(args, report):
    alg, decomposition = _decomposition(args, report, partial=args.partial)
    if args.partial and decomposition.a_sharp is not None:
        report.add("orthogonal_complement_dimension", decomposition.a_sharp.dim)
    report.note("module checks: PASS")


def cmd_extend(args, report):
    _, decomposition = _decomposition(args, report)
    u = decomposition.zero_component
    dims = {}
    for key, space in sorted(decomposition.components.items(), reverse=True):
        if space is u:
            continue
        ext = extension_space(decomposition, key, identity(u.dim))
        label = _key_label(key)
        dims[label] = ext.dim
        report.note(
            f"identity extensions to ({label}): dimension {ext.dim}"
            + ("" if ext.contains_identity() else " (identity missing)")
        )
    report.add("extension_dimensions", dims, "")


def cmd_sign_kernel(args, report):
    alg, decomposition = _decomposition(args, report)
    keys = [
        tuple(_parse_token(x, Fraction, "--components", "an eigenvalue") for x in chunk.split(","))
        for chunk in args.components.split(";")
    ]
    components = []
    for key in keys:
        if key not in decomposition.components:
            raise AlgebraError(f"no component with eigenvalues ({_key_label(key)})")
        components.append(decomposition.components[key])
    long_probes = []
    if args.long_probes:
        for chunk in args.long_probes.split(";"):
            long_probes.append(
                tuple(
                    _parse_token(x, int, "--long-probes", "a component position")
                    for x in chunk.split(",")
                )
            )
    probes = generate_probes(
        alg,
        decomposition.zero_component,
        components,
        seed=args.seed,
        long_probes=long_probes,
    )
    result = sign_kernel(alg, components, probes)
    for record in result.records:
        kind = type(record.probe).__name__
        status = "used" if record.used else "skipped (zero pairing)"
        report.note(f"{kind}: value {_pretty(record.value)} ({status})")
    report.add("certified_components", sorted(result.certified))
    report.add(
        "admissible_sign_tuples",
        [list(s) for s in result.admissible],
        "admissible sign tuples: "
        + " ".join("(" + ",".join(str(x) for x in s) + ")" for s in result.admissible),
    )
    report.add("sign_kernel_order", result.order)


def _write_or_print(args, report, text: str):
    """Write the algebra file to --out-alg, or print it when none is given."""
    if args.out_alg:
        with open(args.out_alg, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.note(f"algebra file written to {args.out_alg}")
    else:
        report.note(text.rstrip("\n"))


def cmd_matsuo(args, report):
    data = parse_group(args.group)
    alg = matsuo_algebra(data, _parse_rational(args.eta, "--eta"))
    report.add("class_size", data.size)
    report.add("dimension", alg.dim)
    axes = [(f"j:{args.eta}", tuple(row)) for row in identity(alg.dim)]
    _write_or_print(args, report, emit_algebra(alg, axes=axes))


def cmd_flip(args, report):
    data = parse_group(args.group)
    sigma = parse_permutation(args.sigma, data.degree)
    eta = _parse_rational(args.eta, "--eta")
    if eta == Fraction(1, 2):
        raise AlgebraError("flip at eta = 1/2 has no axis law: 2 eta would be the eigenvalue 1")
    flip = double_axes_and_flip(data, eta, sigma)
    alg = flip.algebra
    report.add("dimension", alg.dim)
    report.add("single_axes", [i + 1 for i in flip.single_axes])
    report.add("double_axes", [i + 1 for i in flip.double_axes])
    if alg.gram is not None:
        report.add("gram_determinant", det(alg.gram))
    unit = alg.find_unit()
    if unit is not None:
        report.add("unit", list(unit), f"unit: {_vector_str(unit)}")
    law_tag = f"m:{format_rational(2 * eta)}:{format_rational(eta)}"
    axes = [
        (law_tag, tuple(identity(alg.dim)[i]))
        for i in flip.single_axes + flip.double_axes
    ]
    _write_or_print(args, report, emit_algebra(alg, axes=axes))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axial",
        description="exact tools for axial algebras: axes, involutions, automorphisms",
    )
    parser.add_argument("--out", help="write the report as JSON to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_caps(p):
        p.add_argument(
            "--caps",
            type=_parse_caps,
            default=DEFAULT_CAPS,
            help="solver caps, e.g. basis=512,pairs=1000,deadline=30 "
            "(deadline: seconds per Groebner basis computation)",
        )

    for name, handler, help_text in [
        ("info", cmd_info, "summarize an algebra file"),
        ("unit", cmd_unit, "find the multiplicative identity"),
        ("radical", cmd_radical, "kernel of the Frobenius form"),
        ("derivations", cmd_derivations, "derivation space / finiteness certificate"),
    ]:
        p = add(name, handler, help=help_text)
        p.add_argument("file")

    p = add("axes-naive", cmd_axes_naive, help="all idempotents, filtered to axes")
    p.add_argument("file")
    p.add_argument("--length", help="idempotent length constraint, e.g. 1 or 11/2")
    p.add_argument("--law", default="m:1/4:1/32")
    add_caps(p)

    p = add("axes-nuanced", cmd_axes_nuanced, help="0-eigenspace axis search")
    p.add_argument("file")
    p.add_argument("--axis", required=True, help="1-based index into the AXES section")
    p.add_argument("--length", default="1")
    p.add_argument("--law", default="m:1/4:1/32")
    p.add_argument("--z-lengths", default="auto", help="comma list, empty for unconstrained")
    add_caps(p)

    p = add("twins", cmd_twins, help="axes sharing an involution")
    p.add_argument("file")
    p.add_argument("--axis", required=True)
    add_caps(p)

    p = add("jordan", cmd_jordan, help="axes with trivial involution")
    p.add_argument("file")
    p.add_argument("--law", default="m:1/4:1/32")
    add_caps(p)

    p = add("miy", cmd_miy, help="Miyamoto group of the closed axet")
    p.add_argument("file")

    p = add("classify-pairs", cmd_classify_pairs, help="two-generated subalgebra records")
    p.add_argument("file")
    p.add_argument("--reference", help="reference table for labels")

    p = add("aut-perm", cmd_aut_perm, help="automorphisms permuting a spanning axet")
    p.add_argument("file")

    p = add("decompose", cmd_decompose, help="joint eigenspace decomposition")
    p.add_argument("file")
    p.add_argument("--y", required=True, help="comma list of 1-based axis indices")
    p.add_argument("--partial", action="store_true", help="add the orthogonal complement")

    p = add("extend", cmd_extend, help="extensions of the identity to each component")
    p.add_argument("file")
    p.add_argument("--y", required=True)

    p = add("sign-kernel", cmd_sign_kernel, help="admissible sign tuples from probes")
    p.add_argument("file")
    p.add_argument("--y", required=True)
    p.add_argument("--components", required=True, help="semicolon list of eigenvalue tuples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--long-probes",
        help="semicolon list of triples of 0-based positions in --components, e.g. 0,1,2",
    )

    p = add("matsuo", cmd_matsuo, help="Matsuo algebra of a 3-transposition class")
    p.add_argument("group")
    p.add_argument("--eta", required=True)
    p.add_argument("--out-alg", help="write the algebra file here")

    p = add("flip", cmd_flip, help="flip subalgebra of single and double axes")
    p.add_argument("group")
    p.add_argument("--eta", required=True)
    p.add_argument("--sigma", required=True, help="involution in cycle notation")
    p.add_argument("--out-alg")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `build_parser`, built on the first `main` call and
    reused: `parse_args` reads it without changing it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    report = Report(args.command)
    try:
        args.handler(args, report)
        code = 0
    except CapExceeded as exc:
        report.note(f"cap exceeded: {exc}")
        code = CAP_ERROR
    except NotZeroDimensional as exc:
        report.note(f"solver error: {exc}")
        code = SOLVER_ERROR
    except (AlgebraFileError, AlgebraError, ValueError, OSError) as exc:
        report.note(f"error: {exc}")
        code = VALIDATION_ERROR
    output = report.render()
    if output:
        print(output)
    if args.out:
        report.data["exit_code"] = code
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Every name a module under src/axial imports is used in that module, and
sympy is imported only where it is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "axial"

# Imports that exist to be re-exported: the package's public names in
# `__init__.py`, and the kernel module bound in `_backend`.
REEXPORTS = {("_backend.py", "kernels")}
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names_in_strings(node) -> set[str]:
    """Names inside the string constants under node, each read as an expression."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            expr = ast.parse(sub.value, mode="eval")
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names_in_strings(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_strings(node.returns)
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items())
        if name not in used and (path.name, name) not in REEXPORTS
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports(SRC / module) == []


def test_every_private_module_name_is_used():
    # A module-level `_` name is internal to the package, so a definition
    # that nothing under src/axial reads is dead code.
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []


@pytest.mark.parametrize("module", ["fusion.py", "axet.py"])
def test_axis_and_group_layers_import_nothing_from_the_backend(module):
    # the echelon kernels are reached through `axial.linalg` alone, so a
    # change to the null-space reader stays local to that module
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"{module}:{node.lineno} {n}" for n in names if n.startswith("axial._backend")]
    assert found == []


def _is_type_checking_block(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"


def _module_level_imports(nodes):
    """The import statements a module runs on import: its top-level
    statements, descending into every compound statement except function and
    class bodies and `if TYPE_CHECKING:` blocks."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        elif not _is_type_checking_block(node):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, []))


@pytest.mark.parametrize("module", ["__init__.py"] + MODULES)
def test_sympy_is_imported_only_inside_functions(module):
    # sympy takes most of a fresh process's start-up, and only group orders,
    # the factoring fallback and `content_primes` need it
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []
    for node in _module_level_imports(tree.body):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        found += [f"{module}:{node.lineno} {n}" for n in names if n.split(".")[0] == "sympy"]
    assert found == []


FIXTURES = SRC.parent.parent / "fixtures"
FRESH = (
    "import sys, contextlib, io\n"
    "import axial.cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = axial.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(code, 'sympy' in sys.modules)\n"
    "print(out.getvalue())\n"
)


def _fresh(script, *args):
    """The standard output of a script run in a new interpreter."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _fresh_cli(*argv):
    """Exit code, whether sympy was loaded, and the report of one command
    run by `cli.main` in a new interpreter."""
    args = [str(FIXTURES / a) if a.endswith((".alg", ".grp")) else a for a in argv]
    status, report = _fresh(FRESH, *args).split("\n", 1)
    code, loaded = status.split()
    return int(code), loaded == "True", report


SIGN_COMPONENTS = "1/4,1/32,1/32;1/32,1/4,1/32;1/32,1/32,1/4"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("info", "q2.alg"),
        ("unit", "q2.alg"),
        ("radical", "triple2b.alg"),
        ("derivations", "triple2b.alg"),
        ("axes-naive", "q2.alg", "--length", "1", "--law", "m:1/2:1/4"),
        ("axes-nuanced", "q2.alg", "--axis", "3", "--law", "m:1/2:1/4", "--z-lengths", ""),
        ("twins", "q2.alg", "--axis", "3"),
        ("classify-pairs", "q2.alg"),
        ("decompose", "triple2b.alg", "--y", "1,2,3", "--partial"),
        ("extend", "triple2b.alg", "--y", "1,2,3"),
        ("sign-kernel", "triple2b.alg", "--y", "1,2,3", "--components", SIGN_COMPONENTS, "--seed", "7"),
        ("matsuo", "s3.grp", "--eta", "1/4"),
        ("flip", "s4.grp", "--eta", "1/4", "--sigma", "(1,2)(3,4)"),
    ],
    ids=lambda argv: argv[0] if argv else "import",
)
def test_commands_without_groups_start_without_sympy(argv):
    code, loaded, _ = _fresh_cli(*argv)
    assert code == 0 and not loaded


@pytest.mark.parametrize(
    "argv, line",
    [
        (("miy", "q2.alg"), "Miyamoto group order 4"),
        (("aut-perm", "q2.alg"), "automorphism group order 4"),
        (("jordan", "q2.alg", "--law", "m:1/2:1/4"), "jordan axis count: 1"),
    ],
    ids=["miy", "aut-perm", "jordan"],
)
def test_group_orders_load_sympy(argv, line):
    code, loaded, report = _fresh_cli(*argv)
    assert code == 0 and loaded
    assert line in report


def test_infer_fusion_law_starts_without_sympy():
    # the spectrum is read off the minimal polynomial of the integer
    # adjoint, factored without the fallback on a Matsuo axis
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from axial.fusion import infer_fusion_law, jordan_law\n"
        "from axial.linalg import unit_vec\n"
        "from axial.matsuo import matsuo_algebra, symmetric_transpositions\n"
        "alg = matsuo_algebra(symmetric_transpositions(4), Fraction(1, 4))\n"
        "law = infer_fusion_law(alg, unit_vec(alg.dim, 0))\n"
        "print(law == jordan_law(Fraction(1, 4)), 'sympy' in sys.modules)\n"
    )
    assert _fresh(script).split() == ["True", "False"]


def test_infer_fusion_law_on_a_non_semisimple_adjoint_starts_without_sympy():
    # a repeated factor of the minimal polynomial is found by a gcd over Q,
    # not by the factoring fallback; the three algebras of
    # test_fusion.py::test_infer_fusion_law_needs_a_semisimple_rational_adjoint
    script = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from axial.algebra import Algebra\n"
        "from axial.fusion import infer_fusion_law\n"
        "from axial.linalg import unit_vec\n"
        "blocks = [\n"
        "    [(0, 1, 1, F(1, 2)), (0, 1, 2, 1), (0, 2, 2, F(1, 2))],\n"
        "    [(0, 1, 2, 1), (0, 2, 1, 2)],\n"
        "    [(0, 1, 2, 1)],\n"
        "]\n"
        "for block in blocks:\n"
        "    alg = Algebra.from_gamma(3, [(0, 0, 0, 1)] + block)\n"
        "    print(infer_fusion_law(alg, unit_vec(3, 0)))\n"
        "print('sympy' in sys.modules)\n"
    )
    assert _fresh(script).split() == ["None", "None", "None", "False"]


def test_infer_fusion_law_leaves_an_irreducible_quartic_unsplit_without_sympy():
    # e0 is idempotent and acts on e1..e4 by the companion matrix of
    # x^4 - 10x^2 + 1, which is irreducible over Q and splits modulo every
    # prime: no rational spectrum, so no law, read off `linear_factors`
    script = (
        "import sys\n"
        "from axial.algebra import Algebra\n"
        "from axial.fusion import infer_fusion_law\n"
        "from axial.linalg import unit_vec\n"
        "gamma = [(0, 0, 0, 1), (0, 1, 2, 1), (0, 2, 3, 1), (0, 3, 4, 1), (0, 4, 1, -1), (0, 4, 3, 10)]\n"
        "alg = Algebra.from_gamma(5, gamma)\n"
        "print(infer_fusion_law(alg, unit_vec(5, 0)), 'sympy' in sys.modules)\n"
    )
    assert _fresh(script).split() == ["None", "False"]

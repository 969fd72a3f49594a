"""The benchmark's seeded workloads: job lists and their correctness checks.

A workload is built from a seed (that build is the set-up a user pays before
the first job can run) and then hands out the jobs of pass `k`.  Jobs call
the library through module attributes (``search.naive_idempotents``), so the
tracer sees every call.  Each job carries a check that runs outside the
timed region and returns None or the reason the answer is wrong.

Inputs that take minutes at the commit that introduced this benchmark are
left out, since one of them would swamp every other job:

- full ``triple2b`` at length 1 (over 10 min) and at length 2 (18 s);
- ``triple2b`` on a 6-coordinate subspace without e1 (over 500 s);
- ``nuanced_axes`` on ``triple2b`` (over 120 s);
- random 4-dimensional algebras (over 150 s for the first instance);
- ``aut_from_axis_permutations`` on S5 (6 s) and ``miyamoto_group`` on S6
  (11 s).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from axial import algebra, axet, cli, fusion, matsuo, search
from axial import io as axial_io
from axial.groebner import POSITIVE_DIMENSIONAL
from axial.linalg import Subspace, unit_vec


@dataclass
class Job:
    """One timed call and the check of its answer.

    `limit_s` is generous against the job's time at the commit that
    introduced the benchmark; a job that exceeds it counts as failed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    limit_s: float


def _idempotent_failure(alg, points, length=None) -> Optional[str]:
    for u in points:
        if alg.product(u, u) != u:
            return f"returned non-idempotent {u}"
        if length is not None and alg.length(u) != length:
            return f"idempotent {u} has length {alg.length(u)}, asked {length}"
    return None


# ---------------------------------------------------------------- idem-random


def random_gamma(rng: random.Random, dim: int = 3) -> list[tuple[int, int, int, int]]:
    """Structure constants uniform in [-2, 2], drawn as in acceptance criterion 9."""
    gamma = []
    for i in range(dim):
        for j in range(i, dim):
            for k in range(dim):
                c = rng.randint(-2, 2)
                if c:
                    gamma.append((i, j, k, c))
    return gamma


class IdemRandom:
    """Full-variety idempotent solves of random commutative 3-dim algebras.

    Small bases with growing rational coefficients: about half the time is
    normal-form arithmetic, the rest pair selection, polynomial products and
    eliminant factoring.
    """

    name = "idem-random"
    # Solve times differ between random algebras (coefficient of variation
    # about 0.3), so the pass is long enough for its total to vary little
    # from seed to seed.
    JOBS = 120

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.gammas = [random_gamma(rng) for _ in range(self.JOBS)]
        self.algebras = [algebra.Algebra.from_gamma(3, g) for g in self.gammas]

    def expected_answers(self) -> list:
        """Rational idempotents from the independent resultant oracle, or
        None where it is inconclusive."""
        from oracles import OracleInconclusive, oracle_idempotents

        expected = []
        for gamma in self.gammas:
            try:
                expected.append(oracle_idempotents(gamma))
            except OracleInconclusive:
                expected.append(None)
        return expected

    def jobs(self, k: int, expected: list) -> list[Job]:
        pairs = zip(self.algebras, expected)
        return [self._job(alg, answer, i) for i, (alg, answer) in enumerate(pairs)]

    def _job(self, alg, expected, i: int) -> Job:
        def check(result) -> Optional[str]:
            failure = _idempotent_failure(alg, result.points)
            if failure:
                return failure
            if expected is not None and result.status != POSITIVE_DIMENSIONAL:
                if {tuple(p) for p in result.points} != expected:
                    return "solution set differs from the resultant oracle"
            return None

        return Job(f"random[{i}]", lambda: search.naive_idempotents(alg), check, 10.0)


# -------------------------------------------------------------- idem-fixtures

RESCALE_MENU = tuple(
    Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3", "3/2", "-2/3")
)

# (coordinates, length) -> (status, point count) of triple2b on e1..e<coordinates>
TRIPLE_2B_ANSWERS = {
    (4, None): ("finite", 16),
    (4, 1): ("finite", 4),
    (4, 2): ("finite", 6),
    (5, None): ("needs_extension", 16),
    (5, 1): ("finite", 4),
    (5, 2): ("finite", 6),
    (6, None): ("needs_extension", 16),
    (6, 1): ("finite", 4),
    (6, 2): ("finite", 6),
}

SIGN_COMPONENTS = "1/4,1/32,1/32;1/32,1/4,1/32;1/32,1/32,1/4"

# argv, with fixture files named relative to fixtures/, and lines the report
# must contain
CLI_ANSWERS = (
    (("aut-perm", "q2.alg"), ("automorphism group order 4",)),
    (
        ("axes-nuanced", "q2.alg", "--axis", "3", "--law", "m:1/2:1/4", "--z-lengths", ""),
        ("axis count: 3", "unresolved_branches: 0"),
    ),
    (("twins", "q2.alg", "--axis", "3"), ("twin count: 1",)),
    (("jordan", "q2.alg", "--law", "m:1/2:1/4"), ("jordan axis count: 1",)),
    (
        ("classify-pairs", "q2.alg"),
        ("pair (1,2): dim 2 |tt'| 1 (a,b) 0 (1B,1B) 2 label 2B", "shape multiset: 2B ? ? ? ? ?"),
    ),
    (("miy", "q2.alg"), ("Miyamoto group order 4",)),
    (
        ("decompose", "triple2b.alg", "--y", "1,2,3", "--partial"),
        ("complete: True", "module checks: PASS"),
    ),
    (
        ("extend", "triple2b.alg", "--y", "1,2,3"),
        ("identity extensions to (1/4,1/32,1/32): dimension 1",),
    ),
    (
        ("sign-kernel", "triple2b.alg", "--y", "1,2,3", "--components", SIGN_COMPONENTS, "--seed", "7"),
        ("sign_kernel_order: 4",),
    ),
    (("derivations", "triple2b.alg"), ("derivation space dimension 0; finiteness certificate PASS",)),
    (("flip", "s4.grp", "--eta", "1/4", "--sigma", "(1,2)(3,4)"), ("dimension: 4",)),
    (("axes-naive", "q2.alg", "--length", "1", "--law", "m:1/2:1/4"), ("axis count: 2",)),
)


def rescale_basis(alg, factors):
    """The same algebra in the basis b_i = c_i e_i.

    Structure constants become c_i c_j g_ijk / c_k, the Gram matrix
    c_i c_j G_ij and the unit u_k / c_k: an isomorphism, so every count and
    status is unchanged, and the lex variable order is untouched.
    """
    c = [Fraction(x) for x in factors]
    gamma = [
        (i, j, k, c[i] * c[j] * value / c[k])
        for (i, j), row in alg.table.items()
        for k, value in row
    ]
    n = alg.dim
    gram = None
    if alg.gram is not None:
        gram = [[c[i] * c[j] * alg.gram[i][j] for j in range(n)] for i in range(n)]
    unit = None
    if alg.unit is not None:
        unit = [alg.unit[k] / c[k] for k in range(n)]
    return algebra.Algebra.from_gamma(n, gamma, gram=gram, unit=unit)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class IdemFixtures:
    """Structured searches on the fixtures plus the fixture command lines.

    Sparse systems with many critical pairs: on the 6-coordinate searches
    most of the time is Buchberger's pair selection.  The command lines add
    many small linalg, decomp, io and cli calls.  The list has 25 jobs, so
    that its median and 90th percentile fall inside one job's block of
    times (ranks 12.5 and 22.5) rather than between two.
    """

    name = "idem-fixtures"

    def __init__(self, seed: int, root: Path):
        self.fixtures = root / "fixtures"
        rng = random.Random(seed)
        self.factors = [rng.choice(RESCALE_MENU) for _ in range(7)]
        triple = axial_io.parse_algebra(self.fixtures / "triple2b.alg").algebra
        self.triple = rescale_basis(triple, self.factors)
        self.q2 = axial_io.parse_algebra(self.fixtures / "q2.alg").algebra
        self.diagonals = {n: algebra.diagonal_algebra(n) for n in (6, 7, 8)}

    def expected_answers(self):
        return None

    def jobs(self, k: int, expected=None) -> list[Job]:
        out = []
        for (coords, length), answer in TRIPLE_2B_ANSWERS.items():
            sub = Subspace(7, [unit_vec(7, i) for i in range(coords)])
            out.append(
                self._search_job(f"triple2b[e1..e{coords},len={length}]", self.triple, sub, length, answer)
            )
        out.append(self._search_job("q2[len=1]", self.q2, None, 1, ("finite", 2)))
        for n, alg in self.diagonals.items():
            out.append(self._search_job(f"diagonal[{n}]", alg, None, None, ("finite", 2**n)))
        for argv, lines in CLI_ANSWERS:
            out.append(self._cli_job(argv, lines))
        return out

    def _search_job(self, name, alg, sub, length, answer) -> Job:
        def check(result) -> Optional[str]:
            got = (result.status, len(result.points))
            if got != answer:
                return f"status and count {got}, expected {answer}"
            return _idempotent_failure(alg, result.points, None if length is None else Fraction(length))

        return Job(name, lambda: search.naive_idempotents(alg, subspace=sub, length=length), check, 20.0)

    def _cli_job(self, argv, lines) -> Job:
        full = tuple(str(self.fixtures / a) if a.endswith((".alg", ".grp")) else a for a in argv)

        def check(result) -> Optional[str]:
            code, text = result
            if code != 0:
                return f"exit code {code}"
            missing = [line for line in lines if line not in text.splitlines()]
            return f"report lacks {missing}" if missing else None

        return Job(f"cli[{argv[0]}]", lambda: _run_cli(full), check, 10.0)


# --------------------------------------------------------------------- matsuo

ETA_MENU = tuple(Fraction(x) for x in ("1/2", "1/4", "1/3", "2/5", "3/8", "2"))

# derivation-space dimension of the Matsuo algebra of S_m at eta; 0 elsewhere
DERIVATION_DIMS = {(5, Fraction(1, 2)): 6, (6, Fraction(1, 2)): 10}

GROUP_ORDERS = {4: 24, 5: 120}


class Matsuo:
    """Matsuo algebras of S4..S7 built from generators, no Groebner code.

    Time sits in one dense RREF (the derivation system of S6 is 1800 x 225)
    and in many eigenspace, solve and mat_vec calls.

    The seed shuffles the eta menu.  Job slot s of pass k takes
    eta = menu[(k + s) mod 6].  Every pass so solves S5 at each eta and
    spreads its 42 axis checks (two sweeps over the 21 axes of S7) evenly
    over the menu, the single jobs walk through the menu pass by pass, and the job list's cost
    hardly depends on the seed.  The list is laid out for the percentiles:
    the median falls in the middle of the 42 axis checks and the 90th
    percentile in the middle of the seven S5 derivation and S4
    automorphism jobs, never on a boundary between job kinds.
    """

    name = "matsuo"

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.menu = rng.sample(ETA_MENU, len(ETA_MENU))
        self.data = {m: matsuo.symmetric_transpositions(m) for m in (4, 5, 6, 7)}
        self.algebras = {
            (m, eta): matsuo.matsuo_algebra(self.data[m], eta)
            for m in self.data
            for eta in ETA_MENU
        }

    def expected_answers(self):
        return None

    def jobs(self, k: int, expected=None) -> list[Job]:
        def eta(slot):
            return self.menu[(k + slot) % len(self.menu)]

        out = [self._derivation_job(5, eta(s), 30.0) for s in range(len(self.menu))]
        out += [
            self._derivation_job(6, eta(len(out)), 90.0),
            self._miyamoto_job(4, eta(len(out) + 1)),
            self._miyamoto_job(5, eta(len(out) + 2)),
            self._aut_job(4, eta(len(out) + 3)),
        ]
        for _sweep in range(2):
            for i in range(self.data[7].size):
                out.append(self._axis_job(7, i, eta(len(out))))
        return out

    def _axis(self, m, i, eta):
        return fusion.check_axis(
            self.algebras[(m, eta)], unit_vec(self.data[m].size, i), fusion.jordan_law(eta)
        )

    def _derivation_job(self, m, eta, limit) -> Job:
        expected = DERIVATION_DIMS.get((m, eta), 0)

        def check(space) -> Optional[str]:
            return None if space.dim == expected else f"dimension {space.dim}, expected {expected}"

        alg = self.algebras[(m, eta)]
        return Job(f"derivations[S{m},{eta}]", lambda: fusion.derivation_space(alg), check, limit)

    def _axis_job(self, m, i, eta) -> Job:
        def check(axis) -> Optional[str]:
            return None if axis is not None and axis.primitive else "axis failed to certify"

        return Job(f"check_axis[S{m},{i},{eta}]", lambda: self._axis(m, i, eta), check, 10.0)

    def _miyamoto_job(self, m, eta) -> Job:
        """Close the axet of the Coxeter transpositions and enumerate its group."""
        data, alg = self.data[m], self.algebras[(m, eta)]
        seeds = [data.index_of(matsuo.transposition_perm(m, a, a + 1)) for a in range(1, m)]

        def run():
            closed = axet.close_axet(alg, [self._axis(m, i, eta) for i in seeds])
            return closed, axet.miyamoto_group(alg, closed)

        def check(result) -> Optional[str]:
            closed, group = result
            if len(closed) != data.size or group.order != GROUP_ORDERS[m]:
                return f"axet {len(closed)}, group order {group.order}"
            return None

        return Job(f"miyamoto[S{m},{eta}]", run, check, 20.0)

    def _aut_job(self, m, eta) -> Job:
        alg = self.algebras[(m, eta)]

        def run():
            axes = [self._axis(m, i, eta) for i in range(self.data[m].size)]
            return axet.aut_from_axis_permutations(alg, axet.close_axet(alg, axes))

        def check(group) -> Optional[str]:
            expected = GROUP_ORDERS[m]
            return None if group.order == expected else f"order {group.order}, expected {expected}"

        return Job(f"aut[S{m},{eta}]", run, check, 30.0)


WORKLOADS = {w.name: w for w in (IdemRandom, IdemFixtures, Matsuo)}

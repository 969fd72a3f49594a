"""Independent brute-force solver for 3-variable polynomial systems.

Used to cross-check the Groebner route; nothing here imports from the
package except twenty-three former implementations kept to test the current
ones against: `reference_rref` (the dense fraction-free loop),
`reference_ad_matrix` (the dense adjoint loop), `reference_annihilator`
(the kernel of stacked dense adjoints),
`reference_buchberger` (the all-pairs loop),
`reference_enumerate_points` (one new basis per branch),
`reference_normal_form` (division over Q in Fraction arithmetic),
`reference_s_polynomial` (two polynomial products), `reference_char_poly`
(n+1 determinants and a Vandermonde solve), `reference_semisimple_spectrum`
(its rational roots by Sturm bisection, one dense eigenspace each),
`reference_coordinates` (one linear solve per vector),
`reference_graded_involution` (one solve per column),
`reference_derivation_space` (one dense RREF of
`reference_leibniz_rows`, every column kept),
`reference_check_axis` (one membership test per eigenvector product),
`reference_infer_fusion_law` (eigenbasis coordinates of every product, on
`reference_semisimple_spectrum`, so without sympy),
`reference_frobenius_violation` (the n^3 triple loop),
`reference_miyamoto_group` (every element, one matrix each),
`reference_aut_from_axis_permutations` (every candidate map verified),
`reference_close_axet` (rounds under every found involution to a
fixpoint), `reference_transport_axis` (conjugation by dense matrices),
`reference_intersect` (the kernel of stacked bases),
`reference_decompose_joint` (every tuple of eigenvalues),
`reference_extension_space` (dense rows) and `reference_sign_filter` (all
2^k sign tuples).  Elimination goes through Sylvester resultants whose
determinants are computed by evaluation at integer nodes plus Lagrange
interpolation, rational roots come from the rational root theorem, and
every candidate point is verified by substitution into the original
system, so spurious resultant roots are harmless.
"""

from fractions import Fraction


class OPoly:
    """Minimal sparse polynomial in 3 variables: exponent tuple -> Fraction."""

    NVARS = 3

    def __init__(self, terms=None):
        self.terms = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[tuple(exp)] = c

    @classmethod
    def var(cls, i):
        exp = tuple(1 if j == i else 0 for j in range(cls.NVARS))
        return cls({exp: 1})

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return OPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) - c
        return OPoly(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return OPoly(out)

    def scale(self, c):
        return OPoly({e: Fraction(c) * v for e, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def substitute(self, i, value):
        out = {}
        for exp, c in self.terms.items():
            v = c * Fraction(value) ** exp[i]
            rest = exp[:i] + (0,) + exp[i + 1 :]
            out[rest] = out.get(rest, Fraction(0)) + v
        return OPoly(out)

    def evaluate(self, point):
        total = Fraction(0)
        for exp, c in self.terms.items():
            value = c
            for x, e in zip(point, exp):
                if e:
                    value *= Fraction(x) ** e
            total += value
        return total

    def univariate_coeffs(self, i):
        """Coefficient list in variable i; requires the others to be absent."""
        for exp in self.terms:
            if any(e and j != i for j, e in enumerate(exp) if j != i):
                raise ValueError("not univariate")
        out = [Fraction(0)] * (self.degree_in(i) + 1)
        for exp, c in self.terms.items():
            out[exp[i]] = c
        return out


def det_fraction(rows):
    """Exact determinant; rows are scaled to integers, then Bareiss runs."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = []
    scale = Fraction(1)
    for r in rows:
        denom = 1
        for x in r:
            denom = _lcm(denom, Fraction(x).denominator)
        scale *= denom
        m.append([int(Fraction(x) * denom) for x in r])
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return Fraction(sign * m[n - 1][n - 1], 1) / scale


def interpolate(xs, ys):
    """Coefficients (lowest first) of the polynomial through (xs, ys)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
        s = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += s * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class OracleInconclusive(Exception):
    """An eliminant degenerated; the caller should resample the system."""


def _list_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _total_degree(p):
    return max((sum(e) for e in p.terms), default=0)


def _nodes(count):
    """Integer interpolation nodes straddling zero to keep magnitudes small."""
    out = []
    t = 0
    while len(out) < count:
        out.append(Fraction(t))
        if t >= 0:
            t = -(t + 1)
        else:
            t = -t
    return out


def _sylvester_rows(fr, gr):
    df, dg = len(fr) - 1, len(gr) - 1
    size = df + dg
    rows = []
    for shift in range(dg):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(fr)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(df):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(gr)):
            row[shift + k] = c
        rows.append(row)
    return rows


def resultant_univariate(f, g, elim, keep):
    """res_elim(f, g) as a coefficient list in `keep`.

    Both polynomials may only involve the variables elim and keep.  The
    Sylvester determinant is evaluated at integer nodes in `keep` and
    interpolated back.
    """
    df, dg = f.degree_in(elim), g.degree_in(elim)
    if df == 0 and dg == 0:
        return [Fraction(0)]  # pair carries no elimination information
    if df == 0 or dg == 0:
        base, power = (f, dg) if df == 0 else (g, df)
        base_coeffs = base.univariate_coeffs(keep)
        out = [Fraction(1)]
        for _ in range(power):
            out = _list_mul(out, base_coeffs)
        return out
    bound = min(
        df * g.degree_in(keep) + dg * f.degree_in(keep),
        _total_degree(f) * _total_degree(g),
    )
    nodes = _nodes(bound + 1)
    values = []
    for t in nodes:
        fs = f.substitute(keep, t)
        gs = g.substitute(keep, t)
        fr = [Fraction(0)] * (df + 1)
        for exp, c in fs.terms.items():
            fr[exp[elim]] = c
        gr = [Fraction(0)] * (dg + 1)
        for exp, c in gs.terms.items():
            gr[exp[elim]] = c
        values.append(det_fraction(_sylvester_rows(fr, gr)))
    return interpolate(nodes, values)


def resultant_bivariate(f, g, elim):
    """res_elim(f, g) as an OPoly in the two remaining variables.

    Evaluated on an integer grid over the remaining variables and
    reassembled by nested interpolation.
    """
    df, dg = f.degree_in(elim), g.degree_in(elim)
    others = [i for i in range(3) if i != elim]
    if df == 0 and dg == 0:
        return OPoly()  # pair carries no elimination information
    if df == 0 or dg == 0:
        base, power = (f, dg) if df == 0 else (g, df)
        out = OPoly({(0, 0, 0): 1})
        for _ in range(power):
            out = out * base
        return out
    total_bound = _total_degree(f) * _total_degree(g)
    bounds = [
        min(df * g.degree_in(o) + dg * f.degree_in(o), total_bound) for o in others
    ]
    o1, o2 = others
    nodes1, nodes2 = _nodes(bounds[0] + 1), _nodes(bounds[1] + 1)
    grid_cols = {}
    for t1 in nodes1:
        values = []
        for t2 in nodes2:
            fs = f.substitute(o1, t1).substitute(o2, t2)
            gs = g.substitute(o1, t1).substitute(o2, t2)
            fr = [Fraction(0)] * (df + 1)
            for exp, c in fs.terms.items():
                fr[exp[elim]] = c
            gr = [Fraction(0)] * (dg + 1)
            for exp, c in gs.terms.items():
                gr[exp[elim]] = c
            values.append(det_fraction(_sylvester_rows(fr, gr)))
        grid_cols[t1] = interpolate(nodes2, values)
    out = OPoly()
    width = max(len(c) for c in grid_cols.values())
    for k2 in range(width):
        column = [
            grid_cols[t1][k2] if k2 < len(grid_cols[t1]) else Fraction(0)
            for t1 in nodes1
        ]
        coeffs = interpolate(nodes1, column)
        for k1, c in enumerate(coeffs):
            if c:
                exp = [0, 0, 0]
                exp[o1], exp[o2] = k1, k2
                out = out + OPoly({tuple(exp): c})
    return out


def rational_roots_of(coeffs):
    """Rational roots of a univariate polynomial; None for the zero poly.

    Eliminant coefficients grow huge, which makes the naive divisor scan of
    the rational root theorem infeasible; root extraction is delegated to
    sympy and every reported root is re-verified by exact substitution here.
    The multivariate elimination itself never touches sympy.
    """
    import sympy

    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return None
    roots = set()
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    if shift:
        roots.add(Fraction(0))
        coeffs = coeffs[shift:]
    if len(coeffs) == 1:
        return roots
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x
    )
    for root in poly.ground_roots():
        cand = Fraction(int(root.p), int(root.q))
        if sum(c * cand**k for k, c in enumerate(coeffs)) == 0:
            roots.add(cand)
    return roots


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _lcm(a, b):
    return a * b // _gcd(a, b)


def solve_three_vars(system):
    """All rational solutions of three polynomials in variables x, y, z.

    A single nonzero eliminant at each stage is a complete (super)set of the
    projections of the rational solutions, since every candidate is verified
    by substitution at the end.
    """
    candidates_x = set()
    got = False
    bivariate = []
    for a in range(3):
        for b in range(a + 1, 3):
            r = resultant_bivariate(system[a], system[b], 2)
            if not r.is_zero():
                bivariate.append(r)
    for r in bivariate:
        if r.degree_in(1) == 0:
            roots = rational_roots_of(r.univariate_coeffs(0))
            if roots is not None:
                got = True
                candidates_x |= roots
    if not got:
        for a in range(len(bivariate)):
            for b in range(a + 1, len(bivariate)):
                coeffs = resultant_univariate(bivariate[a], bivariate[b], 1, 0)
                roots = rational_roots_of(coeffs)
                if roots is not None:
                    got = True
                    candidates_x |= roots
                    break
            if got:
                break
    if not got:
        raise OracleInconclusive("x-eliminant identically zero")
    solutions = set()
    for x0 in candidates_x:
        gs = [f.substitute(0, x0) for f in system]
        candidates_y = _eliminate_last(gs, elim=2, keep=1)
        for y0 in candidates_y:
            hs = [g.substitute(1, y0) for g in gs]
            candidates_z = set()
            got_z = False
            for h in hs:
                if h.is_zero():
                    continue
                roots = rational_roots_of(h.univariate_coeffs(2))
                if roots is not None:
                    got_z = True
                    candidates_z |= roots
            if not got_z:
                raise OracleInconclusive("z-eliminant identically zero")
            for z0 in candidates_z:
                point = (x0, y0, z0)
                if all(f.evaluate(point) == 0 for f in system):
                    solutions.add(point)
    return solutions


def _eliminate_last(gs, elim, keep):
    got = False
    candidates = set()
    for a in range(len(gs)):
        for b in range(a + 1, len(gs)):
            if gs[a].is_zero() or gs[b].is_zero():
                continue
            coeffs = resultant_univariate(gs[a], gs[b], elim, keep)
            roots = rational_roots_of(coeffs)
            if roots is not None:
                got = True
                candidates |= roots
    for g in gs:
        if not g.is_zero() and g.degree_in(elim) == 0:
            roots = rational_roots_of(g.univariate_coeffs(keep))
            if roots is not None:
                got = True
                candidates |= roots
    if not got:
        raise OracleInconclusive("middle eliminant identically zero")
    return candidates


def oracle_idempotents(gamma_entries):
    """Rational idempotents of a 3-dim algebra from its structure constants.

    Builds the coordinate equations of u^2 = u with its own symbolics.
    """
    table = {}
    for i, j, k, c in gamma_entries:
        key = (min(i, j), max(i, j))
        table.setdefault(key, {})[k] = Fraction(c)
    xs = [OPoly.var(i) for i in range(3)]
    system = []
    for k in range(3):
        poly = OPoly()
        for (i, j), row in table.items():
            c = row.get(k)
            if not c:
                continue
            term = xs[i] * xs[j]
            if i != j:
                term = term.scale(2)
            poly = poly + term.scale(c)
        poly = poly - xs[k]
        system.append(poly)
    return solve_three_vars(system)


def reference_normal_form(p, basis):
    """Full normal form of p modulo the basis by division over Q.

    The package's reduction kernel as it was before it ran fraction-free:
    the lex-largest remaining term is divided by the first basis element
    whose lead divides it, and coefficient / lead times the shifted tail is
    subtracted in `Fraction` arithmetic.  Terms no lead divides go to the
    remainder.
    """
    from axial.mpoly import MPoly

    divisors = []
    for g in basis:
        if g:
            lead = max(g.terms)
            tail = [(e, c) for e, c in g.terms.items() if e != lead]
            divisors.append((lead, g.terms[lead], tail))
    work = dict(p.terms)
    remainder = {}
    while work:
        exp = max(work)
        coeff = work.pop(exp)
        for lead, lead_coeff, tail in divisors:
            if all(a <= b for a, b in zip(lead, exp)):
                shift = tuple(b - a for a, b in zip(lead, exp))
                factor = coeff / lead_coeff
                for texp, tcoeff in tail:
                    nexp = tuple(a + b for a, b in zip(texp, shift))
                    c = work.get(nexp, Fraction(0)) - factor * tcoeff
                    if c:
                        work[nexp] = c
                    else:
                        work.pop(nexp, None)
                break
        else:
            remainder[exp] = coeff
    return MPoly(p.nvars, remainder, _clean=False)


def reference_s_polynomial(f, g):
    """The S-polynomial as two monomial-times-polynomial products."""
    from axial.mpoly import MPoly

    ef, cf = f.lead()
    eg, cg = g.lead()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MPoly(f.nvars, {tuple(l - a for l, a in zip(lcm, ef)): 1 / cf})
    mg = MPoly(g.nvars, {tuple(l - a for l, a in zip(lcm, eg)): 1 / cg})
    return mf * f - mg * g


def _reference_autoreduce(basis, nvars):
    """Reduced basis: drop non-minimal leads, reduce each by the rest, monic."""
    from axial.mpoly import MPoly

    basis = sorted((g for g in basis if g), key=lambda g: g.lead()[0])
    leads = [g.lead()[0] for g in basis]

    def redundant(idx):
        # another lead divides this one; of equal leads the first is kept
        eg = leads[idx]
        return any(
            jdx < idx if eh == eg else all(a <= b for a, b in zip(eh, eg))
            for jdx, eh in enumerate(leads)
            if jdx != idx
        )

    minimal = [g for idx, g in enumerate(basis) if not redundant(idx)]
    reduced = []
    for idx, g in enumerate(minimal):
        r = reference_normal_form(g, minimal[:idx] + minimal[idx + 1 :])
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda g: g.lead()[0], reverse=True)
    return reduced or [MPoly.zero(nvars)]


def reference_buchberger(gens, caps=None):
    """Reduced lex Groebner basis by the all-pairs loop, for differential tests.

    This is the package's engine as it was before the heap-ordered pair queue
    and the Gebauer-Moeller criteria: every pending pair is scanned for the
    least (degree, LCM) on each step, and only the product criterion prunes.
    Reduction runs through `reference_normal_form` and
    `reference_s_polynomial`, so the package's fraction-free kernel is
    checked too; only the polynomial type and the caps are the package's.
    The monomial helpers are exponent tuples, independent of the package's
    packed exponents.
    """
    from axial.groebner import DEFAULT_CAPS, CapExceeded

    def lcm_exp(e1, e2):
        return tuple(max(a, b) for a, b in zip(e1, e2))

    def is_product(e1, e2):
        return all(min(a, b) == 0 for a, b in zip(e1, e2))

    caps = caps or DEFAULT_CAPS
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    nvars = gens[0].nvars
    basis = []
    for g in gens:
        r = reference_normal_form(g, basis)
        if r:
            basis.append(r.monic())

    def lead(i):
        return basis[i].lead()[0]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (sum(lcm_exp(lead(p[0]), lead(p[1]))), lcm_exp(lead(p[0]), lead(p[1]))),
        )
        pairs.discard((i, j))
        processed += 1
        if processed > caps.max_pairs:
            raise CapExceeded(f"pair limit {caps.max_pairs} exceeded")
        if is_product(lead(i), lead(j)):
            continue
        r = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), basis)
        if not r:
            continue
        if r.total_degree() > caps.max_degree:
            raise CapExceeded(f"degree limit {caps.max_degree} exceeded")
        basis.append(r.monic())
        if len(basis) > caps.max_basis:
            raise CapExceeded(f"basis size limit {caps.max_basis} exceeded")
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return _reference_autoreduce(basis, nvars)


def reference_enumerate_points(gb, caps=None):
    """Rational points of a zero-dimensional lex basis, one basis per branch.

    The package's point extraction as it was before it read every branch
    off the given basis: each rational root of the least variable's
    eliminant is substituted into the whole basis, a new reduced basis of
    the branch is computed by `buchberger`, and its univariate element of
    least lead in the next variable is factored.  A branch whose basis
    holds a nonzero constant has no points.  Returns a `SolveResult`.
    """
    from axial.groebner import (
        DEFAULT_CAPS,
        FINITE,
        NEEDS_EXTENSION,
        POSITIVE_DIMENSIONAL,
        NotZeroDimensional,
        SolveResult,
        buchberger,
        ideal_dimension_zero,
    )
    from axial.univariate import irreducible_factors

    caps = caps or DEFAULT_CAPS

    def has_constant(polys):
        return any(p and p.is_constant() for p in polys)

    def extract(gens, active, fixed, points, factors):
        if has_constant(gens):
            return
        if not active:
            nvars = gens[0].nvars if gens else len(fixed)
            points.append(tuple(fixed[i] for i in range(nvars)))
            return
        gb = buchberger(gens, caps) if fixed and gens else gens
        if has_constant(gb):
            return
        if not gb or all(not g for g in gb):
            raise NotZeroDimensional("unexpected positive-dimensional branch")
        last = active[-1]
        univariate = [g for g in gb if g.variables_used() <= {last}]
        if not univariate:
            raise NotZeroDimensional("no eliminant found; branch not zero-dimensional")
        elim = min(univariate, key=lambda g: g.lead()[0])
        for factor, _mult in irreducible_factors(elim.univariate_coeffs(last)):
            if len(factor) == 2:
                b, a = factor
                root = Fraction(-b, a)
                substituted = [g.substitute({last: root}) for g in gb]
                extract(
                    [g for g in substituted if g],
                    active[:-1],
                    {**fixed, last: root},
                    points,
                    factors,
                )
            elif factor not in factors:
                factors.append(factor)

    basis = [g for g in gb if g]
    if not basis:
        raise ValueError("empty basis")
    if not has_constant(basis) and not ideal_dimension_zero(basis):
        return SolveResult(POSITIVE_DIMENSIONAL, basis=basis)
    points, factors = [], []
    extract(basis, list(range(basis[0].nvars)), {}, points, factors)
    points.sort()
    return SolveResult(NEEDS_EXTENSION if factors else FINITE, points, factors, basis)


def reference_char_poly(m):
    """Coefficients of det(t I - m), lowest degree first, by interpolation.

    The package's `char_poly` as it was before it called sympy's Berkowitz
    `charpoly`: det(t I - m) at the n+1 points t = 0..n (by `det_fraction`
    here), then one Vandermonde solve for the coefficients.
    """
    from axial.linalg import solve

    n = len(m)
    if n == 0:
        return [Fraction(1)]
    points = [Fraction(t) for t in range(n + 1)]
    values = []
    for t in points:
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        values.append(det_fraction(shifted))
    vander = tuple(tuple(t**k for k in range(n + 1)) for t in points)
    coeffs = solve(vander, tuple(values))
    assert coeffs is not None and coeffs[n] == 1
    return list(coeffs)


def _poly_divmod(f, g):
    """Quotient and remainder of f by g over Q, coefficients lowest degree
    first; g has a nonzero leading coefficient, and the remainder has no
    trailing zeros."""
    f = list(f)
    quotient = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for shift in range(len(quotient) - 1, -1, -1):
        c = quotient[shift] = f[shift + len(g) - 1] / g[-1]
        for i, x in enumerate(g):
            f[shift + i] -= c * x
    while f and f[-1] == 0:
        f.pop()
    return quotient, f


def reference_rational_roots(coeffs):
    """The distinct rational roots of a nonzero polynomial, coefficients
    lowest degree first, in increasing order, by Sturm bisection.

    g = f / gcd(f, f') has the same roots, each simple.  Scaled to a
    primitive integer polynomial with leading coefficient +-s, every
    rational root of g lies on the grid Z / s (a root p/q in lowest terms
    has q | s) and strictly inside the Cauchy bound 1 + max |g_i / g_d|.
    Sturm's theorem counts the roots of g in (lo/s, hi/s] as
    V(lo/s) - V(hi/s), V the sign changes along the Sturm chain of g;
    halving the grid interval down to single steps isolates each real root,
    and the step end is kept when g vanishes there.
    """
    from math import ceil, gcd, lcm

    f = [Fraction(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    g, _ = _poly_divmod(f, a)
    if len(g) < 2:
        return []
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-x for x in _poly_divmod(chain[-2], chain[-1])[1]])
    denom = lcm(*(c.denominator for c in g))
    ints = [int(c * denom) for c in g]
    scale = abs(ints[-1]) // gcd(*ints)

    def value(p, x):
        return sum(c * x**k for k, c in enumerate(p))

    def changes(y):
        signs = [v > 0 for v in (value(p, Fraction(y, scale)) for p in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = ceil(scale * (1 + max(abs(c / g[-1]) for c in g[:-1])))
    roots, stack = [], [(-bound - 1, bound, changes(-bound - 1) - changes(bound))]
    while stack:
        lo, hi, count = stack.pop()
        if count and hi - lo == 1:
            if value(g, Fraction(hi, scale)) == 0:
                roots.append(Fraction(hi, scale))
        elif count:
            mid = (lo + hi) // 2
            left = changes(lo) - changes(mid)
            stack += [(lo, mid, left), (mid, hi, count - left)]
    return sorted(roots)


def reference_semisimple_spectrum(m):
    """The rational eigenvalues of a square matrix with their eigenspaces,
    in decreasing order, and the defect: n minus the sum of their dimensions.

    The package's `semisimple_spectrum`, deleted when `infer_fusion_law`
    came to read the minimal polynomial of the integer adjoint, with its
    sympy steps replaced: the roots of `reference_char_poly` by
    `reference_rational_roots`, one `eigenspace` each.  The matrix is semisimple over Q with rational spectrum exactly
    when the defect is 0.
    """
    from axial.linalg import eigenspace

    roots = reference_rational_roots(reference_char_poly(m))
    pairs = [(lam, eigenspace(m, lam)) for lam in reversed(roots)]
    return pairs, len(m) - sum(space.dim for _, space in pairs)


def reference_rref(rows):
    """Reduce a list of Fraction rows to reduced row-echelon form, in place.

    The package's `rref` as it was before it ran on sparse integer rows:
    each row scaled to its primitive part, then a dense column-by-column
    loop eliminating every other row by integer cross-multiplication and
    content reduction, and the pivot rows divided back out at the end.
    Returns the list of pivot column indices.
    """
    from math import gcd

    from axial.univariate import primitive_part

    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [primitive_part(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), -1)
        if pivot_row < 0:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        p = row_r[c]
        for i in range(nrows):
            row_i = work[i]
            v = row_i[c]
            if i != r and v:
                # scale the whole row so earlier pivot entries stay consistent
                row_i[:c] = [x * p for x in row_i[:c]]
                row_i[c:] = [x * p - v * y for x, y in zip(row_i[c:], row_r[c:])]
                content = gcd(*row_i)
                if content > 1:
                    row_i[:] = [x // content for x in row_i]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for idx, c in enumerate(pivots):
        p = work[idx][c]
        rows[idx][:] = [Fraction(v, p) for v in work[idx]]
    for idx in range(len(pivots), nrows):
        rows[idx][:] = [Fraction(0)] * ncols
    return pivots


def reference_kernel(rows, ncols):
    """Canonical basis of the null space of dense Fraction rows with `ncols`
    columns, as (basis, pivots) tuples.

    One `reference_rref` of the rows, one null vector per free column read
    forward (1 at the free column, minus that column of the RREF at each
    pivot), and a second `reference_rref` that brings those vectors to the
    canonical basis.  The package's `kernel` read its basis this way before
    it read it off the column-reversed echelon; kept as an oracle for that
    rewrite.
    """
    reduced = [list(row) for row in rows]
    pivots = reference_rref(reduced)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -reduced[r][f]
            vectors.append(v)
    basis_pivots = reference_rref(vectors)
    return tuple(tuple(v) for v in vectors[: len(basis_pivots)]), tuple(basis_pivots)


def reference_coordinates(basis, v):
    """Coordinates of v in the given basis by one linear solve, or None.

    The package's `Subspace.coordinates` as it was before it read the
    coefficients off the RREF pivots; kept as an oracle for that rewrite.
    """
    from axial.linalg import is_zero_vec, mat_from_cols, solve

    if not basis:
        return () if is_zero_vec(v) else None
    return solve(mat_from_cols(basis), v)


def reference_graded_involution(eigendata, negated, n):
    """The +1 / -1 map on the graded eigenspace split, one solve per column.

    The package's `_graded_involution` as it was before it inverted the
    change of basis once; kept as an oracle for that rewrite.
    """
    from axial.linalg import mat_from_cols, mat_vec, solve, unit_vec

    basis, cols = [], []
    for lam, space in eigendata:
        sign = -1 if lam in negated else 1
        for b in space.basis:
            basis.append(b)
            cols.append(tuple(sign * x for x in b))
    change = mat_from_cols(basis)
    signed = mat_from_cols(cols)
    columns = []
    for j in range(n):
        coords = solve(change, unit_vec(n, j))
        assert coords is not None
        columns.append(mat_vec(signed, coords))
    return mat_from_cols(columns)


def reference_derivation_space(alg):
    """Derivations of an algebra by one dense RREF of the whole Leibniz system.

    The package's `derivation_space` as it was before it built sparse rows,
    screened their rank mod p and dropped the columns its idempotents prove
    zero; kept as an oracle for those rewrites.
    """
    from axial.linalg import kernel, mat

    return kernel(mat(reference_leibniz_rows(alg)))


def reference_leibniz_rows(alg):
    """The dense Leibniz system over all n^2 unknowns d[r][c] (entry r*n + c):
    one row per basis pair i <= j and output k, in that order, zero rows
    included."""
    n = alg.dim

    def dense(sparse_row):
        out = [Fraction(0)] * n
        for k, c in sparse_row:
            out[k] = c
        return out

    rows = []
    for i in range(n):
        for j in range(i, n):
            pij = dense(alg.basis_product(i, j))
            # unknowns d[r][c] flattened row-major; equation vector per output k
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                # d applied to e_i e_j
                for m, coeff in enumerate(pij):
                    if coeff:
                        row[k * n + m] += coeff
                # minus d(e_i) e_j: d(e_i) = sum_r d[r][i] e_r
                for r in range(n):
                    for kk, c in alg.basis_product(r, j):
                        if kk == k:
                            row[r * n + i] -= c
                # minus e_i d(e_j)
                for r in range(n):
                    for kk, c in alg.basis_product(i, r):
                        if kk == k:
                            row[r * n + j] -= c
                rows.append(tuple(row))
    return rows


def reference_ad_matrix(alg, u):
    """The matrix of multiplication by u, summed entry by entry from the
    structure constants.

    The package's `Algebra.ad_matrix` as it was before it densified the
    integer adjoint; kept as an oracle for that rewrite.
    """
    n = alg.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, a in enumerate(u):
        if a:
            for j in range(n):
                for k, c in alg.basis_product(i, j):
                    rows[k][j] += a * c
    return tuple(tuple(row) for row in rows)


def reference_annihilator(alg, w):
    """{u | u x = 0 for all x in w}: the kernel of the stacked dense adjoints
    of w's basis, the whole space when w is zero.

    The package's `Algebra.annihilator` as it was before it read one null
    space off the integer adjoints; kept as an oracle for that rewrite.
    """
    from axial.linalg import Subspace, kernel, unit_vec

    if w.is_zero():
        return Subspace(alg.dim, [unit_vec(alg.dim, i) for i in range(alg.dim)])
    return kernel(tuple(row for x in w.basis for row in reference_ad_matrix(alg, x)))


def reference_check_axis(alg, v, law):
    """The axis check as (eigendata, tau, sigma) or the reason it fails.

    The package's `check_axis_verbose` as it was before it projected onto the
    eigenbasis inverse: every product of eigenbasis vectors is tested for
    membership in the allowed sum of eigenspaces, built as a subspace per
    pair of eigenvalues; tau and sigma come from `reference_graded_involution`.
    Kept as an oracle for that rewrite.
    """
    import itertools

    from axial.linalg import eigenspace, identity, is_zero_vec, subspace_sum, vec

    v = vec(v)
    n = alg.dim
    if is_zero_vec(v):
        return "not_idempotent: zero vector"
    if alg.product(v, v) != v:
        return "not_idempotent"
    ad = reference_ad_matrix(alg, v)
    eigendata = []
    total = 0
    for lam in law.values:
        space = eigenspace(ad, lam)
        if not space.is_zero():
            eigendata.append((lam, space))
            total += space.dim
    if total != n:
        return f"bad_spectrum: eigenspaces for the law span {total} of {n}"
    for (lam, sl), (mu, sm) in itertools.combinations_with_replacement(eigendata, 2):
        allowed = law.star(lam, mu)
        target = subspace_sum([space for nu, space in eigendata if nu in allowed], ambient=n)
        for x in sl.basis:
            for y in sm.basis:
                if not target.contains(alg.product(x, y)):
                    return f"fusion_violation: {lam} * {mu}"
    one_space = next((s for lam, s in eigendata if lam == 1), None)
    if one_space is None or one_space.dim != 1:
        return "not_primitive"
    _, minus = law.c2_grading()
    present = [lam for lam, _ in eigendata]
    tau = None
    if minus:
        if set(present) & minus:
            tau = reference_graded_involution(eigendata, minus, n)
        else:
            tau = identity(n)
    sigma = None
    if minus and all(lam not in minus for lam in present):
        inner = frozenset(lam for lam in present if lam not in (0, 1))
        if inner:
            sigma = reference_graded_involution(eigendata, inner, n)
    return tuple(eigendata), tau, sigma


def reference_infer_fusion_law(alg, v):
    """The star table of an idempotent read off eigenbasis coordinates, or None.

    The package's `infer_fusion_law` as it was before it read the table off
    polynomials in the adjoint: every product of eigenbasis vectors is
    written in the concatenated eigenbasis by `reference_coordinates`, and
    its nu-part is nonzero when a coordinate on a basis vector of A_nu is.
    Kept as an oracle for that rewrite.
    """
    import itertools

    from axial.fusion import FusionLaw
    from axial.linalg import is_zero_vec, vec

    v = vec(v)
    if is_zero_vec(v) or alg.product(v, v) != v:
        return None
    eigenpairs, defect = reference_semisimple_spectrum(reference_ad_matrix(alg, v))
    if defect:
        return None
    basis, owners = [], []
    for lam, space in eigenpairs:
        basis.extend(space.basis)
        owners.extend([lam] * space.dim)
    star = {}
    for (lam, sl), (mu, sm) in itertools.combinations_with_replacement(eigenpairs, 2):
        hit = set()
        for x in sl.basis:
            for y in sm.basis:
                coords = reference_coordinates(basis, alg.product(x, y))
                hit.update(nu for nu, c in zip(owners, coords) if c)
        star[(lam, mu)] = frozenset(hit)
    try:
        return FusionLaw([lam for lam, _ in eigenpairs], star)
    except ValueError:
        return None


def reference_frobenius_violation(alg):
    """The least (i, j, k) with (e_i e_j, e_k) != (e_i, e_j e_k), or None.

    The package's `Algebra._frobenius_violation` as it was before it tested
    only the triples that touch a nonzero value: all n^3 triples, with dense
    Gram rows.  Kept as an oracle for that rewrite.
    """
    n = alg.dim
    gram = alg.gram
    for i in range(n):
        for j in range(n):
            left = alg.basis_product(i, j)
            for k in range(n):
                lhs = sum((c * gram[m][k] for m, c in left), Fraction(0))
                rhs = sum((c * gram[i][m] for m, c in alg.basis_product(j, k)), Fraction(0))
                if lhs != rhs:
                    return (i, j, k)
    return None


def reference_miyamoto_group(alg, axet):
    """Every element of the Miyamoto group, by breadth-first enumeration.

    The package's `miyamoto_group` as it was before it held the group as a
    permutation group: when the axet spans, a dict from each permutation of
    the axet to one matrix witness; otherwise a dict from each matrix to
    None.  Returns that dict and whether the axet spans.  Kept as an oracle
    for that rewrite.
    """
    from axial.linalg import identity, mat_mul, mat_vec

    n = alg.dim
    vectors = axet.vectors()
    index = {v: i for i, v in enumerate(vectors)}
    taus = list(dict.fromkeys(g.matrix() for g in axet.tau_maps()))
    if axet.spans(n):
        def to_perm(g):
            return tuple(index[mat_vec(g, v)] for v in vectors)

        gens = [(to_perm(g), g) for g in taus]
        ident = tuple(range(len(vectors)))
        elements = {ident: identity(n)}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for q, g in gens:
                    composed = tuple(q[p[i]] for i in range(len(p)))
                    if composed not in elements:
                        elements[composed] = mat_mul(g, elements[p])
                        nxt.append(composed)
            frontier = nxt
        return elements, True
    matrices = {identity(n): None}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in taus:
                prod = mat_mul(g, m)
                if prod not in matrices:
                    matrices[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return matrices, False


def reference_aut_from_axis_permutations(alg, axet):
    """Every automorphism permuting a spanning axet, as (matrices, perms).

    The package's `aut_from_axis_permutations` as it was before it searched
    for strong generators: every assignment of the greedy spanning axes that
    passes the form-value and zero-product pruning is turned into a matrix
    and verified.  Kept as an oracle for that rewrite.
    """
    from axial.fusion import is_automorphism
    from axial.linalg import Subspace, inverse, mat, mat_from_cols, mat_mul, mat_vec

    n = alg.dim
    vectors = axet.vectors()
    m = len(vectors)
    basis_positions = []
    current = Subspace(n)
    for i, v in enumerate(vectors):
        bigger = Subspace(n, list(current.basis) + [v])
        if bigger.dim > current.dim:
            basis_positions.append(i)
            current = bigger
        if current.dim == n:
            break
    color = None
    if alg.gram is not None:
        color = [[alg.form_value(vectors[i], vectors[j]) for j in range(m)] for i in range(m)]
    zero = tuple([Fraction(0)] * n)
    zero_product = [[alg.product(vectors[i], vectors[j]) == zero for j in range(m)] for i in range(m)]
    index = {v: i for i, v in enumerate(vectors)}
    basis_inv = inverse(mat_from_cols([vectors[i] for i in basis_positions]))
    matrices, perms = [], []

    def consistent(assigned, candidate):
        i_new = basis_positions[len(assigned)]
        for prev, img in enumerate(assigned):
            i_old = basis_positions[prev]
            if color is not None and color[i_old][i_new] != color[img][candidate]:
                return False
            if zero_product[i_old][i_new] != zero_product[img][candidate]:
                return False
        return color is None or color[i_new][i_new] == color[candidate][candidate]

    def extend(assigned):
        if len(assigned) == len(basis_positions):
            g = mat_mul(mat_from_cols([vectors[k] for k in assigned]), basis_inv)
            if not is_automorphism(alg, g):
                return
            perm = [index.get(mat_vec(g, v)) for v in vectors]
            if None in perm or len(set(perm)) != m:
                return
            if alg.gram is not None and mat_mul(mat(tuple(zip(*g))), mat_mul(alg.gram, g)) != alg.gram:
                return
            matrices.append(g)
            perms.append(tuple(perm))
            return
        for candidate in range(m):
            if candidate not in assigned and consistent(assigned, candidate):
                extend(assigned + [candidate])

    extend([])
    return matrices, perms


def dense(g):
    """The dense matrix of an `IntegerMap`, or None for None."""
    return None if g is None else g.matrix()


def reference_transport_axis(axis, g, g_inv):
    """Image of a verified axis under a verified automorphism g, a dense
    matrix, by conjugation, as a namespace of the `Axis` reads: vector, law,
    eigendata, miyamoto_map and sigma_map.

    The package's `transport_axis` as it was before `close_axet` built each
    orbit axis from its own integer adjoint: the eigenspaces move by g, and
    the involutions by conjugation with g, with dense matrix products, each
    product read back as an `IntegerMap`.  Kept as an oracle for that
    rewrite.
    """
    from types import SimpleNamespace

    from axial.linalg import IntegerMap, Subspace, mat_mul, mat_vec

    n = len(axis.vector)

    def conj(m):
        return IntegerMap.from_matrix(mat_mul(mat_mul(g, m.matrix()), g_inv)) if m is not None else None

    return SimpleNamespace(
        vector=mat_vec(g, axis.vector),
        law=axis.law,
        eigendata=tuple(
            (lam, Subspace(n, [mat_vec(g, b) for b in space.basis]))
            for lam, space in axis.eigendata
        ),
        miyamoto_map=conj(axis.miyamoto_map),
        sigma_map=conj(axis.sigma_map),
    )


def reference_close_axet(alg, seed_axes, cap=512):
    """Closure of the seeds under the involutions of all found axes.

    The package's `close_axet` as it was before it became one orbit pass
    under the seed involutions: each round collects the distinct involutions
    of every axis found so far and applies each to every axis, until a round
    adds nothing.  Kept as an oracle for that rewrite.
    """
    from axial.axet import Axet
    from axial.groebner import CapExceeded
    from axial.linalg import mat_vec

    if not seed_axes:
        raise ValueError("need at least one seed axis")
    law = seed_axes[0].law
    if any(a.law != law for a in seed_axes):
        raise ValueError("seed axes must share one fusion law")
    axes = []
    seen = {}
    for a in seed_axes:
        if a.vector not in seen:
            seen[a.vector] = len(axes)
            axes.append(a)
    changed = True
    while changed:
        changed = False
        taus = []
        tau_seen = set()
        for a in axes:
            tau = dense(a.miyamoto_map)
            if tau is not None and tau not in tau_seen:
                tau_seen.add(tau)
                taus.append(tau)
        for g in taus:
            for a in list(axes):
                w = mat_vec(g, a.vector)
                if w in seen:
                    continue
                image = reference_transport_axis(a, g, g)  # involutions are self-inverse
                seen[image.vector] = len(axes)
                axes.append(image)
                changed = True
                if len(axes) > cap:
                    raise CapExceeded(f"axis closure exceeded cap {cap}")
    return Axet(tuple(axes))


def reference_intersect(s1, s2):
    """Intersection of two subspaces through the kernel of [B1 | -B2].

    The package's `intersect` as it was before it took the null space of
    both subspaces' equations: the kernel's coefficients on B1 are mapped
    back to vectors and row-reduced again.  Kept as an oracle for that
    rewrite.
    """
    from axial.linalg import Subspace, combination, kernel, mat_from_cols, vscale

    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    if s1.is_zero() or s2.is_zero():
        return Subspace(s1.ambient)
    stacked = mat_from_cols(tuple(s1.basis) + tuple(vscale(-1, v) for v in s2.basis))
    coeffs = kernel(stacked)
    d1 = s1.dim
    return Subspace(
        s1.ambient, [combination(coeff[:d1], s1.basis, s1.ambient) for coeff in coeffs.basis]
    )


def _reference_is_closed(alg, s):
    return all(
        s.contains(alg.product(s.basis[i], s.basis[j]))
        for i in range(s.dim)
        for j in range(i, s.dim)
    )


def _reference_is_module(alg, u, w):
    return all(w.contains(alg.product(x, y)) for x in u.basis for y in w.basis)


def reference_decompose_joint(alg, axes, law=None):
    """Joint decomposition over every tuple of eigenvalues.

    The package's `decompose_joint` as it was before it refined the parts
    axis by axis: each of the |values|^k tuples intersects its eigenspaces
    from the first axis on, by `reference_intersect`.  Kept as an oracle for
    that rewrite.
    """
    import itertools

    from axial.algebra import AlgebraError
    from axial.decomp import JointDecomposition
    from axial.linalg import mat_vec, subspace_sum

    if not axes:
        raise ValueError("need at least one axis")
    law = law or axes[0].law
    n = alg.dim
    for i, a in enumerate(axes):
        for j, b in enumerate(axes):
            if i == j or a.miyamoto_map is None:
                continue
            if mat_vec(a.miyamoto_map.matrix(), b.vector) != b.vector:
                raise AlgebraError(f"involution of axis {i} does not fix axis {j}")
    components = {}
    total = 0
    for combo in itertools.product(law.values, repeat=len(axes)):
        space = axes[0].eigenspace(combo[0])
        for a, lam in zip(axes[1:], combo[1:]):
            if space.is_zero():
                break
            space = reference_intersect(space, a.eigenspace(lam))
        if not space.is_zero():
            components[combo] = space
            total += space.dim
    a_circ = subspace_sum(list(components.values()), ambient=n)
    decomposition = JointDecomposition(tuple(axes), law, components, total == n, a_circ)
    if law.is_seress():
        u = decomposition.zero_component
        if not _reference_is_closed(alg, u):
            raise AlgebraError("joint zero component is not a subalgebra")
        for key, space in components.items():
            if not _reference_is_module(alg, u, space):
                raise AlgebraError(f"component {key} is not a module over the zero part")
    return decomposition


def reference_extension_space(alg, u, w, phi):
    """Extensions of phi to the module w, from dense m^2-wide rows.

    The package's `extension_space` as it was before it took each product
    once: phi is checked by products of ambient vectors, and each equation
    is a dense row of the `kernel`.  Kept as an oracle for that rewrite.
    """
    from axial.algebra import AlgebraError
    from axial.decomp import ExtensionSpace
    from axial.linalg import Subspace, combination, identity, kernel, mat

    l, m = u.dim, w.dim
    if len(phi) != l or any(len(r) != l for r in phi):
        raise ValueError("phi size does not match the subalgebra dimension")
    if not _reference_is_closed(alg, u):
        raise AlgebraError("first subspace is not a subalgebra")
    if not _reference_is_module(alg, u, w):
        raise AlgebraError("second subspace is not a module over the first")
    phi_vectors = [combination(column, u.basis, alg.dim) for column in zip(*phi)]
    for r in range(l):
        for s in range(r, l):
            lhs = alg.product(phi_vectors[r], phi_vectors[s])
            product_coords = u.coordinates(alg.product(u.basis[r], u.basis[s]))
            if lhs != combination(product_coords, phi_vectors, alg.dim):
                raise AlgebraError("phi is not an automorphism of the subalgebra")
    if m == 0:
        return ExtensionSpace(phi, Subspace(0), 0)
    rows = []
    for r in range(l):
        action = [w.coordinates(alg.product(phi_vectors[r], w.basis[c])) for c in range(m)]
        module_coords = [w.coordinates(alg.product(u.basis[r], w.basis[j])) for j in range(m)]
        for j in range(m):
            for out_row in range(m):
                row = [Fraction(0)] * (m * m)
                for c in range(m):
                    row[c * m + j] += action[c][out_row]
                    row[out_row * m + c] -= module_coords[j][c]
                rows.append(tuple(row))
    space = kernel(mat(rows)) if rows else Subspace(m * m, identity(m * m))
    return ExtensionSpace(phi, space, m)


def reference_sign_filter(k, parities):
    """Every sign tuple of length k, in `itertools.product((1, -1))` order,
    whose product over each parity vector's support is 1: the brute-force
    filter `sign_kernel` ran before it solved the parities over GF(2)."""
    import itertools

    return [
        signs
        for signs in itertools.product((1, -1), repeat=k)
        if all(
            sum(1 for s, e in zip(signs, parity) if e and s == -1) % 2 == 0
            for parity in parities
        )
    ]

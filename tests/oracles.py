"""Independent brute-force solver for 3-variable polynomial systems.

Used to cross-check the Groebner route; nothing here imports from the
package except nine former implementations kept to test the current ones
against: `reference_buchberger` (the all-pairs loop), `reference_coordinates`
(one linear solve per vector), `reference_graded_involution` (one solve per
column), `reference_derivation_space` (one dense RREF),
`reference_check_axis` (one membership test per eigenvector product),
`reference_frobenius_violation` (the n^3 triple loop),
`reference_miyamoto_group` (every element, one matrix each),
`reference_aut_from_axis_permutations` (every candidate map verified) and
`reference_close_axet` (rounds under every found involution to a
fixpoint).  Elimination goes through Sylvester resultants whose
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


def reference_buchberger(gens, caps=None):
    """Reduced lex Groebner basis by the all-pairs loop, for differential tests.

    This is the package's engine as it was before the heap-ordered pair queue
    and the Gebauer-Moeller criteria: every pending pair is scanned for the
    least (degree, LCM) on each step, and only the product criterion prunes.
    It is kept as an oracle for that rewrite.  Unlike the rest of this
    module it reuses the package's polynomial type, normal form and final
    autoreduction, so it checks the pair loop alone.
    """
    from axial.groebner import (
        DEFAULT_CAPS,
        CapExceeded,
        _autoreduce,
        _is_product,
        _lcm_exp,
        _normal_form,
        s_polynomial,
    )

    caps = caps or DEFAULT_CAPS
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    nvars = gens[0].nvars
    basis = []
    for g in gens:
        r = _normal_form(g, basis)
        if r:
            basis.append(r.monic())

    def lead(i):
        return basis[i].lead()[0]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (sum(_lcm_exp(lead(p[0]), lead(p[1]))), _lcm_exp(lead(p[0]), lead(p[1]))),
        )
        pairs.discard((i, j))
        processed += 1
        if processed > caps.max_pairs:
            raise CapExceeded(f"pair limit {caps.max_pairs} exceeded")
        if _is_product(lead(i), lead(j)):
            continue
        r = _normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r:
            continue
        if r.total_degree() > caps.max_degree:
            raise CapExceeded(f"degree limit {caps.max_degree} exceeded")
        basis.append(r.monic())
        if len(basis) > caps.max_basis:
            raise CapExceeded(f"basis size limit {caps.max_basis} exceeded")
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return _autoreduce(basis, nvars)


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

    The package's `derivation_space` as it was before it built sparse rows
    and screened their rank mod p; kept as an oracle for that rewrite.
    """
    from axial.linalg import kernel, mat

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
    return kernel(mat(rows))


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
    ad = alg.ad_matrix(v)
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
    taus = list(dict.fromkeys(axet.taus()))
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


def reference_close_axet(alg, seed_axes, cap=512):
    """Closure of the seeds under the involutions of all found axes.

    The package's `close_axet` as it was before it became one orbit pass
    under the seed involutions: each round collects the distinct involutions
    of every axis found so far and applies each to every axis, until a round
    adds nothing.  Kept as an oracle for that rewrite.
    """
    from axial.axet import Axet, transport_axis
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
            if a.miyamoto is not None and a.miyamoto not in tau_seen:
                tau_seen.add(a.miyamoto)
                taus.append(a.miyamoto)
        for g in taus:
            for a in list(axes):
                w = mat_vec(g, a.vector)
                if w in seen:
                    continue
                image = transport_axis(a, g, g)  # involutions are self-inverse
                seen[image.vector] = len(axes)
                axes.append(image)
                changed = True
                if len(axes) > cap:
                    raise CapExceeded(f"axis closure exceeded cap {cap}")
    return Axet(tuple(axes))

"""Hot kernels: exact row reduction and sparse polynomial reduction.

Both take and return plain Python data (lists of Fractions, dicts keyed by
exponent tuples) and both run fraction-free inside: each input is scaled
once to coprime integers by `primitive_part`, eliminated by integer
cross-multiplication with content reduction, and divided back out into
exact Fractions only for the output.  `axial.linalg` and `axial.groebner`
reach them through `axial._backend`.
"""

from fractions import Fraction
from math import gcd

from axial.univariate import primitive_part

_ZERO = Fraction(0)


def _reduce_content(row):
    content = gcd(*row)
    if content > 1:
        row[:] = [v // content for v in row]


def rref(rows):
    """Reduce a list of Fraction rows to reduced row-echelon form, in place.

    Returns the list of pivot column indices.  Zero rows sink to the bottom.
    Each row is first scaled to its `primitive_part` (row scaling leaves the
    RREF alone).  Elimination then runs fraction-free on the integer rows
    (cross-multiplication with content reduction); pivot rows are divided
    back out at the end, so the result is the exact canonical RREF.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [primitive_part(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        p = row_r[c]
        for i in range(nrows):
            if i == r:
                continue
            row_i = work[i]
            v = row_i[c]
            if v:
                # scale the whole row so earlier pivot entries stay consistent
                for j in range(c):
                    if row_i[j]:
                        row_i[j] = row_i[j] * p
                for j in range(c, ncols):
                    row_i[j] = row_i[j] * p - v * row_r[j]
                _reduce_content(row_i)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for idx, c in enumerate(pivots):
        p = work[idx][c]
        rows[idx][:] = [Fraction(v, p) for v in work[idx]]
    for idx in range(len(pivots), nrows):
        rows[idx][:] = [_ZERO] * ncols
    return pivots


def exp_mul(e1, e2):
    """Product of two monomials (exponent-wise sum)."""
    return tuple(a + b for a, b in zip(e1, e2))


def exp_divides(e1, e2):
    """Whether monomial e1 divides e2."""
    for a, b in zip(e1, e2):
        if a > b:
            return False
    return True


def exp_div(e1, e2):
    """Quotient monomial e1 / e2 (caller guarantees divisibility)."""
    return tuple(a - b for a, b in zip(e1, e2))


def normal_form(terms, divisors):
    """Full normal form of a sparse polynomial modulo a divisor list.

    `terms` is a nonempty map from exponent tuples to nonzero Fractions; the
    leading term is the lex-largest key.  Each divisor is a primitive integer triple (lead_exp,
    lead_coeff, tail_items): lead_coeff > 0, tail_items the remaining
    (exp, coeff) pairs, and the gcd of all its coefficients 1.  Every term of
    the result is reduced: no divisor leading monomial divides it.

    The reduction is fraction-free.  The work dict holds integers, scaled
    once from `terms` by `primitive_part`; num/den records the factor from
    the true remainder to the work dict.  A step on the leading term c with
    divisor lead L multiplies the work dict by L/gcd(c, L), subtracts
    c/gcd(c, L) times the shifted tail and divides out the content of what
    is left.  An irreducible term leaves as the Fraction coeff * den / num,
    so the result is the same exact normal form as division over Q.
    """
    values = list(terms.values())
    ints = primitive_part(values)
    scale = ints[0] / values[0]
    num, den = scale.numerator, scale.denominator
    work = dict(zip(terms, ints))
    remainder = {}
    while work:
        exp = max(work)
        coeff = work.pop(exp)
        for lead_exp, lead_coeff, tail in divisors:
            if exp_divides(lead_exp, exp):
                break
        else:
            remainder[exp] = Fraction(coeff * den, num)
            continue
        shift = exp_div(exp, lead_exp)
        g = gcd(coeff, lead_coeff)
        mult = lead_coeff // g
        if mult > 1:
            work = {e: v * mult for e, v in work.items()}
            g_den = gcd(mult, den)
            num *= mult // g_den
            den //= g_den
        factor = coeff // g
        for texp, tcoeff in tail:
            nexp = exp_mul(texp, shift)
            c = work.get(nexp, 0) - factor * tcoeff
            if c:
                work[nexp] = c
            else:
                del work[nexp]
        content = gcd(*work.values())
        if content > 1:
            work = {e: v // content for e, v in work.items()}
            g_num = gcd(content, num)
            num //= g_num
            den *= content // g_num
    return remainder

"""Hot kernels: exact row reduction and sparse polynomial reduction.

`rref` takes and returns lists of Fractions and runs fraction-free inside:
each row is scaled once to coprime integers by `primitive_part`, eliminated
by integer cross-multiplication with content reduction, and divided back
out into exact Fractions only for the output.

`normal_form` works on integer polynomials keyed by packed exponents.  A
packed exponent is one int holding a field of FIELD_BITS bits per
variable, the first variable in the most significant field; the top bit of
each field is a guard bit and stays clear, so each exponent is at most
2**(FIELD_BITS - 1) - 1.  With G the mask of all guard bits:

- integer order is lex order, so the leading term is the largest key;
- a monomial product is `a + b` and a quotient `a - b`;
- a divides b exactly when `((b | G) - a) & G == G`: each field of b, with
  its guard bit set, minus the same field of a keeps the guard bit exactly
  when a's field is not the larger one, and no field borrows from the next;
- the lcm takes each field from a or from b by a mask built from those
  guard bits;
- a and b are coprime exactly when `lcm(a, b) == a + b`.

A sum that overflows a field sets its guard bit, and is reported as a
`CapExceeded` naming the exponent limit, never wrapped into the next field.
`axial.linalg` and `axial.groebner` reach these kernels through
`axial._backend`.
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


FIELD_BITS = 32  # bits per variable in a packed exponent, the guard bit included


def exponent_limit():
    """The largest exponent one field of a packed exponent holds."""
    return (1 << (FIELD_BITS - 1)) - 1


def overflow():
    """Raise CapExceeded naming the exponent limit."""
    from axial.groebner import CapExceeded  # axial.groebner imports this module

    raise CapExceeded(f"exponent limit {exponent_limit()} exceeded")


def guard_mask(nvars):
    """The guard bits (the top bit of every field) of a packed exponent."""
    field = 1 << (FIELD_BITS - 1)
    return sum(field << (FIELD_BITS * i) for i in range(nvars))


def pack(exp):
    """The packed exponent of an exponent tuple."""
    limit = exponent_limit()
    packed = 0
    for e in exp:
        if e > limit:
            overflow()
        packed = (packed << FIELD_BITS) | e
    return packed


def unpack(packed, nvars):
    """The exponent tuple of a packed exponent in `nvars` variables."""
    mask = (1 << FIELD_BITS) - 1
    return tuple((packed >> (FIELD_BITS * i)) & mask for i in range(nvars - 1, -1, -1))


def degree(packed):
    """Total degree of a packed exponent: the sum of its fields."""
    mask = (1 << FIELD_BITS) - 1
    total = 0
    while packed:
        total += packed & mask
        packed >>= FIELD_BITS
    return total


def divides(a, b, guard):
    """Whether packed monomial a divides packed monomial b."""
    return ((b | guard) - a) & guard == guard


def lcm(a, b, guard):
    """The lcm of two packed monomials: each field from a where a >= b, else from b."""
    ge = ((a | guard) - b) & guard  # guard bit kept where a's field >= b's
    mask = ge - (ge >> (FIELD_BITS - 1))  # the low bits of those fields
    return b ^ ((a ^ b) & mask)


def normal_form(work, divisors, guard, scale=None, check=None):
    """Full normal form of an integer polynomial modulo a divisor list.

    `work` is a nonempty map from packed exponents to nonzero ints whose gcd
    is 1; it is consumed.  `guard` is the guard mask of its exponents.  Each
    divisor is a primitive integer triple (lead, lead_coeff, tail): lead
    packed, lead_coeff > 0, tail the remaining (packed exponent, coeff)
    pairs.  The first divisor whose lead divides the leading work term
    reduces it: the work terms are multiplied by lead_coeff / gcd(c, lead_coeff)
    and c / gcd(c, lead_coeff) times the shifted tail is subtracted.  Terms
    no lead divides move to the remainder, which is scaled with the work
    terms.  After each step the content of the work and remainder terms
    together is divided out.

    Returns the remainder, a primitive integer polynomial, in decreasing
    term order: a positive multiple of the normal form over Q, every term
    reduced.  When `scale` is a list [num, den], num is multiplied by every
    factor the terms are multiplied by and den by every content divided out,
    so on return the remainder is num / den times the normal form of the
    input.  A shifted exponent that overflows a field raises CapExceeded.
    `check`, when given, is called before each step; `buchberger` passes one
    that raises CapExceeded once its deadline has passed.
    """
    remainder = {}
    while work:
        if check:
            check()
        exp = max(work)
        coeff = work.pop(exp)
        probe = exp | guard
        for lead, lead_coeff, tail in divisors:
            if (probe - lead) & guard == guard:
                break
        else:
            remainder[exp] = coeff
            continue
        shift = exp - lead
        g = gcd(coeff, lead_coeff)
        mult = lead_coeff // g
        if mult > 1:
            work = {e: v * mult for e, v in work.items()}
            if remainder:
                remainder = {e: v * mult for e, v in remainder.items()}
            if scale:
                scale[0] *= mult
        factor = coeff // g
        for texp, tcoeff in tail:
            nexp = texp + shift
            if nexp & guard:
                overflow()
            c = work.get(nexp, 0) - factor * tcoeff
            if c:
                work[nexp] = c
            else:
                del work[nexp]
        content = gcd(*work.values())
        if content != 1 and remainder:
            content = gcd(content, *remainder.values())
        if content > 1:
            work = {e: v // content for e, v in work.items()}
            remainder = {e: v // content for e, v in remainder.items()}
            if scale:
                scale[1] *= content
    return remainder

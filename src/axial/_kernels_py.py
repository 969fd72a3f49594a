"""Hot kernels: exact sparse elimination and sparse polynomial reduction.

Elimination works on sparse integer rows, maps from column to nonzero int,
through one reduction step, `eliminate`.  `insert` and `echelon` are built
on it; `rref` is `echelon` on dense Fraction rows, and the rank screen of
`axial.linalg.sparse_kernel` inserts modulo a prime.

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

import functools
import struct
from fractions import Fraction
from math import gcd

from axial.univariate import primitive_part

_ZERO = Fraction(0)


def primitive_row(entries):
    """The nonzero values of (column, value) pairs scaled by one `primitive_part`.

    A row of ints has no denominator to clear, so it is divided by its gcd
    alone.
    """
    nonzero = [(c, v) for c, v in entries if v]
    values = [v for _, v in nonzero]
    if all(type(v) is int for v in values):
        content = gcd(*values)
        if content > 1:
            values = [v // content for v in values]
    else:
        values = primitive_part(values)
    return dict(zip([c for c, _ in nonzero], values))


def eliminate(work, prow, col, modulus=0):
    """The work row with column `col` cleared by the pivot row `prow`.

    Over Z it is (a work - b prow) / g for a = prow[col], b = work[col] and
    g their gcd, divided by its content.  Modulo a prime `modulus` it is
    a work - b prow reduced mod p; the pivot rows there are monic, so a = 1.
    """
    a = prow[col]
    b = work[col]
    if not modulus:
        g = gcd(a, b)
        a //= g
        b //= g
    if a != 1:
        work = {j: v * a for j, v in work.items()}
    for j, v in prow.items():
        x = work.get(j, 0) - b * v
        if modulus:
            x %= modulus
        if x:
            work[j] = x
        else:
            del work[j]
    if not modulus and work:
        content = gcd(*work.values())
        if content > 1:
            work = {j: v // content for j, v in work.items()}
    return work


def insert(pivots, work, modulus=0):
    """Reduce `work` by the pivot rows, each keyed by its least column, until
    its least column is free; make it that column's pivot row (monic modulo
    `modulus`) and return the column, or None when it reduces to zero."""
    while work:
        c = min(work)
        prow = pivots.get(c)
        if prow is None:
            if modulus:
                inv = pow(work[c], -1, modulus)
                work = {j: v * inv % modulus for j, v in work.items()}
            pivots[c] = work
            return c
        work = eliminate(work, prow, c, modulus)
    return None


def echelon(rows):
    """Fraction-free reduced echelon form of sparse integer rows.

    Returns a dict from each pivot column of the RREF to a primitive integer
    row whose least column is that pivot and which is zero at every other
    pivot column: divided by its pivot entry, it is the RREF row.
    """
    pivots = {}
    for row in rows:
        insert(pivots, row)
    # Back-substitute, highest pivot first: the rows a pivot row is reduced
    # by are already clear of every other pivot column.
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for q in [q for q in prow if q != c and q in pivots]:
            prow = eliminate(prow, pivots[q], q)
        pivots[c] = prow
    return pivots


def rref(rows):
    """Reduce a list of Fraction rows to reduced row-echelon form, in place.

    Returns the list of pivot column indices.  Zero rows sink to the bottom.
    The rows are reduced by `echelon` as sparse `primitive_row`s (row
    scaling leaves the RREF alone), and each pivot row is divided by its
    pivot entry only for the output, so the result is the exact RREF.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = echelon([primitive_row(enumerate(row)) for row in rows])
    columns = sorted(pivots)
    for out, c in zip(rows, columns):
        prow = pivots[c]
        out[:] = [Fraction(prow[j], prow[c]) if j in prow else _ZERO for j in range(ncols)]
    for out in rows[len(columns):]:
        out[:] = [_ZERO] * ncols
    return columns


FIELD_BITS = 32  # bits per variable in a packed exponent, the guard bit included;
# `unpack` reads each field as an unsigned 32-bit int


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


@functools.lru_cache(maxsize=None)
def _fields(nvars):
    return struct.Struct(f">{nvars}I")


def unpack(packed, nvars):
    """The exponent tuple of a packed exponent in `nvars` variables, read
    from its big-endian bytes as `nvars` unsigned fields."""
    return _fields(nvars).unpack(packed.to_bytes(4 * nvars, "big"))


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
